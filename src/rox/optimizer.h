// The ROX run-time optimizer — Algorithm 1 of the paper.
//
// Phase 1 draws index samples for every index-selectable vertex and
// weighs every edge by cut-off sampled execution. Phase 2 alternates
// chain sampling (search-space exploration) with the full, materialized
// execution of the winning path segment, re-sampling the affected edge
// weights after every execution, until all edges are executed.

#ifndef ROX_ROX_OPTIMIZER_H_
#define ROX_ROX_OPTIMIZER_H_

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/result_table.h"
#include "graph/join_graph.h"
#include "index/corpus.h"
#include "rox/chain_sampler.h"
#include "rox/options.h"
#include "rox/state.h"

namespace rox {

// Outcome of a ROX run.
struct RoxResult {
  // The fully joined relation; columns_[] maps column index -> vertex.
  ResultTable table;
  std::vector<VertexId> columns;
  RoxStats stats;
  // w(e) as each edge last estimated it before execution — the learned
  // weights. An engine cache can feed them back into a later run of the
  // same graph via RoxOptions::warm_edge_weights (<0: never weighted).
  std::vector<double> final_edge_weights;

  // Convenience: index of vertex `v`'s column, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t ColumnOf(VertexId v) const {
    if (column_index_.size() == columns.size()) {
      auto it = std::lower_bound(
          column_index_.begin(), column_index_.end(),
          std::make_pair(v, static_cast<size_t>(0)),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      // The mapped-back check keeps lookups correct even if `columns`
      // was mutated in place without IndexColumns() (the index is then
      // stale but same-sized); such lookups fall through to the scan.
      if (it != column_index_.end() && it->first == v &&
          it->second < columns.size() && columns[it->second] == v) {
        return it->second;
      }
    }
    // Hand-built or stale-indexed results: linear scan.
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == v) return i;
    }
    return npos;
  }

  // (Re)builds the sorted vertex -> column index behind ColumnOf.
  // RoxOptimizer::Run calls this; call it again after mutating
  // `columns` by hand.
  void IndexColumns() {
    column_index_.clear();
    column_index_.reserve(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      column_index_.emplace_back(columns[i], i);
    }
    std::sort(column_index_.begin(), column_index_.end());
  }

 private:
  // Sorted by vertex id; kept in sync with `columns` by IndexColumns().
  std::vector<std::pair<VertexId, size_t>> column_index_;
};

// Outcome of RunView: the fully joined relation as an
// un-gathered view over optimizer-owned storage (DESIGN.md §8). The
// view stays valid until the optimizer is destroyed or Run/RunView is
// called again; columns of vertices outside the requested output set
// may be dead (never materialized) and must not be read.
struct RoxViewResult {
  ResultView view;
  std::vector<VertexId> columns;
  RoxStats stats;
  std::vector<double> final_edge_weights;
};

class RoxOptimizer {
 public:
  // The snapshot is pinned for the optimizer's lifetime (threaded into
  // the RoxState); an implicit unowned snapshot from `const Corpus&`
  // keeps single-epoch callers unchanged.
  RoxOptimizer(CorpusSnapshot snapshot, const JoinGraph& graph,
               RoxOptions options = {});

  // Runs the full optimize-and-execute loop. The final relation is
  // assembled as views and gathered once here.
  Result<RoxResult> Run();

  // Like Run() but stops before the terminal gather —
  // `output_vertices` are the vertices whose columns the caller will
  // read. The caller gathers exactly what it needs (e.g. the plan
  // tail's for-variable columns) and nothing else ever materializes.
  Result<RoxViewResult> RunView(std::span<const VertexId> output_vertices);

  // Phase 1 only: validates the graph, draws the index samples and
  // estimates every edge weight, executing nothing. state() then
  // exposes the sampled cardinalities and weights — the EXPLAIN
  // surface's estimates. A Prepare()d optimizer can still Run(): the
  // loop reuses the prepared state instead of re-sampling.
  Status Prepare();

  // Access to the live state (after Run) for diagnostics.
  const RoxState& state() const { return *state_; }

  // When set before Run(), every ChainSample invocation appends its
  // diagnostic trace here (used by the Table 2 bench to print the
  // per-round (cost, sf) table).
  void set_trace_log(std::vector<ChainSampleTrace>* log) { trace_log_ = log; }

 private:
  // Executes the edges of a winning path segment. Within the segment,
  // edges are executed cheapest-first among those already connected to
  // materialized data (§3.1: the segment "is treated as a separate Join
  // Graph" and executed in its best order).
  Status ExecutePath(const std::vector<EdgeId>& path);

  // The optimize-and-execute loop shared by Run and RunView: validates
  // the graph, runs Phase 1 and executes all edges (Phase 2), leaving
  // the pair results in state_ ready for final assembly.
  Status RunLoop();

  // Copies the learned edge weights out of state_.
  std::vector<double> FinalEdgeWeights() const;

  CorpusSnapshot snapshot_;  // declared before corpus_ (it points in)
  const Corpus& corpus_;
  const JoinGraph& graph_;
  RoxOptions options_;
  std::unique_ptr<RoxState> state_;
  std::vector<ChainSampleTrace>* trace_log_ = nullptr;
};

}  // namespace rox

#endif  // ROX_ROX_OPTIMIZER_H_
