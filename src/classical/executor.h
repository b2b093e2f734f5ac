// Fixed-plan executor for the DBLP 4-way author join, and the
// histogram-based join-size calculator used to rank join orders.
//
// This is the "static plan" side of the paper's experiments: given an
// equi-join order and a canonical step placement, execute the plan with
// the same physical operators ROX uses (index lookups, child steps,
// hash / index nested-loop value joins) but in a fixed order decided up
// front — no sampling, no adaptation.

#ifndef ROX_CLASSICAL_EXECUTOR_H_
#define ROX_CLASSICAL_EXECUTOR_H_

#include <vector>

#include "classical/plans.h"
#include "common/status.h"
#include "engine/governor.h"
#include "index/corpus.h"
#include "index/sharded_corpus.h"
#include "obs/trace.h"

namespace rox {

// Measurements of one plan execution.
struct PlanRunStats {
  // Result rows after each equi-join, in execution order.
  std::vector<uint64_t> join_result_sizes;
  // Σ join_result_sizes — the paper's "cumulative (intermediate) join
  // result cardinality" (Figure 5's y-axis).
  uint64_t cumulative_join_rows = 0;
  // Final result rows (after all steps and joins).
  uint64_t result_rows = 0;
  double elapsed_ms = 0.0;
};

// Executes canonical plans of the query
//   for $ai in doc(Di)//author ... where $a1/text() = $ai/text()
// over exactly 4 documents.
class CanonicalPlanExecutor {
 public:
  // `sharded`, when non-null and covering >1 shard, fans the author
  // steps and value joins of every plan out per shard — the fixed
  // *logical* plan (join order, step placement) is untouched, so the
  // measured plan-class ratios stay comparable; only wall-clock
  // changes. Must outlive the executor. `lazy` (the default) keeps
  // partition intermediates as selection-vector views over a per-run
  // arena instead of row-copying at every join/filter; join sizes and
  // result counts are identical either way (DESIGN.md §8).
  CanonicalPlanExecutor(const Corpus& corpus, std::vector<DocId> docs,
                        const ShardedExec* sharded = nullptr,
                        bool lazy = true);

  // Runs one (join order, step placement) plan.
  Result<PlanRunStats> Run(const JoinOrder& order,
                           StepPlacement placement) const;

  // Fastest of the three canonical placements for `order` (the form the
  // paper plots for the smallest/classical/ROX join-order classes).
  Result<PlanRunStats> RunBestPlacement(const JoinOrder& order) const;
  // Slowest of the three (used for the "largest" class).
  Result<PlanRunStats> RunWorstPlacement(const JoinOrder& order) const;

  // Flight recorder for subsequent Run() calls (null = off, the
  // default): each run opens a "plan" span annotated with the order
  // label and placement; every join records a per-join "join" event
  // with its result size. Same contract as RoxOptions::query_trace —
  // recorded from the calling thread only, must outlive the runs.
  void set_trace(obs::QueryTrace* trace) { trace_ = trace; }

  // Cooperative cancellation for subsequent Run() calls (null = off,
  // the default). The token is handed to every join kernel and checked
  // after each join; a tripped run returns the token's governance
  // Status (DESIGN.md §13). Same lifetime contract as set_trace.
  void set_cancel(const CancellationToken* cancel) { cancel_ = cancel; }

 private:
  const Corpus& corpus_;
  std::vector<DocId> docs_;
  StringId author_;
  const ShardedExec* sharded_;
  bool lazy_;
  obs::QueryTrace* trace_ = nullptr;
  const CancellationToken* cancel_ = nullptr;
};

// Cumulative join cardinality of a join order computed purely from the
// per-document author-value histograms (no plan execution): the join
// result sizes are Σ_v Π f_di(v) over the documents joined so far.
struct OrderCardinality {
  JoinOrder order;
  std::vector<uint64_t> join_sizes;
  uint64_t cumulative = 0;
};

std::vector<OrderCardinality> ComputeOrderCardinalities(
    const Corpus& corpus, const std::vector<DocId>& docs);

// The join order an exact-per-document, correlation-blind classical
// optimizer picks: linear, smallest author sets first (§4.2).
JoinOrder ClassicalJoinOrder(const Corpus& corpus,
                             const std::vector<DocId>& docs);

}  // namespace rox

#endif  // ROX_CLASSICAL_EXECUTOR_H_
