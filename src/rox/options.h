// Tunables of the ROX run-time optimizer. Defaults follow the paper;
// the flags marked "ablation" switch off individual design decisions so
// their contribution can be benchmarked (see DESIGN.md §5).

#ifndef ROX_ROX_OPTIONS_H_
#define ROX_ROX_OPTIONS_H_

#include <cstdint>
#include <vector>

namespace rox {

namespace obs {
class QueryTrace;
}

class CancellationToken;
class MemoryBudget;
struct ShardedExec;

struct RoxOptions {
  // Sample size τ. The paper's default (§3, Phase 1) is 100; Figure 8
  // sweeps {25, 100, 400}.
  uint64_t tau = 100;

  // Ablation: when false, ChainSample degenerates to "execute the
  // edge with the smallest weight" (a purely greedy optimizer).
  bool enable_chain_sampling = true;

  // Ablation: when false, weights of edges incident to executed
  // vertices are scaled by the observed cardinality ratio instead of
  // being re-sampled — i.e. the independence assumption the paper warns
  // against (§3: "simply adjusting the already computed weights ...
  // implies an independence assumption").
  bool resample_after_execute = true;

  // Ablation: when false, the chain-sampling cut-off stays at τ instead
  // of growing by τ each round (§3.1's front-bias mitigation).
  bool grow_cutoff = true;

  // Use element-index range lookups to accelerate descendant steps.
  bool use_index_acceleration = true;

  // §6 extension (present in the paper's prototype): after deciding to
  // execute an edge, try the applicable physical operators on a τ-sample
  // and run the full edge with the fastest one — step edges choose their
  // direction (e.g. child vs parent staircase join), materialized
  // equi-joins choose between hash, merge and index nested-loop.
  bool timed_operator_selection = true;

  // Safety bound on breadth-first chain-sampling rounds.
  uint64_t max_chain_rounds = 64;

  // §6 extension ("run ROX with samples instead of the complete data"):
  // when in (0, 1), vertex tables are materialized as uniform samples
  // of this fraction of the full index lookup (never below τ nodes).
  // The run then produces an *approximate* subset of the result with
  // much smaller intermediates — useful for cheap result-size
  // estimation; 0 disables (exact execution).
  double approximate_fraction = 0.0;

  // Warm start (the engine's plan/weight cache). When `warm_edge_weights`
  // is non-null, `use_warm_start` is true, and the vector is sized to the
  // graph's edge count, Phase 1 adopts each cached entry >= 0 as the
  // edge's initial weight instead of estimating it by sampled execution —
  // reusing the weights a previous run of the same query learned.
  // Ablation: set `use_warm_start` to false to always pay the full
  // Phase 1 sampling cost even when cached weights are available.
  // Warm starting never changes the query result, only which join order
  // is explored first (see DESIGN.md §5/§6).
  bool use_warm_start = true;
  const std::vector<double>* warm_edge_weights = nullptr;

  // Sharded intra-query execution (see index/sharded_corpus.h). When
  // non-null and covering >1 shard, every full materialization step
  // fans out per shard on the bundle's pool and Phase-1 sample draws
  // go to the bundle's designated sample shard. Null (the default)
  // executes exactly as the unsharded paper prototype. Results are
  // identical either way; only wall-clock time changes.
  const ShardedExec* sharded = nullptr;

  // Late materialization (DESIGN.md §8): edge executions and the final
  // assembly keep intermediates as selection-vector views over arena-
  // backed base columns, and full row gather happens once, at the plan
  // tail. Results are byte-identical to the eager path; only wall-clock
  // time and allocation volume change. The eager path is retained for
  // differential testing and as the perf baseline of
  // bench_materialization.
  bool lazy_materialization = true;

  // Seed for all sampling randomness; a fixed seed makes runs exactly
  // reproducible.
  uint64_t seed = 0x9e3779b9;

  // Print per-decision traces to stderr.
  bool trace = false;

  // Per-query flight recorder (obs/trace.h). When non-null, the
  // optimizer and state record spans and per-edge payloads into it —
  // from the query's thread only, so one trace serves one query. Null
  // (the default) records nothing; every instrumentation site is a
  // single null check.
  obs::QueryTrace* query_trace = nullptr;

  // Query-lifecycle governance (DESIGN.md §13). When non-null, the
  // optimizer polls the token at round/edge boundaries and hands it to
  // every kernel for amortized in-loop checks; a trip unwinds the run
  // with the token's Status (kCancelled / kDeadlineExceeded /
  // kResourceExhausted). Null (the default) runs unbounded, exactly as
  // before. The token is read-only here; the engine owns arming.
  const CancellationToken* cancel = nullptr;

  // When non-null, every byte the run's column arena reserves and every
  // eager pair-result materialization is charged here. The budget
  // latches instead of failing allocations; the token above (which
  // should observe the same budget) converts the latch into
  // kResourceExhausted at the next checkpoint.
  MemoryBudget* budget = nullptr;
};

}  // namespace rox

#endif  // ROX_ROX_OPTIONS_H_
