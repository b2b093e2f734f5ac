// Per-shard fan-out wrappers around the physical join operators.
//
// A full (un-cut-off) materialization step takes a document-ordered
// context/probe node list and produces a JoinPairs. The wrappers here
// split that input — at the shard node-id boundaries for structural
// joins (pre-locality), into K order-preserving chunks for value joins
// (the probe side of an equi-join is sometimes an intermediate column
// that is not pre-sorted) — run the underlying operator per part on
// the shard pool, and merge the partial results by concatenation with
// a row-offset fix-up.
//
// Because each part processes a disjoint, order-contiguous slice of
// the input and the underlying operators emit pairs grouped by input
// row, the merged JoinPairs is byte-for-byte the sequential operator's
// output: sharded execution changes wall-clock time, never results.
//
// Cut-off (sampled) executions are deliberately NOT fanned out: their
// outputs are bounded by tau and the cut-off protocol ("stop after l
// tuples") is inherently sequential.
//
// Epochs (DESIGN.md §10): every wrapper receives the ShardedExec
// bundle of the query's *pinned* snapshot — one bundle per published
// epoch, packaged and kept alive with the corpus and sharded view it
// points at — so a publish mid-query can never swap the indexes a
// fan-out is reading.

#ifndef ROX_EXEC_SHARDED_EXEC_H_
#define ROX_EXEC_SHARDED_EXEC_H_

#include <span>
#include <vector>

#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/sharded_corpus.h"

namespace rox {

// Fan-out counters: how many materialization steps actually fanned out
// and how many rows each shard (or chunk) lane produced across them.
// The sequential fallbacks leave the stats untouched, so `fanouts`
// counts real parallel executions only.
struct ShardFanoutStats {
  uint64_t fanouts = 0;
  std::vector<uint64_t> shard_rows;

  // The most recent real fan-out: its width (lanes) and the rows each
  // lane produced. The query trace reads these right after an edge
  // execution to record that edge's fan-out payload (obs/trace.h);
  // callers reset them before executing when they want the per-edge
  // delta. Sequential fallbacks leave them untouched.
  uint64_t last_lanes = 0;
  std::vector<uint64_t> last_lane_rows;

  void ResetLastFanout() {
    last_lanes = 0;
    last_lane_rows.clear();
  }

  void Merge(const ShardFanoutStats& other) {
    fanouts += other.fanouts;
    if (shard_rows.size() < other.shard_rows.size()) {
      shard_rows.resize(other.shard_rows.size(), 0);
    }
    for (size_t s = 0; s < other.shard_rows.size(); ++s) {
      shard_rows[s] += other.shard_rows[s];
    }
  }
};

// Un-merged fan-out output: one JoinPairs per lane (shard or chunk),
// in input order, plus each lane's input-row offset. ROX consumes the
// parts directly — flattening them once into arena-backed view columns
// with the offsets applied — instead of paying a merge copy followed
// by a gather copy. `Merged()` recovers the sequential operator's
// byte-identical JoinPairs for callers that want one pair list.
struct ShardedJoinParts {
  std::vector<JoinPairs> parts;
  std::vector<uint32_t> offsets;  // input-row offset per lane
  uint64_t outer_total = 0;

  uint64_t size() const {
    uint64_t n = 0;
    for (const JoinPairs& p : parts) n += p.size();
    return n;
  }

  // Concatenates the lanes, shifting each lane's left_rows by its
  // offset — exactly the sequential operator's output.
  JoinPairs Merged() &&;
};

// Structural join fanned out at the shard boundaries of `ctx_doc` (the
// document the context nodes belong to; for step edges it equals the
// target document). `context` must be pre-sorted — vertex tables T(v)
// always are. Falls back to a single sequential lane when `ex` is null
// or has a single shard.
//
// All wrappers accept an optional CancellationToken, handed to every
// lane's kernel: the lanes poll the shared token independently, so the
// first trip stops the siblings within one polling interval. Partial
// lane outputs are merged as usual; callers re-check the token before
// consuming the merge (DESIGN.md §13).
//
// The probe-side fan-outs take a PreColumn, so a ResultView column
// feeds the lanes without an intermediate gather (each lane probes a
// positional Sub slice); a span or vector converts implicitly.
ShardedJoinParts ShardedStructuralJoinParts(
    const ShardedExec* ex, DocId ctx_doc, const Document& target_doc,
    std::span<const Pre> context, const StepSpec& step,
    const ElementIndex* index, ShardFanoutStats* stats,
    const CancellationToken* cancel = nullptr);

// Hash equi-join with a single shared build side and per-chunk
// parallel probes (the probe side need not be sorted).
ShardedJoinParts ShardedHashValueJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    std::span<const Pre> inner, ShardFanoutStats* stats,
    const CancellationToken* cancel = nullptr);

// Index nested-loop equi-join with per-chunk parallel probes into the
// (full) inner value index.
ShardedJoinParts ShardedValueIndexJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    const ValueIndex& inner_index, const ValueProbeSpec& spec,
    ShardFanoutStats* stats, const CancellationToken* cancel = nullptr);

// Theta join (`op` != kEq) with per-chunk parallel probes into the
// inner index's pre-sorted runs (see value_join.h). Probing is
// read-only on the index, so lanes share it without synchronization.
ShardedJoinParts ShardedValueIndexThetaJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    std::span<const Pre> outer, const Document& inner_doc,
    const ValueIndex& inner_index, const ValueProbeSpec& spec, CmpOp op,
    ShardFanoutStats* stats, const CancellationToken* cancel = nullptr);

// Theta join against a materialized inner node list: builds the sorted
// ThetaRun once, then probes it from per-chunk parallel lanes (the
// theta counterpart of the shared-build hash fan-out).
ShardedJoinParts ShardedSortThetaJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    std::span<const Pre> outer, const Document& inner_doc,
    std::span<const Pre> inner, CmpOp op, ShardFanoutStats* stats,
    const CancellationToken* cancel = nullptr);

// Merged wrappers over the Parts functions (the classical executor's
// entry points). A single-lane fallback returns the lane's pairs
// directly, without a merge copy.
JoinPairs ShardedStructuralJoinPairs(
    const ShardedExec* ex, DocId ctx_doc, const Document& target_doc,
    std::span<const Pre> context, const StepSpec& step,
    const ElementIndex* index, ShardFanoutStats* stats,
    const CancellationToken* cancel = nullptr);

JoinPairs ShardedHashValueJoinPairs(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    std::span<const Pre> inner, ShardFanoutStats* stats,
    const CancellationToken* cancel = nullptr);

JoinPairs ShardedValueIndexJoinPairs(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    const ValueIndex& inner_index, const ValueProbeSpec& spec,
    ShardFanoutStats* stats, const CancellationToken* cancel = nullptr);

}  // namespace rox

#endif  // ROX_EXEC_SHARDED_EXEC_H_
