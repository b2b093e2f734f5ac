// Value-based equi-join operators and value selection predicates.
//
// The paper's relational join edges compare node *values*: text-node
// content, attribute values, or (through the single text child) element
// content. Three physical algorithms are provided, mirroring Table 1:
//
//  * ValueIndexJoinPairs — nested-loop index lookup through the inner
//    document's value index: zero-investment w.r.t. the outer input,
//    hence usable for cut-off sampling (cost |C| + |R|).
//  * HashValueJoinPairs  — builds a hash table on the inner input
//    (cost |C| + |S| + |R|); not zero-investment, used only for full
//    edge execution, never for sampling.
//  * MergeValueJoinPairs — merge join over inputs sorted by value id
//    (cost min(|C|,|S|) + |R| when the inner is pre-sorted).
//
// Batched execution (DESIGN.md §14): every probe kernel processes the
// outer input in fixed-size batches of kKernelBatchRows rows — one
// value pre-pass materializes NodeValue (and, for range joins, each
// row's run boundaries) for the whole batch into flat arrays, then the
// probe/emission loop runs over those arrays with bulk appends wherever
// the match set is a contiguous span (index runs, hash-table payload
// groups, range-join prefixes or suffixes). The pairs, truncation flags
// and outer_consumed are pinned for every limit by a brute-force oracle
// (tests/kernel_invariant_test.cc).

#ifndef ROX_EXEC_VALUE_JOIN_H_
#define ROX_EXEC_VALUE_JOIN_H_

#include <span>
#include <vector>

#include "engine/governor.h"
#include "exec/flat_hash.h"
#include "exec/join_result.h"
#include "exec/kernel_batch.h"
#include "index/value_index.h"
#include "xml/document.h"

namespace rox {

// Every kernel below takes an optional CancellationToken. A non-null
// token is polled once per kCancelCheckRows produced (or consumed)
// rows; on a trip the kernel stops early through the same truncation
// protocol a cut-off limit uses (out.truncated set, partial pairs) —
// callers detect governance stops by re-checking the token, never by
// the flag (DESIGN.md §13).

// The interned comparison value of node `p`: the value of a text or
// attribute node, or the single-text-child value of an element
// (kInvalidStringId if the element has 0 or >1 text children).
StringId NodeValue(const Document& doc, Pre p);

// Describes which inner nodes an equi-join probe may match.
struct ValueProbeSpec {
  NodeKind kind = NodeKind::kText;          // kText or kAttr
  StringId attr_name = kInvalidStringId;    // restrict attribute name
  StringId owner_elem = kInvalidStringId;   // restrict attr owner element

  static ValueProbeSpec Text() { return {NodeKind::kText, kInvalidStringId,
                                         kInvalidStringId}; }
  static ValueProbeSpec Attr(StringId name) {
    return {NodeKind::kAttr, name, kInvalidStringId};
  }
};

// Index nested-loop equi-join: for each outer row, probes `inner_index`
// (of `inner_doc`) for nodes with equal value, in document order. Obeys
// the cut-off `limit` like StructuralJoinPairs.
JoinPairs ValueIndexJoinPairs(const Document& outer_doc,
                              std::span<const Pre> outer,
                              const Document& inner_doc,
                              const ValueIndex& inner_index,
                              const ValueProbeSpec& spec,
                              uint64_t limit = kNoLimit,
                              const CancellationToken* cancel = nullptr);

// Allocation-free variant: clears and refills `out`, reusing its
// buffers' capacity (see StructuralJoinPairsInto). `outer` may be a
// lazy view column, so lazy views probe without a gather.
void ValueIndexJoinPairsInto(const Document& outer_doc,
                             const PreColumn& outer,
                             const Document& inner_doc,
                             const ValueIndex& inner_index,
                             const ValueProbeSpec& spec, uint64_t limit,
                             JoinPairs& out,
                             const CancellationToken* cancel = nullptr);

// Hash equi-join: builds value -> inner positions, probes with outer.
// Pairs reference outer rows and inner *nodes*.
JoinPairs HashValueJoinPairs(const Document& outer_doc,
                             std::span<const Pre> outer,
                             const Document& inner_doc,
                             std::span<const Pre> inner,
                             const CancellationToken* cancel = nullptr);

// The build side of the hash equi-join, split out so a sharded
// execution can build the table once and probe it from several threads
// concurrently (Probe is const and allocation-free on the table).
//
// The table is a flat open-addressing map (exec/flat_hash.h) over a
// payload array holding each value's matching nodes contiguously in
// build-input order — built once with two passes (count, scatter), so
// probing returns a bulk-copyable span with no per-probe allocation
// and the emitted pair order is identical to the former per-value
// bucket map.
class ValueHashTable {
 public:
  ValueHashTable(const Document& inner_doc, std::span<const Pre> inner);

  // The build-side nodes whose value is `v`, in build-input order.
  std::span<const Pre> Lookup(StringId v) const {
    const auto* s = by_value_.Find(v);
    if (s == nullptr) return {};
    return {payload_.data() + s->a, s->b};
  }

  // Probes with `outer`; identical to the probe loop of
  // HashValueJoinPairs. Emitted left_rows index into `outer`.
  JoinPairs Probe(const Document& outer_doc, std::span<const Pre> outer,
                  const CancellationToken* cancel = nullptr) const;

  // Allocation-free probe into a caller-reused buffer. `outer` may be a
  // lazy view column (a selection vector).
  void ProbeInto(const Document& outer_doc, const PreColumn& outer,
                 JoinPairs& out,
                 const CancellationToken* cancel = nullptr) const;

 private:
  FlatRunMap<StringId, kInvalidStringId> by_value_;  // a = offset, b = len
  std::vector<Pre> payload_;
};

// --- theta (range / inequality) value joins ---------------------------------
//
// Sort-based kernels for the five non-equality comparison operators
// (DESIGN.md §11). Range operators probe a run of inner entries sorted
// ascending by (numeric value, pre): each outer row binary-searches the
// boundary and emits a contiguous prefix/suffix of the run, so cost is
// O(|outer| log |inner| + |result|). `!=` compares interned string ids
// (like kEq) and scans the inner candidates in document order, skipping
// the equal-valued ones. Two run sources exist:
//  * ValueIndexThetaJoinPairs — reads the inner ValueIndex's pre-sorted
//    numeric projection / all-node lists: zero-investment w.r.t. the
//    outer input, hence usable for cut-off sampling (the theta
//    counterpart of ValueIndexJoinPairs).
//  * ThetaRun::Build + ThetaRunJoinPairsInto — sorts a materialized
//    inner node list once (|inner| log |inner|) and probes the private
//    run; preferable when the inner vertex table has been semi-join-
//    reduced far below the full index run. Probing is const and
//    allocation-free on the run, so sharded lanes share one build.
// Per outer row both sources emit the identical sequence — ascending
// (value, pre) for range operators, document order for `!=` — so every
// execution mode produces the same pairs after table filtering.

// Prebuilt probe target over a materialized inner node list.
struct ThetaRun {
  std::vector<ValueIndex::NumEntry> numeric;  // (value, pre) ascending
  std::vector<Pre> valued;  // nodes with any value, document order

  static ThetaRun Build(const Document& inner_doc,
                        std::span<const Pre> inner);
};

// Index nested-loop theta join through the inner document's value
// index; `op` must not be kEq (equality goes through the hash lookups
// above). Obeys the cut-off `limit` protocol of ValueIndexJoinPairs.
void ValueIndexThetaJoinPairsInto(const Document& outer_doc,
                                  std::span<const Pre> outer,
                                  const Document& inner_doc,
                                  const ValueIndex& inner_index,
                                  const ValueProbeSpec& spec, CmpOp op,
                                  uint64_t limit, JoinPairs& out,
                                  const CancellationToken* cancel = nullptr);
JoinPairs ValueIndexThetaJoinPairs(const Document& outer_doc,
                                   std::span<const Pre> outer,
                                   const Document& inner_doc,
                                   const ValueIndex& inner_index,
                                   const ValueProbeSpec& spec, CmpOp op,
                                   uint64_t limit = kNoLimit,
                                   const CancellationToken* cancel = nullptr);

// Theta probe against a prebuilt run (see ThetaRun::Build).
void ThetaRunJoinPairsInto(const Document& outer_doc,
                           std::span<const Pre> outer,
                           const Document& inner_doc, const ThetaRun& run,
                           CmpOp op, uint64_t limit, JoinPairs& out,
                           const CancellationToken* cancel = nullptr);

// One-shot convenience: Build + probe over a materialized inner list.
JoinPairs SortThetaJoinPairs(const Document& outer_doc,
                             std::span<const Pre> outer,
                             const Document& inner_doc,
                             std::span<const Pre> inner, CmpOp op,
                             uint64_t limit = kNoLimit,
                             const CancellationToken* cancel = nullptr);

// Merge equi-join over inputs that the caller pre-sorted with
// SortByValueId. Produces the same pair multiset as the hash join.
// Materializes both sides' value ids once (one NodeValue per input row
// instead of one per comparison) and bulk-copies each equal-value
// group's cross product.
JoinPairs MergeValueJoinPairs(const Document& outer_doc,
                              std::span<const Pre> outer_sorted,
                              const Document& inner_doc,
                              std::span<const Pre> inner_sorted,
                              const CancellationToken* cancel = nullptr);

// Sorts node list by (value id, pre); nodes without a value sort last
// and never join. Decorate-sort-undecorate: one NodeValue per node,
// not one per comparison.
std::vector<Pre> SortByValueId(const Document& doc, std::span<const Pre> nodes);

// --- selection predicates ---------------------------------------------------

// Nodes whose value equals `v`.
std::vector<Pre> FilterValueEquals(const Document& doc,
                                   std::span<const Pre> nodes, StringId v);

// Nodes whose numeric value lies in `range` (non-numeric values drop).
std::vector<Pre> FilterNumericRange(const Document& doc,
                                    std::span<const Pre> nodes,
                                    const NumericRange& range);

}  // namespace rox

#endif  // ROX_EXEC_VALUE_JOIN_H_
