// Structural (XPath step) joins over the pre/size/level encoding.
//
// These implement the staircase-join operator family of the paper's
// Table 1: D_k/axis(C, S). Two variants are provided:
//
//  * StructuralJoinPairs — pair-producing, per outer row, in input-row
//    order; this is the form used to extend materialized component
//    relations and for cut-off sampled execution. It is zero-investment
//    with respect to the context input C: per context node only its
//    axis-local region (children, subtree range, parent chain, index
//    range) is touched, never the full document.
//
//  * StructuralJoinDistinct — classic staircase semantics: given a
//    duplicate-free, document-ordered context, produce the duplicate-
//    free, document-ordered result node set, pruning overlapping context
//    ranges (the "staircase" trick) for descendant/ancestor axes.
//
// Axis semantics notes: attribute nodes live inline in the pre numbering
// (directly after their owner element) but are excluded from all axes
// except `attribute` and `self`, matching XPath. The document node can
// appear on ancestor axes.

#ifndef ROX_EXEC_STRUCTURAL_JOIN_H_
#define ROX_EXEC_STRUCTURAL_JOIN_H_

#include <span>

#include "engine/governor.h"
#include "exec/join_result.h"
#include "exec/kernel_batch.h"
#include "index/element_index.h"
#include "xml/document.h"

namespace rox {

// An XPath step test: axis plus node test (kind and optional name).
struct StepSpec {
  Axis axis = Axis::kChild;
  KindTest kind = KindTest::kAnyKind;
  StringId name = kInvalidStringId;  // element/attribute name restriction

  static StepSpec Child(StringId name) {
    return {Axis::kChild, KindTest::kElem, name};
  }
  static StepSpec Descendant(StringId name) {
    return {Axis::kDescendant, KindTest::kElem, name};
  }
  static StepSpec ChildText() {
    return {Axis::kChild, KindTest::kText, kInvalidStringId};
  }
  static StepSpec Attribute(StringId name) {
    return {Axis::kAttribute, KindTest::kAttr, name};
  }
};

// Pair-producing structural join. For each context row (in order), emits
// (row index, matched node) for every node of `doc` reachable via
// `step`, result nodes in document order within a row. Stops once
// `limit` pairs were produced (kNoLimit = unlimited). If `index` is
// non-null it accelerates name-tested descendant/following/preceding
// steps with range lookups. A non-null `cancel` token is polled once per
// kCancelCheckRows pairs and stops the join through the truncation
// protocol (DESIGN.md §13). The context is processed in
// kKernelBatchRows batches and the contiguous index-range matches are
// bulk-appended (DESIGN.md §14).
JoinPairs StructuralJoinPairs(const Document& doc,
                              std::span<const Pre> context,
                              const StepSpec& step, uint64_t limit = kNoLimit,
                              const ElementIndex* index = nullptr,
                              const CancellationToken* cancel = nullptr);

// Allocation-free variant: clears and refills `out`, reusing its
// buffers' capacity. Hot callers (the sampled-execution loops) keep one
// scratch JoinPairs alive across calls instead of allocating per probe.
// `context` may be a view column (a selection vector), so views join
// without a gather.
void StructuralJoinPairsInto(const Document& doc, const PreColumn& context,
                             const StepSpec& step, uint64_t limit,
                             const ElementIndex* index, JoinPairs& out,
                             const CancellationToken* cancel = nullptr);

// Distinct-result staircase join: `context` must be duplicate-free and
// sorted by pre. Returns the distinct result node set in document order.
std::vector<Pre> StructuralJoinDistinct(const Document& doc,
                                        std::span<const Pre> context,
                                        const StepSpec& step,
                                        const ElementIndex* index = nullptr);

// True iff node `s` is reachable from context node `c` via `step`.
// Used to evaluate a step edge that closes a cycle inside an already
// joined component (a per-row filter instead of a join).
bool NodeMatchesStep(const Document& doc, Pre c, Pre s, const StepSpec& step);

// True iff node `s` passes the kind/name node test of `step`.
bool NodeMatchesTest(const Document& doc, Pre s, const StepSpec& step);

}  // namespace rox

#endif  // ROX_EXEC_STRUCTURAL_JOIN_H_
