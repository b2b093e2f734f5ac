#include "exec/value_join.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "exec/kernel_batch.h"

namespace rox {

StringId NodeValue(const Document& doc, Pre p) {
  switch (doc.Kind(p)) {
    case NodeKind::kText:
    case NodeKind::kAttr:
    case NodeKind::kComment:
    case NodeKind::kPi:
      return doc.Value(p);
    case NodeKind::kElem:
      return doc.SingleTextChildValue(p);
    case NodeKind::kDoc:
      return kInvalidStringId;
  }
  return kInvalidStringId;
}

namespace {

// The attribute-name / owner-element restriction of a probe spec.
// Text probes have no restriction. Shared by the equality and theta
// index kernels so the spec semantics cannot diverge.
bool MatchesProbeSpec(const Document& inner_doc, const ValueProbeSpec& spec,
                      Pre s) {
  if (spec.kind == NodeKind::kText) return true;
  if (spec.attr_name != kInvalidStringId &&
      inner_doc.Name(s) != spec.attr_name) {
    return false;
  }
  return spec.owner_elem == kInvalidStringId ||
         inner_doc.Name(inner_doc.Parent(s)) == spec.owner_elem;
}

// Amortized governance poll: due once per kCancelCheckRows rows. The
// first poll waits a full interval, so τ-sized sampling calls never
// pay the token's clock read.
inline bool CancelCheckDue(uint64_t count) {
  return (count & (kCancelCheckRows - 1)) == 0;
}

// Value pre-pass of one batch: vals[b] = NodeValue(outer[i0 + b]).
// One tight loop per batch keeps the Kind/Value accesses hot instead
// of interleaving them with emission.
void BatchNodeValues(const Document& doc, const PreColumn& outer, size_t i0,
                     size_t bn, StringId* vals) {
  for (size_t b = 0; b < bn; ++b) vals[b] = NodeValue(doc, outer[i0 + b]);
}

// Batched-loop governance poll at a batch boundary: stops with the
// clean prefix [0, i0) — only between rows, so no partial row to
// discard. Skipped at i0 == 0 (first poll waits a full interval).
bool BatchBoundaryStop(size_t i0, const CancellationToken* cancel,
                       JoinPairs& out) {
  if (i0 == 0 || !StopRequested(cancel)) return false;
  out.truncated = true;
  out.outer_consumed = i0;
  return true;
}

}  // namespace

// --- equi index probe -------------------------------------------------------

void ValueIndexJoinPairsInto(const Document& outer_doc,
                             const PreColumn& outer,
                             const Document& inner_doc,
                             const ValueIndex& inner_index,
                             const ValueProbeSpec& spec, uint64_t limit,
                             JoinPairs& out,
                             const CancellationToken* cancel) {
  // Same limit+1 sentinel protocol as StructuralJoinPairs.
  out.Clear();
  out.Reserve(limit != kNoLimit ? limit + 1 : outer.size());
  StringId vals[kKernelBatchRows];
  BatchEmitter em(out, limit, cancel);
  const bool text = spec.kind == NodeKind::kText;
  for (size_t i0 = 0; i0 < outer.size(); i0 += kKernelBatchRows) {
    if (BatchBoundaryStop(i0, cancel, out)) return;
    size_t bn = std::min(kKernelBatchRows, outer.size() - i0);
    BatchNodeValues(outer_doc, outer, i0, bn, vals);
    for (size_t b = 0; b < bn; ++b) {
      StringId v = vals[b];
      if (v == kInvalidStringId) continue;
      uint32_t row = static_cast<uint32_t>(i0 + b);
      BatchEmitter::Stop stop = BatchEmitter::Stop::kNone;
      if (text) {
        // Text probes match the whole index run: one bulk append.
        stop = em.Append(row, inner_index.TextLookup(v));
      } else {
        for (Pre s : inner_index.AttrLookup(v)) {
          if (!MatchesProbeSpec(inner_doc, spec, s)) continue;
          stop = em.Push(row, s);
          if (stop != BatchEmitter::Stop::kNone) break;
        }
      }
      if (stop != BatchEmitter::Stop::kNone) {
        StampTruncationStop(out, limit, i0 + b);
        return;
      }
    }
  }
  out.truncated = false;
  out.outer_consumed = outer.size();
}

JoinPairs ValueIndexJoinPairs(const Document& outer_doc,
                              std::span<const Pre> outer,
                              const Document& inner_doc,
                              const ValueIndex& inner_index,
                              const ValueProbeSpec& spec, uint64_t limit,
                              const CancellationToken* cancel) {
  JoinPairs out;
  ValueIndexJoinPairsInto(outer_doc, outer, inner_doc, inner_index, spec,
                          limit, out, cancel);
  return out;
}

// --- theta kernels ----------------------------------------------------------

namespace {

// The [begin, end) slice of the sorted run matching
// `outer_value op inner_value` — the suffix of inner values above the
// boundary for kLt/kLe, the prefix below it for kGt/kGe.
std::pair<size_t, size_t> RangeBounds(
    std::span<const ValueIndex::NumEntry> run, double v, CmpOp op) {
  auto val_less = [](const ValueIndex::NumEntry& e, double x) {
    return e.value < x;
  };
  auto less_val = [](double x, const ValueIndex::NumEntry& e) {
    return x < e.value;
  };
  size_t begin = 0, end = run.size();
  switch (op) {
    case CmpOp::kLt:  // inner values > v
      begin = static_cast<size_t>(
          std::upper_bound(run.begin(), run.end(), v, less_val) -
          run.begin());
      break;
    case CmpOp::kLe:  // inner values >= v
      begin = static_cast<size_t>(
          std::lower_bound(run.begin(), run.end(), v, val_less) -
          run.begin());
      break;
    case CmpOp::kGt:  // inner values < v
      end = static_cast<size_t>(
          std::lower_bound(run.begin(), run.end(), v, val_less) -
          run.begin());
      break;
    case CmpOp::kGe:  // inner values <= v
      end = static_cast<size_t>(
          std::upper_bound(run.begin(), run.end(), v, less_val) -
          run.begin());
      break;
    case CmpOp::kEq:
    case CmpOp::kNe:
      begin = end = 0;  // handled by the callers' string-id paths
      break;
  }
  return {begin, end};
}

// The probe loop of both theta kernels, including the limit+1
// truncation protocol of ValueIndexJoinPairsInto. `keep` filters inner
// candidates (attribute-name restriction on index runs); `ne_nodes` /
// `ne_value` provide the document-order candidate scan of `!=`. Per
// batch, one value pre-pass materializes the interned ids into a flat
// array, a second flat loop reads each row's cached numeric
// interpretation and binary-searches its run boundaries, and the
// emission sweep bulk-copies each row's contiguous run slice
// (`keep_trivial` — text runs and private ThetaRuns have no filter).
template <typename Keep, typename NeValueOf>
void ThetaProbe(const Document& outer_doc, const PreColumn& outer, CmpOp op,
                uint64_t limit, std::span<const ValueIndex::NumEntry> run,
                const Keep& keep, bool keep_trivial,
                std::span<const Pre> ne_nodes, const NeValueOf& ne_value,
                JoinPairs& out, const CancellationToken* cancel) {
  ROX_DCHECK(op != CmpOp::kEq);
  out.Clear();
  out.Reserve(limit != kNoLimit ? limit + 1 : outer.size());
  const StringPool& pool = outer_doc.pool();
  StringId vals[kKernelBatchRows];
  uint32_t begins[kKernelBatchRows];
  uint32_t ends[kKernelBatchRows];
  BatchEmitter em(out, limit, cancel);
  const bool is_ne = op == CmpOp::kNe;
  for (size_t i0 = 0; i0 < outer.size(); i0 += kKernelBatchRows) {
    if (BatchBoundaryStop(i0, cancel, out)) return;
    size_t bn = std::min(kKernelBatchRows, outer.size() - i0);
    BatchNodeValues(outer_doc, outer, i0, bn, vals);
    if (is_ne) {
      for (size_t b = 0; b < bn; ++b) {
        StringId v = vals[b];
        if (v == kInvalidStringId) continue;
        uint32_t row = static_cast<uint32_t>(i0 + b);
        BatchEmitter::Stop stop = BatchEmitter::Stop::kNone;
        for (Pre s : ne_nodes) {
          if (!keep(s) || ne_value(s) == v) continue;
          stop = em.Push(row, s);
          if (stop != BatchEmitter::Stop::kNone) break;
        }
        if (stop != BatchEmitter::Stop::kNone) {
          StampTruncationStop(out, limit, i0 + b);
          return;
        }
      }
      continue;
    }
    // Numeric pre-pass, then the boundary-search pass: two flat loops
    // over the batch arrays (ends[b] == begins[b] marks no-match rows).
    for (size_t b = 0; b < bn; ++b) {
      begins[b] = ends[b] = 0;
      if (vals[b] == kInvalidStringId) continue;
      auto num = pool.NumericValue(vals[b]);
      if (!num.has_value()) continue;
      auto [lo, hi] = RangeBounds(run, *num, op);
      begins[b] = static_cast<uint32_t>(lo);
      ends[b] = static_cast<uint32_t>(hi);
    }
    // Emission sweep: bulk-copy each row's run slice.
    for (size_t b = 0; b < bn; ++b) {
      if (begins[b] >= ends[b]) continue;
      uint32_t row = static_cast<uint32_t>(i0 + b);
      BatchEmitter::Stop stop = BatchEmitter::Stop::kNone;
      if (keep_trivial) {
        stop = em.AppendRun(row, run, begins[b], ends[b]);
      } else {
        for (size_t k = begins[b]; k < ends[b]; ++k) {
          if (!keep(run[k].pre)) continue;
          stop = em.Push(row, run[k].pre);
          if (stop != BatchEmitter::Stop::kNone) break;
        }
      }
      if (stop != BatchEmitter::Stop::kNone) {
        StampTruncationStop(out, limit, i0 + b);
        return;
      }
    }
  }
  out.truncated = false;
  out.outer_consumed = outer.size();
}

}  // namespace

ThetaRun ThetaRun::Build(const Document& inner_doc,
                         std::span<const Pre> inner) {
  ThetaRun run;
  run.numeric.reserve(inner.size());
  run.valued.reserve(inner.size());
  const StringPool& pool = inner_doc.pool();
  for (Pre s : inner) {
    StringId v = NodeValue(inner_doc, s);
    if (v == kInvalidStringId) continue;
    run.valued.push_back(s);
    if (auto num = pool.NumericValue(v)) run.numeric.push_back({*num, s});
  }
  std::sort(run.numeric.begin(), run.numeric.end(),
            [](const ValueIndex::NumEntry& a, const ValueIndex::NumEntry& b) {
              return a.value < b.value || (a.value == b.value && a.pre < b.pre);
            });
  return run;
}

void ValueIndexThetaJoinPairsInto(const Document& outer_doc,
                                  std::span<const Pre> outer,
                                  const Document& inner_doc,
                                  const ValueIndex& inner_index,
                                  const ValueProbeSpec& spec, CmpOp op,
                                  uint64_t limit, JoinPairs& out,
                                  const CancellationToken* cancel) {
  const bool text = spec.kind == NodeKind::kText;
  std::span<const ValueIndex::NumEntry> run =
      text ? inner_index.NumericTextRun() : inner_index.NumericAttrRun();
  std::span<const Pre> all =
      text ? inner_index.AllTextNodes() : inner_index.AllAttrNodes();
  auto keep = [&](Pre s) { return MatchesProbeSpec(inner_doc, spec, s); };
  auto ne_value = [&](Pre s) { return inner_doc.Value(s); };
  ThetaProbe(outer_doc, outer, op, limit, run, keep, /*keep_trivial=*/text,
             all, ne_value, out, cancel);
}

JoinPairs ValueIndexThetaJoinPairs(const Document& outer_doc,
                                   std::span<const Pre> outer,
                                   const Document& inner_doc,
                                   const ValueIndex& inner_index,
                                   const ValueProbeSpec& spec, CmpOp op,
                                   uint64_t limit,
                                   const CancellationToken* cancel) {
  JoinPairs out;
  ValueIndexThetaJoinPairsInto(outer_doc, outer, inner_doc, inner_index,
                               spec, op, limit, out, cancel);
  return out;
}

void ThetaRunJoinPairsInto(const Document& outer_doc,
                           std::span<const Pre> outer,
                           const Document& inner_doc, const ThetaRun& run,
                           CmpOp op, uint64_t limit, JoinPairs& out,
                           const CancellationToken* cancel) {
  auto keep = [](Pre) { return true; };
  auto ne_value = [&](Pre s) { return NodeValue(inner_doc, s); };
  ThetaProbe(outer_doc, outer, op, limit,
             std::span<const ValueIndex::NumEntry>(run.numeric), keep,
             /*keep_trivial=*/true, run.valued, ne_value, out, cancel);
}

JoinPairs SortThetaJoinPairs(const Document& outer_doc,
                             std::span<const Pre> outer,
                             const Document& inner_doc,
                             std::span<const Pre> inner, CmpOp op,
                             uint64_t limit, const CancellationToken* cancel) {
  ThetaRun run = ThetaRun::Build(inner_doc, inner);
  JoinPairs out;
  ThetaRunJoinPairsInto(outer_doc, outer, inner_doc, run, op, limit, out,
                        cancel);
  return out;
}

// --- hash equi-join ---------------------------------------------------------

ValueHashTable::ValueHashTable(const Document& inner_doc,
                               std::span<const Pre> inner) {
  by_value_.Reset(inner.size());
  // Pass 1: count each value's group, remembering the per-node values
  // so the scatter pass does not re-derive them.
  std::vector<std::pair<StringId, Pre>> valued;
  valued.reserve(inner.size());
  for (Pre s : inner) {
    StringId v = NodeValue(inner_doc, s);
    if (v == kInvalidStringId) continue;
    valued.emplace_back(v, s);
    ++by_value_.FindOrInsert(v).b;
  }
  // Offsets by prefix sum (hash order — only the *within-group* order
  // matters for emission, and the scatter below fixes that).
  uint32_t off = 0;
  for (auto& slot : by_value_.slots()) {
    if (slot.key == kInvalidStringId) continue;
    slot.a = off;
    off += slot.b;
    slot.b = 0;  // reused as the fill cursor; ends back at the length
  }
  // Pass 2: scatter in input order, so each group holds its nodes in
  // build-input (document) order — the emission order of the former
  // per-value bucket map.
  payload_.resize(valued.size());
  for (const auto& [v, s] : valued) {
    auto& slot = by_value_.FindOrInsert(v);
    payload_[slot.a + slot.b++] = s;
  }
}

void ValueHashTable::ProbeInto(const Document& outer_doc,
                               const PreColumn& outer, JoinPairs& out,
                               const CancellationToken* cancel) const {
  out.Clear();
  out.Reserve(outer.size());
  StringId vals[kKernelBatchRows];
  BatchEmitter em(out, kNoLimit, cancel);
  for (size_t i0 = 0; i0 < outer.size(); i0 += kKernelBatchRows) {
    if (BatchBoundaryStop(i0, cancel, out)) return;
    size_t bn = std::min(kKernelBatchRows, outer.size() - i0);
    BatchNodeValues(outer_doc, outer, i0, bn, vals);
    for (size_t b = 0; b < bn; ++b) {
      if (vals[b] == kInvalidStringId) continue;
      std::span<const Pre> group = Lookup(vals[b]);
      if (group.empty()) continue;
      // Skewed values can emit huge groups off one probe; Append polls
      // on output growth too.
      if (em.Append(static_cast<uint32_t>(i0 + b), group) !=
          BatchEmitter::Stop::kNone) {
        StampTruncationStop(out, kNoLimit, i0 + b);
        return;
      }
    }
  }
  out.truncated = false;
  out.outer_consumed = outer.size();
}

JoinPairs ValueHashTable::Probe(const Document& outer_doc,
                                std::span<const Pre> outer,
                                const CancellationToken* cancel) const {
  JoinPairs out;
  ProbeInto(outer_doc, outer, out, cancel);
  return out;
}

JoinPairs HashValueJoinPairs(const Document& outer_doc,
                             std::span<const Pre> outer,
                             const Document& inner_doc,
                             std::span<const Pre> inner,
                             const CancellationToken* cancel) {
  return ValueHashTable(inner_doc, inner).Probe(outer_doc, outer, cancel);
}

// --- merge equi-join --------------------------------------------------------

std::vector<Pre> SortByValueId(const Document& doc,
                               std::span<const Pre> nodes) {
  // Decorate-sort-undecorate: one NodeValue per node instead of one
  // per comparison. (value, pre) pair order equals the former
  // comparator exactly — kInvalidStringId (max) still sorts last.
  std::vector<std::pair<StringId, Pre>> dec;
  dec.reserve(nodes.size());
  for (Pre p : nodes) dec.emplace_back(NodeValue(doc, p), p);
  std::sort(dec.begin(), dec.end());
  std::vector<Pre> out;
  out.reserve(dec.size());
  for (const auto& [v, p] : dec) out.push_back(p);
  return out;
}

JoinPairs MergeValueJoinPairs(const Document& outer_doc,
                              std::span<const Pre> outer_sorted,
                              const Document& inner_doc,
                              std::span<const Pre> inner_sorted,
                              const CancellationToken* cancel) {
  JoinPairs out;
  out.Reserve(std::max(outer_sorted.size(), inner_sorted.size()));
  // Polled once per kCancelCheckRows advance steps and whenever the
  // output crosses a kCancelCheckRows boundary (as BatchEmitter polls):
  // equal-value groups cross-product, so either side alone can run
  // away.
  uint64_t steps = 0;
  uint64_t next_output_poll = kCancelCheckRows;
  auto tripped = [&]() -> bool {
    bool due = CancelCheckDue(++steps);
    if (out.size() >= next_output_poll) {
      next_output_poll = (out.size() / kCancelCheckRows + 1) * kCancelCheckRows;
      due = true;
    }
    if (!(due && StopRequested(cancel))) return false;
    out.truncated = true;
    return true;
  };
  size_t i = 0, j = 0;
  // One value pre-pass per side (one NodeValue per input row instead of
  // one per merge comparison), then the merge runs over the flat id
  // arrays and bulk-copies each group cross product.
  std::vector<StringId> ov(outer_sorted.size());
  std::vector<StringId> iv(inner_sorted.size());
  for (size_t k = 0; k < outer_sorted.size(); ++k) {
    ov[k] = NodeValue(outer_doc, outer_sorted[k]);
  }
  for (size_t k = 0; k < inner_sorted.size(); ++k) {
    iv[k] = NodeValue(inner_doc, inner_sorted[k]);
  }
  while (i < outer_sorted.size() && j < inner_sorted.size()) {
    if (tripped()) {
      // Cancellation at an advance step: rows [0, i) are fully merged
      // and all emitted pairs reference them.
      out.outer_consumed = i;
      return out;
    }
    StringId vo = ov[i];
    StringId vi = iv[j];
    if (vo == kInvalidStringId || vi == kInvalidStringId) break;
    if (vo < vi) {
      ++i;
    } else if (vo > vi) {
      ++j;
    } else {
      size_t j_end = j;
      while (j_end < inner_sorted.size() && iv[j_end] == vi) ++j_end;
      size_t glen = j_end - j;
      while (i < outer_sorted.size() && ov[i] == vo) {
        if (glen < kBulkAppendMinRows) {
          for (size_t k = j; k < j_end; ++k) {
            out.left_rows.push_back(static_cast<uint32_t>(i));
            out.right_nodes.push_back(inner_sorted[k]);
          }
        } else {
          out.left_rows.resize(out.left_rows.size() + glen,
                               static_cast<uint32_t>(i));
          out.right_nodes.insert(out.right_nodes.end(),
                                 inner_sorted.begin() + j,
                                 inner_sorted.begin() + j_end);
        }
        if (tripped()) {
          // Row i's group pairs were fully emitted before the poll.
          out.outer_consumed = i + 1;
          return out;
        }
        ++i;
      }
      j = j_end;
    }
  }
  // Clean finish (including the no-more-values early exit: value-less
  // rows never join, so every outer row counts as consumed).
  out.outer_consumed = outer_sorted.size();
  return out;
}

// --- selection predicates ---------------------------------------------------

std::vector<Pre> FilterValueEquals(const Document& doc,
                                   std::span<const Pre> nodes, StringId v) {
  std::vector<Pre> out;
  for (Pre p : nodes) {
    if (NodeValue(doc, p) == v) out.push_back(p);
  }
  return out;
}

std::vector<Pre> FilterNumericRange(const Document& doc,
                                    std::span<const Pre> nodes,
                                    const NumericRange& range) {
  std::vector<Pre> out;
  const StringPool& pool = doc.pool();
  for (Pre p : nodes) {
    StringId v = NodeValue(doc, p);
    if (v == kInvalidStringId) continue;
    auto num = pool.NumericValue(v);
    if (num && range.Contains(*num)) out.push_back(p);
  }
  return out;
}

}  // namespace rox
