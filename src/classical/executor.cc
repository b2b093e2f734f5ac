#include "classical/executor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/column_arena.h"
#include "exec/result_view.h"
#include "exec/sharded_exec.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "workload/dblp.h"

namespace rox {

namespace {

// A partially executed per-document (or joined multi-document)
// partition. Columns alternate [author?, text] per stepped doc and
// [text] per un-stepped doc; `join_value_col` points at a text column
// usable as the join value (all text columns of a partition have equal
// values once joined); `text_col_of[i]` maps doc index -> its text
// column. `view` holds selection vectors over the run's arena.
struct Partition {
  ResultView view;
  std::vector<int> docs;                    // doc indices joined in
  std::unordered_map<int, size_t> text_col_of;
  size_t join_value_col = 0;
};

}  // namespace

CanonicalPlanExecutor::CanonicalPlanExecutor(const Corpus& corpus,
                                             std::vector<DocId> docs,
                                             const ShardedExec* sharded)
    : corpus_(corpus), docs_(std::move(docs)), sharded_(sharded) {
  author_ = corpus_.string_pool().Find("author");
  ROX_CHECK(author_ != kInvalidStringId);
  ROX_CHECK(docs_.size() == 4);
}

Result<PlanRunStats> CanonicalPlanExecutor::Run(const JoinOrder& order,
                                                StepPlacement placement) const {
  StopWatch watch;
  PlanRunStats stats;
  obs::ScopedSpan plan_span(trace_, "plan",
                            order.Label() + " / " +
                                StepPlacementName(placement));
  // Backs all views of this run.
  ColumnArena arena;

  std::vector<int> seq = order.DocSequence();
  std::vector<bool> stepped(4, false);

  // The partition's join-value column as a selection-vector-aware
  // probe input: the view column feeds the kernels as (base, sel)
  // directly — no gather into the arena (DESIGN.md §14).
  auto probe_col = [&](const Partition& p) -> PreColumn {
    const ResultView::Column& c = p.view.col(p.join_value_col);
    return {c.base, c.sel, p.view.NumRows()};
  };

  // Executes doc i's author/text() step as an initial table.
  auto step_table = [&](int i) -> Partition {
    DocId d = docs_[i];
    const Document& doc = corpus_.doc(d);
    auto authors_span = corpus_.element_index(d).Lookup(author_);
    std::vector<Pre> authors(authors_span.begin(), authors_span.end());
    JoinPairs pairs = ShardedStructuralJoinPairs(
        sharded_, d, doc, authors, StepSpec::ChildText(), nullptr, nullptr,
        cancel_);
    // The pair arrays are the view: authors as the base of a
    // selection-vector column, text nodes as a direct column.
    Partition part;
    std::span<const Pre> base = arena.Adopt(std::move(authors));
    part.view = ResultView(2, pairs.size());
    part.view.col(0) = {base.data(),
                        arena.Adopt(std::move(pairs.left_rows)).data()};
    part.view.col(1) = {arena.Adopt(std::move(pairs.right_nodes)).data(),
                        nullptr};
    part.docs = {i};
    part.text_col_of[i] = 1;
    part.join_value_col = 1;
    stepped[i] = true;
    return part;
  };

  // Applies doc i's deferred step as a filter: keep rows whose text
  // node's parent is an <author> element.
  auto apply_step_filter = [&](Partition& part, int i) {
    const Document& doc = corpus_.doc(docs_[i]);
    size_t col = part.text_col_of.at(i);
    std::vector<uint32_t> keep;
    keep.reserve(part.view.NumRows());
    for (uint32_t r = 0; r < part.view.NumRows(); ++r) {
      Pre parent = doc.Parent(part.view.At(col, r));
      if (parent != kInvalidPre && doc.Kind(parent) == NodeKind::kElem &&
          doc.Name(parent) == author_) {
        keep.push_back(r);
      }
    }
    part.view = SelectRowsView(part.view, keep, arena);
    stepped[i] = true;
  };

  // Joins `part` with un-stepped doc i via an index nested-loop probe
  // into doc i's text value index.
  auto join_with_unstepped = [&](Partition part, int i) -> Partition {
    DocId d = docs_[i];
    const Document& part_doc = corpus_.doc(docs_[part.docs[0]]);
    JoinPairs pairs = ShardedValueIndexJoinPairs(
        sharded_, part_doc, probe_col(part), corpus_.doc(d),
        corpus_.value_index(d), ValueProbeSpec::Text(), nullptr, cancel_);
    Partition out;
    out.view = ExtendViewWithPairs(part.view, std::move(pairs), arena);
    out.docs = part.docs;
    out.docs.push_back(i);
    out.text_col_of = part.text_col_of;
    out.text_col_of[i] = out.view.NumCols() - 1;
    out.join_value_col = part.join_value_col;
    return out;
  };

  // Hash-joins two materialized partitions on their text values.
  auto join_partitions = [&](Partition x, Partition y) -> Partition {
    const Document& xd = corpus_.doc(docs_[x.docs[0]]);
    const Document& yd = corpus_.doc(docs_[y.docs[0]]);
    // Probe with x's value column against y's distinct value column.
    std::vector<Pre> inner = y.view.DistinctColumn(y.join_value_col);
    JoinPairs pairs =
        ShardedHashValueJoinPairs(sharded_, xd, probe_col(x), yd, inner,
                                  nullptr, cancel_);
    Partition out;
    size_t x_cols = x.view.NumCols();
    out.view =
        JoinViewsWithPairs(x.view, pairs, y.view, y.join_value_col, arena);
    out.docs = x.docs;
    out.docs.insert(out.docs.end(), y.docs.begin(), y.docs.end());
    out.text_col_of = x.text_col_of;
    for (auto& [doc_idx, col] : y.text_col_of) {
      out.text_col_of[doc_idx] = x_cols + col;
    }
    out.join_value_col = x.join_value_col;
    return out;
  };

  auto record_join = [&](const Partition& p) {
    uint64_t rows = p.view.NumRows();
    stats.join_result_sizes.push_back(rows);
    stats.cumulative_join_rows += rows;
    if (trace_ != nullptr) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%llu rows",
                    static_cast<unsigned long long>(rows));
      trace_->Event("join", buf);
    }
  };

  Partition result;
  switch (placement) {
    case StepPlacement::kSJ: {
      // All steps first, then the joins over materialized partitions.
      std::map<int, Partition> parts;
      for (int i : seq) parts.emplace(i, step_table(i));
      Partition left = join_partitions(std::move(parts.at(order.a)),
                                       std::move(parts.at(order.b)));
      record_join(left);
      if (order.bushy) {
        Partition right = join_partitions(std::move(parts.at(order.c)),
                                          std::move(parts.at(order.d)));
        record_join(right);
        result = join_partitions(std::move(left), std::move(right));
        record_join(result);
      } else {
        left = join_partitions(std::move(left), std::move(parts.at(order.c)));
        record_join(left);
        result =
            join_partitions(std::move(left), std::move(parts.at(order.d)));
        record_join(result);
      }
      break;
    }
    case StepPlacement::kJS:
    case StepPlacement::kS_J: {
      bool steps_inline = placement == StepPlacement::kS_J;
      Partition left = step_table(order.a);
      auto join_next = [&](Partition part, int i) {
        part = join_with_unstepped(std::move(part), i);
        record_join(part);
        if (steps_inline) apply_step_filter(part, i);
        return part;
      };
      left = join_next(std::move(left), order.b);
      if (order.bushy) {
        Partition right = step_table(order.c);
        right = join_next(std::move(right), order.d);
        result = join_partitions(std::move(left), std::move(right));
        record_join(result);
      } else {
        left = join_next(std::move(left), order.c);
        result = join_next(std::move(left), order.d);
      }
      // Deferred steps (all remaining, for JS; none for S_J).
      for (int i : seq) {
        if (!stepped[i]) apply_step_filter(result, i);
      }
      break;
    }
  }

  // A tripped token made the kernels above stop early (truncated
  // partitions); report the governance error instead of a wrong count.
  if (cancel_ != nullptr) {
    ROX_RETURN_IF_ERROR(cancel_->Check());
  }
  stats.result_rows = result.view.NumRows();
  stats.elapsed_ms = watch.ElapsedMillis();
  if (plan_span.armed()) {
    plan_span.AttrNum("joins",
                      static_cast<double>(stats.join_result_sizes.size()));
    plan_span.AttrNum("cumulative_rows",
                      static_cast<double>(stats.cumulative_join_rows));
    plan_span.AttrNum("result_rows", static_cast<double>(stats.result_rows));
  }
  return stats;
}

Result<PlanRunStats> CanonicalPlanExecutor::RunBestPlacement(
    const JoinOrder& order) const {
  Result<PlanRunStats> best = Status::Internal("no placement ran");
  for (StepPlacement p : kAllPlacements) {
    Result<PlanRunStats> r = Run(order, p);
    if (!r.ok()) return r;
    if (!best.ok() || r->elapsed_ms < best->elapsed_ms) best = std::move(r);
  }
  return best;
}

Result<PlanRunStats> CanonicalPlanExecutor::RunWorstPlacement(
    const JoinOrder& order) const {
  Result<PlanRunStats> worst = Status::Internal("no placement ran");
  for (StepPlacement p : kAllPlacements) {
    Result<PlanRunStats> r = Run(order, p);
    if (!r.ok()) return r;
    if (!worst.ok() || r->elapsed_ms > worst->elapsed_ms) worst = std::move(r);
  }
  return worst;
}

std::vector<OrderCardinality> ComputeOrderCardinalities(
    const Corpus& corpus, const std::vector<DocId>& docs) {
  ROX_CHECK(docs.size() == 4);
  // Per-document author-value histograms, merged into one map:
  // value -> per-doc counts.
  std::unordered_map<StringId, std::array<uint64_t, 4>> freq;
  for (int i = 0; i < 4; ++i) {
    for (auto [v, n] : AuthorValueHistogram(corpus, docs[i])) {
      auto it = freq.find(v);
      if (it == freq.end()) {
        std::array<uint64_t, 4> zero{};
        it = freq.emplace(v, zero).first;
      }
      it->second[i] = n;
    }
  }
  auto join_size = [&](std::initializer_list<int> group) -> uint64_t {
    uint64_t total = 0;
    for (const auto& [v, f] : freq) {
      uint64_t prod = 1;
      for (int i : group) {
        prod *= f[i];
        if (prod == 0) break;
      }
      total += prod;
    }
    return total;
  };
  std::vector<OrderCardinality> out;
  for (const JoinOrder& o : EnumerateJoinOrders4()) {
    OrderCardinality oc;
    oc.order = o;
    oc.join_sizes.push_back(join_size({o.a, o.b}));
    if (o.bushy) {
      oc.join_sizes.push_back(join_size({o.c, o.d}));
      oc.join_sizes.push_back(join_size({o.a, o.b, o.c, o.d}));
    } else {
      oc.join_sizes.push_back(join_size({o.a, o.b, o.c}));
      oc.join_sizes.push_back(join_size({o.a, o.b, o.c, o.d}));
    }
    for (uint64_t s : oc.join_sizes) oc.cumulative += s;
    out.push_back(std::move(oc));
  }
  return out;
}

JoinOrder ClassicalJoinOrder(const Corpus& corpus,
                             const std::vector<DocId>& docs) {
  ROX_CHECK(docs.size() == 4);
  StringId author = corpus.string_pool().Find("author");
  std::vector<std::pair<uint64_t, int>> sized;
  for (int i = 0; i < 4; ++i) {
    sized.emplace_back(corpus.element_index(docs[i]).Count(author), i);
  }
  std::sort(sized.begin(), sized.end());
  JoinOrder o;
  o.a = sized[0].second;
  o.b = sized[1].second;
  o.bushy = false;
  o.c = sized[2].second;
  o.d = sized[3].second;
  return o;
}

}  // namespace rox
