#include "exec/result_view.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace rox {

ResultView ResultView::FromTable(const ResultTable& t) {
  ResultView out(t.NumCols(), t.NumRows());
  for (size_t c = 0; c < t.NumCols(); ++c) {
    out.cols_[c] = {t.Col(c).data(), nullptr};
  }
  return out;
}

std::span<const Pre> ResultView::GatherColumn(size_t c, ColumnArena& arena,
                                              GatherStats* stats) const {
  const Column& col = cols_[c];
  ROX_DCHECK(!col.dead);
  if (col.sel == nullptr) return {col.base, rows_};
  std::span<uint32_t> out = arena.Alloc(rows_);
  for (uint64_t r = 0; r < rows_; ++r) out[r] = col.base[col.sel[r]];
  if (stats != nullptr) {
    ++stats->gather_count;
    stats->bytes_gathered += rows_ * sizeof(Pre);
  }
  return {out.data(), out.size()};
}

void ResultView::GatherColumnInto(size_t c, std::vector<Pre>& out,
                                  GatherStats* stats) const {
  const Column& col = cols_[c];
  ROX_DCHECK(!col.dead);
  out.resize(rows_);
  if (rows_ == 0) return;
  if (col.sel == nullptr) {
    std::memcpy(out.data(), col.base, rows_ * sizeof(Pre));
  } else {
    for (uint64_t r = 0; r < rows_; ++r) out[r] = col.base[col.sel[r]];
  }
  if (stats != nullptr) {
    ++stats->gather_count;
    stats->bytes_gathered += rows_ * sizeof(Pre);
  }
}

ResultTable ResultView::Gather(GatherStats* stats) const {
  ResultTable out(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    GatherColumnInto(c, out.MutableCol(c), stats);
  }
  return out;
}

std::vector<Pre> ResultView::DistinctColumn(size_t c) const {
  const Column& col = cols_[c];
  ROX_DCHECK(!col.dead);
  std::unordered_set<Pre> seen;
  seen.reserve(rows_);
  if (rows_ == 0) return {};
  if (col.sel == nullptr) {
    seen.insert(col.base, col.base + rows_);
  } else {
    for (uint64_t r = 0; r < rows_; ++r) seen.insert(col.base[col.sel[r]]);
  }
  std::vector<Pre> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

ResultView ComposeRows(const ResultView& v, std::span<const uint32_t> rows,
                       ColumnArena& arena, const std::vector<bool>* live) {
  ResultView out(v.NumCols(), rows.size());
  // Distinct old selection vector -> composed selection vector. A view
  // has very few distinct selection vectors (one per prior join at
  // most), so a flat scan beats hashing.
  std::vector<std::pair<const uint32_t*, const uint32_t*>> composed;
  for (size_t c = 0; c < v.NumCols(); ++c) {
    const ResultView::Column& old = v.col(c);
    if (old.dead || (live != nullptr && !(*live)[c])) {
      out.col(c).dead = true;  // dead before or dead now: no more writes
      continue;
    }
    if (old.sel == nullptr) {
      // Direct column: the row list IS its selection vector.
      out.col(c) = {old.base, rows.data()};
      continue;
    }
    const uint32_t* sel = nullptr;
    for (const auto& [from, to] : composed) {
      if (from == old.sel) {
        sel = to;
        break;
      }
    }
    if (sel == nullptr) {
      std::span<uint32_t> s = arena.Alloc(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) s[i] = old.sel[rows[i]];
      sel = s.data();
      composed.emplace_back(old.sel, sel);
    }
    out.col(c) = {old.base, sel};
  }
  return out;
}

ResultView SelectRowsView(const ResultView& v,
                          std::span<const uint32_t> rows, ColumnArena& arena,
                          const std::vector<bool>* live) {
  std::span<uint32_t> stable = arena.Alloc(rows.size());
  if (!rows.empty()) {
    std::memcpy(stable.data(), rows.data(), rows.size() * sizeof(uint32_t));
  }
  return ComposeRows(v, {stable.data(), stable.size()}, arena, live);
}

ResultView ExtendViewWithPairs(const ResultView& outer, JoinPairs&& pairs,
                               ColumnArena& arena) {
  std::span<const uint32_t> rows = arena.Adopt(std::move(pairs.left_rows));
  ResultView out = ComposeRows(outer, rows, arena);
  out.AddColumn({arena.Adopt(std::move(pairs.right_nodes)).data(), nullptr});
  return out;
}

ResultView JoinViewsWithPairs(const ResultView& outer, const JoinPairs& pairs,
                              const ResultView& inner, size_t inner_col,
                              ColumnArena& arena,
                              const std::vector<bool>* live_outer,
                              const std::vector<bool>* live_inner) {
  // CSR index of the inner join column: node -> contiguous row-id run.
  ValueRuns vr = BuildValueRuns(
      inner.NumRows(), [&](uint32_t r) { return inner.At(inner_col, r); });

  std::vector<uint32_t> orows, irows;
  orows.reserve(pairs.size());
  irows.reserve(pairs.size());
  for (uint64_t k = 0; k < pairs.size(); ++k) {
    const auto* run = vr.Find(pairs.right_nodes[k]);
    if (run == nullptr) continue;
    for (uint32_t j = 0; j < run->b; ++j) {
      orows.push_back(pairs.left_rows[k]);
      irows.push_back(vr.row_ids[run->a + j]);
    }
  }

  std::span<const uint32_t> ospan = arena.Adopt(std::move(orows));
  std::span<const uint32_t> ispan = arena.Adopt(std::move(irows));
  ResultView o = ComposeRows(outer, ospan, arena, live_outer);
  ResultView i = ComposeRows(inner, ispan, arena, live_inner);
  ResultView out(outer.NumCols() + inner.NumCols(), ospan.size());
  for (size_t c = 0; c < outer.NumCols(); ++c) out.col(c) = o.col(c);
  for (size_t c = 0; c < inner.NumCols(); ++c) {
    out.col(outer.NumCols() + c) = i.col(c);
  }
  return out;
}

}  // namespace rox
