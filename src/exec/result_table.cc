#include "exec/result_table.h"

#include <algorithm>

#include "common/check.h"

namespace rox {

ResultTable ResultTable::FromColumn(std::vector<Pre> nodes) {
  ResultTable t(1);
  t.cols_[0] = std::move(nodes);
  return t;
}

void ResultTable::AppendRow(std::span<const Pre> row) {
  ROX_DCHECK(row.size() == cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) cols_[i].push_back(row[i]);
}

ResultTable ResultTable::Project(std::span<const size_t> keep) const {
  ResultTable out(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    ROX_DCHECK(keep[i] < cols_.size());
    out.cols_[i] = cols_[keep[i]];
  }
  return out;
}

ResultTable ResultTable::SelectRows(std::span<const uint32_t> rows) const {
  ResultTable out(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    out.cols_[c].reserve(rows.size());
    for (uint32_t r : rows) out.cols_[c].push_back(cols_[c][r]);
  }
  return out;
}

namespace {

// 64-bit mix (splitmix64 finalizer) for row hashing.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

}  // namespace

ResultTable ResultTable::DistinctRows() const {
  // Flat open-addressing row set (first-occurrence order preserved via
  // `keep`). The former per-hash bucket map (unordered_map<uint64_t,
  // vector<uint32_t>>) dominated whole-query profiles: an allocation
  // per distinct row plus a rehash cascade per assembly. Row hashes are
  // precomputed with one column-major sweep per column — the row-major
  // re-hash per probe was the second-largest cost.
  uint64_t n = NumRows();
  std::vector<uint32_t> keep;
  keep.reserve(n);
  if (n == 0) return SelectRows(keep);
  std::vector<uint64_t> hashes(n, 0x12345678ULL);
  for (const auto& col : cols_) {
    for (uint64_t r = 0; r < n; ++r) hashes[r] = Mix(hashes[r], col[r]);
  }
  constexpr uint32_t kEmptySlot = UINT32_MAX;
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<uint32_t> slots(cap, kEmptySlot);
  for (uint64_t r = 0; r < n; ++r) {
    size_t i = hashes[r] & mask;
    while (true) {
      uint32_t prev = slots[i];
      if (prev == kEmptySlot) {
        slots[i] = static_cast<uint32_t>(r);
        keep.push_back(static_cast<uint32_t>(r));
        break;
      }
      if (hashes[prev] == hashes[r]) {
        bool equal = true;
        for (const auto& col : cols_) {
          if (col[prev] != col[r]) {
            equal = false;
            break;
          }
        }
        if (equal) break;  // duplicate of an earlier row
      }
      i = (i + 1) & mask;
    }
  }
  return SelectRows(keep);
}

ResultTable ResultTable::SortRows(std::span<const size_t> key_cols) const {
  std::vector<uint32_t> order(NumRows());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t k : key_cols) {
                       if (cols_[k][a] != cols_[k][b]) {
                         return cols_[k][a] < cols_[k][b];
                       }
                     }
                     return false;
                   });
  return SelectRows(order);
}

ResultTable CartesianProduct(const ResultTable& a, const ResultTable& b) {
  ResultTable out(a.NumCols() + b.NumCols());
  uint64_t na = a.NumRows(), nb = b.NumRows();
  for (size_t c = 0; c < a.NumCols(); ++c) {
    std::vector<Pre>& dst = out.MutableCol(c);
    dst.reserve(na * nb);
    for (uint64_t i = 0; i < na; ++i) {
      dst.insert(dst.end(), nb, a.Col(c)[i]);
    }
  }
  for (size_t c = 0; c < b.NumCols(); ++c) {
    std::vector<Pre>& dst = out.MutableCol(a.NumCols() + c);
    dst.reserve(na * nb);
    for (uint64_t i = 0; i < na; ++i) {
      dst.insert(dst.end(), b.Col(c).begin(), b.Col(c).end());
    }
  }
  return out;
}

}  // namespace rox
