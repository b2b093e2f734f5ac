// Row-aligned, column-major tables of node identifiers.
//
// A ResultTable is a gathered relation: each column corresponds to a
// Join Graph vertex, each row to one combination of nodes satisfying
// the executed edges between those vertices. ROX keeps its
// intermediates as ResultViews (exec/result_view.h) and gathers them
// into a ResultTable once, for the plan tail of §2.1 (projection,
// distinct, document-order sort), which operates on ResultTables.

#ifndef ROX_EXEC_RESULT_TABLE_H_
#define ROX_EXEC_RESULT_TABLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exec/flat_hash.h"
#include "xml/node.h"

namespace rox {

// CSR grouping of a node column: node -> (offset, length) run into
// `row_ids`, the row indices grouped per node in ascending row order.
// The pair-expansion sites (JoinViewsWithPairs and the final assembly)
// share this construction, so the row order they emit is the same.
// Backed by a flat open-addressing map (exec/flat_hash.h): the former
// std::unordered_map was the top profile entry of the assembly path
// (one node allocation per distinct value plus a destructor walk per
// rebuild).
struct ValueRuns {
  FlatRunMap<Pre, kInvalidPre> runs;  // a = offset, b = length
  std::vector<uint32_t> row_ids;

  // The (offset, length) run of `node`, or nullptr if absent.
  const FlatRunMap<Pre, kInvalidPre>::Slot* Find(Pre node) const {
    return runs.Find(node);
  }
};

// `value_at(r)` returns the node value of row r, for r in [0, n).
template <typename ValueAt>
ValueRuns BuildValueRuns(uint64_t n, ValueAt&& value_at) {
  ValueRuns out;
  out.runs.Reset(n);
  for (uint32_t r = 0; r < n; ++r) ++out.runs.FindOrInsert(value_at(r)).b;
  out.row_ids.resize(n);
  uint32_t off = 0;
  for (auto& slot : out.runs.slots()) {
    if (slot.key == kInvalidPre) continue;
    slot.a = off;
    off += slot.b;
    slot.b = 0;  // reused as the fill cursor; ends back at length
  }
  for (uint32_t r = 0; r < n; ++r) {
    auto& slot = out.runs.FindOrInsert(value_at(r));
    out.row_ids[slot.a + slot.b++] = r;
  }
  return out;
}

class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(size_t num_cols) : cols_(num_cols) {}

  // A one-column table over `nodes`.
  static ResultTable FromColumn(std::vector<Pre> nodes);

  size_t NumCols() const { return cols_.size(); }
  uint64_t NumRows() const { return cols_.empty() ? 0 : cols_[0].size(); }

  const std::vector<Pre>& Col(size_t i) const { return cols_[i]; }
  std::vector<Pre>& MutableCol(size_t i) { return cols_[i]; }

  // Appends one row; `row.size()` must equal NumCols().
  void AppendRow(std::span<const Pre> row);

  // Adds an empty column (used when a vertex joins into the component).
  size_t AddColumn() {
    cols_.emplace_back();
    return cols_.size() - 1;
  }

  // Keeps only the given columns, in the given order.
  ResultTable Project(std::span<const size_t> keep) const;

  // Keeps only the given rows, in the given order (duplicates allowed).
  ResultTable SelectRows(std::span<const uint32_t> rows) const;

  // Removes duplicate rows (hash-based); keeps first occurrence order.
  ResultTable DistinctRows() const;

  // Stable-sorts rows lexicographically by the given key columns in
  // document (pre) order — the τ numbering operator of the plan tail.
  ResultTable SortRows(std::span<const size_t> key_cols) const;

 private:
  std::vector<std::vector<Pre>> cols_;
};

// Full cross product: |a|·|b| rows with a's columns followed by b's.
// Used to combine the results of disconnected Join Graph components
// (independent for-variables without a join predicate).
ResultTable CartesianProduct(const ResultTable& a, const ResultTable& b);

}  // namespace rox

#endif  // ROX_EXEC_RESULT_TABLE_H_
