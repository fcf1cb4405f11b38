#include "sparse/coo.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace esrp {

CooBuilder::CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  ESRP_CHECK_MSG(rows >= 0 && cols >= 0,
                 "matrix dimensions must be non-negative, got " << rows << "x"
                                                                << cols);
  ESRP_CHECK_MSG(cols <= std::numeric_limits<col_t>::max(),
                 cols << " columns exceed the 32-bit column index");
}

void CooBuilder::add(index_t i, index_t j, real_t v) {
  ESRP_CHECK_MSG(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                 "triplet (" << i << "," << j << ") outside " << rows_ << "x"
                             << cols_);
  entries_.push_back({i, j, v});
}

void CooBuilder::add_sym(index_t i, index_t j, real_t v) {
  add(i, j, v);
  if (i != j) add(j, i, v);
}

CsrMatrix CooBuilder::to_csr() const& {
  std::vector<Triplet> copy = entries_;
  return sort_and_emit(copy);
}

CsrMatrix CooBuilder::to_csr() && {
  std::vector<Triplet> own = std::move(entries_);
  return sort_and_emit(own);
}

CsrMatrix CooBuilder::sort_and_emit(std::vector<Triplet>& sorted) const {
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<col_t> col_idx;
  std::vector<real_t> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  std::size_t k = 0;
  while (k < sorted.size()) {
    const index_t i = sorted[k].row;
    const index_t j = sorted[k].col;
    real_t acc = 0;
    while (k < sorted.size() && sorted[k].row == i && sorted[k].col == j) {
      acc += sorted[k].value;
      ++k;
    }
    if (acc != real_t{0}) {
      col_idx.push_back(static_cast<col_t>(j)); // add() checked j < cols_
      values.push_back(acc);
      ++row_ptr[static_cast<std::size_t>(i) + 1];
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r)
    row_ptr[r + 1] += row_ptr[r];

  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

} // namespace esrp
