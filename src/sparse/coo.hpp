// Coordinate-format (triplet) builder for sparse matrices. All assembly
// (generators, Matrix Market reader, test fixtures) goes through CooBuilder,
// which deduplicates by summing and converts to CSR.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace esrp {

class CsrMatrix;

class CooBuilder {
public:
  /// Throws esrp::Error for a negative dimension or for more columns than
  /// CsrMatrix's col_t can index.
  CooBuilder(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  /// Number of raw (possibly duplicate) triplets added so far.
  std::size_t triplet_count() const { return entries_.size(); }

  /// Reserve room for `triplets` raw triplets, so a generator that knows
  /// its count (or a bound) assembles without regrowing the buffer.
  void reserve(std::size_t triplets) { entries_.reserve(triplets); }

  /// Queue the triplet (i, j, v); duplicates are summed at conversion time.
  void add(index_t i, index_t j, real_t v);

  /// Queue (i, j, v) and, if i != j, also (j, i, v). Convenient for
  /// assembling symmetric operators from their lower/upper triangle.
  void add_sym(index_t i, index_t j, real_t v);

  /// Sort, combine duplicates, drop explicit zeros, and emit CSR.
  /// The builder remains usable afterwards (its triplets are untouched);
  /// this sorts a copy of them.
  CsrMatrix to_csr() const&;

  /// The same CSR, sorting the builder's own triplets in place: no copy,
  /// and they are freed on return. Use as `std::move(builder).to_csr()`.
  CsrMatrix to_csr() &&;

private:
  struct Triplet {
    index_t row;
    index_t col;
    real_t value;
  };

  /// Sorts `triplets` in place and emits them as CSR. Both to_csr overloads
  /// run it on the same sequence, and std::sort is deterministic, so they
  /// sum duplicates in the same order and return bitwise equal matrices.
  CsrMatrix sort_and_emit(std::vector<Triplet>& triplets) const;

  index_t rows_;
  index_t cols_;
  std::vector<Triplet> entries_;
};

} // namespace esrp
