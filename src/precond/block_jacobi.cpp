#include "precond/block_jacobi.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "parallel/parallel.hpp"
#include "sparse/dense.hpp"

namespace esrp {

std::vector<index_t> uniform_blocks(index_t lo, index_t hi,
                                    index_t max_block_size) {
  ESRP_CHECK(lo <= hi);
  ESRP_CHECK(max_block_size >= 1);
  std::vector<index_t> starts{lo};
  const index_t len = hi - lo;
  if (len == 0) return starts;
  const index_t nblocks = (len + max_block_size - 1) / max_block_size;
  const index_t base = len / nblocks;
  const index_t extra = len % nblocks;
  starts.reserve(static_cast<std::size_t>(nblocks) + 1);
  index_t pos = lo;
  for (index_t b = 0; b < nblocks; ++b) {
    pos += base + (b < extra ? 1 : 0);
    starts.push_back(pos);
  }
  ESRP_CHECK(starts.back() == hi);
  return starts;
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(
    const CsrMatrix& a, const BlockRowPartition& part, index_t max_block_size)
    : a_(&a) {
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(a.rows() == part.global_size());
  starts_ = {0};
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto node_blocks = uniform_blocks(part.begin(s), part.end(s),
                                            max_block_size);
    starts_.insert(starts_.end(), node_blocks.begin() + 1, node_blocks.end());
  }
  build(a);
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(const CsrMatrix& a,
                                                     index_t max_block_size)
    : a_(&a) {
  ESRP_CHECK(a.rows() == a.cols());
  starts_ = uniform_blocks(0, a.rows(), max_block_size);
  build(a);
}

namespace {

/// z[0, L) := B r[0, L) for the row-major L x L block B, each row summed
/// from +0 in ascending column order, two independent rows at a time; L is
/// known at compile time, so r stays in registers.
template <index_t L>
void apply_fixed_block(const real_t* b, const real_t* r, real_t* z) {
  real_t rr[L];
  for (index_t j = 0; j < L; ++j) rr[j] = r[j];
  index_t i = 0;
  for (; i + 2 <= L; i += 2) {
    const real_t* b0 = b + i * L;
    const real_t* b1 = b0 + L;
    real_t acc0 = 0, acc1 = 0;
    for (index_t j = 0; j < L; ++j) {
      acc0 += b0[j] * rr[j];
      acc1 += b1[j] * rr[j];
    }
    z[i] = acc0;
    z[i + 1] = acc1;
  }
  if constexpr (L % 2 == 1) {
    const real_t* bi = b + i * L;
    real_t acc = 0;
    for (index_t j = 0; j < L; ++j) acc += bi[j] * rr[j];
    z[i] = acc;
  }
}

/// apply_fixed_block for a length known only at run time (above the
/// paper's 10), four independent rows at a time.
void apply_whole_block(const real_t* b, index_t len, const real_t* r,
                       real_t* z) {
  index_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const real_t* b0 = b + i * len;
    const real_t* b1 = b0 + len;
    const real_t* b2 = b1 + len;
    const real_t* b3 = b2 + len;
    real_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    for (index_t j = 0; j < len; ++j) {
      const real_t rj = r[j];
      acc0 += b0[j] * rj;
      acc1 += b1[j] * rj;
      acc2 += b2[j] * rj;
      acc3 += b3[j] * rj;
    }
    z[i] = acc0;
    z[i + 1] = acc1;
    z[i + 2] = acc2;
    z[i + 3] = acc3;
  }
  for (; i < len; ++i) {
    const real_t* bi = b + i * len;
    real_t acc = 0;
    for (index_t j = 0; j < len; ++j) acc += bi[j] * r[j];
    z[i] = acc;
  }
}

bool nonzero(real_t v) { return v != real_t{0}; }

/// Whether the dense row `row` (columns [blo, bhi)) has a nonzero entry
/// outside [lo, hi). Empty scans when [lo, hi) holds the whole block.
bool couples_outside(const real_t* row, index_t blo, index_t bhi, index_t lo,
                     index_t hi) {
  const index_t in_lo = std::clamp(lo, blo, bhi);
  const index_t in_hi = std::clamp(hi, in_lo, bhi);
  return std::any_of(row, row + (in_lo - blo), nonzero) ||
         std::any_of(row + (in_hi - blo), row + (bhi - blo), nonzero);
}

} // namespace

void BlockJacobiPreconditioner::build(const CsrMatrix& a) {
  const std::size_t blocks = starts_.size() - 1;
  offsets_.assign(blocks + 1, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto len = static_cast<std::size_t>(starts_[b + 1] - starts_[b]);
    offsets_[b + 1] = offsets_[b] + len * len;
  }
  inv_.resize(offsets_.back());
  for (std::size_t b = 0; b < blocks; ++b) {
    const index_t lo = starts_[b], hi = starts_[b + 1];
    const index_t len = hi - lo;
    DenseMatrix block(len, len);
    for (index_t i = lo; i < hi; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t j = cols[k];
        if (j < lo || j >= hi) continue;
        block(i - lo, j - lo) = vals[k];
      }
    }
    try {
      Cholesky(block).inverse(std::span(inv_).subspan(
          offsets_[b], offsets_[b + 1] - offsets_[b]));
    } catch (const Error& e) {
      throw Error("block Jacobi: diagonal block of rows [" +
                  std::to_string(lo) + ", " + std::to_string(hi) +
                  ") is not SPD: " + e.what());
    }
  }
  nnz_ = static_cast<index_t>(std::count_if(inv_.begin(), inv_.end(), nonzero));
}

const CsrMatrix* BlockJacobiPreconditioner::matrix_form() const {
  // The blocks are disjoint, ascending diagonal ranges covering [0, n), so
  // every row of M is appended in order with its columns ascending. Exact
  // zeros of A are not stored in M, as in every CooBuilder-assembled matrix.
  std::call_once(m_once_, [this] {
    const CsrMatrix& a = *a_;
    const index_t n = dim();
    std::vector<index_t> ptr{0};
    std::vector<col_t> cols;
    std::vector<real_t> vals;
    ptr.reserve(static_cast<std::size_t>(n) + 1);
    const std::size_t cap =
        std::min(offsets_.back(), static_cast<std::size_t>(a.nnz()));
    cols.reserve(cap);
    vals.reserve(cap);
    for (std::size_t b = 0; b + 1 < starts_.size(); ++b) {
      const index_t lo = starts_[b], hi = starts_[b + 1];
      for (index_t i = lo; i < hi; ++i) {
        const auto a_cols = a.row_cols(i);
        const auto a_vals = a.row_vals(i);
        for (std::size_t k = 0; k < a_cols.size(); ++k) {
          const index_t j = a_cols[k];
          if (j < lo || j >= hi || a_vals[k] == real_t{0}) continue;
          cols.push_back(a_cols[k]);
          vals.push_back(a_vals[k]);
        }
        ptr.push_back(static_cast<index_t>(cols.size()));
      }
    }
    m_ = CsrMatrix(n, n, std::move(ptr), std::move(cols), std::move(vals));
  });
  return &m_;
}

template <class F>
void BlockJacobiPreconditioner::for_each_row(index_t lo, index_t hi,
                                             F&& f) const {
  if (lo >= hi) return;
  auto b = static_cast<std::size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), lo) - starts_.begin() -
      1);
  for (index_t i = lo; i < hi; ++b) {
    const index_t blo = starts_[b], bhi = starts_[b + 1];
    const real_t* vals = inv_.data() + offsets_[b];
    for (; i < std::min(hi, bhi); ++i)
      f(i, vals + (i - blo) * (bhi - blo), blo, bhi);
  }
}

const CsrMatrix* BlockJacobiPreconditioner::action_matrix() const {
  // Row by row in ascending order, each row's columns ascending; exact
  // zeros are not stored, as in every CooBuilder-assembled matrix.
  std::call_once(p_once_, [this] {
    const index_t n = dim();
    std::vector<index_t> ptr{0};
    std::vector<col_t> cols;
    std::vector<real_t> vals;
    ptr.reserve(static_cast<std::size_t>(n) + 1);
    cols.reserve(static_cast<std::size_t>(nnz_));
    vals.reserve(static_cast<std::size_t>(nnz_));
    for_each_row(0, n, [&](index_t, const real_t* row, index_t blo,
                           index_t bhi) {
      for (index_t j = blo; j < bhi; ++j) {
        const real_t v = row[j - blo];
        if (v == real_t{0}) continue;
        cols.push_back(static_cast<col_t>(j)); // < bhi <= n
        vals.push_back(v);
      }
      ptr.push_back(static_cast<index_t>(cols.size()));
    });
    p_ = CsrMatrix(n, n, std::move(ptr), std::move(cols), std::move(vals));
  });
  return &p_;
}

double BlockJacobiPreconditioner::apply_local_flops(index_t lo,
                                                    index_t hi) const {
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= dim());
  index_t stored = 0;
  for_each_row(lo, hi, [&](index_t, const real_t* row, index_t blo,
                           index_t bhi) {
    stored += std::count_if(row, row + (bhi - blo), nonzero);
  });
  return 2.0 * static_cast<double>(stored);
}

index_t BlockJacobiPreconditioner::first_row_coupled_outside(
    index_t lo, index_t hi) const {
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= dim());
  index_t first = hi;
  for_each_row(lo, hi, [&](index_t i, const real_t* row, index_t blo,
                           index_t bhi) {
    if (first == hi && couples_outside(row, blo, bhi, lo, hi)) first = i;
  });
  return first;
}

void BlockJacobiPreconditioner::apply(std::span<const real_t> r,
                                      std::span<real_t> z) const {
  const index_t n = dim();
  ESRP_CHECK(static_cast<index_t>(r.size()) == n && r.size() == z.size());
  // Block ranges own disjoint slices of z and every row is computed as in
  // the serial loop, so z is bitwise identical at any thread count. The
  // grain floor (about spmv's 256 rows) keeps chunks above a task dispatch.
  const index_t blocks = num_blocks();
  const index_t grain = std::max<index_t>(32, adaptive_grain(blocks, 8));
  parallel_for(index_t{0}, blocks, grain, [&](index_t b_lo, index_t b_hi) {
    apply_blocks(b_lo, b_hi, 0, r, z);
  });
}

void BlockJacobiPreconditioner::apply_local(index_t lo, index_t hi,
                                            std::span<const real_t> r,
                                            std::span<real_t> z) const {
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= dim());
  ESRP_CHECK(static_cast<index_t>(r.size()) == hi - lo && r.size() == z.size());
  // The rows of a block [lo, hi) cuts: the part of each dense row inside
  // [lo, hi), every entry outside it an exact zero.
  const auto cut_rows = [&](index_t row_begin, index_t row_end) {
    for_each_row(row_begin, row_end, [&](index_t i, const real_t* row,
                                         index_t blo, index_t bhi) {
      ESRP_CHECK_MSG(!couples_outside(row, blo, bhi, lo, hi),
                     "preconditioner action row " << i << " couples outside ["
                                                  << lo << ", " << hi << ")");
      real_t acc = 0;
      for (index_t j = std::max(lo, blo); j < std::min(hi, bhi); ++j)
        acc += row[j - blo] * r[static_cast<std::size_t>(j - lo)];
      z[static_cast<std::size_t>(i - lo)] = acc;
    });
  };
  // The blocks from *first up to *last lie wholly inside [lo, hi); rows
  // before *first and from *last on belong to blocks the range cuts.
  const auto first = std::lower_bound(starts_.begin(), starts_.end(), lo);
  const auto last = std::upper_bound(starts_.begin(), starts_.end(), hi) - 1;
  if (first >= last) {
    cut_rows(lo, hi);
    return;
  }
  cut_rows(lo, *first);
  apply_blocks(first - starts_.begin(), last - starts_.begin(), lo, r, z);
  cut_rows(*last, hi);
}

void BlockJacobiPreconditioner::apply_blocks(index_t b_begin, index_t b_end,
                                             index_t lo,
                                             std::span<const real_t> r,
                                             std::span<real_t> z) const {
  const index_t* starts = starts_.data();
  const real_t* vals =
      inv_.data() + offsets_[static_cast<std::size_t>(b_begin)];
  for (index_t b = b_begin; b < b_end; ++b) {
    const index_t len = starts[b + 1] - starts[b];
    const auto at = static_cast<std::size_t>(starts[b] - lo);
    const real_t* rb = r.data() + at;
    real_t* zb = z.data() + at;
    switch (len) {
    case 1: apply_fixed_block<1>(vals, rb, zb); break;
    case 2: apply_fixed_block<2>(vals, rb, zb); break;
    case 3: apply_fixed_block<3>(vals, rb, zb); break;
    case 4: apply_fixed_block<4>(vals, rb, zb); break;
    case 5: apply_fixed_block<5>(vals, rb, zb); break;
    case 6: apply_fixed_block<6>(vals, rb, zb); break;
    case 7: apply_fixed_block<7>(vals, rb, zb); break;
    case 8: apply_fixed_block<8>(vals, rb, zb); break;
    case 9: apply_fixed_block<9>(vals, rb, zb); break;
    case 10: apply_fixed_block<10>(vals, rb, zb); break;
    default: apply_whole_block(vals, len, rb, zb);
    }
    vals += len * len;
  }
}

} // namespace esrp
