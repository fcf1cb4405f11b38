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
    const CsrMatrix& a, const BlockRowPartition& part, index_t max_block_size) {
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
                                                     index_t max_block_size) {
  ESRP_CHECK(a.rows() == a.cols());
  starts_ = uniform_blocks(0, a.rows(), max_block_size);
  build(a);
}

namespace {

/// Cholesky(block).inverse(), with a non-SPD block named by its rows.
DenseMatrix invert_block(const DenseMatrix& block, index_t lo, index_t hi) {
  try {
    return Cholesky(block).inverse();
  } catch (const Error& e) {
    throw Error("block Jacobi: diagonal block of rows [" + std::to_string(lo) +
                ", " + std::to_string(hi) + ") is not SPD: " + e.what());
  }
}

/// z[0, len) := B r[0, len) for the row-major len x len block B: each row
/// sums in ascending column order, as its CSR row does, four independent
/// rows at a time.
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

} // namespace

// The blocks are disjoint, ascending diagonal ranges covering [0, n), so
// every row of P and M is appended in order with its columns ascending.
// Exact zeros are not stored, as in every CooBuilder-assembled matrix
// (reducible blocks have exact zeros in their inverses).
void BlockJacobiPreconditioner::build(const CsrMatrix& a) {
  const index_t n = a.rows();
  std::size_t block_entries = 0;
  for (std::size_t b = 0; b + 1 < starts_.size(); ++b) {
    const auto len = static_cast<std::size_t>(starts_[b + 1] - starts_[b]);
    block_entries += len * len;
  }
  std::vector<index_t> p_ptr{0}, m_ptr{0};
  std::vector<col_t> p_cols, m_cols;
  std::vector<real_t> p_vals, m_vals;
  p_ptr.reserve(static_cast<std::size_t>(n) + 1);
  m_ptr.reserve(static_cast<std::size_t>(n) + 1);
  p_cols.reserve(block_entries);
  p_vals.reserve(block_entries);
  const std::size_t m_cap =
      std::min(block_entries, static_cast<std::size_t>(a.nnz()));
  m_cols.reserve(m_cap);
  m_vals.reserve(m_cap);
  for (std::size_t b = 0; b + 1 < starts_.size(); ++b) {
    const index_t lo = starts_[b], hi = starts_[b + 1];
    const index_t len = hi - lo;
    if (len == 0) continue;
    DenseMatrix block(len, len);
    for (index_t i = lo; i < hi; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t j = cols[k];
        if (j < lo || j >= hi) continue;
        block(i - lo, j - lo) = vals[k];
        if (vals[k] != real_t{0}) {
          m_cols.push_back(cols[k]);
          m_vals.push_back(vals[k]);
        }
      }
      m_ptr.push_back(static_cast<index_t>(m_cols.size()));
    }
    const DenseMatrix inv = invert_block(block, lo, hi);
    for (index_t bi = 0; bi < len; ++bi) {
      for (index_t bj = 0; bj < len; ++bj) {
        const real_t v = inv(bi, bj);
        if (v == real_t{0}) continue;
        p_cols.push_back(static_cast<col_t>(lo + bj)); // < hi <= n
        p_vals.push_back(v);
      }
      p_ptr.push_back(static_cast<index_t>(p_cols.size()));
    }
  }
  p_ = CsrMatrix(n, n, std::move(p_ptr), std::move(p_cols), std::move(p_vals));
  m_ = CsrMatrix(n, n, std::move(m_ptr), std::move(m_cols), std::move(m_vals));
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
    apply_blocks(b_lo, b_hi, 0, n, r, z);
  });
}

void BlockJacobiPreconditioner::apply_local(index_t lo, index_t hi,
                                            std::span<const real_t> r,
                                            std::span<real_t> z) const {
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= dim());
  ESRP_CHECK(static_cast<index_t>(r.size()) == hi - lo && r.size() == z.size());
  // The blocks from *first up to *last lie wholly inside [lo, hi); rows
  // before *first and from *last on belong to blocks the range cuts.
  const auto first = std::lower_bound(starts_.begin(), starts_.end(), lo);
  const auto last = std::upper_bound(starts_.begin(), starts_.end(), hi) - 1;
  if (first >= last) {
    spmv_rows_in_range(p_, lo, hi, lo, hi, r, z);
    return;
  }
  spmv_rows_in_range(p_, lo, hi, lo, *first, r, z);
  apply_blocks(first - starts_.begin(), last - starts_.begin(), lo, hi, r, z);
  spmv_rows_in_range(p_, lo, hi, *last, hi, r, z);
}

void BlockJacobiPreconditioner::apply_blocks(index_t b_begin, index_t b_end,
                                             index_t lo, index_t hi,
                                             std::span<const real_t> r,
                                             std::span<real_t> z) const {
  const index_t* row_ptr = p_.row_ptr().data();
  const index_t* starts = starts_.data();
  const real_t* vals = p_.values().data();
  for (index_t b = b_begin; b < b_end; ++b) {
    const index_t blo = starts[b], bhi = starts[b + 1];
    const index_t len = bhi - blo;
    const index_t off = row_ptr[blo];
    if (row_ptr[bhi] - off == len * len) {
      const auto at = static_cast<std::size_t>(blo - lo);
      apply_whole_block(vals + off, len, r.data() + at, z.data() + at);
    } else {
      spmv_rows_in_range(p_, lo, hi, blo, bhi, r, z);
    }
  }
}

} // namespace esrp
