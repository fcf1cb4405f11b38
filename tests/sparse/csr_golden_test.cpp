// Pins the CSR arrays the generators and the Matrix Market reader emit, so a
// change to the storage layout or to the assembly path (CooBuilder's sort
// and duplicate summation) that moves any row offset, column or value bit
// fails here before it reaches a trajectory golden. Column indices are
// hashed widened to int64, so the pins do not depend on the stored width.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

namespace esrp {
namespace {

std::uint64_t csr_hash(const CsrMatrix& a) {
  const std::vector<std::int64_t> cols(a.col_idx().begin(), a.col_idx().end());
  std::uint64_t h = fnv1a(a.row_ptr().data(), a.row_ptr().size_bytes());
  h = fnv1a(cols.data(), cols.size() * sizeof(std::int64_t), h);
  return fnv1a(a.values().data(), a.values().size_bytes(), h);
}

CsrMatrix small_symmetric_mm() {
  std::istringstream in("%%MatrixMarket matrix coordinate real symmetric\n"
                        "% lower triangle of a 5x5 SPD matrix\n"
                        "5 5 9\n"
                        "1 1 4.25\n"
                        "2 1 -0.1\n"
                        "2 2 3.5\n"
                        "4 2 -1e-3\n"
                        "3 3 2\n"
                        "5 3 0.3333333333333333\n"
                        "4 4 6.125\n"
                        "5 1 -0.7\n"
                        "5 5 1.75\n");
  return read_matrix_market(in);
}

TEST(CsrGolden, GeneratedArraysArePinned) {
  struct Case {
    std::string name;
    CsrMatrix a;
    index_t nnz;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"poisson3d(8,8,8)", poisson3d(8, 8, 8), 3200, 0x0955a2d3c319cfd4ull},
      {"emilia_like(6,6,6,11)", emilia_like(6, 6, 6, 11).matrix, 4096,
       0xa24f39fb773a0625ull},
      {"audikw_like(4,4,4,11)", audikw_like(4, 4, 4, 11).matrix, 3168,
       0x56147d88bd33691eull},
      {"symmetric mm", small_symmetric_mm(), 13, 0x3ace73de3da6e174ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.a.nnz(), c.nnz);
    EXPECT_EQ(csr_hash(c.a), c.hash)
        << "actual 0x" << std::hex << csr_hash(c.a);
  }
}

} // namespace
} // namespace esrp
