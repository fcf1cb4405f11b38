#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(MatrixMarket, ParsesGeneralCoordinate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "2 3 3\n"
      "1 1 1.5\n"
      "2 3 -2\n"
      "1 2 4\n");
  const CsrMatrix a = read_matrix_market(in);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -2);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4);
}

TEST(MatrixMarket, SymmetricFilesAreExpanded) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2\n"
      "2 1 -1\n"
      "3 3 5\n");
  const CsrMatrix a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 4); // off-diagonal mirrored, diagonals not duplicated
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(MatrixMarket, RejectsUnsupportedFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(MatrixMarket, RejectsMalformedSizeLine) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  for (const std::string size_line :
       {"3 3", "3 3 x", "3 3 1 7", "3", "0 3 0", "3 0 0", "-3 3 0",
        "3 3 -1", "3.5 3 1", "3 3 1.5"}) {
    std::istringstream in(banner + size_line + "\n1 1 1.0\n");
    EXPECT_THROW(read_matrix_market(in), Error) << "\"" << size_line << "\"";
  }
  // Trailing whitespace after the three integers is fine.
  std::istringstream ok(banner + "3 3 1 \t\n1 1 1.0\n");
  EXPECT_EQ(read_matrix_market(ok).nnz(), 1);
}

TEST(MatrixMarket, RejectsColumnCountBeyondColT) {
  // Caught at construction, before anything sized by the dimensions is
  // allocated (a 3e9-row symmetric matrix would need a 24 GB row_ptr).
  for (const std::string file :
       {"%%MatrixMarket matrix coordinate real general\n1 3000000000 0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3000000000 3000000000 0\n"}) {
    std::istringstream in(file);
    EXPECT_THROW(read_matrix_market(in), Error) << file;
  }
}

TEST(MatrixMarket, RejectsMalformedEntryLines) {
  const std::string general = "%%MatrixMarket matrix coordinate real general\n";
  const std::string symmetric =
      "%%MatrixMarket matrix coordinate real symmetric\n";
  for (const std::string& file :
       {general + "2 2 1\n1 1 1.0 junk\n", general + "2 2 1\n2 2 3.0 4.0\n",
        general + "2 2 1\n1 x 1.0\n",
        symmetric + "2 2 3\n1 1 2\n1 2 -1\n2 1 -1\n",
        symmetric + "2 2 2\n2 1 -1\n2 1 -1\n",
        symmetric + "2 3 1\n1 1 1.0\n"}) {
    std::istringstream in(file);
    EXPECT_THROW(read_matrix_market(in), Error) << file;
  }
  // Trailing whitespace after the value is fine.
  std::istringstream ok(general + "2 2 1\n1 1 1.0 \t\n");
  EXPECT_EQ(read_matrix_market(ok).nnz(), 1);
}

TEST(MatrixMarket, RejectsDuplicateGeneralEntries) {
  const std::string general = "%%MatrixMarket matrix coordinate real general\n";
  // Summed by CooBuilder, this would load silently as a(0,0) = 3.
  std::istringstream twice(general + "2 2 2\n1 1 1.0\n1 1 2.0\n");
  EXPECT_THROW(read_matrix_market(twice), Error);
  // Repeats need not be adjacent in the file.
  std::istringstream apart(general + "2 2 3\n2 1 1.0\n1 2 5.0\n2 1 1.0\n");
  EXPECT_THROW(read_matrix_market(apart), Error);
  // A general file may list both (i, j) and (j, i): they are distinct.
  std::istringstream mirrored(general + "2 2 2\n2 1 1.0\n1 2 5.0\n");
  const CsrMatrix a = read_matrix_market(mirrored);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.at(0, 1), 5.0);
  EXPECT_EQ(a.at(1, 0), 1.0);
}

TEST(MatrixMarket, RejectsOutOfRangeGeneralIndices) {
  // Matrix Market indices are 1-based: row 0 and a column past `cols` are
  // both outside a 2 x 3 matrix.
  const std::string general = "%%MatrixMarket matrix coordinate real general\n";
  for (const std::string& file :
       {general + "2 3 1\n0 1 1.0\n", general + "2 3 1\n1 4 1.0\n"}) {
    std::istringstream in(file);
    EXPECT_THROW(read_matrix_market(in), Error) << file;
  }
}

TEST(MatrixMarket, RejectsPatternAndComplexFields) {
  // A pattern file has no values and a complex one two per entry; neither
  // is a real SPD system.
  for (const std::string& file :
       {std::string("%%MatrixMarket matrix coordinate pattern general\n"
                    "2 2 1\n1 1\n"),
        std::string("%%MatrixMarket matrix coordinate complex general\n"
                    "2 2 1\n1 1 1.0 0.0\n")}) {
    std::istringstream in(file);
    EXPECT_THROW(read_matrix_market(in), Error) << file;
  }
}

TEST(MatrixMarket, RoundTripPreservesMatrix) {
  const CsrMatrix a = banded_spd(25, 4, 0.5, /*seed=*/77);
  std::ostringstream out;
  write_matrix_market(out, a);
  std::istringstream in(out.str());
  const CsrMatrix b = read_matrix_market(in);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j : a.row_cols(i)) EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
}

TEST(MatrixMarket, FileRoundTrip) {
  const CsrMatrix a = laplace1d(6);
  const std::string path = testing::TempDir() + "/esrp_mm_test.mtx";
  write_matrix_market_file(path, a);
  const CsrMatrix b = read_matrix_market_file(path);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_DOUBLE_EQ(b.at(3, 2), -1);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"), Error);
}

} // namespace
} // namespace esrp
