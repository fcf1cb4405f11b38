#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sparse/coo.hpp"

namespace esrp {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

} // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  ESRP_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                 "empty Matrix Market stream");

  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  ESRP_CHECK_MSG(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  ESRP_CHECK_MSG(lower(object) == "matrix", "unsupported object: " << object);
  ESRP_CHECK_MSG(lower(format) == "coordinate",
                 "only coordinate format is supported, got " << format);
  const std::string f = lower(field);
  ESRP_CHECK_MSG(f == "real" || f == "integer",
                 "only real/integer fields are supported, got " << field);
  const std::string sym = lower(symmetry);
  ESRP_CHECK_MSG(sym == "general" || sym == "symmetric",
                 "only general/symmetric matrices are supported, got "
                     << symmetry);

  // Skip comments and blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  // Exactly three integers "rows cols nnz": a missing or non-numeric field,
  // or anything after nnz, would otherwise load a silently wrong matrix.
  std::istringstream sizes(line);
  index_t rows = 0, cols = 0, nnz = 0;
  std::string trailing;
  const bool parsed = static_cast<bool>(sizes >> rows >> cols >> nnz) &&
                      !(sizes >> trailing);
  ESRP_CHECK_MSG(parsed && rows > 0 && cols > 0 && nnz >= 0,
                 "invalid size line \"" << line
                                        << "\": expected \"rows cols nnz\" "
                                           "with rows, cols > 0, nnz >= 0");
  const bool symmetric = sym == "symmetric";
  ESRP_CHECK_MSG(!symmetric || rows == cols,
                 "symmetric matrix with non-square size " << rows << "x" << cols);
  const auto entries = static_cast<std::size_t>(nnz);

  CooBuilder builder(rows, cols);
  // Every listed position, to reject one given twice: CooBuilder sums
  // duplicates, so a repeat would silently load as the sum. Symmetric
  // positions are folded onto the lower triangle, which also rejects an
  // entry listed together with its mirror (add_sym would double it).
  std::vector<std::pair<index_t, index_t>> positions;
  std::size_t seen = 0;
  while (seen < entries && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream entry(line);
    index_t i = 0, j = 0;
    real_t v = 0;
    const bool ok = static_cast<bool>(entry >> i >> j >> v) && !(entry >> trailing);
    ESRP_CHECK_MSG(ok, "malformed entry line: " << line);
    if (symmetric) {
      builder.add_sym(i - 1, j - 1, v);
      positions.emplace_back(std::max(i, j), std::min(i, j));
    } else {
      builder.add(i - 1, j - 1, v);
      positions.emplace_back(i, j);
    }
    ++seen;
  }
  ESRP_CHECK_MSG(seen == entries,
                 "expected " << entries << " entries, found " << seen);
  std::sort(positions.begin(), positions.end());
  const auto repeat = std::adjacent_find(positions.begin(), positions.end());
  ESRP_CHECK_MSG(repeat == positions.end(),
                 "matrix lists entry (" << repeat->first << ", "
                                        << repeat->second << ") twice"
                                        << (symmetric ? " (or with its mirror)"
                                                      : ""));
  return builder.to_csr();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  ESRP_CHECK_MSG(in.is_open(), "cannot open Matrix Market file: " << path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k)
      out << (i + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  ESRP_CHECK_MSG(out.is_open(), "cannot open file for writing: " << path);
  write_matrix_market(out, a);
}

} // namespace esrp
