#include "api/registry.hpp"

#include <algorithm>
#include <sstream>

#include "partition/partition.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/ic0.hpp"
#include "precond/jacobi.hpp"
#include "precond/ssor.hpp"
#include "sparse/matrix_market.hpp"

namespace esrp {

namespace {

/// Classic Levenshtein distance; key sets are tiny so the O(n*m) table is
/// irrelevant.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      const std::size_t subst = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      prev = cur;
    }
  }
  return row[b.size()];
}

/// Dimension list "NX,NY,..." -> exactly `count` positive integers.
std::vector<index_t> parse_dims(const std::string& kind,
                                const std::string& arg, std::size_t count) {
  std::vector<index_t> dims;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok = arg.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t used = 0;
    index_t value = 0;
    try {
      value = static_cast<index_t>(std::stoll(tok, &used));
    } catch (const std::exception&) {
      used = 0;
    }
    if (tok.empty() || used != tok.size() || value <= 0)
      throw Error("matrix \"" + kind + "\" needs " + std::to_string(count) +
                  " positive comma-separated dimensions, got \"" + arg + "\"");
    dims.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (dims.size() != count)
    throw Error("matrix \"" + kind + "\" needs " + std::to_string(count) +
                " dimensions, got " + std::to_string(dims.size()) + " in \"" +
                arg + "\"");
  return dims;
}

} // namespace

std::string unknown_key_message(const std::string& kind, std::string_view key,
                                const std::vector<std::string>& valid) {
  std::ostringstream os;
  os << "unknown " << kind << " \"" << key << "\"";
  // Suggest the closest key when the typo is plausible (distance at most 2,
  // or a third of the key length for long keys).
  std::size_t best = static_cast<std::size_t>(-1);
  const std::string* match = nullptr;
  for (const std::string& candidate : valid) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best) {
      best = d;
      match = &candidate;
    }
  }
  if (match && best <= std::max<std::size_t>(2, key.size() / 3))
    os << " — did you mean \"" << *match << "\"?";
  os << " valid " << kind << " keys: ";
  for (std::size_t i = 0; i < valid.size(); ++i)
    os << (i ? ", " : "") << valid[i];
  return os.str();
}

Registry<PrecondEntry>& precond_registry() {
  static Registry<PrecondEntry>* reg = [] {
    auto* r = new Registry<PrecondEntry>("preconditioner");
    r->add("identity", "no preconditioning (plain CG)",
           PrecondEntry{
               [](const PrecondContext& ctx)
                   -> std::unique_ptr<Preconditioner> {
                 return std::make_unique<IdentityPreconditioner>(ctx.a.rows());
               }});
    r->add("jacobi", "point Jacobi: P = diag(A)^-1",
           PrecondEntry{
               [](const PrecondContext& ctx)
                   -> std::unique_ptr<Preconditioner> {
                 return std::make_unique<JacobiPreconditioner>(ctx.a);
               }});
    r->add("block-jacobi",
           "node-aligned block Jacobi, size <= block_size (paper setup)",
           PrecondEntry{
               [](const PrecondContext& ctx)
                   -> std::unique_ptr<Preconditioner> {
                 if (ctx.part)
                   return std::make_unique<BlockJacobiPreconditioner>(
                       ctx.a, *ctx.part, ctx.spec.block_size);
                 return std::make_unique<BlockJacobiPreconditioner>(
                     ctx.a, ctx.spec.block_size);
               }});
    r->add("ssor", "symmetric SOR sweeps (sequential solvers only)",
           PrecondEntry{[](const PrecondContext& ctx)
                            -> std::unique_ptr<Preconditioner> {
                          return std::make_unique<SsorPreconditioner>(
                              ctx.a, ctx.spec.ssor_omega);
                        },
                        /*explicit_action=*/false});
    r->add("ic0", "incomplete Cholesky IC(0) (sequential solvers only)",
           PrecondEntry{[](const PrecondContext& ctx)
                            -> std::unique_ptr<Preconditioner> {
                          return std::make_unique<Ic0Preconditioner>(
                              ctx.a, ctx.spec.ic0_shift);
                        },
                        /*explicit_action=*/false});
    return r;
  }();
  return *reg;
}

Registry<MatrixFactory>& matrix_registry() {
  static Registry<MatrixFactory>* reg = [] {
    auto* r = new Registry<MatrixFactory>("matrix");
    r->add("emilia",
           "Emilia_923 stand-in; optional :NX,NY,NZ grid (default bench "
           "scale)",
           [](const std::string& arg) {
             if (arg.empty()) return emilia_like_default();
             const auto d = parse_dims("emilia", arg, 3);
             return emilia_like(d[0], d[1], d[2]);
           });
    r->add("audikw",
           "audikw_1 stand-in; optional :NX,NY,NZ grid (default bench scale)",
           [](const std::string& arg) {
             if (arg.empty()) return audikw_like_default();
             const auto d = parse_dims("audikw", arg, 3);
             return audikw_like(d[0], d[1], d[2]);
           });
    r->add("poisson2d", ":NX,NY — 2D Poisson 5-point stencil (Dirichlet)",
           [](const std::string& arg) {
             const auto d = parse_dims("poisson2d", arg, 2);
             return TestProblem{"poisson2d", "2D Poisson 5-pt",
                                poisson2d(d[0], d[1])};
           });
    r->add("poisson3d", ":NX,NY,NZ — 3D Poisson 7-point stencil (Dirichlet)",
           [](const std::string& arg) {
             const auto d = parse_dims("poisson3d", arg, 3);
             return TestProblem{"poisson3d", "3D Poisson 7-pt",
                                poisson3d(d[0], d[1], d[2])};
           });
    r->add("laplace1d", ":N — 1D Laplacian tridiag(-1, 2, -1)",
           [](const std::string& arg) {
             const auto d = parse_dims("laplace1d", arg, 1);
             return TestProblem{"laplace1d", "1D Laplacian", laplace1d(d[0])};
           });
    r->add("mm", ":<file.mtx> — Matrix Market file",
           [](const std::string& arg) {
             if (arg.empty())
               throw Error("matrix \"mm\" needs a file path: mm:<file.mtx>");
             return TestProblem{arg, "Matrix Market",
                                read_matrix_market_file(arg)};
           });
    return r;
  }();
  return *reg;
}

TestProblem resolve_matrix(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string arg =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  return matrix_registry().get(spec.substr(0, colon))(arg);
}

void check_matrix_key(const std::string& spec) {
  (void)matrix_registry().get(spec.substr(0, spec.find(':')));
}

} // namespace esrp
