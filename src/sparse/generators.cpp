#include "sparse/generators.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"

namespace esrp {

CsrMatrix laplace1d(index_t n) {
  ESRP_CHECK(n > 0);
  CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, 2);
    if (i + 1 < n) {
      b.add(i, i + 1, -1);
      b.add(i + 1, i, -1);
    }
  }
  return std::move(b).to_csr();
}

CsrMatrix poisson2d(index_t nx, index_t ny) {
  ESRP_CHECK(nx > 0 && ny > 0);
  const index_t n = nx * ny;
  CooBuilder b(n, n);
  auto id = [nx](index_t ix, index_t iy) { return iy * nx + ix; };
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx; ++ix) {
      const index_t i = id(ix, iy);
      b.add(i, i, 4);
      if (ix > 0) b.add(i, id(ix - 1, iy), -1);
      if (ix + 1 < nx) b.add(i, id(ix + 1, iy), -1);
      if (iy > 0) b.add(i, id(ix, iy - 1), -1);
      if (iy + 1 < ny) b.add(i, id(ix, iy + 1), -1);
    }
  }
  return std::move(b).to_csr();
}

CsrMatrix poisson3d(index_t nx, index_t ny, index_t nz) {
  ESRP_CHECK(nx > 0 && ny > 0 && nz > 0);
  const index_t n = nx * ny * nz;
  CooBuilder b(n, n);
  b.reserve(static_cast<std::size_t>(7 * n)); // the diagonal + 6 neighbours
  auto id = [nx, ny](index_t ix, index_t iy, index_t iz) {
    return (iz * ny + iy) * nx + ix;
  };
  for (index_t iz = 0; iz < nz; ++iz) {
    for (index_t iy = 0; iy < ny; ++iy) {
      for (index_t ix = 0; ix < nx; ++ix) {
        const index_t i = id(ix, iy, iz);
        b.add(i, i, 6);
        if (ix > 0) b.add(i, id(ix - 1, iy, iz), -1);
        if (ix + 1 < nx) b.add(i, id(ix + 1, iy, iz), -1);
        if (iy > 0) b.add(i, id(ix, iy - 1, iz), -1);
        if (iy + 1 < ny) b.add(i, id(ix, iy + 1, iz), -1);
        if (iz > 0) b.add(i, id(ix, iy, iz - 1), -1);
        if (iz + 1 < nz) b.add(i, id(ix, iy, iz + 1), -1);
      }
    }
  }
  return std::move(b).to_csr();
}

CsrMatrix banded_spd(index_t n, index_t half_bandwidth, double fill,
                     std::uint64_t seed) {
  ESRP_CHECK(n > 0 && half_bandwidth >= 0);
  ESRP_CHECK(fill >= 0 && fill <= 1);
  Rng rng(seed);
  CooBuilder b(n, n);
  Vector row_abs_sum(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) {
    const index_t j_end = std::min(n, i + half_bandwidth + 1);
    for (index_t j = i + 1; j < j_end; ++j) {
      if (rng.next_double() >= fill) continue;
      const real_t v = rng.uniform(-1.0, 1.0);
      if (v == real_t{0}) continue;
      b.add_sym(i, j, v);
      row_abs_sum[static_cast<std::size_t>(i)] += std::abs(v);
      row_abs_sum[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  // Strict diagonal dominance => SPD for a symmetric matrix.
  for (index_t i = 0; i < n; ++i)
    b.add(i, i, row_abs_sum[static_cast<std::size_t>(i)] + rng.uniform(0.5, 1.5));
  return std::move(b).to_csr();
}

namespace {

/// Shared edge-based assembly: for each (i, j, w) adds the PSD term
/// w * (e_i - e_j)(e_i - e_j)^T, guaranteeing symmetric positive
/// semi-definiteness; a final positive diagonal shift makes it definite.
class GraphLaplacianAssembler {
public:
  /// `max_edges` bounds the add_edge calls: each queues 4 triplets, and
  /// finish() n more.
  GraphLaplacianAssembler(index_t n, index_t max_edges)
      : builder_(n, n), n_(n) {
    builder_.reserve(static_cast<std::size_t>(4 * max_edges + n));
  }

  void add_edge(index_t i, index_t j, real_t w) {
    builder_.add(i, i, w);
    builder_.add(j, j, w);
    builder_.add(i, j, -w);
    builder_.add(j, i, -w);
  }

  CsrMatrix finish(real_t diag_shift) {
    for (index_t i = 0; i < n_; ++i) builder_.add(i, i, diag_shift);
    return std::move(builder_).to_csr();
  }

private:
  CooBuilder builder_;
  index_t n_;
};

} // namespace

CsrMatrix diffusion3d_27pt(index_t nx, index_t ny, index_t nz, real_t contrast,
                           std::uint64_t seed, real_t shift,
                           real_t anisotropy_y, real_t anisotropy_z) {
  ESRP_CHECK(nx > 0 && ny > 0 && nz > 0);
  ESRP_CHECK(contrast >= 1);
  ESRP_CHECK(shift > 0);
  ESRP_CHECK(anisotropy_y > 0 && anisotropy_z > 0);
  Rng rng(seed);
  const index_t n = nx * ny * nz;
  GraphLaplacianAssembler asm_(n, 13 * n); // 13 positive offsets per point
  auto id = [nx, ny](index_t ix, index_t iy, index_t iz) {
    return (iz * ny + iy) * nx + ix;
  };
  const real_t log_c = std::log(contrast);
  // Enumerate each undirected edge once: offsets lexicographically positive.
  for (index_t iz = 0; iz < nz; ++iz) {
    for (index_t iy = 0; iy < ny; ++iy) {
      for (index_t ix = 0; ix < nx; ++ix) {
        const index_t i = id(ix, iy, iz);
        for (index_t dz = 0; dz <= 1; ++dz) {
          for (index_t dy = (dz == 0 ? 0 : -1); dy <= 1; ++dy) {
            for (index_t dx = (dz == 0 && dy == 0 ? 1 : -1); dx <= 1; ++dx) {
              const index_t jx = ix + dx, jy = iy + dy, jz = iz + dz;
              if (jx < 0 || jx >= nx || jy < 0 || jy >= ny || jz >= nz)
                continue;
              // Log-uniform weight in [1/contrast, contrast], scaled by the
              // directional anisotropy of the edge.
              real_t w = std::exp(rng.uniform(-log_c, log_c));
              if (dy != 0) w *= anisotropy_y;
              if (dz != 0) w *= anisotropy_z;
              asm_.add_edge(i, id(jx, jy, jz), w);
            }
          }
        }
      }
    }
  }
  // The shift keeps the matrix definite without flattening the spectrum.
  return asm_.finish(shift);
}

CsrMatrix elasticity3d(index_t nx, index_t ny, index_t nz, real_t contrast,
                       std::uint64_t seed, real_t shift, real_t anisotropy_y,
                       real_t anisotropy_z) {
  ESRP_CHECK(nx > 0 && ny > 0 && nz > 0);
  ESRP_CHECK(contrast >= 1);
  ESRP_CHECK(shift > 0);
  ESRP_CHECK(anisotropy_y > 0 && anisotropy_z > 0);
  Rng rng(seed);
  constexpr index_t kDof = 3;
  const index_t points = nx * ny * nz;
  const index_t n = points * kDof;
  CooBuilder b(n, n);
  // At most 3 edges per point, each queueing 4 triplets per block entry,
  // then the n diagonal shifts.
  b.reserve(static_cast<std::size_t>(3 * points * 4 * kDof * kDof + n));

  auto id = [nx, ny](index_t ix, index_t iy, index_t iz) {
    return (iz * ny + iy) * nx + ix;
  };

  // Random symmetric positive definite 3x3 coupling block with eigenvalues
  // roughly spanning [1, contrast]: B = R^T D R with R a random rotation-ish
  // matrix and D log-spread diagonal.
  auto random_block = [&rng, contrast]() {
    DenseMatrix r(kDof, kDof);
    for (index_t i = 0; i < kDof; ++i)
      for (index_t j = 0; j < kDof; ++j) r(i, j) = rng.uniform(-1.0, 1.0);
    DenseMatrix d(kDof, kDof);
    const real_t log_c = std::log(contrast);
    for (index_t i = 0; i < kDof; ++i) d(i, i) = std::exp(rng.uniform(0.0, log_c));
    // B = R^T D R + eps I (symmetric PD).
    DenseMatrix rt = r.transpose();
    DenseMatrix b3 = rt.multiply(d).multiply(r);
    for (index_t i = 0; i < kDof; ++i) b3(i, i) += 1e-3;
    // Symmetrize against floating-point asymmetry from the triple product.
    for (index_t i = 0; i < kDof; ++i)
      for (index_t j = i + 1; j < kDof; ++j) {
        const real_t avg = (b3(i, j) + b3(j, i)) / 2;
        b3(i, j) = avg;
        b3(j, i) = avg;
      }
    return b3;
  };

  auto add_edge = [&](index_t pi, index_t pj, real_t scale) {
    DenseMatrix blk = random_block();
    for (index_t bi = 0; bi < kDof; ++bi)
      for (index_t bj = 0; bj < kDof; ++bj) blk(bi, bj) *= scale;
    // For u = (.., u_i, .., u_j, ..): the term (u_i - u_j)^T B (u_i - u_j)
    // contributes +B to (i,i) and (j,j) and -B to (i,j), (j,i).
    for (index_t a = 0; a < kDof; ++a) {
      for (index_t c = 0; c < kDof; ++c) {
        const real_t v = blk(a, c);
        if (v == real_t{0}) continue;
        b.add(pi * kDof + a, pi * kDof + c, v);
        b.add(pj * kDof + a, pj * kDof + c, v);
        b.add(pi * kDof + a, pj * kDof + c, -v);
        b.add(pj * kDof + a, pi * kDof + c, -v);
      }
    }
  };

  for (index_t iz = 0; iz < nz; ++iz) {
    for (index_t iy = 0; iy < ny; ++iy) {
      for (index_t ix = 0; ix < nx; ++ix) {
        const index_t p = id(ix, iy, iz);
        if (ix + 1 < nx) add_edge(p, id(ix + 1, iy, iz), 1);
        if (iy + 1 < ny) add_edge(p, id(ix, iy + 1, iz), anisotropy_y);
        if (iz + 1 < nz) add_edge(p, id(ix, iy, iz + 1), anisotropy_z);
      }
    }
  }
  for (index_t i = 0; i < n; ++i) b.add(i, i, shift);
  return std::move(b).to_csr();
}

TestProblem emilia_like(index_t nx, index_t ny, index_t nz, std::uint64_t seed) {
  TestProblem p;
  p.name = "emilia_like_" + std::to_string(nx) + "x" + std::to_string(ny) +
           "x" + std::to_string(nz);
  p.problem_type = "Structural (3D 27-pt variable-coefficient diffusion)";
  // Contrast, shift and anisotropy tuned so the default 32^3 instance needs
  // ~1200 block-Jacobi PCG iterations — the laptop-scale counterpart of
  // Emilia_923's C = 10279 (a geomechanical mesh with depth-thin elements,
  // hence the weak coupling along z). The anisotropy is z-only so that the
  // slabs owned by contiguous rank blocks stay well-conditioned and the
  // Alg. 2 inner solves remain much cheaper than the global solve, as in
  // the paper.
  p.matrix = diffusion3d_27pt(nx, ny, nz, /*contrast=*/1e3, seed,
                              /*shift=*/1e-4, /*anisotropy_y=*/1.0,
                              /*anisotropy_z=*/1e-3);
  return p;
}

TestProblem audikw_like(index_t nx, index_t ny, index_t nz, std::uint64_t seed) {
  TestProblem p;
  p.name = "audikw_like_" + std::to_string(nx) + "x" + std::to_string(ny) +
           "x" + std::to_string(nz);
  p.problem_type = "Structural (3D elasticity-like, 3 dof/point)";
  // Tuned so the default 20^3 instance needs ~1100 block-Jacobi PCG
  // iterations (paper: audikw_1 converges in C = 5543). z-only anisotropy
  // for the same subdomain-conditioning reason as emilia_like.
  p.matrix = elasticity3d(nx, ny, nz, /*contrast=*/1e3, seed, /*shift=*/3e-3,
                          /*anisotropy_y=*/1.0, /*anisotropy_z=*/0.1);
  return p;
}

TestProblem emilia_like_default() { return emilia_like(32, 32, 32); }

TestProblem audikw_like_default() { return audikw_like(20, 20, 20); }

} // namespace esrp
