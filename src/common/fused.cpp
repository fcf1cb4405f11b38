#include "common/fused.hpp"

#include "common/error.hpp"
#include "common/simd.hpp"
#include "parallel/parallel.hpp"

namespace esrp {

// Multi-dot reductions mirror vec_dot exactly: fixed kReduceGrain chunks and,
// within each chunk, one independent set of lane accumulators per component
// with the canonical lane order of common/simd.hpp (stride-4 main loop,
// lane_ordered_sum combine, serial tail). Each component therefore sees the
// same additions in the same order as its separate vec_dot — only the number
// of sweeps over memory changes.

std::pair<real_t, real_t> vec_dot2(std::span<const real_t> x1,
                                   std::span<const real_t> y1,
                                   std::span<const real_t> x2,
                                   std::span<const real_t> y2) {
  ESRP_CHECK(x1.size() == y1.size() && x2.size() == y2.size() &&
             x1.size() == x2.size());
  using Pair = std::pair<real_t, real_t>;
  return parallel_reduce(
      index_t{0}, static_cast<index_t>(x1.size()), kReduceGrain, Pair{0, 0},
      [&](index_t lo, index_t hi) {
        const real_t* x1p = x1.data();
        const real_t* y1p = y1.data();
        const real_t* x2p = x2.data();
        const real_t* y2p = y2.data();
        Vec4 a1 = Vec4::zero();
        Vec4 a2 = Vec4::zero();
        index_t i = lo;
        for (; i + kSimdLanes <= hi; i += kSimdLanes) {
          a1 = a1 + Vec4::load(x1p + i) * Vec4::load(y1p + i);
          a2 = a2 + Vec4::load(x2p + i) * Vec4::load(y2p + i);
        }
        Pair acc{lane_ordered_sum(a1), lane_ordered_sum(a2)};
        for (; i < hi; ++i) {
          acc.first += x1p[i] * y1p[i];
          acc.second += x2p[i] * y2p[i];
        }
        return acc;
      },
      [](Pair a, Pair b) {
        return Pair{a.first + b.first, a.second + b.second};
      });
}

std::array<real_t, 3> vec_dot3(std::span<const real_t> x1,
                               std::span<const real_t> y1,
                               std::span<const real_t> x2,
                               std::span<const real_t> y2,
                               std::span<const real_t> x3,
                               std::span<const real_t> y3) {
  ESRP_CHECK(x1.size() == y1.size() && x2.size() == y2.size() &&
             x3.size() == y3.size());
  ESRP_CHECK(x1.size() == x2.size() && x2.size() == x3.size());
  using Triple = std::array<real_t, 3>;
  return parallel_reduce(
      index_t{0}, static_cast<index_t>(x1.size()), kReduceGrain,
      Triple{0, 0, 0},
      [&](index_t lo, index_t hi) {
        const real_t* x1p = x1.data();
        const real_t* y1p = y1.data();
        const real_t* x2p = x2.data();
        const real_t* y2p = y2.data();
        const real_t* x3p = x3.data();
        const real_t* y3p = y3.data();
        Vec4 a1 = Vec4::zero();
        Vec4 a2 = Vec4::zero();
        Vec4 a3 = Vec4::zero();
        index_t i = lo;
        for (; i + kSimdLanes <= hi; i += kSimdLanes) {
          a1 = a1 + Vec4::load(x1p + i) * Vec4::load(y1p + i);
          a2 = a2 + Vec4::load(x2p + i) * Vec4::load(y2p + i);
          a3 = a3 + Vec4::load(x3p + i) * Vec4::load(y3p + i);
        }
        Triple acc{lane_ordered_sum(a1), lane_ordered_sum(a2),
                   lane_ordered_sum(a3)};
        for (; i < hi; ++i) {
          acc[0] += x1p[i] * y1p[i];
          acc[1] += x2p[i] * y2p[i];
          acc[2] += x3p[i] * y3p[i];
        }
        return acc;
      },
      [](Triple a, Triple b) {
        return Triple{a[0] + b[0], a[1] + b[1], a[2] + b[2]};
      });
}

void vec_dot_segments(std::span<const DotOperands> pairs,
                      std::span<const index_t> bounds,
                      std::span<real_t> partials) {
  ESRP_CHECK(!bounds.empty());
  const std::size_t width = pairs.size();
  ESRP_CHECK(partials.size() == (bounds.size() - 1) * width);
  const index_t origin = bounds.front();
  const auto length = static_cast<std::size_t>(bounds.back() - origin);
  for (const DotOperands& d : pairs)
    ESRP_CHECK(d.x.size() == length && d.y.size() == length);
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    const index_t lo = bounds[s] - origin, hi = bounds[s + 1] - origin;
    ESRP_CHECK(lo <= hi);
    const auto at = static_cast<std::size_t>(lo);
    const auto n = static_cast<std::size_t>(hi - lo);
    real_t* out = partials.data() + s * width;
    for (std::size_t k = 0; k < width; ++k) {
      const DotOperands& d = pairs[k];
      // vec_dot's value: at or below the grain it is one chunk added to its
      // zero init; a longer segment takes its fixed-grain chunking.
      out[k] = hi - lo <= kReduceGrain
                   ? real_t{0} + simd_dot_chunk(d.x.data(), d.y.data(), lo, hi)
                   : vec_dot(d.x.subspan(at, n), d.y.subspan(at, n));
    }
  }
}

// Elementwise fused kernels vectorize statement-wise in stripes of
// kSimdLanes indices: each statement is applied (and its result stored) for
// the whole stripe before the next statement runs. Per index this performs
// the same reads and writes in the same order as the scalar loop, for the
// aliasing patterns the contracts allow (operands identical or disjoint —
// never partially overlapping), so results stay bitwise identical.

void vec_sub(std::span<const real_t> x, std::span<const real_t> y,
             std::span<real_t> z) {
  ESRP_CHECK(x.size() == y.size() && y.size() == z.size());
  parallel_for(index_t{0}, static_cast<index_t>(x.size()),
               elementwise_grain(static_cast<index_t>(x.size())),
               [&](index_t lo, index_t hi) {
                 const real_t* xp = x.data();
                 const real_t* yp = y.data();
                 real_t* zp = z.data();
                 index_t i = lo;
                 for (; i + kSimdLanes <= hi; i += kSimdLanes)
                   (Vec4::load(xp + i) - Vec4::load(yp + i)).store(zp + i);
                 for (; i < hi; ++i) zp[i] = xp[i] - yp[i];
               });
}

void fused_axpy2(std::span<real_t> y1, real_t a1, std::span<const real_t> x1,
                 std::span<real_t> y2, real_t a2, std::span<const real_t> x2) {
  ESRP_CHECK(y1.size() == x1.size() && y2.size() == x2.size() &&
             y1.size() == y2.size());
  parallel_for(index_t{0}, static_cast<index_t>(y1.size()),
               elementwise_grain(static_cast<index_t>(y1.size())),
               [&](index_t lo, index_t hi) {
                 real_t* y1p = y1.data();
                 const real_t* x1p = x1.data();
                 real_t* y2p = y2.data();
                 const real_t* x2p = x2.data();
                 const Vec4 va1 = Vec4::broadcast(a1);
                 const Vec4 va2 = Vec4::broadcast(a2);
                 index_t i = lo;
                 for (; i + kSimdLanes <= hi; i += kSimdLanes) {
                   // The y1 stripe is stored before the x2 stripe loads, so
                   // x2 == y1 reads the updated values as in the scalar loop.
                   (Vec4::load(y1p + i) + va1 * Vec4::load(x1p + i))
                       .store(y1p + i);
                   (Vec4::load(y2p + i) + va2 * Vec4::load(x2p + i))
                       .store(y2p + i);
                 }
                 for (; i < hi; ++i) {
                   y1p[i] += a1 * x1p[i];
                   y2p[i] += a2 * x2p[i];
                 }
               });
}

void fused_pipelined_update(std::span<real_t> z, std::span<const real_t> nv,
                            std::span<real_t> q, std::span<const real_t> m,
                            std::span<real_t> s, std::span<real_t> w,
                            std::span<real_t> p, std::span<real_t> u,
                            std::span<real_t> x, std::span<real_t> r,
                            real_t alpha, real_t beta) {
  const std::size_t n = z.size();
  ESRP_CHECK(nv.size() == n && q.size() == n && m.size() == n &&
             s.size() == n && w.size() == n && p.size() == n &&
             u.size() == n && x.size() == n && r.size() == n);
  parallel_for(
      index_t{0}, static_cast<index_t>(n),
      elementwise_grain(static_cast<index_t>(n)), [&](index_t lo, index_t hi) {
        real_t* zp = z.data();
        const real_t* nvp = nv.data();
        real_t* qp = q.data();
        const real_t* mp = m.data();
        real_t* sp = s.data();
        real_t* wp = w.data();
        real_t* pp = p.data();
        real_t* up = u.data();
        real_t* xp = x.data();
        real_t* rp = r.data();
        const Vec4 va = Vec4::broadcast(alpha);
        const Vec4 vb = Vec4::broadcast(beta);
        index_t i = lo;
        for (; i + kSimdLanes <= hi; i += kSimdLanes) {
          // Statement order matches the scalar loop: s reads the pre-update
          // w and p the pre-update u (loaded before w/u are stored), x/r/u/w
          // read the just-stored post-update p/s/q/z.
          const Vec4 zv = Vec4::load(nvp + i) + vb * Vec4::load(zp + i);
          zv.store(zp + i);
          const Vec4 qv = Vec4::load(mp + i) + vb * Vec4::load(qp + i);
          qv.store(qp + i);
          const Vec4 sv = Vec4::load(wp + i) + vb * Vec4::load(sp + i);
          sv.store(sp + i);
          const Vec4 pv = Vec4::load(up + i) + vb * Vec4::load(pp + i);
          pv.store(pp + i);
          (Vec4::load(xp + i) + va * pv).store(xp + i);
          (Vec4::load(rp + i) - va * sv).store(rp + i);
          (Vec4::load(up + i) - va * qv).store(up + i);
          (Vec4::load(wp + i) - va * zv).store(wp + i);
        }
        for (; i < hi; ++i) {
          zp[i] = nvp[i] + beta * zp[i];
          qp[i] = mp[i] + beta * qp[i];
          sp[i] = wp[i] + beta * sp[i];
          pp[i] = up[i] + beta * pp[i];
          xp[i] += alpha * pp[i];
          rp[i] -= alpha * sp[i];
          up[i] -= alpha * qp[i];
          wp[i] -= alpha * zp[i];
        }
      });
}

} // namespace esrp
