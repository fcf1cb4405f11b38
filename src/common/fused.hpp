// Fused iteration kernels: single-sweep combinations of the BLAS-1
// primitives in common/vec.hpp. The solvers are memory-bandwidth-bound —
// every vec_* call streams its operands from DRAM and pays one thread-pool
// dispatch — so merging the per-iteration update/reduction sequences into
// one pass is the main on-node lever (the inter-node analogue is the
// pipelined formulation's merged allreduce).
//
// Determinism contract (docs/parallelism.md, "Kernel fusion"): every fused
// kernel is bitwise identical to the sequential composition of the unfused
// kernels it replaces, at every thread count.
//   * Multi-dot reductions reuse the fixed kReduceGrain chunking of
//     vec_dot with one independent accumulator per component, so each
//     component reproduces its separate vec_dot exactly.
//   * Fused elementwise updates perform, per index, the same reads and
//     writes in the same order as the unfused call sequence; indices are
//     independent, so any parallel_for chunking gives identical results.
// tests/common/fused_kernels_test.cpp pins both properties at 1/2/4
// threads.
#pragma once

#include <array>
#include <span>
#include <utility>

#include "common/types.hpp"
#include "common/vec.hpp"

namespace esrp {

/// Two dot products from one sweep: {<x1,y1>, <x2,y2>}. Each component is
/// bitwise identical to the corresponding vec_dot. Spans may alias freely
/// (reads only); all sizes must match.
std::pair<real_t, real_t> vec_dot2(std::span<const real_t> x1,
                                   std::span<const real_t> y1,
                                   std::span<const real_t> x2,
                                   std::span<const real_t> y2);

/// Three dot products from one sweep: {<x1,y1>, <x2,y2>, <x3,y3>} — the
/// pipelined iteration's gamma/delta/||r||^2 triple.
std::array<real_t, 3> vec_dot3(std::span<const real_t> x1,
                               std::span<const real_t> y1,
                               std::span<const real_t> x2,
                               std::span<const real_t> y2,
                               std::span<const real_t> x3,
                               std::span<const real_t> y3);

/// The operands of one dot product x^T y.
struct DotOperands {
  std::span<const real_t> x;
  std::span<const real_t> y;
};

/// Per-segment dot products of several operand pairs, from one call over
/// one range: the range [bounds.front(), bounds.back()) is cut into the
/// consecutive segments [bounds[s], bounds[s+1]), and every pair's x and y
/// hold the whole range. partials[s * pairs.size() + k] is pair k's dot
/// over segment s, bitwise vec_dot on that segment's slices at every
/// thread count (an empty segment gives +0). This is how the distributed
/// operator reduces the consecutive ranks of one task without a call per
/// rank.
void vec_dot_segments(std::span<const DotOperands> pairs,
                      std::span<const index_t> bounds,
                      std::span<real_t> partials);

/// z := x - y. `z` may alias `x` or `y` (each index is read before it is
/// written); the residual kernel r = b - Ax uses z == y.
void vec_sub(std::span<const real_t> x, std::span<const real_t> y,
             std::span<real_t> z);

/// One-sweep pair of axpys: y1 += a1 * x1, then y2 += a2 * x2, per index —
/// the x/r update pair of CG. Identical to vec_axpy(y1, a1, x1) followed by
/// vec_axpy(y2, a2, x2) even when x2 aliases y1 (index k of y1 is updated
/// before x2[k] is read, matching the sequential order).
void fused_axpy2(std::span<real_t> y1, real_t a1, std::span<const real_t> x1,
                 std::span<real_t> y2, real_t a2, std::span<const real_t> x2);

/// The pipelined-PCG recurrence tail in one sweep (vs. eight):
///   z <- nv + beta z;  q <- m + beta q;  s <- w + beta s;  p <- u + beta p
///   x += alpha p;  r -= alpha s;  u -= alpha q;  w -= alpha z
/// Per index the statements run in exactly this order, which reproduces the
/// unfused call sequence bit-for-bit: s reads the pre-update w, p the
/// pre-update u, and x/r/u/w read the post-update p/s/q/z.
void fused_pipelined_update(std::span<real_t> z, std::span<const real_t> nv,
                            std::span<real_t> q, std::span<const real_t> m,
                            std::span<real_t> s, std::span<real_t> w,
                            std::span<real_t> p, std::span<real_t> u,
                            std::span<real_t> x, std::span<real_t> r,
                            real_t alpha, real_t beta);

} // namespace esrp
