// Fundamental scalar and index types shared by every module.
#pragma once

#include <cstdint>
#include <cstddef>

namespace esrp {

/// Floating-point scalar used throughout the library.
using real_t = double;

/// Signed index type for matrix/vector dimensions. Signed so that index
/// arithmetic in partitioning code (differences, modular wrap-around of
/// ranks) cannot underflow.
using index_t = std::int64_t;

/// Stored column index of a sparse matrix: CsrMatrix columns and the local
/// columns of a distributed SpMV plan. 32-bit because every nonzero streams
/// one, so a matrix has at most INT32_MAX columns; row offsets (nnz can pass
/// 2^31) and every other index stay index_t.
using col_t = std::int32_t;

/// Rank of a node in the (simulated) cluster.
using rank_t = std::int32_t;

} // namespace esrp
