#pragma once
// Lane kernels: small fixed-shape arithmetic run on many independent lanes
// at once — Winograd tiles or filter panels through one transform, row
// elements through the Q16 quantizer. The bodies are stamped baseline,
// AVX2 and AVX-512 like the GEMM micro-kernels (lane_kernels.inc) and
// selected at runtime; with HETACC_NO_SIMD a scalar twin runs. Every stamp
// computes each lane with the scalar expression sequence, so the output
// bytes do not depend on the stamp.

#include <cstddef>

namespace hetacc::kernels {

/// Largest inner dimension `b` lane_transform supports.
inline constexpr int kLaneTransformMaxDim = 16;

/// Y = L . X . R^T on `lanes` independent lanes: L and R are a x b row-major
/// constants (a, b in [1, kLaneTransformMaxDim]), X is b x b and Y is a x a
/// per lane. Element (k, c) of X is a run of lanes starting at
/// x[(k * b + c) * xs], element (r, s) of Y one starting at
/// y[(r * a + s) * ys]; the runs are contiguous, so a caller whose lanes
/// are adjacent in memory (consecutive tiles of one channel in a transform
/// plane, the output channels of one packed panel) reads and writes them in
/// place.
///
/// Each lane equals the scalar composition P = L . X, Y = P . R^T with
/// k-ascending sums from +0: the first product skips zero entries of L, so
/// an infinite X element meets no 0 * inf; the second adds every term (a
/// zero of P adds a signed zero to a sum that is never -0, a no-op). The
/// Winograd transforms are Bt d Bt^T (L = R = B^T), At M At^T (L = R = A^T)
/// and G g G^T (L = R = G).
void lane_transform(const double* L, const double* R, int a, int b,
                    const double* x, std::size_t xs, double* y,
                    std::size_t ys, int lanes);

/// dst[i] = fixed::quantize_to_float(src[i], frac) for every non-NaN
/// src[i]; a NaN yields +0. 8 lanes per vector (16 on the AVX-512 stamp).
/// `dst` may alias `src`.
void snap_q16(const float* src, float* dst, std::size_t n, int frac);

}  // namespace hetacc::kernels
