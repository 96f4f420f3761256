#pragma once
// Winograd F(m x m, r x r) restructured as batched transform-domain GEMMs.
//
// Instead of the seed's per-tile elementwise channel loop, all tiles of a
// band of tile rows are gathered, input-transformed, and laid out as n^2
// planes V[ab] of shape (in_c x tiles). One GEMM per tile position ab then
// computes M[ab] (out_c x tiles) = U[ab] (out_c x in_c) * V[ab], and the
// inverse transform scatters each (oc, tile) back to output rows. The
// filters are transformed and packed into GEMM panels exactly once per layer
// (WinogradPlan), so no band ever re-lays them out.
//
// The three transforms run on kernels::lane_transform (lanes.h), one
// routine with the inner dimension fixed at compile time and a vector of
// lanes per operation: B^T d B with the T tiles of one input channel as the
// lanes, so each transform plane receives a contiguous run, and A^T M A
// with the T tiles of one output channel as the lanes, read in place from
// the GEMM planes (the filter transform G g G^T is algo::winograd_plan's).
//
// Determinism: parallelism is across input channels (gather + forward
// transform), tile positions (GEMM batch) and output channels (inverse
// transform + scatter) — independent outputs only. Each output element's
// accumulation chain depends only on (in_c, KC), never on the thread count,
// the chunking, or how many tile rows share a band: the GEMM's columns and
// the transforms' lanes are independent.
//
// Scratch (transform planes, band windows) comes from the calling thread's
// ScratchArena, so repeated bands/images run with zero steady-state heap
// allocations.
//
// The same band kernel runs the 16-bit DSP model (algo::winograd_conv_fixed):
// with the plan's planes snapped to Q(u_frac) and V snapped to Q(v_frac),
// every transform-domain product and sum is exact in double (see
// kExactQ16MaxDepth in gemm.h), so the f64 GEMM yields the int64 MAC sums
// times 2^-(u_frac + v_frac) bit for bit; the pre- and post-transforms
// mirror the accumulation order of algo::Matrix::operator*: k-ascending
// sums from +0 that skip zero entries of the constant left factor. Only
// that skip matters (0 * inf is NaN); the Matrix form's skip of a zero data
// element on the right-hand product adds a signed zero to a sum that is
// never -0, which changes nothing, so lane_transform adds every term there.

#include <vector>

#include "kernels/gemm.h"
#include "kernels/lanes.h"

namespace hetacc::kernels {

/// Largest supported transform size n = m + r - 1 (the lane transform's
/// largest inner dimension).
inline constexpr int kWinogradMaxN = kLaneTransformMaxDim;

/// A Winograd layer packed for batched transform-domain GEMM: the transform
/// matrices as flat doubles plus the pre-transformed filters as n^2 planes of
/// (out_c x in_c), each held only as pre-packed GEMM panels. Built once per
/// layer (see algo::winograd_plan) and shared across images and engine
/// instances.
struct WinogradPlan {
  int m = 0, r = 0, n = 0;
  int out_c = 0, in_c = 0;
  std::vector<double> bt;            ///< n x n, row-major
  std::vector<double> at;            ///< m x n, row-major
  std::vector<PackedLhsF64> planes;  ///< [n*n], each out_c x in_c

  /// Resident bytes: transform matrices plus every packed plane block.
  [[nodiscard]] long long footprint_bytes() const {
    long long total =
        static_cast<long long>((bt.size() + at.size()) * sizeof(double));
    for (const auto& p : planes) total += p.footprint_bytes();
    return total;
  }
};

/// Tile rows a band kernel call should cover on a map `tiles_h` x `tiles_w`
/// tiles: the fewest rows whose tiles fill 16 GEMM columns (two f64 panels
/// of the AVX2 stamp, one of the AVX-512 stamp), capped at the map. A
/// function of the geometry only, never of the stamp.
[[nodiscard]] int winograd_band_rows(int tiles_h, int tiles_w);

/// Computes a band of `band_rows` tile rows (every tile column of each).
///
/// `band` is the pre-padded input window, [in_c][(band_rows - 1) * m + n]
/// [band_w] row-major with band_w >= (tiles_w - 1) * m + n; anything outside
/// the real (padded) image must already be zero-filled. Output goes through
/// `out_rows`: one pointer per (row, output channel) —
/// out_rows[row * out_c + oc] — each addressing at least out_w floats;
/// rows_out (<= band_rows * m) bottom-clips the band, out_w right-clips the
/// tiles. `v_frac < 0` multiplies the transformed input V as computed;
/// otherwise each V element is snapped to Q(v_frac) before the GEMM (the
/// 16-bit multiplier input of the DSP model). `out_frac < 0` leaves outputs
/// in float; otherwise each output is quantized to Q(out_frac). Every output
/// byte equals what band_rows one-row calls would write. Transform planes
/// live in the calling thread's ScratchArena for the duration of the call.
void winograd_band(const WinogradPlan& plan, const float* band, int band_w,
                   int band_rows, int tiles_w, float* const* out_rows,
                   int rows_out, int out_w, const float* bias, bool relu,
                   int v_frac, int out_frac, int threads);

/// Whole-tensor Winograd conv over a CHW image (stride 1), run band by band
/// through winograd_band with the same `v_frac` / `out_frac` meaning. `out`
/// is (out_c, out_h, out_w) CHW with out_h = H + 2*pad - r + 1.
void winograd_conv_f32(const WinogradPlan& plan, const float* in, int H, int W,
                       int pad, const float* bias, bool relu, int v_frac,
                       int out_frac, float* out, int out_h, int out_w,
                       int threads);

}  // namespace hetacc::kernels
