#pragma once
// Cache-blocked, register-tiled packed GEMM — the shared compute core of the
// functional simulation paths (im2col convolution, transform-domain Winograd,
// the 16-bit fixed-point DSP models and the int8 datapath). Operands are
// packed into MR/NR-interleaved panels (BLIS-style) so the micro-kernel
// streams contiguously; K is blocked into fixed KC panels that accumulate
// into C.
//
// The micro-kernel is register-blocked SIMD built on the portable GCC/Clang
// vector extensions, with runtime dispatch to an AVX-512 or AVX2+FMA stamp
// on x86-64 and a scalar fallback on other compilers (see gemm_micro.inc
// and DESIGN.md §8). Parallelism is 2D cooperative: the (MC-block,
// NR-panel) tile grid of each KC step is distributed over the shared worker
// pool, with the packed B panel built once per KC step and shared read-only
// by every worker.
//
// Determinism contract: every C element is produced by exactly one thread and
// its accumulation order depends only on (K, KC) and the selected micro-
// kernel — never on the thread count or the tile-grid split — so results are
// byte-identical for any `threads` value. A single accumulation chain is
// never split; per output element it is strictly ascending in k.
//
// Cache blocking is fixed at compile time (kGemmMC, kGemmKC; NC is all of
// N). KC is part of every float result: C accumulates one partial sum per KC
// step, so a different KC would regroup each element's additions and move
// output bytes. Pre-packed weights, their CRCs and the pinned pipeline
// outputs all assume these values.
//
// Scratch (packed panels, im2col matrices) comes from the calling thread's
// ScratchArena, so steady-state calls perform zero heap allocations.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace hetacc::kernels {

/// Rows per A micro-panel (the A-side register blocking every datapath's
/// micro-kernel shares; PackedLhsT bakes it into its layout).
inline constexpr int kPackedMR = 4;
/// Rows of A per cache block; packed blocks hold whole micro-panels.
inline constexpr int kGemmMC = 96;
static_assert(kGemmMC % kPackedMR == 0);
/// Depth of one K step. Float C accumulates per KC step, so this constant
/// fixes every float GEMM's addition order (see the header comment).
inline constexpr int kGemmKC = 256;

/// Left operand pre-packed into micro-panels (weights reused across many
/// GEMM calls: conv engines pack once per layer, not once per image/row),
/// laid out in kGemmMC x kGemmKC blocks.
template <typename T>
class PackedLhsT {
 public:
  PackedLhsT() = default;
  /// Packs row-major A (M x K, leading dimension lda).
  PackedLhsT(const T* A, int M, int K, int lda);
  /// An all-zero M x K pack, to be filled element by element through
  /// slot()/at(): builders that produce A one (row, column) at a time write
  /// straight into the panels, with no row-major staging copy.
  PackedLhsT(int M, int K);
  /// `src` with every element converted to T: same shape and panel layout
  /// (a float pack widened to double once, for gemm_f32d).
  template <typename U>
  explicit PackedLhsT(const PackedLhsT<U>& src)
      : m_(src.rows()), k_(src.depth()), pblocks_(src.pblocks()),
        iblocks_(src.iblocks()) {
    blocks_.reserve(static_cast<std::size_t>(pblocks_) * iblocks_);
    for (int pb = 0; pb < pblocks_; ++pb) {
      for (int ib = 0; ib < iblocks_; ++ib) {
        const std::vector<U>& b = src.block(pb, ib);
        blocks_.emplace_back(b.begin(), b.end());
      }
    }
  }

  [[nodiscard]] int rows() const { return m_; }
  [[nodiscard]] int depth() const { return k_; }
  /// Panel block for K-block pb and M-block ib (kernel-layer internal).
  [[nodiscard]] const std::vector<T>& block(int pb, int ib) const {
    return blocks_[static_cast<std::size_t>(pb) * iblocks_ + ib];
  }
  /// Block-grid extents, so integrity scans (the prepack bundle CRC) can
  /// walk every resident panel via block(pb, ib).
  [[nodiscard]] int pblocks() const { return pblocks_; }
  [[nodiscard]] int iblocks() const { return iblocks_; }

  /// Where A(i, k) lives in the panels: a block index and an offset inside
  /// that block. Every pack of the same shape agrees on it, so a builder
  /// filling several packs at once locates each element once.
  struct Slot {
    std::size_t block = 0, offset = 0;
  };
  [[nodiscard]] Slot slot(int i, int k) const {
    const int ib = i / kGemmMC, pb = k / kGemmKC;
    const int kb = std::min(kGemmKC, k_ - pb * kGemmKC);
    const int il = i - ib * kGemmMC;
    return {static_cast<std::size_t>(pb) * iblocks_ + ib,
            (static_cast<std::size_t>(il / kPackedMR) * kb +
             (k - pb * kGemmKC)) *
                    kPackedMR +
                il % kPackedMR};
  }
  [[nodiscard]] T& at(Slot s) { return blocks_[s.block][s.offset]; }
  /// Element A(i, k) (0 <= i < rows(), 0 <= k < depth()).
  [[nodiscard]] T at(int i, int k) const {
    const Slot s = slot(i, k);
    return blocks_[s.block][s.offset];
  }

  /// Bytes resident in the packed panel blocks — the dominant per-pipeline
  /// memory cost a serving fleet's shared prepack cache deduplicates across
  /// replicas (see serve/prepack_cache.h).
  [[nodiscard]] long long footprint_bytes() const {
    long long total = 0;
    for (const auto& blk : blocks_) {
      total += static_cast<long long>(blk.size() * sizeof(T));
    }
    return total;
  }

 private:
  int m_ = 0, k_ = 0, pblocks_ = 0, iblocks_ = 0;
  std::vector<std::vector<T>> blocks_;
};

using PackedLhsF32 = PackedLhsT<float>;
using PackedLhsF64 = PackedLhsT<double>;
using PackedLhsI8 = PackedLhsT<std::int8_t>;

/// C (M x N, ldc) = A (M x K, lda) * B (K x N, ldb), float accumulation.
/// If `bias` is non-null, row i is offset by bias[i]; `relu` clamps at 0.
/// `threads`: 0 = kernel-layer default (num_threads()), 1 = serial, n = n.
void gemm_f32(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, const float* bias, bool relu,
              int threads);
void gemm_f32(const PackedLhsF32& A, int N, const float* B, int ldb, float* C,
              int ldc, const float* bias, bool relu, int threads);

/// Float operands, double accumulation, double C — the conv-engine datapath
/// (the streaming engines accumulate MACs in double; see arch/engines.cpp).
/// Operands are widened to double once as they are staged and run the f64
/// micro-kernel; every float product is exact in double, so the result is
/// the same for every ISA stamp and the scalar fallback. The pre-packed form
/// takes A already widened — PackedLhsF64(PackedLhsF32(...)), built once per
/// layer and held in the prepack bundle (arch::LayerConstants::direct) — and
/// equals the raw form bit for bit.
void gemm_f32d(int M, int N, int K, const float* A, int lda, const float* B,
               int ldb, double* C, int ldc, const float* bias, bool relu,
               int threads);
void gemm_f32d(const PackedLhsF64& A, int N, const float* B, int ldb,
               double* C, int ldc, const float* bias, bool relu, int threads);

/// Double GEMM for transform-domain Winograd planes. C is overwritten.
void gemm_f64(int M, int N, int K, const double* A, int lda, const double* B,
              int ldb, double* C, int ldc, int threads);
void gemm_f64(const PackedLhsF64& A, int N, const double* B, int ldb,
              double* C, int ldc, int threads);

/// Deepest K at which gemm_f32d and gemm_f64 compute a 16-bit fixed-point
/// MAC tree exactly. An operand snapped to Q(f) (fixed::quantize_to_float)
/// is a 16-bit integer times 2^-f, so each product is an integer of at most
/// 2^30 times 2^-(fa+fb), and K <= 2^22 of them keep every partial sum below
/// 2^52 of that unit: every addition is exact in double, in any order, and C
/// equals the int64 MAC sum times 2^-(fa+fb) for any thread count and ISA
/// stamp.
inline constexpr long long kExactQ16MaxDepth = 1LL << 22;

/// Throws std::invalid_argument naming `what` when K exceeds
/// kExactQ16MaxDepth, so a 16-bit model never returns a rounded sum.
void require_exact_q16_depth(long long K, const char* what);

/// Requantize-on-writeback parameters of the int8 datapath. The i32
/// accumulator of output row i is offset by bias[i] (a per-channel i32 bias
/// with the input zero-point correction pre-folded), scaled by scales[i] (or
/// scales[0] when !per_channel), rounded to nearest-even, offset by the
/// output zero-point, optionally ReLU-clamped at that zero-point, and
/// saturated to [-128, 127].
struct QuantParams {
  const float* scales = nullptr;      ///< per-channel (len M) or single scale
  bool per_channel = true;
  const std::int32_t* bias = nullptr; ///< per-row i32 bias; null = 0
  std::int32_t zero_point = 0;        ///< output zero-point
  bool relu = false;                  ///< clamp at the output zero-point
};

/// The one requantization formula, shared by every i8 path (SIMD stamps,
/// scalar fallback, golden references, streaming engines) so they are
/// bit-identical: round-to-nearest-even via llrint under the default
/// FE_TONEAREST mode, then saturate. The product is exact in double (the
/// i32 accumulator has < 53 significant bits), so the result is a function
/// of (acc, scale) alone — never of the ISA stamp that produced acc.
inline std::int8_t requantize_i32(std::int32_t acc, float scale,
                                  std::int32_t zero_point, bool relu) {
  long long r = std::llrint(static_cast<double>(acc) *
                            static_cast<double>(scale)) +
                zero_point;
  if (relu && r < zero_point) r = zero_point;
  if (r < -128) r = -128;
  if (r > 127) r = 127;
  return static_cast<std::int8_t>(r);
}

/// int8 x int8 GEMM with i32 accumulation and the requantize epilogue folded
/// into the last-KC writeback: C (i8) = requantize(A * B + bias). Multi-KC
/// runs stage partial i32 sums in the scratch arena; results are bit-exact
/// for any thread count and ISA stamp.
void gemm_i8(int M, int N, int K, const std::int8_t* A, int lda,
             const std::int8_t* B, int ldb, std::int8_t* C, int ldc,
             const QuantParams& q, int threads);
void gemm_i8(const PackedLhsI8& A, int N, const std::int8_t* B, int ldb,
             std::int8_t* C, int ldc, const QuantParams& q, int threads);

/// Raw-accumulator variant: exact i32 output, no requantization (tests and
/// callers that fold their own epilogue). C is overwritten.
void gemm_i8_i32(int M, int N, int K, const std::int8_t* A, int lda,
                 const std::int8_t* B, int ldb, std::int32_t* C, int ldc,
                 int threads);

/// im2col lowering of a CHW image into the patch matrix: one row per
/// (channel, ku, kv) tap, one column per output pixel, zero outside the
/// padded extent. `mat` must hold (C*kernel*kernel) * (out_h*out_w) elements.
/// Rows are independent, so the row space is distributed over `threads`
/// workers (same knob semantics as the GEMMs; default 1 = serial).
void im2col_f32(const float* in, int C, int H, int W, int kernel, int stride,
                int pad, int out_h, int out_w, float* mat, int threads = 1);
/// int8 im2col with an explicit padding value: asymmetric activation
/// quantization maps real 0.0 to the zero-point, not to byte 0, so the
/// padded extent must be filled with `pad_value` (= the input zero-point).
void im2col_i8(const std::int8_t* in, int C, int H, int W, int kernel,
               int stride, int pad, int out_h, int out_w, std::int8_t* mat,
               std::int8_t pad_value = 0, int threads = 1);

/// True when the runtime dispatcher selected a SIMD stamp; false when the
/// scalar twins run (non-GCC/Clang or -DHETACC_NO_SIMD builds).
/// Informational — benches report it so recorded numbers are attributable.
[[nodiscard]] bool simd_enabled();

/// The stamp the GEMM micro-kernels and lane kernels run: "avx512", "avx2",
/// "base" (vector extensions on the build's baseline ISA) or "scalar".
/// Benches record it beside every timing.
[[nodiscard]] const char* simd_stamp();

}  // namespace hetacc::kernels
