#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "kernels/arena.h"
#include "kernels/parallel.h"
#include "kernels/simd.h"

namespace hetacc::kernels {

namespace {

// A-side register blocking and cache blocking, shared by every datapath
// (PackedLhsT bakes them). The B-side register width NR is a property of the
// stamp the call runs (see pick_micro below): B is packed per call, so
// nothing stored depends on it.
constexpr int MR = kPackedMR;
constexpr int MC = kGemmMC;
constexpr int KC = kGemmKC;
/// Most tile-grid tasks one parallel_for chunk takes.
constexpr std::size_t kMaxGrain = 16;

/// NR of the 256-bit stamps (baseline, AVX2) and of the scalar reference:
/// two 32-byte vectors of accumulator lanes. The AVX-512 stamp doubles it.
template <typename TAcc>
constexpr int kNarrowNR = 2 * 32 / static_cast<int>(sizeof(TAcc));
/// The widest NR any stamp runs, which sizes the accumulator tile.
template <typename TAcc>
constexpr int kMaxNR = 2 * kNarrowNR<TAcc>;

/// Scalar micro-kernel: the reference the SIMD stamps must match. Overwrites
/// acc (MR x NR row-major) with the kb-deep panel product; per-element
/// accumulation strictly ascending in k.
template <typename TA, typename TAcc, int NR>
void micro_scalar(int kb, const TA* a, const TA* b, TAcc* acc) {
  for (int x = 0; x < MR * NR; ++x) acc[x] = TAcc{};
  for (int k = 0; k < kb; ++k) {
    const TA* ak = a + static_cast<std::size_t>(k) * MR;
    const TA* bk = b + static_cast<std::size_t>(k) * NR;
    for (int ir = 0; ir < MR; ++ir) {
      if constexpr (std::is_integral_v<TA>) {
        const std::int32_t av = ak[ir];
        for (int jr = 0; jr < NR; ++jr) {
          acc[ir * NR + jr] += static_cast<TAcc>(av * bk[jr]);
        }
      } else {
        const TAcc av = static_cast<TAcc>(ak[ir]);
        for (int jr = 0; jr < NR; ++jr) {
          acc[ir * NR + jr] += av * static_cast<TAcc>(bk[jr]);
        }
      }
    }
  }
}

using simd::Stamp;

#ifdef HETACC_VEC

using namespace simd;

// Baseline stamp: generic vectors legalized to whatever the build targets
// (plain SSE2 on a default x86-64 build).
#define HETACC_MICRO_TARGET
#define HETACC_MICRO_NAME(n) n##_base
#define HETACC_MICRO_BYTES 32
#include "kernels/gemm_micro.inc"
#undef HETACC_MICRO_TARGET
#undef HETACC_MICRO_NAME
#undef HETACC_MICRO_BYTES

#ifdef HETACC_X86_DISPATCH
// AVX2+FMA and AVX-512 stamps: same source, 256- and 512-bit codegen,
// selected at runtime so the binary stays runnable on baseline machines.
#define HETACC_MICRO_TARGET __attribute__((target("avx2,fma")))
#define HETACC_MICRO_NAME(n) n##_avx2
#define HETACC_MICRO_BYTES 32
#include "kernels/gemm_micro.inc"
#undef HETACC_MICRO_TARGET
#undef HETACC_MICRO_NAME
#undef HETACC_MICRO_BYTES

#define HETACC_MICRO_TARGET HETACC_AVX512_TARGET
#define HETACC_MICRO_NAME(n) n##_avx512
#define HETACC_MICRO_BYTES 64
#include "kernels/gemm_micro.inc"
#undef HETACC_MICRO_TARGET
#undef HETACC_MICRO_NAME
#undef HETACC_MICRO_BYTES
#endif  // HETACC_X86_DISPATCH

#endif  // HETACC_VEC

/// A micro-kernel and the NR its B panels are packed at.
template <typename TA, typename TAcc>
struct Micro {
  void (*fn)(int, const TA*, const TA*, TAcc*);
  int nr;
};

/// The micro-kernel of stamp `s` (which the caller has checked this CPU
/// runs). Selection happens once per gemm call, not per tile.
template <typename TA, typename TAcc>
Micro<TA, TAcc> pick_micro(Stamp s) {
  constexpr int nr = kNarrowNR<TAcc>;
  switch (s) {
#ifdef HETACC_X86_DISPATCH
    case Stamp::kAvx512:
      return {&micro_avx512<TA, TAcc>, 2 * nr};
    case Stamp::kAvx2:
      return {&micro_avx2<TA, TAcc>, nr};
#endif
#ifdef HETACC_VEC
    case Stamp::kBase:
      return {&micro_base<TA, TAcc>, nr};
#endif
    default:
      return {&micro_scalar<TA, TAcc, nr>, nr};
  }
}

/// The element type the micro-kernel multiplies for storage type TA and
/// accumulator TAcc. Float operands accumulated in double are widened as
/// they are staged instead of at every k-step — A as its blocks are packed
/// (a pre-packed A comes widened: PackedLhsF64), each B panel by the tile
/// task that reads it — and run the f64 micro-kernel: a float x float
/// product is exact in double, so it computes the same products and sums in
/// the same order, and every output bit is unchanged (even with a stamp's
/// fused multiply-add). B stays packed as float, so the shared panel row
/// costs no more scratch.
template <typename TA, typename TAcc>
using KernelOperand =
    std::conditional_t<std::is_same_v<TA, float> && std::is_same_v<TAcc, double>,
                       double, TA>;

/// Packs the MC-block [i0, i0+mb) x [p0, p0+kb) of row-major A into MR-
/// interleaved k-major panels at dst (ceil(mb/MR) panels of MR*kb),
/// converting each element to TK. Tail lanes of a partial last panel are
/// zeroed so the micro-kernel can run full MR rows unconditionally.
template <typename T, typename TK = T>
void pack_a_panels(const T* A, int lda, int i0, int mb, int p0, int kb,
                   TK* dst) {
  const int panels = (mb + MR - 1) / MR;
  for (int pi = 0; pi < panels; ++pi) {
    TK* d = dst + static_cast<std::size_t>(pi) * MR * kb;
    const int rows = std::min(MR, mb - pi * MR);
    for (int ir = 0; ir < rows; ++ir) {
      const T* src = A + static_cast<std::size_t>(i0 + pi * MR + ir) * lda + p0;
      for (int k = 0; k < kb; ++k) d[k * MR + ir] = static_cast<TK>(src[k]);
    }
    for (int ir = rows; ir < MR; ++ir) {
      for (int k = 0; k < kb; ++k) d[k * MR + ir] = TK{};
    }
  }
}

/// Packs one NR-wide column panel of B ([p0, p0+kb) x [j0, j0+cols)) into
/// NR-interleaved k-major layout at dst, zero-padding cols < NR.
template <typename T>
void pack_b_panel(const T* B, int ldb, int p0, int kb, int j0, int cols,
                  int NR, T* dst) {
  for (int k = 0; k < kb; ++k) {
    const T* src = B + static_cast<std::size_t>(p0 + k) * ldb + j0;
    T* d = dst + static_cast<std::size_t>(k) * NR;
    for (int jr = 0; jr < cols; ++jr) d[jr] = src[jr];
    for (int jr = cols; jr < NR; ++jr) d[jr] = T{};
  }
}

/// Requantizing writeback sink of the int8 datapath: the final i8 output
/// plus the QuantParams the last-KC epilogue applies. The staging i32 C of
/// gemm_run holds partial sums only between KC steps (single-step runs never
/// touch it).
struct RequantSink {
  std::int8_t* c8 = nullptr;
  int ldc8 = 0;
  const QuantParams* q = nullptr;
};

/// Blocked GEMM core. Exactly one of A / pA is used. Per KC step: pack B
/// once at the stamp's NR (parallel over panels, then shared read-only),
/// pack A blocks once unless pre-packed, then run the 2D (MC-block x
/// NR-panel) tile grid cooperatively — every tile owns a disjoint patch of
/// C, each KC step is a barrier, and per-element accumulation is
/// k-ascending, so output bytes are independent of the thread count, the
/// chunk grain and the stamp's NR.
///
/// With kRequant, C is an i32 staging buffer (null when K fits one KC step)
/// and the last-KC writeback requantizes straight into sink->c8 alongside
/// bias and ReLU.
template <typename TA, typename TAcc, typename TC, typename TBias,
          bool kRequant = false>
void gemm_run(int M, int N, int K, const TA* A, int lda,
              const PackedLhsT<KernelOperand<TA, TAcc>>* pA, const TA* B,
              int ldb, TC* C, int ldc, const TBias* bias, bool relu,
              int threads, Stamp stamp, const RequantSink* sink = nullptr) {
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    for (int i = 0; i < M; ++i) {
      if constexpr (kRequant) {
        const QuantParams& q = *sink->q;
        const std::int32_t acc0 =
            bias ? static_cast<std::int32_t>(bias[i]) : 0;
        const float sc = q.per_channel ? q.scales[i] : q.scales[0];
        const std::int8_t v = requantize_i32(acc0, sc, q.zero_point, q.relu);
        std::int8_t* orow = sink->c8 + static_cast<std::size_t>(i) * sink->ldc8;
        for (int j = 0; j < N; ++j) orow[j] = v;
      } else {
        TC v = bias ? static_cast<TC>(bias[i]) : TC{};
        if constexpr (std::is_floating_point_v<TC>) {
          if (relu) v = std::max(v, TC(0));
        }
        TC* crow = C + static_cast<std::size_t>(i) * ldc;
        for (int j = 0; j < N; ++j) crow[j] = v;
      }
    }
    return;
  }
  using TK = KernelOperand<TA, TAcc>;
  constexpr bool kWidenB = !std::is_same_v<TK, TA>;
  const Micro<TK, TAcc> mk = pick_micro<TK, TAcc>(stamp);
  const int NR = mk.nr;
  if (threads == 0) threads = num_threads();

  const int iblocks = (M + MC - 1) / MC;
  const int jpanels = (N + NR - 1) / NR;
  constexpr int mpanels_cap = (MC + MR - 1) / MR;

  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  TA* bpack = arena.alloc<TA>(static_cast<std::size_t>(jpanels) * NR * KC);
  TK* apack = nullptr;
  if (!pA) {
    apack = arena.alloc<TK>(static_cast<std::size_t>(iblocks) * mpanels_cap *
                            MR * KC);
  }

  // 2D cooperative tile grid. Task index g walks NR-panels fastest so
  // consecutive chunks reuse the same packed A block while B panels stream.
  const int tw = std::max(1, resolve_threads(threads));
  const std::size_t tasks =
      static_cast<std::size_t>(iblocks) * static_cast<std::size_t>(jpanels);
  const std::size_t grain = std::clamp<std::size_t>(
      tasks / (static_cast<std::size_t>(tw) * 4), 1, kMaxGrain);

  for (int p0 = 0, pb = 0; p0 < K; p0 += KC, ++pb) {
    const int kb = std::min(KC, K - p0);
    const bool first = (p0 == 0);
    const bool last = (p0 + kb == K);

    if (!pA) {
      parallel_for(static_cast<std::size_t>(iblocks), 1, threads,
                   [&](std::size_t ib) {
                     const int i0 = static_cast<int>(ib) * MC;
                     pack_a_panels(A, lda, i0, std::min(MC, M - i0), p0, kb,
                                   apack + ib * static_cast<std::size_t>(
                                                    mpanels_cap) *
                                               MR * kb);
                   });
    }

    // Pack this KC step's B panel row once; every compute task below reads
    // it, no task re-packs.
    parallel_for(static_cast<std::size_t>(jpanels), 8, threads,
                 [&](std::size_t pj) {
                   const int j0 = static_cast<int>(pj) * NR;
                   pack_b_panel(
                       B, ldb, p0, kb, j0, std::min(NR, N - j0), NR,
                       bpack + pj * static_cast<std::size_t>(NR) * kb);
                 });

    parallel_for(tasks, grain, threads, [&](std::size_t g) {
      const int ib = static_cast<int>(g / jpanels);
      const int pj = static_cast<int>(g % jpanels);
      const int i0 = ib * MC;
      const int mb = std::min(MC, M - i0);
      const std::size_t aoff =
          ib * static_cast<std::size_t>(mpanels_cap) * MR * kb;
      const TK* ablk = pA ? pA->block(pb, ib).data() : apack + aoff;
      const TA* bsrc = bpack + pj * static_cast<std::size_t>(NR) * kb;
      const TK* bpan;
      std::optional<ScratchArena::Scope> widened;
      if constexpr (kWidenB) {
        ScratchArena& task_arena = ScratchArena::tls();
        widened.emplace(task_arena);
        TK* wide = task_arena.alloc<TK>(static_cast<std::size_t>(NR) * kb);
        std::copy(bsrc, bsrc + static_cast<std::size_t>(NR) * kb, wide);
        bpan = wide;
      } else {
        bpan = bsrc;
      }
      const int j0 = pj * NR;
      const int cols = std::min(NR, N - j0);
      const int ipanels = (mb + MR - 1) / MR;
      for (int pi = 0; pi < ipanels; ++pi) {
        TAcc acc[MR * kMaxNR<TAcc>];
        mk.fn(kb, ablk + static_cast<std::size_t>(pi) * MR * kb, bpan, acc);
        const int rows = std::min(MR, mb - pi * MR);
        for (int ir = 0; ir < rows; ++ir) {
          const int i = i0 + pi * MR + ir;
          const TAcc* arow = acc + ir * NR;
          if constexpr (kRequant) {
            const QuantParams& q = *sink->q;
            if (last) {
              // Requantize-on-writeback: fold bias (or the staged partial
              // sum), scale, RNE, zero-point, ReLU, saturate — straight
              // into the i8 output, no second pass over C.
              const float sc = q.per_channel ? q.scales[i] : q.scales[0];
              std::int8_t* orow =
                  sink->c8 + static_cast<std::size_t>(i) * sink->ldc8 + j0;
              if (first) {
                const std::int32_t bv =
                    bias ? static_cast<std::int32_t>(bias[i]) : 0;
                for (int jr = 0; jr < cols; ++jr) {
                  orow[jr] = requantize_i32(bv + arow[jr], sc,
                                            q.zero_point, q.relu);
                }
              } else {
                const TC* srow =
                    C + static_cast<std::size_t>(i) * ldc + j0;
                for (int jr = 0; jr < cols; ++jr) {
                  orow[jr] = requantize_i32(srow[jr] + arow[jr], sc,
                                            q.zero_point, q.relu);
                }
              }
            } else {
              TC* crow = C + static_cast<std::size_t>(i) * ldc + j0;
              if (first) {
                const std::int32_t bv =
                    bias ? static_cast<std::int32_t>(bias[i]) : 0;
                for (int jr = 0; jr < cols; ++jr) {
                  crow[jr] = bv + arow[jr];
                }
              } else {
                for (int jr = 0; jr < cols; ++jr) crow[jr] += arow[jr];
              }
            }
          } else {
            TC* crow = C + static_cast<std::size_t>(i) * ldc + j0;
            if (first) {
              if (bias) {
                const TAcc bv = static_cast<TAcc>(bias[i]);
                for (int jr = 0; jr < cols; ++jr) {
                  crow[jr] = static_cast<TC>(bv + arow[jr]);
                }
              } else {
                for (int jr = 0; jr < cols; ++jr) {
                  crow[jr] = static_cast<TC>(arow[jr]);
                }
              }
            } else {
              for (int jr = 0; jr < cols; ++jr) {
                crow[jr] = static_cast<TC>(static_cast<TAcc>(crow[jr]) +
                                           arow[jr]);
              }
            }
            if constexpr (std::is_floating_point_v<TC>) {
              if (last && relu) {
                for (int jr = 0; jr < cols; ++jr) {
                  crow[jr] = std::max(crow[jr], TC(0));
                }
              }
            }
          }
        }
      }
    });
  }
  if constexpr (!std::is_floating_point_v<TC>) (void)relu;
}

}  // namespace

template <typename T>
PackedLhsT<T>::PackedLhsT(const T* A, int M, int K, int lda)
    : PackedLhsT(M, K) {
  for (int p0 = 0, pb = 0; p0 < K; p0 += KC, ++pb) {
    const int kb = std::min(KC, K - p0);
    for (int i0 = 0, ib = 0; i0 < M; i0 += MC, ++ib) {
      pack_a_panels(A, lda, i0, std::min(MC, M - i0), p0, kb,
                    blocks_[static_cast<std::size_t>(pb) * iblocks_ + ib]
                        .data());
    }
  }
}

template <typename T>
PackedLhsT<T>::PackedLhsT(int M, int K) : m_(M), k_(K) {
  pblocks_ = K > 0 ? (K + KC - 1) / KC : 0;
  iblocks_ = M > 0 ? (M + MC - 1) / MC : 0;
  blocks_.resize(static_cast<std::size_t>(pblocks_) * iblocks_);
  for (int p0 = 0, pb = 0; p0 < K; p0 += KC, ++pb) {
    const int kb = std::min(KC, K - p0);
    for (int i0 = 0, ib = 0; i0 < M; i0 += MC, ++ib) {
      const int panels = (std::min(MC, M - i0) + MR - 1) / MR;
      blocks_[static_cast<std::size_t>(pb) * iblocks_ + ib].resize(
          static_cast<std::size_t>(panels) * MR * kb);
    }
  }
}

template class PackedLhsT<float>;
template class PackedLhsT<double>;
template class PackedLhsT<std::int8_t>;

void gemm_f32(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, const float* bias, bool relu,
              int threads) {
  gemm_run<float, float, float, float>(
      M, N, K, A, lda, nullptr, B, ldb, C, ldc, bias, relu, threads,
      simd::active_stamp());
}

void gemm_f32(const PackedLhsF32& A, int N, const float* B, int ldb, float* C,
              int ldc, const float* bias, bool relu, int threads) {
  gemm_run<float, float, float, float>(
      A.rows(), N, A.depth(), nullptr, 0, &A, B, ldb, C, ldc, bias, relu,
      threads, simd::active_stamp());
}

void gemm_f32d(int M, int N, int K, const float* A, int lda, const float* B,
               int ldb, double* C, int ldc, const float* bias, bool relu,
               int threads) {
  gemm_run<float, double, double, float>(
      M, N, K, A, lda, nullptr, B, ldb, C, ldc, bias, relu, threads,
      simd::active_stamp());
}

void gemm_f32d(const PackedLhsF64& A, int N, const float* B, int ldb,
               double* C, int ldc, const float* bias, bool relu, int threads) {
  gemm_run<float, double, double, float>(
      A.rows(), N, A.depth(), nullptr, 0, &A, B, ldb, C, ldc, bias, relu,
      threads, simd::active_stamp());
}

void gemm_f64(int M, int N, int K, const double* A, int lda, const double* B,
              int ldb, double* C, int ldc, int threads) {
  gemm_run<double, double, double, double>(
      M, N, K, A, lda, nullptr, B, ldb, C, ldc, nullptr, false, threads,
      simd::active_stamp());
}

void gemm_f64(const PackedLhsF64& A, int N, const double* B, int ldb,
              double* C, int ldc, int threads) {
  gemm_run<double, double, double, double>(
      A.rows(), N, A.depth(), nullptr, 0, &A, B, ldb, C, ldc, nullptr, false,
      threads, simd::active_stamp());
}

void require_exact_q16_depth(long long K, const char* what) {
  if (K > kExactQ16MaxDepth) {
    throw std::invalid_argument(
        std::string(what) + ": reduction depth " + std::to_string(K) +
        " exceeds the exact 16-bit bound of " +
        std::to_string(kExactQ16MaxDepth));
  }
}

namespace {

/// Shared body of the i8 entries: stage partial i32 sums in the arena only
/// when K spans more than one KC step; otherwise the single KC step
/// requantizes directly and the staging pointer is never formed.
void gemm_i8_run(int M, int N, int K, const std::int8_t* A, int lda,
                 const PackedLhsI8* pA, const std::int8_t* B, int ldb,
                 std::int8_t* C, int ldc, const QuantParams& q, int threads,
                 Stamp stamp) {
  RequantSink sink{C, ldc, &q};
  ScratchArena& arena = ScratchArena::tls();
  ScratchArena::Scope scope(arena);
  std::int32_t* stage = nullptr;
  int lds = 0;
  if (K > KC && M > 0 && N > 0) {
    stage = arena.alloc<std::int32_t>(static_cast<std::size_t>(M) * N);
    lds = N;
  }
  gemm_run<std::int8_t, std::int32_t, std::int32_t, std::int32_t, true>(
      M, N, K, A, lda, pA, B, ldb, stage, lds, q.bias, false, threads,
      stamp, &sink);
}

}  // namespace

void gemm_i8(int M, int N, int K, const std::int8_t* A, int lda,
             const std::int8_t* B, int ldb, std::int8_t* C, int ldc,
             const QuantParams& q, int threads) {
  gemm_i8_run(M, N, K, A, lda, nullptr, B, ldb, C, ldc, q, threads,
              simd::active_stamp());
}

void gemm_i8(const PackedLhsI8& A, int N, const std::int8_t* B, int ldb,
             std::int8_t* C, int ldc, const QuantParams& q, int threads) {
  gemm_i8_run(A.rows(), N, A.depth(), nullptr, 0, &A, B, ldb, C, ldc, q,
              threads, simd::active_stamp());
}

void gemm_i8_i32(int M, int N, int K, const std::int8_t* A, int lda,
                 const std::int8_t* B, int ldb, std::int32_t* C, int ldc,
                 int threads) {
  gemm_run<std::int8_t, std::int32_t, std::int32_t, std::int32_t>(
      M, N, K, A, lda, nullptr, B, ldb, C, ldc, nullptr, false, threads,
      simd::active_stamp());
}

bool simd_enabled() { return simd::active_stamp() != Stamp::kScalar; }

const char* simd_stamp() { return simd::stamp_name(simd::active_stamp()); }

namespace {

template <typename T>
void im2col_impl(const T* in, int C, int H, int W, int kernel, int stride,
                 int pad, int out_h, int out_w, T* mat, T pad_value,
                 int threads) {
  const std::size_t cols = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t kk = static_cast<std::size_t>(kernel) * kernel;
  const std::size_t rows = static_cast<std::size_t>(C) * kk;
  // One task per patch row; rows write disjoint slices of mat, so the row
  // space parallelizes with channel-granular chunks.
  parallel_for(rows, kk, threads, [&](std::size_t row) {
    const int c = static_cast<int>(row / kk);
    const int u = static_cast<int>((row % kk) / kernel);
    const int v = static_cast<int>(row % kernel);
    const T* plane = in + static_cast<std::size_t>(c) * H * W;
    T* dst = mat + row * cols;
    for (int i = 0; i < out_h; ++i) {
      T* drow = dst + static_cast<std::size_t>(i) * out_w;
      const int h = i * stride + u - pad;
      if (h < 0 || h >= H) {
        std::fill(drow, drow + out_w, pad_value);
        continue;
      }
      const T* srow = plane + static_cast<std::size_t>(h) * W;
      if (stride == 1) {
        // Contiguous span: j in [max(0, pad-v), min(out_w, W+pad-v)).
        const int j_lo = std::max(0, pad - v);
        const int j_hi = std::min(out_w, W + pad - v);
        if (j_lo > 0) std::fill(drow, drow + j_lo, pad_value);
        if (j_hi > j_lo) {
          std::memcpy(drow + j_lo, srow + j_lo + v - pad,
                      static_cast<std::size_t>(j_hi - j_lo) * sizeof(T));
        }
        if (j_hi < out_w) {
          std::fill(drow + std::max(j_hi, 0), drow + out_w, pad_value);
        }
      } else {
        for (int j = 0; j < out_w; ++j) {
          const int w = j * stride + v - pad;
          drow[j] = (w < 0 || w >= W) ? pad_value : srow[w];
        }
      }
    }
  });
}

}  // namespace

void im2col_f32(const float* in, int C, int H, int W, int kernel, int stride,
                int pad, int out_h, int out_w, float* mat, int threads) {
  im2col_impl(in, C, H, W, kernel, stride, pad, out_h, out_w, mat, 0.0f,
              threads);
}

void im2col_i8(const std::int8_t* in, int C, int H, int W, int kernel,
               int stride, int pad, int out_h, int out_w, std::int8_t* mat,
               std::int8_t pad_value, int threads) {
  im2col_impl(in, C, H, W, kernel, stride, pad, out_h, out_w, mat, pad_value,
              threads);
}

}  // namespace hetacc::kernels
