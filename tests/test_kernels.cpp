// Kernel-layer contract tests: the blocked/packed GEMM and batched Winograd
// paths must (a) agree with naive math, (b) agree with the retained scalar
// seed implementations across randomized conv geometries, (c) be bit-exact
// on the fixed-point datapaths, and (d) produce byte-identical results for
// every thread count (the determinism contract in DESIGN.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "arch/pipeline.h"
#include "fault/crc32.h"
#include "fixed/fixed16.h"
#include "fpga/engine_model.h"
#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/lanes.h"
#include "kernels/parallel.h"
#include "kernels/simd.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "support/hardware.h"

namespace hetacc {
namespace {

using kernels::simd::Stamp;
using nn::FilterBank;
using nn::Tensor;

/// Restores the process-wide kernel thread count on scope exit so tests
/// cannot leak thread settings into each other.
struct ThreadGuard {
  ~ThreadGuard() { kernels::set_num_threads(1); }
};

std::vector<float> random_floats(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

std::vector<std::int8_t> random_i8(std::size_t n, std::mt19937& rng) {
  std::uniform_int_distribution<int> d(-128, 127);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = std::int8_t(d(rng));
  return v;
}

// ------------------------------------------------------------------ GEMM --
void naive_f32(int M, int N, int K, const float* A, const float* B, float* C,
               const float* bias, bool relu) {
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < N; ++j) {
      double acc = bias ? bias[i] : 0.0;
      for (int k = 0; k < K; ++k) {
        acc += double(A[i * K + k]) * double(B[k * N + j]);
      }
      float v = float(acc);
      C[i * N + j] = (relu && v < 0.0f) ? 0.0f : v;
    }
  }
}

TEST(Gemm, F32MatchesNaiveAcrossBlockBoundaries) {
  std::mt19937 rng(7);
  // Geometries straddling the MR/NR/KC/MC blocking constants.
  const int cases[][3] = {{1, 1, 1},   {4, 8, 16},   {5, 7, 3},
                          {13, 29, 300}, {97, 33, 257}, {3, 130, 520}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    const auto A = random_floats(std::size_t(M) * K, rng);
    const auto B = random_floats(std::size_t(K) * N, rng);
    const auto bias = random_floats(std::size_t(M), rng);
    std::vector<float> got(std::size_t(M) * N), want(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, got.data(), N,
                      bias.data(), /*relu=*/true, /*threads=*/1);
    naive_f32(M, N, K, A.data(), B.data(), want.data(), bias.data(), true);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-3f) << "M=" << M << " N=" << N
                                          << " K=" << K << " i=" << i;
    }
  }
}

TEST(Gemm, KZeroFillsBiasAndRelu) {
  std::vector<float> C(6, 99.0f);
  const float bias[2] = {1.5f, -2.0f};
  kernels::gemm_f32(2, 3, 0, nullptr, 1, nullptr, 3, C.data(), 3, bias, true,
                    1);
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(C[j], 1.5f);
    EXPECT_FLOAT_EQ(C[3 + j], 0.0f);  // relu clamps the negative bias
  }
}

TEST(Gemm, PackedLhsMatchesRawBitwise) {
  std::mt19937 rng(11);
  const int M = 37, N = 41, K = 275;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  std::vector<float> raw(std::size_t(M) * N), packed(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, raw.data(), N, nullptr,
                    false, 1);
  const kernels::PackedLhsF32 pa(A.data(), M, K, K);
  EXPECT_EQ(pa.rows(), M);
  EXPECT_EQ(pa.depth(), K);
  kernels::gemm_f32(pa, N, B.data(), N, packed.data(), N, nullptr, false, 1);
  EXPECT_EQ(0, std::memcmp(raw.data(), packed.data(),
                           raw.size() * sizeof(float)));

  // int8, requantizing, over two MC blocks and three KC steps: the packed
  // path stages the same partial sums as the raw one.
  const int M8 = 101, K8 = 530;
  const auto A8 = random_i8(std::size_t(M8) * K8, rng);
  const auto B8 = random_i8(std::size_t(K8) * N, rng);
  const float s = 1e-4f;
  const kernels::QuantParams q{&s, false, nullptr, 0, false};
  std::vector<std::int8_t> raw8(std::size_t(M8) * N), packed8(raw8.size());
  kernels::gemm_i8(M8, N, K8, A8.data(), K8, B8.data(), N, raw8.data(), N, q,
                   1);
  const kernels::PackedLhsI8 pa8(A8.data(), M8, K8, K8);
  kernels::gemm_i8(pa8, N, B8.data(), N, packed8.data(), N, q, 1);
  EXPECT_EQ(0, std::memcmp(raw8.data(), packed8.data(), raw8.size()));
}

/// 16-bit integers snapped to Q(frac) — the operands the 16-bit fixed-point
/// models hand the float GEMMs (fixed::quantize_to_float) — with the raw
/// integers kept for a naive int64 reference.
struct Q16Operand {
  int frac = 0;
  std::vector<std::int32_t> raw;
  std::vector<float> q;

  void set(std::size_t i, std::int32_t v) {
    raw[i] = v;
    q[i] = std::ldexp(static_cast<float>(v), -frac);
  }
};

Q16Operand random_q16(std::size_t n, int frac, std::mt19937& rng) {
  std::uniform_int_distribution<int> d(-32767, 32767);
  Q16Operand op{frac, std::vector<std::int32_t>(n), std::vector<float>(n)};
  for (std::size_t i = 0; i < n; ++i) op.set(i, d(rng));
  return op;
}

TEST(Gemm, Q16OperandsExactOnF32dAndF64) {
  // A 16-bit MAC tree run on the float GEMMs: on operands snapped to Q(fa)
  // and Q(fb), C must equal the int64 MAC sum times 2^-(fa+fb) exactly, up
  // to VGG conv5's reduction depth (512 * 3 * 3) with operands on the
  // +-32767 rails.
  std::mt19937 rng(13);
  const int cases[][3] = {{19, 23, 301}, {6, 9, 4608}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    Q16Operand A = random_q16(std::size_t(M) * K, 13, rng);
    Q16Operand B = random_q16(std::size_t(K) * N, 12, rng);
    // Rows 0/1 of A against column 0 of B sum K products on the rails.
    for (int k = 0; k < K; ++k) {
      A.set(std::size_t(k), 32767);
      A.set(std::size_t(K) + k, -32767);
      B.set(std::size_t(k) * N, 32767);
    }
    std::vector<double> want(std::size_t(M) * N);
    for (int i = 0; i < M; ++i) {
      for (int j = 0; j < N; ++j) {
        std::int64_t acc = 0;
        for (int k = 0; k < K; ++k) {
          acc += std::int64_t(A.raw[std::size_t(i) * K + k]) *
                 B.raw[std::size_t(k) * N + j];
        }
        want[std::size_t(i) * N + j] =
            std::ldexp(static_cast<double>(acc), -(A.frac + B.frac));
      }
    }
    std::vector<double> got(std::size_t(M) * N);
    kernels::gemm_f32d(M, N, K, A.q.data(), K, B.q.data(), N, got.data(), N,
                       nullptr, false, 1);
    EXPECT_EQ(got, want) << "f32d K=" << K;
    const std::vector<double> Ad(A.q.begin(), A.q.end());
    const std::vector<double> Bd(B.q.begin(), B.q.end());
    std::vector<double> got64(std::size_t(M) * N);
    kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, got64.data(), N, 1);
    EXPECT_EQ(got64, want) << "f64 K=" << K;
  }
}

TEST(Gemm, ExactQ16DepthBoundIsEnforced) {
  EXPECT_NO_THROW(kernels::require_exact_q16_depth(kernels::kExactQ16MaxDepth,
                                                   "gemm"));
  EXPECT_THROW(kernels::require_exact_q16_depth(
                   kernels::kExactQ16MaxDepth + 1, "gemm"),
               std::invalid_argument);
  // The direct model checks in_c * k * k (34665 * 121 = 2^22 + 161) before
  // it computes anything.
  const Tensor in(34665, 1, 1);
  const FilterBank f(1, 34665, 11);
  EXPECT_THROW((void)algo::conv_direct_fixed(in, f, {}, 1, 5, false, 12, 13,
                                             10),
               std::invalid_argument);
}

TEST(Gemm, ThreadCountInvarianceBytewise) {
  ThreadGuard guard;
  std::mt19937 rng(17);
  const int M = 61, N = 147, K = 333;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  std::vector<float> serial(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, serial.data(), N,
                    bias.data(), true, 1);
  for (int t : {2, 3, 5, 8}) {
    std::vector<float> par(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, par.data(), N,
                      bias.data(), true, t);
    EXPECT_EQ(0, std::memcmp(serial.data(), par.data(),
                             serial.size() * sizeof(float)))
        << "threads=" << t;
  }
}

// ------------------------------------------- randomized conv equivalence --
struct ConvCase {
  int in_c, out_c, hw, k, stride, pad;
};

TEST(ConvKernels, RandomGeometriesAgreeAcrossAlgorithms) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> chan(1, 17), spatial(5, 23);
  std::uniform_int_distribution<int> kidx(0, 2), stride_d(1, 2), pad_d(0, 2);
  const int kernels_by_idx[3] = {1, 3, 5};
  int done = 0;
  while (done < 20) {
    ConvCase c{chan(rng), chan(rng),    spatial(rng),
               kernels_by_idx[kidx(rng)], stride_d(rng), pad_d(rng)};
    if (c.hw + 2 * c.pad < c.k) continue;  // degenerate output
    ++done;
    SCOPED_TRACE(::testing::Message()
                 << "in_c=" << c.in_c << " out_c=" << c.out_c << " hw=" << c.hw
                 << " k=" << c.k << " stride=" << c.stride
                 << " pad=" << c.pad);
    Tensor in(c.in_c, c.hw, c.hw);
    FilterBank f(c.out_c, c.in_c, c.k);
    std::vector<float> bias(std::size_t(c.out_c));
    nn::fill_deterministic(in, 100 + std::uint32_t(done));
    nn::fill_deterministic(f, 200 + std::uint32_t(done));
    nn::fill_deterministic(bias, 300 + std::uint32_t(done));
    const bool relu = (done % 2) == 0;

    const Tensor direct =
        nn::conv_reference_scalar(in, f, bias, c.stride, c.pad, relu);
    const Tensor fast =
        nn::conv_reference(in, f, bias, c.stride, c.pad, relu);
    const Tensor im2col =
        algo::conv_im2col(in, f, bias, c.stride, c.pad, relu);
    EXPECT_LE(fast.max_abs_diff(direct), 1e-4f);
    EXPECT_LE(im2col.max_abs_diff(direct), 1e-4f);

    nn::Layer layer;  // the case as a conv layer, for the one Winograd rule
    layer.kind = nn::LayerKind::kConv;
    layer.param = nn::ConvParam{.out_channels = c.out_c,
                                .kernel = c.k,
                                .stride = c.stride,
                                .pad = c.pad,
                                .fused_relu = relu};
    if (fpga::EngineModel::winograd_ok(layer)) {
      for (int m : {2, 4}) {
        const algo::WinogradTransform t = algo::winograd(m, c.k);
        const Tensor wino = algo::winograd_conv(t, in, f, bias, c.pad, relu);
        EXPECT_LE(wino.max_abs_diff(direct), 1e-3f) << "F(" << m << ",3)";
      }
    }
  }
}

TEST(ConvKernels, FixedPathsBitExactAgainstScalarSeed) {
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> chan(1, 12), spatial(5, 19);
  std::uniform_int_distribution<int> stride_d(1, 2), pad_d(0, 2);
  for (int i = 0; i < 10; ++i) {
    const int in_c = chan(rng), out_c = chan(rng), hw = spatial(rng);
    const int stride = stride_d(rng), pad = pad_d(rng), k = 3;
    SCOPED_TRACE(::testing::Message() << "in_c=" << in_c << " out_c=" << out_c
                                      << " hw=" << hw << " stride=" << stride
                                      << " pad=" << pad);
    Tensor in(in_c, hw, hw);
    FilterBank f(out_c, in_c, k);
    std::vector<float> bias(static_cast<std::size_t>(out_c));
    nn::fill_deterministic(in, 400 + std::uint32_t(i));
    nn::fill_deterministic(f, 500 + std::uint32_t(i));
    nn::fill_deterministic(bias, 600 + std::uint32_t(i));
    const bool relu = (i % 2) == 0;

    const Tensor want = algo::conv_direct_fixed_scalar(
        in, f, bias, stride, pad, relu, 12, 13, 10);
    const Tensor got =
        algo::conv_direct_fixed(in, f, bias, stride, pad, relu, 12, 13, 10);
    EXPECT_EQ(0.0f, got.max_abs_diff(want));

    if (stride == 1) {
      const algo::WinogradTransform t = algo::winograd(4, k);
      const Tensor wwant = algo::winograd_conv_fixed_scalar(
          t, in, f, bias, pad, relu, 12, 10);
      const Tensor wgot =
          algo::winograd_conv_fixed(t, in, f, bias, pad, relu, 12, 10);
      EXPECT_EQ(0.0f, wgot.max_abs_diff(wwant));
    }
  }

  // A deep reduction (in_c = 256: depth 2304 direct, 256 per Winograd
  // plane) and a saturating layer: inputs and filters scaled past Q(12)'s
  // +-8 and Q(13)'s +-4 clip to the rails, and the outputs overflow Q(10).
  struct Extra {
    int in_c, out_c, hw;
    float gain;
  };
  for (const Extra& e : {Extra{256, 6, 7, 1.0f}, Extra{16, 5, 9, 40.0f}}) {
    SCOPED_TRACE(::testing::Message() << "in_c=" << e.in_c
                                      << " gain=" << e.gain);
    Tensor in(e.in_c, e.hw, e.hw);
    FilterBank f(e.out_c, e.in_c, 3);
    std::vector<float> bias(static_cast<std::size_t>(e.out_c));
    nn::fill_deterministic(in, 700);
    nn::fill_deterministic(f, 701);
    nn::fill_deterministic(bias, 702);
    for (float& x : in.vec()) x *= e.gain;
    for (std::int64_t i = 0; i < f.size(); ++i) f.data()[i] *= e.gain;

    const Tensor want =
        algo::conv_direct_fixed_scalar(in, f, bias, 1, 1, true, 12, 13, 10);
    const Tensor got =
        algo::conv_direct_fixed(in, f, bias, 1, 1, true, 12, 13, 10);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             std::size_t(want.size()) * sizeof(float)));
    if (e.gain > 1.0f) {
      int railed = 0;
      for (float v : want.vec()) railed += std::abs(v) >= 31.0f;
      EXPECT_GT(railed, 0) << "the saturating case must reach Q(10)'s rails";
    }

    const algo::WinogradTransform t = algo::winograd(4, 3);
    const Tensor wwant =
        algo::winograd_conv_fixed_scalar(t, in, f, bias, 1, true, 12, 10);
    const Tensor wgot =
        algo::winograd_conv_fixed(t, in, f, bias, 1, true, 12, 10);
    EXPECT_EQ(0, std::memcmp(wwant.data(), wgot.data(),
                             std::size_t(wwant.size()) * sizeof(float)));
  }
}

TEST(ConvKernels, PretransformedMatchesOnTheFlyExactly) {
  // Both run the same packed-plan path, so the results are identical, not
  // merely close (this pins the invariant the pipeline's filter cache
  // relies on).
  Tensor in(6, 14, 14);
  FilterBank f(5, 6, 3);
  std::vector<float> bias(5);
  nn::fill_deterministic(in, 1);
  nn::fill_deterministic(f, 2);
  nn::fill_deterministic(bias, 3);
  const algo::WinogradTransform t = algo::winograd_f4x3();
  const algo::TransformedFilters tf = algo::transform_filters(t, f);
  const Tensor a = algo::winograd_conv(t, in, f, bias, 1, true);
  const Tensor b = algo::winograd_conv_pretransformed(tf, in, bias, 1, true);
  EXPECT_EQ(0.0f, a.max_abs_diff(b));
}

TEST(ConvKernels, ThreadCountInvarianceBytewise) {
  ThreadGuard guard;
  Tensor in(24, 30, 30);
  FilterBank f(20, 24, 3);
  std::vector<float> bias(20);
  nn::fill_deterministic(in, 5);
  nn::fill_deterministic(f, 6);
  nn::fill_deterministic(bias, 7);
  const algo::WinogradTransform t = algo::winograd_f4x3();

  kernels::set_num_threads(1);
  const Tensor im2col1 = algo::conv_im2col(in, f, bias, 1, 1, true);
  const Tensor wino1 = algo::winograd_conv(t, in, f, bias, 1, true);
  const Tensor fixed1 =
      algo::conv_direct_fixed(in, f, bias, 1, 1, true, 12, 13, 10);
  const Tensor wfix1 =
      algo::winograd_conv_fixed(t, in, f, bias, 1, true, 12, 10);
  for (int threads : {2, 4, 7}) {
    kernels::set_num_threads(threads);
    const Tensor im2colN = algo::conv_im2col(in, f, bias, 1, 1, true);
    const Tensor winoN = algo::winograd_conv(t, in, f, bias, 1, true);
    const Tensor fixedN =
        algo::conv_direct_fixed(in, f, bias, 1, 1, true, 12, 13, 10);
    const Tensor wfixN =
        algo::winograd_conv_fixed(t, in, f, bias, 1, true, 12, 10);
    const auto bytes = [](const Tensor& x) {
      return std::size_t(x.size()) * sizeof(float);
    };
    EXPECT_EQ(0, std::memcmp(im2col1.data(), im2colN.data(), bytes(im2col1)))
        << "im2col threads=" << threads;
    EXPECT_EQ(0, std::memcmp(wino1.data(), winoN.data(), bytes(wino1)))
        << "winograd threads=" << threads;
    EXPECT_EQ(0, std::memcmp(fixed1.data(), fixedN.data(), bytes(fixed1)))
        << "fixed threads=" << threads;
    EXPECT_EQ(0, std::memcmp(wfix1.data(), wfixN.data(), bytes(wfix1)))
        << "wino fixed threads=" << threads;
  }
}

TEST(WinoGemm, BandRowsFillTwoGemmPanels) {
  EXPECT_EQ(kernels::winograd_band_rows(4, 4), 4);    // AlexNet 13x13, F(4,3)
  EXPECT_EQ(kernels::winograd_band_rows(4, 3), 4);    // capped at the map
  EXPECT_EQ(kernels::winograd_band_rows(28, 7), 3);   // 21 tiles >= 16
  EXPECT_EQ(kernels::winograd_band_rows(56, 16), 1);  // one row fills both
  EXPECT_EQ(kernels::winograd_band_rows(56, 56), 1);
  EXPECT_EQ(kernels::winograd_band_rows(1, 2), 1);
}

TEST(WinoGemm, BandEqualsSingleRowCallsBytewise) {
  // A band of k tile rows runs one GEMM per plane over all of its tiles;
  // every output byte must equal what k one-row calls write. Geometries
  // clip the bottom and right tiles and use out_c % 4 != 0; one snaps V and
  // the outputs to Q formats, as the 16-bit model does.
  ThreadGuard guard;
  struct Case {
    int m, r, in_c, out_c, h, w, v_frac, out_frac;
  };
  for (const Case& c :
       {Case{2, 3, 5, 6, 11, 9, -1, -1}, Case{4, 3, 6, 7, 14, 13, 11, 10},
        Case{2, 5, 4, 5, 10, 11, -1, -1}}) {
    const algo::WinogradTransform t = algo::winograd(c.m, c.r);
    FilterBank f(c.out_c, c.in_c, c.r);
    std::vector<float> bias(static_cast<std::size_t>(c.out_c));
    Tensor in(c.in_c, c.h, c.w);
    nn::fill_deterministic(f, 31);
    nn::fill_deterministic(bias, 32);
    nn::fill_deterministic(in, 33);
    const kernels::WinogradPlan plan = algo::winograd_plan(t, f);
    const int n = t.n(), m = c.m, pad = c.r / 2;
    const int out_h = c.h + 2 * pad - c.r + 1, out_w = c.w + 2 * pad - c.r + 1;
    const int tiles_h = (out_h + m - 1) / m, tiles_w = (out_w + m - 1) / m;
    const int band_w = (tiles_w - 1) * m + n;
    const std::string what = "F(" + std::to_string(m) + "," +
                             std::to_string(c.r) + ")";

    // Runs the map in bands of k tile rows; each band's window is cut from
    // the zero-padded input.
    const auto run_bands = [&](int k, int threads) {
      std::vector<float> out(static_cast<std::size_t>(c.out_c) * out_h * out_w,
                             -7.0f);
      for (int ti = 0; ti < tiles_h; ti += k) {
        const int rows_b = std::min(k, tiles_h - ti);
        const int rows_in = (rows_b - 1) * m + n;
        std::vector<float> band(static_cast<std::size_t>(c.in_c) * rows_in *
                                    band_w,
                                0.0f);
        for (int ch = 0; ch < c.in_c; ++ch) {
          for (int u = 0; u < rows_in; ++u) {
            const int y = ti * m + u - pad;
            for (int x = 0; x < band_w; ++x) {
              if (y < 0 || y >= c.h || x - pad < 0 || x - pad >= c.w) continue;
              band[(static_cast<std::size_t>(ch) * rows_in + u) * band_w + x] =
                  in.at(ch, y, x - pad);
            }
          }
        }
        const int rows_out = std::min(rows_b * m, out_h - ti * m);
        std::vector<float*> rows(static_cast<std::size_t>(rows_out) * c.out_c);
        for (int a = 0; a < rows_out; ++a) {
          for (int oc = 0; oc < c.out_c; ++oc) {
            rows[static_cast<std::size_t>(a) * c.out_c + oc] =
                out.data() +
                (static_cast<std::size_t>(oc) * out_h + ti * m + a) * out_w;
          }
        }
        kernels::winograd_band(plan, band.data(), band_w, rows_b, tiles_w,
                               rows.data(), rows_out, out_w, bias.data(),
                               /*relu=*/true, c.v_frac, c.out_frac,
                               threads);
      }
      return out;
    };

    for (int threads : {1, 3}) {
      kernels::set_num_threads(threads);
      const std::vector<float> rows1 = run_bands(1, threads);
      for (int k : {2, 3, tiles_h}) {
        const std::vector<float> banded = run_bands(k, threads);
        EXPECT_EQ(0, std::memcmp(rows1.data(), banded.data(),
                                 rows1.size() * sizeof(float)))
            << what << " band=" << k << " threads=" << threads;
      }
      if (c.out_frac < 0) {
        // The whole-map entry runs the same band kernel.
        const Tensor whole = algo::winograd_conv(t, in, f, bias, pad, true);
        EXPECT_EQ(0, std::memcmp(rows1.data(), whole.data(),
                                 rows1.size() * sizeof(float)))
            << what << " whole map, threads=" << threads;
      }
    }
  }
}

// AlexNet's Winograd plans and streamed conv outputs, pinned from the scalar
// per-tile transforms: the lane transform must reproduce every plan byte
// (through PrepackBundle::content_crc) and every output byte, on 1 and 4
// kernel threads.
std::uint64_t fnv1a(const Tensor& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.vec().size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// Winograd F(m3, 3) / F(m5, 5) on every stride-1 conv of `net`.
std::vector<arch::LayerChoice> wino_choices(const nn::Network& net, int m3,
                                            int m5) {
  std::vector<arch::LayerChoice> ch(net.size() - 1);
  for (std::size_t i = 1; i < net.size(); ++i) {
    const nn::Layer& l = net[i];
    if (l.kind != nn::LayerKind::kConv || l.conv().stride != 1) continue;
    ch[i - 1].algo = fpga::ConvAlgo::kWinograd;
    ch[i - 1].wino_m = l.conv().kernel == 5 ? m5 : m3;
  }
  return ch;
}

/// CRC-32 over the Winograd plans of `b` alone, in layer order: each plan's
/// bt, at and plane blocks. It does not see how the bundle stores the other
/// datapaths' constants, so it holds the transforms' bytes still across a
/// re-pin of content_crc().
std::uint32_t plan_only_crc(const arch::PrepackBundle& b) {
  std::uint32_t crc = 0u;
  for (const arch::LayerConstants& c : b.layers) {
    const auto& p = c.wino;
    if (!p) continue;
    crc = fault::crc32(p->bt.data(), p->bt.size() * sizeof(double), crc);
    crc = fault::crc32(p->at.data(), p->at.size() * sizeof(double), crc);
    for (const auto& plane : p->planes) {
      for (int pb = 0; pb < plane.pblocks(); ++pb) {
        for (int ib = 0; ib < plane.iblocks(); ++ib) {
          const auto& blk = plane.block(pb, ib);
          crc = fault::crc32(blk.data(), blk.size() * sizeof(double), crc);
        }
      }
    }
  }
  return crc;
}

void pin_alexnet_plan_crcs() {
  const nn::Network net = nn::alexnet_accel();
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 7);
  // content_crc() also covers conv1's direct panels, which the bundle holds
  // widened to f64 (the form the engine reads), in a layer-major walk.
  const struct {
    int m3, m5;
    std::uint32_t crc, plan_crc;
  } cases[] = {{4, 2, 693116526u, 1048447037u},
               {2, 4, 43201680u, 2723560401u},
               {6, 3, 2415784570u, 3292316117u}};
  for (const auto& c : cases) {
    const arch::FusionPipeline pipe(net, ws, wino_choices(net, c.m3, c.m5));
    EXPECT_EQ(pipe.shared_prepack()->content_crc(), c.crc)
        << "F(" << c.m3 << ",3) F(" << c.m5 << ",5)";
    EXPECT_EQ(plan_only_crc(*pipe.shared_prepack()), c.plan_crc)
        << "plans of F(" << c.m3 << ",3) F(" << c.m5 << ",5)";
  }
}

void pin_alexnet_conv_outputs() {
  ThreadGuard guard;
  const nn::Network alex = nn::alexnet_accel();
  const struct {
    const char* layer;
    int m;
    std::uint64_t hash;
  } cases[] = {
      // F(2,5) and F(4,5) differ only in double roundings that the float
      // output absorbs, so their hashes coincide; the plan CRC above tells
      // the transforms apart bit for bit.
      {"conv2", 2, 457844873419535844ull},
      {"conv2", 4, 457844873419535844ull},
      {"conv3", 4, 6908009451391168217ull},
      {"conv4", 6, 14403184753342974726ull},
      {"conv5", 2, 959134117582791781ull}};
  for (const auto& c : cases) {
    const nn::Layer* conv = nullptr;
    for (std::size_t i = 1; i < alex.size(); ++i) {
      if (alex[i].name == c.layer) conv = &alex[i];
    }
    ASSERT_NE(conv, nullptr) << c.layer;
    nn::Network net(c.layer);
    net.input(conv->in);
    net.conv(conv->out.c, conv->conv().kernel, 1, conv->padding(), c.layer);
    const nn::WeightStore ws = nn::WeightStore::deterministic(net, 7);
    Tensor in(net[0].out);
    nn::fill_deterministic(in, 11);
    arch::FusionPipeline pipe(net, ws, wino_choices(net, c.m, c.m));
    const std::string what =
        std::string(c.layer) + " F(" + std::to_string(c.m) + ")";
    kernels::set_num_threads(1);
    const Tensor one = pipe.run(in);
    EXPECT_EQ(fnv1a(one), c.hash) << what;
    kernels::set_num_threads(4);
    const Tensor four = pipe.run(in);
    EXPECT_EQ(0, std::memcmp(one.data(), four.data(),
                             one.vec().size() * sizeof(float)))
        << what;
  }
}

TEST(WinoGemm, AlexNetPlanCrcIsPinned) { pin_alexnet_plan_crcs(); }

TEST(WinoGemm, AlexNetConvOutputsArePinnedOnOneAndFourThreads) {
  pin_alexnet_conv_outputs();
}

TEST(WinoGemm, PinnedBytesHoldOnTheAvx2Stamp) {
  if (!kernels::simd::stamp_supported(Stamp::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA is not available on this CPU or build";
  }
  const kernels::simd::ScopedStampCap cap(Stamp::kAvx2);
  ASSERT_STREQ(kernels::simd_stamp(), "avx2");
  pin_alexnet_plan_crcs();
  pin_alexnet_conv_outputs();
}

// -------------------------------------------------------- lane kernels --
// The scalar per-tile composition the Winograd kernels ran before the lane
// transform: C = A * B and C = A * B^T, left-element zero skip, k-ascending
// sums from +0 (the shape of algo::Matrix::operator*).
void oracle_nn(const double* A, int ra, int ca, const double* B, int cb,
               double* C) {
  std::fill(C, C + static_cast<std::size_t>(ra) * cb, 0.0);
  for (int r = 0; r < ra; ++r) {
    for (int k = 0; k < ca; ++k) {
      const double a = A[r * ca + k];
      if (a == 0.0) continue;
      for (int c = 0; c < cb; ++c) C[r * cb + c] += a * B[k * cb + c];
    }
  }
}

void oracle_nt(const double* A, int ra, int ca, const double* B, int rb,
               double* C) {
  std::fill(C, C + static_cast<std::size_t>(ra) * rb, 0.0);
  for (int r = 0; r < ra; ++r) {
    for (int k = 0; k < ca; ++k) {
      const double a = A[r * ca + k];
      if (a == 0.0) continue;
      for (int c = 0; c < rb; ++c) C[r * rb + c] += a * B[c * ca + k];
    }
  }
}

TEST(LaneTransform, MatchesScalarCompositionBitwise) {
  // F(m, r) from algo::winograd for every n <= kWinogradMaxN with r = 1, 3
  // and n, in all three roles (B^T d B, A^T M A, G g G^T) — so every inner
  // dimension the lane transform is compiled for — on lane counts with and
  // without a tail, with strided lane runs and inputs holding signed zeros,
  // denormals and infinities among random values.
  std::mt19937 rng(211);
  std::uniform_real_distribution<double> uni(-4.0, 4.0);
  std::uniform_int_distribution<int> pick(0, 15);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, 4.9e-324, -4.9e-324, 1e-310, -1e-310,
                             inf, -inf};
  std::vector<bool> inner_seen(kernels::kWinogradMaxN + 1, false);
  for (int n = 1; n <= kernels::kWinogradMaxN; ++n) {
    for (int r : {1, 3, n}) {
      if (r > n || (r == n && (n == 1 || n == 3))) continue;  // seen
      const int m = n - r + 1;
      const algo::WinogradTransform t = algo::winograd(m, r);
      std::vector<double> bt, at, g;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) bt.push_back(t.bt.at(i, j));
        for (int j = 0; j < r; ++j) g.push_back(t.g.at(i, j));
      }
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) at.push_back(t.at.at(i, j));
      }
      const struct {
        const std::vector<double>& mat;
        int a, b;
        const char* role;
      } uses[] = {{bt, n, n, "BtdB"}, {at, m, n, "AtMA"}, {g, n, r, "GgGt"}};
      for (const auto& u : uses) {
        for (int lanes : {7, 16, 21, 49}) {
          const std::size_t xs = lanes + 3, ys = lanes + 5;
          std::vector<double> x(xs * u.b * u.b), y(ys * u.a * u.a, -1.0);
          for (double& v : x) {
            const int p = pick(rng);
            v = p < 8 ? specials[p] : uni(rng);
          }
          kernels::lane_transform(u.mat.data(), u.mat.data(), u.a, u.b,
                                  x.data(), xs, y.data(), ys, lanes);
          std::vector<double> xl(u.b * u.b), p(u.a * u.b), want(u.a * u.a);
          for (int l = 0; l < lanes; ++l) {
            for (int e = 0; e < u.b * u.b; ++e) xl[e] = x[e * xs + l];
            oracle_nn(u.mat.data(), u.a, u.b, xl.data(), u.b, p.data());
            oracle_nt(p.data(), u.a, u.b, u.mat.data(), u.a, want.data());
            for (int e = 0; e < u.a * u.a; ++e) {
              ASSERT_EQ(0, std::memcmp(&want[e], &y[e * ys + l],
                                       sizeof(double)))
                  << u.role << " F(" << m << "," << r << ") lanes=" << lanes
                  << " lane " << l << " element " << e << ": want "
                  << want[e] << " got " << y[e * ys + l];
            }
          }
          // Lanes past `lanes` are never written.
          for (int e = 0; e < u.a * u.a; ++e) {
            for (std::size_t l = lanes; l < ys; ++l) {
              ASSERT_EQ(y[e * ys + l], -1.0) << u.role;
            }
          }
        }
        inner_seen[static_cast<std::size_t>(u.b)] = true;
      }
    }
  }
  for (int b = 1; b <= kernels::kWinogradMaxN; ++b) {
    EXPECT_TRUE(inner_seen[static_cast<std::size_t>(b)]) << "b=" << b;
  }
}

TEST(LaneTransform, RejectsUnsupportedShapes) {
  double buf[4] = {};
  EXPECT_THROW(kernels::lane_transform(buf, buf, 1, 0, buf, 1, buf, 1, 1),
               std::logic_error);
  EXPECT_THROW(kernels::lane_transform(buf, buf, 1,
                                       kernels::kWinogradMaxN + 1, buf, 1,
                                       buf, 1, 1),
               std::logic_error);
}

std::uint32_t float_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(LaneSnap, MatchesQuantizerOnTiesRailsAndSpecials) {
  // Half-integer ties of the scaled value and their neighbours, both rails
  // and past them, the rounding constant's range, specials and random bit
  // patterns, at every fraction; an odd count exercises the lane tail, and
  // the in-place call must agree with the out-of-place one.
  std::mt19937 rng(223);
  const float inf = std::numeric_limits<float>::infinity();
  for (int frac = 0; frac <= 15; ++frac) {
    const float ulp = fixed::Fixed16::pow2(-frac);
    std::vector<float> src;
    for (int k = -70000; k <= 70000; k += 7) {
      const float tie = (static_cast<float>(k) + 0.5f) * ulp;
      src.push_back(tie);
      src.push_back(std::nextafter(tie, inf));
      src.push_back(std::nextafter(tie, -inf));
      src.push_back(static_cast<float>(k) * ulp);
    }
    for (float v : {0.0f, -0.0f, inf, -inf, 1e-45f, -1e-45f, 1e-40f,
                    std::numeric_limits<float>::max(),
                    -std::numeric_limits<float>::max(), 32767.5f * ulp,
                    -32768.5f * ulp, 4194304.0f, 8388608.0f, 12582912.0f,
                    -12582912.0f, 16777216.0f}) {
      src.push_back(v);
    }
    for (int i = 0; i < 20000; ++i) {
      const float v = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
      if (v == v) src.push_back(v);
    }
    if (src.size() % 8 == 0) src.push_back(0.25f);
    std::vector<float> got(src.size()), inplace = src;
    kernels::snap_q16(src.data(), got.data(), src.size(), frac);
    kernels::snap_q16(inplace.data(), inplace.data(), inplace.size(), frac);
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float want = fixed::quantize_to_float(src[i], frac);
      ASSERT_EQ(float_bits(want), float_bits(got[i]))
          << "frac " << frac << " src " << src[i] << " want " << want
          << " got " << got[i];
      ASSERT_EQ(float_bits(got[i]), float_bits(inplace[i]));
    }
  }
}

TEST(LaneSnap, NanSnapsToPositiveZero) {
  // NaNs of either sign, quiet and signalling, with payloads, in full
  // vectors and in the tail; their neighbours snap normally.
  const float nans[] = {std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::signaling_NaN(),
                        std::bit_cast<float>(0x7fc12345u),
                        std::bit_cast<float>(0xffbfffffu)};
  for (std::size_t n : {1u, 8u, 13u}) {
    for (float nan : nans) {
      std::vector<float> v(n, 0.75f);
      for (std::size_t i = 0; i < n; i += 3) v[i] = nan;
      kernels::snap_q16(v.data(), v.data(), n, 11);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(float_bits(v[i]), i % 3 == 0 ? 0u : float_bits(0.75f))
            << "n " << n << " i " << i;
      }
    }
  }
}

// -------------------------------------------------------------- pipeline --
TEST(PipelineKernels, RepeatedRunMatchesFreshPipeline) {
  // reset() must restore pristine streaming state: a second image through
  // the same engines equals a fresh pipeline bit-for-bit.
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 9);
  Tensor a(net[0].out), b(net[0].out);
  nn::fill_deterministic(a, 21);
  nn::fill_deterministic(b, 22);

  arch::FusionPipeline pipe(net, ws);
  const Tensor a1 = pipe.run(a);
  const Tensor b1 = pipe.run(b);
  const Tensor a2 = pipe.run(a);
  arch::FusionPipeline fresh(net, ws);
  EXPECT_EQ(0.0f, a1.max_abs_diff(a2));
  EXPECT_EQ(0.0f, b1.max_abs_diff(fresh.run(b)));
}

TEST(PipelineKernels, RunBatchMatchesSequentialRuns) {
  ThreadGuard guard;
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 9);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.emplace_back(net[0].out);
    nn::fill_deterministic(inputs.back(), 30 + std::uint32_t(i));
  }
  arch::FusionPipeline pipe(net, ws);
  std::vector<Tensor> want;
  want.reserve(inputs.size());
  for (const Tensor& in : inputs) want.push_back(pipe.run(in));
  for (int threads : {1, 3}) {
    const std::vector<Tensor> got = pipe.run_batch(inputs, threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(0.0f, got[i].max_abs_diff(want[i]))
          << "image " << i << " threads=" << threads;
    }
  }
}

TEST(PipelineKernels, RunBatchWinogradSharesCachedPlans) {
  ThreadGuard guard;
  nn::Network net("n");
  net.input({3, 12, 12});
  net.conv(5, 3, 1, 1, "c1");
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 17);
  std::vector<arch::LayerChoice> ch(1);
  ch[0].algo = fpga::ConvAlgo::kWinograd;
  ch[0].wino_m = 4;
  arch::FusionPipeline pipe(net, ws, ch);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.emplace_back(net[0].out);
    nn::fill_deterministic(inputs.back(), 40 + std::uint32_t(i));
  }
  std::vector<Tensor> want;
  for (const Tensor& in : inputs) want.push_back(pipe.run(in));
  const std::vector<Tensor> got = pipe.run_batch(inputs, 2);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(0.0f, got[i].max_abs_diff(want[i])) << "image " << i;
  }
}

// --------------------------------------------- SIMD vs scalar fallback --
// Under a scalar stamp cap the entry points run the identical blocking/
// packing/accumulation structure with the scalar micro-kernel. Integer
// datapaths must match bit-exactly (integer addition commutes); f32 and f64
// may differ only by FMA contraction inside the AVX2 and AVX-512 stamps, so
// they are tolerance-bounded — except on Q-snapped 16-bit operands, where
// every product and partial sum is exact and they must match bit for bit.
// f32d always matches bit for bit: its products of two floats are exact in
// double.

/// Runs fn with every kernel on its scalar twin.
template <typename Fn>
void on_scalar_stamp(const Fn& fn) {
  const kernels::simd::ScopedStampCap cap(Stamp::kScalar);
  fn();
}

TEST(Gemm, SimdMatchesScalarFallbackF32) {
  std::mt19937 rng(101);
  const int cases[][3] = {{5, 7, 3}, {97, 33, 257}, {130, 144, 520}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    const auto A = random_floats(std::size_t(M) * K, rng);
    const auto B = random_floats(std::size_t(K) * N, rng);
    const auto bias = random_floats(std::size_t(M), rng);
    std::vector<float> simd(std::size_t(M) * N), scalar(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, simd.data(), N,
                      bias.data(), /*relu=*/false, 1);
    on_scalar_stamp([&] {
      kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, scalar.data(), N,
                        bias.data(), false, 1);
    });
    for (std::size_t i = 0; i < simd.size(); ++i) {
      EXPECT_NEAR(simd[i], scalar[i], 1e-3f)
          << "M=" << M << " N=" << N << " K=" << K << " i=" << i;
    }
  }
}

TEST(Gemm, SimdMatchesScalarFallbackDoubleAccum) {
  std::mt19937 rng(103);
  const int M = 70, N = 90, K = 300;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  std::vector<double> simd(std::size_t(M) * N), scalar(std::size_t(M) * N);
  kernels::gemm_f32d(M, N, K, A.data(), K, B.data(), N, simd.data(), N,
                     bias.data(), true, 1);
  on_scalar_stamp([&] {
    kernels::gemm_f32d(M, N, K, A.data(), K, B.data(), N, scalar.data(), N,
                       bias.data(), true, 1);
  });
  // Every float x float product is exact in double, so a fused multiply-add
  // rounds exactly like a multiply and an add: f32d matches bit for bit.
  EXPECT_EQ(0, std::memcmp(simd.data(), scalar.data(),
                           simd.size() * sizeof(double)));
  std::vector<double> Ad(A.begin(), A.end()), Bd(B.begin(), B.end());
  std::vector<double> simd64(std::size_t(M) * N), scalar64(std::size_t(M) * N);
  kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, simd64.data(), N, 1);
  on_scalar_stamp([&] {
    kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, scalar64.data(), N,
                      1);
  });
  for (std::size_t i = 0; i < simd64.size(); ++i) {
    EXPECT_NEAR(simd64[i], scalar64[i], 1e-9) << "f64 i=" << i;
  }
}

TEST(Gemm, SimdBitExactAgainstScalarFallbackQ16) {
  std::mt19937 rng(107);
  const int cases[][3] = {{4, 8, 16}, {19, 23, 301}, {120, 70, 512}};
  for (const auto& c : cases) {
    const int M = c[0], N = c[1], K = c[2];
    const Q16Operand A = random_q16(std::size_t(M) * K, 12, rng);
    const Q16Operand B = random_q16(std::size_t(K) * N, 14, rng);
    std::vector<double> simd(std::size_t(M) * N), scalar(std::size_t(M) * N);
    kernels::gemm_f32d(M, N, K, A.q.data(), K, B.q.data(), N, simd.data(), N,
                       nullptr, false, 1);
    on_scalar_stamp([&] {
      kernels::gemm_f32d(M, N, K, A.q.data(), K, B.q.data(), N, scalar.data(),
                         N, nullptr, false, 1);
    });
    EXPECT_EQ(0, std::memcmp(simd.data(), scalar.data(),
                             simd.size() * sizeof(double)))
        << "f32d M=" << M << " N=" << N << " K=" << K;
    const std::vector<double> Ad(A.q.begin(), A.q.end());
    const std::vector<double> Bd(B.q.begin(), B.q.end());
    kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, simd.data(), N, 1);
    on_scalar_stamp([&] {
      kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, scalar.data(), N,
                        1);
    });
    EXPECT_EQ(0, std::memcmp(simd.data(), scalar.data(),
                             simd.size() * sizeof(double)))
        << "f64 M=" << M << " N=" << N << " K=" << K;
  }
}

// A geometry spanning several MC blocks, NR panels and KC steps so the 2D
// cooperative tile grid genuinely has both dimensions and C carries partial
// sums between steps; results must stay byte-identical for every thread
// count (disjoint output tiles, serial KC outer loop).
TEST(Gemm, ThreadInvarianceAcrossMcBlocks2D) {
  ThreadGuard guard;
  std::mt19937 rng(109);
  // 3 MC blocks x many NR panels x 3 KC steps (256 + 256 + 88).
  const int M = 250, N = 200, K = 600;
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  std::vector<float> serial(std::size_t(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, serial.data(), N,
                    bias.data(), true, 1);
  const Q16Operand Aq = random_q16(std::size_t(M) * K, 12, rng);
  const Q16Operand Bq = random_q16(std::size_t(K) * N, 12, rng);
  std::vector<double> serial_q(std::size_t(M) * N);
  kernels::gemm_f32d(M, N, K, Aq.q.data(), K, Bq.q.data(), N, serial_q.data(),
                     N, nullptr, false, 1);
  const std::vector<double> Ad(A.begin(), A.end()), Bd(B.begin(), B.end());
  std::vector<double> serial_d(std::size_t(M) * N);
  kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, serial_d.data(), N,
                    1);
  const auto A8 = random_i8(std::size_t(M) * K, rng);
  const auto B8 = random_i8(std::size_t(K) * N, rng);
  std::vector<std::int32_t> bias8(static_cast<std::size_t>(M));
  for (auto& b : bias8) b = std::int32_t(rng() % 20001) - 10000;
  const float scale8 = 1e-4f;
  const kernels::QuantParams q{&scale8, false, bias8.data(), 5, true};
  std::vector<std::int8_t> serial8(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A8.data(), K, B8.data(), N, serial8.data(), N, q,
                   1);
  // The other requantize epilogue: per-channel scales, no bias, an
  // asymmetric zero-point and no ReLU clamp.
  std::uniform_real_distribution<float> sd(1e-4f, 1e-2f);
  std::vector<float> scales8(static_cast<std::size_t>(M));
  for (auto& s : scales8) s = sd(rng);
  const kernels::QuantParams qc{scales8.data(), true, nullptr, -3, false};
  std::vector<std::int8_t> serial8c(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A8.data(), K, B8.data(), N, serial8c.data(), N,
                   qc, 1);
  for (int t : {2, 3, 5, 8}) {
    std::vector<float> par(std::size_t(M) * N);
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, par.data(), N,
                      bias.data(), true, t);
    EXPECT_EQ(0, std::memcmp(serial.data(), par.data(),
                             serial.size() * sizeof(float)))
        << "f32 threads=" << t;
    std::vector<double> par_q(std::size_t(M) * N);
    kernels::gemm_f32d(M, N, K, Aq.q.data(), K, Bq.q.data(), N, par_q.data(),
                       N, nullptr, false, t);
    EXPECT_EQ(0, std::memcmp(serial_q.data(), par_q.data(),
                             serial_q.size() * sizeof(double)))
        << "f32d threads=" << t;
    std::vector<double> par_d(std::size_t(M) * N);
    kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, par_d.data(), N, t);
    EXPECT_EQ(0, std::memcmp(serial_d.data(), par_d.data(),
                             serial_d.size() * sizeof(double)))
        << "f64 threads=" << t;
    std::vector<std::int8_t> par8(std::size_t(M) * N);
    kernels::gemm_i8(M, N, K, A8.data(), K, B8.data(), N, par8.data(), N, q,
                     t);
    EXPECT_EQ(0, std::memcmp(serial8.data(), par8.data(), serial8.size()))
        << "i8 threads=" << t;
    kernels::gemm_i8(M, N, K, A8.data(), K, B8.data(), N, par8.data(), N, qc,
                     t);
    EXPECT_EQ(0, std::memcmp(serial8c.data(), par8.data(), serial8c.size()))
        << "i8 per-channel threads=" << t;
  }
}

// ----------------------------------------------------------- scratch arena --
TEST(Arena, ScopeRestoresWatermarkAndAlignsAllocations) {
  kernels::ScratchArena& a = kernels::ScratchArena::tls();
  const std::size_t used_before = a.used();
  {
    kernels::ScratchArena::Scope outer(a);
    float* p = a.alloc<float>(1001);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(p) % 64);
    p[0] = 1.0f;
    p[1000] = 2.0f;  // touch both ends
    {
      kernels::ScratchArena::Scope inner(a);
      double* q = a.alloc<double>(333);
      EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(q) % 64);
      q[332] = 3.0;
      EXPECT_GT(a.used(), used_before);
    }
    // Inner scope closed: its bytes are returned, outer's still live.
    EXPECT_EQ(1.0f, p[0]);
    EXPECT_EQ(2.0f, p[1000]);
  }
  EXPECT_EQ(used_before, a.used());
}

TEST(Arena, OverflowCoalescesAndStopsAllocating) {
  kernels::ScratchArena arena;  // fresh, cold arena
  const auto pattern = [&arena] {
    kernels::ScratchArena::Scope s(arena);
    char* small = arena.alloc<char>(100);
    small[0] = 'a';
    // Large enough to force overflow growth past the initial block.
    char* big = arena.alloc<char>(std::size_t(1) << 20);
    big[(std::size_t(1) << 20) - 1] = 'z';
  };
  pattern();  // cold pass: opens/grows blocks
  const std::size_t warm_allocs = arena.system_allocations();
  const std::size_t warm_cap = arena.capacity();
  EXPECT_GE(warm_cap, arena.high_water());  // coalesced to the high water
  for (int i = 0; i < 4; ++i) pattern();
  EXPECT_EQ(warm_allocs, arena.system_allocations())
      << "warm arena must not touch the system allocator";
  EXPECT_EQ(warm_cap, arena.capacity());
  EXPECT_EQ(0u, arena.used());
}

// After the first image has sized the thread's arena, repeated batches must
// run with zero additional system allocations (reset-don't-free).
TEST(Arena, SteadyStateRunBatchDoesNotGrowArena) {
  ThreadGuard guard;
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::WeightStore ws = nn::WeightStore::deterministic(net, 21);
  arch::FusionPipeline pipe(net, ws);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.emplace_back(net[0].out);
    nn::fill_deterministic(inputs.back(), 60 + std::uint32_t(i));
  }
  (void)pipe.run(inputs[0]);  // first image sizes the arena
  kernels::ScratchArena& a = kernels::ScratchArena::tls();
  const std::size_t warm_allocs = a.system_allocations();
  std::vector<Tensor> last;
  for (int rep = 0; rep < 3; ++rep) {
    last = pipe.run_batch(inputs, /*threads=*/1);  // inline on this thread
  }
  EXPECT_EQ(warm_allocs, a.system_allocations())
      << "steady-state batches must reuse the warm arena";
  EXPECT_EQ(0u, a.used());
  ASSERT_EQ(inputs.size(), last.size());
  EXPECT_EQ(0.0f, last[0].max_abs_diff(pipe.run(inputs[0])));
}

// ------------------------------------------------------- chunked parallel --
TEST(Parallel, ChunkedCoversEveryIndexExactlyOnceUnderExceptions) {
  ThreadGuard guard;
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  bool caught = false;
  try {
    kernels::parallel_for(n, /*grain=*/7, /*threads=*/8,
                          [&](std::size_t i) {
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                            if (i % 97 == 0) {
                              throw std::runtime_error("injected");
                            }
                          });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught) << "first worker exception must be rethrown";
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(1, hits[i].load()) << "index " << i;
  }
}

TEST(Parallel, RangesPartitionIndexSpaceExactly) {
  ThreadGuard guard;
  const std::size_t n = 537, grain = 10;
  std::vector<std::atomic<int>> hits(n);
  kernels::parallel_for_ranges(n, grain, 4,
                               [&](std::size_t lo, std::size_t hi) {
                                 ASSERT_LT(lo, hi);
                                 ASSERT_LE(hi - lo, grain);
                                 for (std::size_t i = lo; i < hi; ++i) {
                                   hits[i].fetch_add(1,
                                                     std::memory_order_relaxed);
                                 }
                               });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(1, hits[i].load()) << "index " << i;
  }
}

TEST(Parallel, ResolveThreadsRespectsHardwareCap) {
  const int cap = static_cast<int>(hardware_threads());
  EXPECT_EQ(cap, kernels::resolve_threads(0));       // 0 = all cores
  EXPECT_EQ(cap, kernels::resolve_threads(-4));      // negative = all cores
  EXPECT_EQ(1, kernels::resolve_threads(1));
  EXPECT_EQ(cap, kernels::resolve_threads(1 << 20));  // clamped, never over
  EXPECT_LE(kernels::resolve_threads(2), 2);
}

TEST(Parallel, HardwareThreadsIsPositiveAndTheSameOnEveryThread) {
  const unsigned here = hardware_threads();
  ASSERT_GE(here, 1u);
  std::vector<unsigned> seen(8, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&seen, t] { seen[t] = hardware_threads(); });
  }
  for (auto& r : readers) r.join();
  for (unsigned v : seen) EXPECT_EQ(here, v);
}

#ifdef __linux__
// The dispatch path must not ask the OS for the core count per call: glibc
// answers std::thread::hardware_concurrency() with a sysfs read (~5 us of
// system time each), and the fusion pipeline dispatches per streamed row.
// 200k serial dispatches plus small GEMMs cost about a second of system time
// with a per-call probe and next to nothing with the cached count, so the
// bound does not depend on machine speed.
TEST(Parallel, SerialDispatchSpendsNoSystemTime) {
  const auto sys_seconds = [] {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return static_cast<double>(ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  };
  // K spans several KC blocks so each GEMM dispatches more than once.
  constexpr int M = 16, N = 16, K = 700;
  std::vector<float> A(static_cast<std::size_t>(M) * K, 0.5f);
  std::vector<float> B(static_cast<std::size_t>(K) * N, 0.25f);
  std::vector<float> C(static_cast<std::size_t>(M) * N);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, C.data(), N, nullptr,
                    false, 1);  // warm the scratch arena outside the window
  std::size_t calls = 0;
  const std::function<void(std::size_t)> fn = [&calls](std::size_t) {
    ++calls;
  };

  const double t0 = sys_seconds();
  for (int i = 0; i < 200000; ++i) kernels::parallel_for(1, 1, fn);
  for (int i = 0; i < 1000; ++i) {
    kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, C.data(), N, nullptr,
                      false, 1);
  }
  const double sys = sys_seconds() - t0;

  EXPECT_EQ(200000u, calls);
  EXPECT_FLOAT_EQ(0.5f * 0.25f * K, C[0]);
  EXPECT_LT(sys, 0.050) << "system time over the serial dispatch loop";
}
#endif

// ----------------------------------------------------------- int8 datapath --

TEST(GemmI8, I32AccumulationExactAgainstNaive) {
  std::mt19937 rng(29);
  const int M = 21, N = 35, K = 530;  // straddles the KC=256 panel boundary
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::vector<std::int32_t> got(std::size_t(M) * N), want(std::size_t(M) * N);
  kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, got.data(), N, 1);
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < N; ++j) {
      std::int32_t acc = 0;
      for (int k = 0; k < K; ++k) {
        acc += std::int32_t(A[i * K + k]) * B[k * N + j];
      }
      want[std::size_t(i) * N + j] = acc;
    }
  }
  EXPECT_EQ(got, want);
}

TEST(GemmI8, RequantizeRoundsToEvenAndSaturates) {
  using kernels::requantize_i32;
  // Round-to-nearest-even on exact .5 ties (llrint under FE_TONEAREST).
  EXPECT_EQ(0, requantize_i32(1, 0.5f, 0, false));    // 0.5 -> 0 (even)
  EXPECT_EQ(2, requantize_i32(3, 0.5f, 0, false));    // 1.5 -> 2 (even)
  EXPECT_EQ(2, requantize_i32(5, 0.5f, 0, false));    // 2.5 -> 2 (even)
  EXPECT_EQ(-2, requantize_i32(-3, 0.5f, 0, false));  // -1.5 -> -2 (even)
  // Saturation to the i8 range, both directions.
  EXPECT_EQ(127, requantize_i32(100000, 1.0f, 0, false));
  EXPECT_EQ(-128, requantize_i32(-100000, 1.0f, 0, false));
  // Zero-point offsets after scaling; saturation applies post-offset.
  EXPECT_EQ(13, requantize_i32(10, 1.0f, 3, false));
  EXPECT_EQ(127, requantize_i32(126, 1.0f, 100, false));
  // ReLU clamps at the output zero-point, not at code 0.
  EXPECT_EQ(5, requantize_i32(-40, 1.0f, 5, true));
  EXPECT_EQ(45, requantize_i32(40, 1.0f, 5, true));
}

TEST(GemmI8, WritebackMatchesScalarEpiloguePerChannelAndPerTensor) {
  std::mt19937 rng(31);
  const int M = 17, N = 29, K = 310;
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::vector<std::int32_t> acc(std::size_t(M) * N);
  kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, acc.data(), N, 1);

  std::uniform_real_distribution<float> sd(1e-4f, 5e-3f);
  std::vector<float> scales(static_cast<std::size_t>(M));
  for (auto& s : scales) s = sd(rng);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(M));
  std::uniform_int_distribution<int> bd(-5000, 5000);
  for (auto& b : bias) b = bd(rng);

  for (const bool per_channel : {true, false}) {
    for (const bool relu : {false, true}) {
      kernels::QuantParams q{scales.data(), per_channel, bias.data(),
                             /*zero_point=*/-7, relu};
      std::vector<std::int8_t> got(std::size_t(M) * N);
      kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, got.data(), N, q,
                       1);
      for (int i = 0; i < M; ++i) {
        const float s = per_channel ? scales[std::size_t(i)] : scales[0];
        for (int j = 0; j < N; ++j) {
          const std::int8_t want = kernels::requantize_i32(
              acc[std::size_t(i) * N + j] + bias[std::size_t(i)], s, -7,
              relu);
          ASSERT_EQ(want, got[std::size_t(i) * N + j])
              << "i=" << i << " j=" << j << " per_channel=" << per_channel
              << " relu=" << relu;
        }
      }
    }
  }
}

TEST(GemmI8, SaturatingWritebackBothRails) {
  // All-max operands drive the accumulator far past the i8 range in both
  // directions; the epilogue must saturate, not wrap.
  const int M = 2, N = 3, K = 64;
  std::vector<std::int8_t> A(std::size_t(M) * K), B(std::size_t(K) * N);
  for (int k = 0; k < K; ++k) {
    A[k] = 127;                  // row 0: +127 * +127 * K
    A[K + k] = 127;              // row 1 vs negative B column
    for (int j = 0; j < N; ++j) B[k * N + j] = (j == 2) ? -128 : 127;
  }
  const float one = 1.0f;
  kernels::QuantParams q{&one, false, nullptr, 0, false};
  std::vector<std::int8_t> C(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, C.data(), N, q, 1);
  for (int i = 0; i < M; ++i) {
    EXPECT_EQ(127, C[std::size_t(i) * N + 0]);
    EXPECT_EQ(127, C[std::size_t(i) * N + 1]);
    EXPECT_EQ(-128, C[std::size_t(i) * N + 2]);
  }
}

TEST(GemmI8, SimdBitExactAgainstScalarFallback) {
  std::mt19937 rng(37);
  const int M = 43, N = 61, K = 333;
  const auto A = random_i8(std::size_t(M) * K, rng);
  const auto B = random_i8(std::size_t(K) * N, rng);
  std::uniform_real_distribution<float> sd(1e-4f, 1e-2f);
  std::vector<float> scales(static_cast<std::size_t>(M));
  for (auto& s : scales) s = sd(rng);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(M));
  std::uniform_int_distribution<int> bd(-2000, 2000);
  for (auto& b : bias) b = bd(rng);
  kernels::QuantParams q{scales.data(), true, bias.data(), 4, true};

  std::vector<std::int8_t> simd(std::size_t(M) * N), ref(std::size_t(M) * N);
  kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, simd.data(), N, q, 1);
  on_scalar_stamp([&] {
    kernels::gemm_i8(M, N, K, A.data(), K, B.data(), N, ref.data(), N, q, 1);
  });
  EXPECT_EQ(0, std::memcmp(simd.data(), ref.data(), simd.size()));

  std::vector<std::int32_t> simd32(std::size_t(M) * N),
      ref32(std::size_t(M) * N);
  kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, simd32.data(), N,
                       1);
  on_scalar_stamp([&] {
    kernels::gemm_i8_i32(M, N, K, A.data(), K, B.data(), N, ref32.data(), N, 1);
  });
  EXPECT_EQ(simd32, ref32);
}

TEST(GemmI8, Im2colUsesZeroPointPadding) {
  // 1 channel, 2x2 image, 3x3 kernel, pad 1: every patch touches padding.
  const std::int8_t img[4] = {10, 20, 30, 40};
  const std::int8_t pad = -7;  // asymmetric grid: real 0.0 != code 0
  std::vector<std::int8_t> mat(std::size_t(9) * 4);
  kernels::im2col_i8(img, 1, 2, 2, 3, 1, 1, 2, 2, mat.data(), pad);
  // Column 0 (output pixel (0,0)): taps off the top/left edge must be the
  // zero-point code, the in-bounds taps the image values.
  EXPECT_EQ(pad, mat[0 * 4 + 0]);  // (-1,-1)
  EXPECT_EQ(pad, mat[1 * 4 + 0]);  // (-1, 0)
  EXPECT_EQ(pad, mat[3 * 4 + 0]);  // ( 0,-1)
  EXPECT_EQ(10, mat[4 * 4 + 0]);   // ( 0, 0)
  EXPECT_EQ(20, mat[5 * 4 + 0]);   // ( 0, 1)
  EXPECT_EQ(30, mat[7 * 4 + 0]);   // ( 1, 0)
  EXPECT_EQ(40, mat[8 * 4 + 0]);   // ( 1, 1)
  int pads = 0;
  for (std::int8_t v : mat) pads += (v == pad);
  EXPECT_EQ(20, pads);  // 9*4 taps, 16 in-bounds reads
}

TEST(ConvKernels, QuantI8BlockedMatchesScalarSeedBitExact) {
  ThreadGuard guard;
  std::mt19937 rng(47);
  const ConvCase cases[] = {
      {3, 8, 11, 3, 1, 1}, {16, 7, 9, 1, 1, 0},  {5, 13, 14, 5, 2, 2},
      {9, 9, 8, 3, 2, 1},  {12, 6, 17, 3, 1, 0},
  };
  for (const auto& c : cases) {
    Tensor in(c.in_c, c.hw, c.hw);
    FilterBank f(c.out_c, c.in_c, c.k);
    nn::fill_deterministic(in, 11);
    nn::fill_deterministic(f, 12);
    std::vector<float> bias(std::size_t(c.out_c));
    nn::fill_deterministic(bias, 13);

    float in_mn = 0.0f, in_mx = 0.0f;
    for (float v : in.vec()) {
      in_mn = std::min(in_mn, v);
      in_mx = std::max(in_mx, v);
    }
    // The output range only shapes the grid; any sane bracket works.
    const algo::Int8ConvQuant q =
        algo::make_int8_conv_quant(f, in_mn, in_mx, -40.0f, 40.0f);

    const Tensor want = algo::conv_quant_i8_scalar(in, f, bias, c.stride,
                                                   c.pad, true, q);
    for (int t : {1, 3}) {
      kernels::set_num_threads(t);
      const Tensor got =
          algo::conv_quant_i8(in, f, bias, c.stride, c.pad, true, q);
      ASSERT_EQ(want.shape(), got.shape());
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                               std::size_t(want.size()) * sizeof(float)))
          << "in_c=" << c.in_c << " out_c=" << c.out_c << " k=" << c.k
          << " stride=" << c.stride << " threads=" << t;
    }
  }
  kernels::set_num_threads(1);
}

// ---------------------------------------------------------- stamp parity --
// Each stamp run under a ScopedStampCap. The AVX2 and AVX-512 stamps both
// fuse every multiply-add and keep each output element's k-ascending chain,
// so every GEMM datapath must match between them byte for byte. The exact
// datapaths (f32d, whose float products are exact in double, and the
// integer ones) match on every stamp, the scalar twins included. The lane
// kernels never fuse, so they match the base stamp on every stamp.

const Stamp kAllStamps[] = {Stamp::kScalar, Stamp::kBase, Stamp::kAvx2,
                            Stamp::kAvx512};

/// One datapath's output bytes; `exact` when they must not depend on FMA.
struct DatapathBytes {
  const char* name;
  bool exact;
  std::vector<unsigned char> bytes;
};

template <typename T>
std::vector<unsigned char> as_bytes(const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  return {p, p + v.size() * sizeof(T)};
}

/// Every GEMM datapath, raw and pre-packed, on one M x N x K problem,
/// computed on stamp `s`.
std::vector<DatapathBytes> gemm_bytes_on(Stamp s, int M, int N, int K,
                                         int threads, std::uint32_t seed) {
  const kernels::simd::ScopedStampCap cap(s);
  EXPECT_STREQ(kernels::simd_stamp(), kernels::simd::stamp_name(s));
  std::mt19937 rng(seed);
  const auto A = random_floats(std::size_t(M) * K, rng);
  const auto B = random_floats(std::size_t(K) * N, rng);
  const auto bias = random_floats(std::size_t(M), rng);
  const std::vector<double> Ad(A.begin(), A.end()), Bd(B.begin(), B.end());
  const auto A8 = random_i8(std::size_t(M) * K, rng);
  const auto B8 = random_i8(std::size_t(K) * N, rng);
  std::vector<float> scales(std::size_t(M), 3e-3f);
  std::vector<std::int32_t> bias32(std::size_t(M), -700);
  const kernels::QuantParams q{scales.data(), true, bias32.data(), 3, true};
  const std::size_t mn = std::size_t(M) * N;

  std::vector<DatapathBytes> out;
  std::vector<float> c32(mn);
  kernels::gemm_f32(M, N, K, A.data(), K, B.data(), N, c32.data(), N,
                    bias.data(), true, threads);
  out.push_back({"f32", false, as_bytes(c32)});
  const kernels::PackedLhsF32 pa32(A.data(), M, K, K);
  kernels::gemm_f32(pa32, N, B.data(), N, c32.data(), N, bias.data(), true,
                    threads);
  out.push_back({"f32 packed", false, as_bytes(c32)});
  std::vector<double> c64(mn);
  kernels::gemm_f32d(M, N, K, A.data(), K, B.data(), N, c64.data(), N,
                     bias.data(), true, threads);
  out.push_back({"f32d", true, as_bytes(c64)});
  kernels::gemm_f32d(kernels::PackedLhsF64(pa32), N, B.data(), N, c64.data(),
                     N, bias.data(), true, threads);
  out.push_back({"f32d packed", true, as_bytes(c64)});
  kernels::gemm_f64(M, N, K, Ad.data(), K, Bd.data(), N, c64.data(), N,
                    threads);
  out.push_back({"f64", false, as_bytes(c64)});
  kernels::gemm_f64(kernels::PackedLhsF64(Ad.data(), M, K, K), N, Bd.data(),
                    N, c64.data(), N, threads);
  out.push_back({"f64 packed", false, as_bytes(c64)});
  std::vector<std::int8_t> c8(mn);
  kernels::gemm_i8(M, N, K, A8.data(), K, B8.data(), N, c8.data(), N, q,
                   threads);
  out.push_back({"i8", true, as_bytes(c8)});
  kernels::gemm_i8(kernels::PackedLhsI8(A8.data(), M, K, K), N, B8.data(), N,
                   c8.data(), N, q, threads);
  out.push_back({"i8 packed", true, as_bytes(c8)});
  std::vector<std::int32_t> c32i(mn);
  kernels::gemm_i8_i32(M, N, K, A8.data(), K, B8.data(), N, c32i.data(), N,
                       threads);
  out.push_back({"i8_i32", true, as_bytes(c32i)});
  return out;
}

/// Shapes with M and N tails against MR = 4 and every stamp's NR, K within
/// one KC block and across several, plus random ones.
std::vector<std::array<int, 3>> parity_shapes() {
  std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1}, {5, 7, 3}, {4, 32, 16}, {37, 45, 300}, {61, 100, 77},
      {130, 33, 520}};
  std::mt19937 rng(331);
  std::uniform_int_distribution<int> m(1, 70), n(1, 120), k(1, 600);
  for (int i = 0; i < 6; ++i) shapes.push_back({m(rng), n(rng), k(rng)});
  return shapes;
}

TEST(StampParity, GemmAvx512MatchesAvx2Bytewise) {
  if (!kernels::simd::stamp_supported(Stamp::kAvx512)) {
    GTEST_SKIP() << "AVX-512 (F, VL, BW, DQ) is not available on this CPU "
                    "or build; stamp "
                 << kernels::simd_stamp() << " runs";
  }
  std::uint32_t seed = 400;
  for (const auto& [M, N, K] : parity_shapes()) {
    for (const int threads : {1, 3}) {
      const auto wide = gemm_bytes_on(Stamp::kAvx512, M, N, K, threads, seed);
      const auto narrow = gemm_bytes_on(Stamp::kAvx2, M, N, K, threads, seed);
      for (std::size_t d = 0; d < wide.size(); ++d) {
        EXPECT_TRUE(wide[d].bytes == narrow[d].bytes)
            << wide[d].name << " M=" << M << " N=" << N << " K=" << K
            << " threads=" << threads;
      }
      ++seed;
    }
  }
}

TEST(StampParity, GemmExactDatapathsMatchOnEveryStamp) {
  std::string compared;
  std::uint32_t seed = 500;
  for (const auto& [M, N, K] : parity_shapes()) {
    const auto ref = gemm_bytes_on(Stamp::kScalar, M, N, K, 1, seed);
    for (const Stamp s : kAllStamps) {
      if (s == Stamp::kScalar || !kernels::simd::stamp_supported(s)) continue;
      if (seed == 500) {
        compared += std::string(" ") + kernels::simd::stamp_name(s);
      }
      const auto got = gemm_bytes_on(s, M, N, K, 1, seed);
      for (std::size_t d = 0; d < got.size(); ++d) {
        if (!got[d].exact) continue;
        EXPECT_TRUE(got[d].bytes == ref[d].bytes)
            << got[d].name << " on " << kernels::simd::stamp_name(s)
            << " M=" << M << " N=" << N << " K=" << K;
      }
    }
    ++seed;
  }
  std::printf("[ stamps   ] selected %s; exact GEMM datapaths compared on "
              "scalar%s\n",
              kernels::simd_stamp(), compared.c_str());
}

/// lane_transform and snap_q16 outputs on stamp `s` for a fixed battery of
/// shapes, lane counts (full wide vectors, 4-lane steps and tails) and
/// inputs with signed zeros, denormals, infinities, NaNs and Q16 ties.
std::vector<unsigned char> lane_bytes_on(Stamp s) {
  const kernels::simd::ScopedStampCap cap(s);
  EXPECT_STREQ(kernels::simd_stamp(), kernels::simd::stamp_name(s));
  std::mt19937 rng(601);
  std::uniform_real_distribution<double> uni(-4.0, 4.0);
  std::uniform_int_distribution<int> pick(0, 15);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, 4.9e-324, -4.9e-324, 1e-310, -1e-310,
                             inf, -inf};
  std::vector<unsigned char> out;
  for (int b = 1; b <= kernels::kLaneTransformMaxDim; ++b) {
    std::vector<double> L(std::size_t(b) * b);
    for (double& v : L) v = pick(rng) < 4 ? 0.0 : uni(rng);
    for (const int a : {b, std::max(1, b - 2)}) {
      for (const int lanes : {1, 3, 4, 5, 8, 12, 13, 16, 21, 49}) {
        const std::size_t xs = lanes + 2, ys = lanes + 1;
        std::vector<double> x(xs * b * b), y(ys * a * a, -1.0);
        for (double& v : x) {
          const int p = pick(rng);
          v = p < 8 ? specials[p] : uni(rng);
        }
        kernels::lane_transform(L.data(), L.data(), a, b, x.data(), xs,
                                y.data(), ys, lanes);
        const auto bytes = as_bytes(y);
        out.insert(out.end(), bytes.begin(), bytes.end());
      }
    }
  }
  for (int frac = 0; frac <= 15; ++frac) {
    std::vector<float> src;
    const float ulp = fixed::Fixed16::pow2(-frac);
    for (int k = -40000; k <= 40000; k += 997) {
      src.push_back((static_cast<float>(k) + 0.5f) * ulp);
    }
    for (int i = 0; i < 3000; ++i) {
      src.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
    }
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{16}, std::size_t{17},
                                src.size()}) {
      std::vector<float> dst(n);
      kernels::snap_q16(src.data(), dst.data(), n, frac);
      const auto bytes = as_bytes(dst);
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
  }
  return out;
}

TEST(StampParity, LaneKernelsMatchBaseOnEveryStamp) {
  if (!kernels::simd::stamp_supported(Stamp::kBase)) {
    GTEST_SKIP() << "built with HETACC_NO_SIMD: only the scalar twins exist";
  }
  const std::vector<unsigned char> base = lane_bytes_on(Stamp::kBase);
  std::string compared;
  for (const Stamp s : kAllStamps) {
    if (s == Stamp::kBase || !kernels::simd::stamp_supported(s)) continue;
    compared += std::string(" ") + kernels::simd::stamp_name(s);
    EXPECT_TRUE(lane_bytes_on(s) == base) << kernels::simd::stamp_name(s);
  }
  std::printf("[ stamps   ] lane kernels compared on base against%s\n",
              compared.c_str());
  if (!kernels::simd::stamp_supported(Stamp::kAvx512)) {
    GTEST_SKIP() << "AVX-512 (F, VL, BW, DQ) is not available on this CPU "
                    "or build: its lane stamp was not compared";
  }
}

}  // namespace
}  // namespace hetacc
