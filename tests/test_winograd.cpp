#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "algo/winograd_transform.h"
#include "fpga/engine_model.h"
#include "nn/network.h"
#include "nn/reference.h"

namespace hetacc::algo {
namespace {

using nn::FilterBank;
using nn::Shape;
using nn::Tensor;

// ---------------------------------------------------------------- Matrix --
TEST(Matrix, MultiplyKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{0, 1}, {1, 0}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c.at(0, 0), 2);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 1);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 4);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 3);
}

TEST(Matrix, TransposeIdentityAndApply) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6);
  const auto v = a.apply({1, 0, 1});
  EXPECT_DOUBLE_EQ(v[0], 4);
  EXPECT_DOUBLE_EQ(v[1], 10);
}

TEST(Matrix, DimMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
  EXPECT_THROW((void)a.apply({1.0, 2.0}), std::invalid_argument);
}

TEST(Matrix, IdentityProduct) {
  Matrix a{{2, -1}, {0.5, 3}};
  EXPECT_DOUBLE_EQ((a * Matrix::identity(2)).max_abs_diff(a), 0.0);
}

// ------------------------------------------------------------ transforms --
TEST(WinogradTransform, F23MultCounts) {
  const WinogradTransform t = winograd_f2x3();
  EXPECT_EQ(t.n(), 4);  // paper §2.1: "only 4 multiplications are required"
  EXPECT_EQ(t.tile_mults_2d(), 16);
  EXPECT_EQ(t.direct_tile_mults_2d(), 36);
  EXPECT_DOUBLE_EQ(t.reduction_2d(), 2.25);
}

TEST(WinogradTransform, F43ReductionIsFour) {
  const WinogradTransform t = winograd_f4x3();
  EXPECT_EQ(t.n(), 6);
  // Paper §7.1: F(4x4,3x3) uses one quarter of the multiplications.
  EXPECT_DOUBLE_EQ(t.reduction_2d(), 4.0);
}

TEST(WinogradTransform, CannedF23MatchesDirect1D) {
  const WinogradTransform t = winograd_f2x3();
  EXPECT_LT(verify_1d(t, {0.3, -0.7, 1.1}, {1.0, -2.0, 0.5, 3.0}), 1e-12);
}

TEST(WinogradTransform, CannedF43MatchesDirect1D) {
  const WinogradTransform t = winograd_f4x3();
  EXPECT_LT(verify_1d(t, {0.3, -0.7, 1.1}, {1, -2, 0.5, 3, 0.25, -1}), 1e-9);
}

struct CookToomCase {
  int m;
  int r;
};

class CookToomSweep : public ::testing::TestWithParam<CookToomCase> {};

TEST_P(CookToomSweep, MatchesDirectFirOnRandomData) {
  const auto [m, r] = GetParam();
  const WinogradTransform t = winograd(m, r);
  EXPECT_EQ(t.m, m);
  EXPECT_EQ(t.r, r);
  EXPECT_EQ(t.bt.rows(), t.n());
  EXPECT_EQ(t.g.rows(), t.n());
  EXPECT_EQ(t.at.rows(), m);

  std::uint32_t seed = 1234 + m * 17 + r;
  auto rnd = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 17;
    seed ^= seed << 5;
    return static_cast<double>(static_cast<int>(seed % 2000) - 1000) / 500.0;
  };
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> g(r), d(t.n());
    for (auto& x : g) x = rnd();
    for (auto& x : d) x = rnd();
    EXPECT_LT(verify_1d(t, g, d), 1e-6) << "m=" << m << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupportedTiles, CookToomSweep,
                         ::testing::Values(CookToomCase{2, 3}, CookToomCase{4, 3},
                                           CookToomCase{6, 3}, CookToomCase{2, 5},
                                           CookToomCase{4, 5}, CookToomCase{3, 3},
                                           CookToomCase{2, 7}, CookToomCase{5, 3},
                                           CookToomCase{2, 2}, CookToomCase{4, 4},
                                           CookToomCase{1, 3}, CookToomCase{6, 5}),
                         [](const auto& info) {
                           return "F" + std::to_string(info.param.m) + "_" +
                                  std::to_string(info.param.r);
                         });

TEST(CookToom, RejectsWrongPointCount) {
  EXPECT_THROW((void)cook_toom(4, 3, {0, 1, -1}), std::invalid_argument);
  EXPECT_THROW((void)cook_toom(4, 3, {0, 1, -1, 2, -2, 3}),
               std::invalid_argument);
}

TEST(CookToom, RejectsDuplicatePoints) {
  EXPECT_THROW((void)cook_toom(2, 3, {0, 1, 1}), std::invalid_argument);
}

TEST(CookToom, GeneratedF43AgreesWithCannedAlgorithm) {
  // Same algorithm family (not the same matrices): both must compute the
  // same convolution.
  const WinogradTransform canned = winograd_f4x3();
  const WinogradTransform gen = cook_toom(4, 3, {0, 1, -1, 2, -2});
  const std::vector<double> g{0.5, -1.5, 0.25};
  const std::vector<double> d{1, 2, -3, 0.5, 4, -0.25};
  EXPECT_LT(verify_1d(canned, g, d), 1e-9);
  EXPECT_LT(verify_1d(gen, g, d), 1e-9);
}

TEST(DefaultPoints, DistinctAndZeroFirst) {
  const auto pts = default_points(12);
  EXPECT_EQ(pts[0], 0.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_NE(pts[i], pts[j]);
    }
  }
}

// -------------------------------------------------------------- 2-D conv --
struct ConvCase {
  int m;       // tile
  int k;       // kernel
  int in_c;
  int out_c;
  int h, w;
  int pad;
};

class WinogradConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(WinogradConvSweep, MatchesDirectConvolution) {
  const auto p = GetParam();
  Tensor in(p.in_c, p.h, p.w);
  nn::fill_deterministic(in, 77);
  FilterBank f(p.out_c, p.in_c, p.k);
  nn::fill_deterministic(f, 78);
  std::vector<float> bias(static_cast<std::size_t>(p.out_c));
  nn::fill_deterministic(bias, 79);

  const Tensor direct = nn::conv_reference(in, f, bias, 1, p.pad, true);
  const WinogradTransform t = winograd(p.m, p.k);
  const Tensor wino = winograd_conv(t, in, f, bias, p.pad, true);
  ASSERT_EQ(wino.shape(), direct.shape());
  EXPECT_LT(wino.max_abs_diff(direct), 2e-4f)
      << "F(" << p.m << "," << p.k << ") " << p.in_c << "->" << p.out_c;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WinogradConvSweep,
    ::testing::Values(ConvCase{4, 3, 1, 1, 8, 8, 1},   // single channel
                      ConvCase{4, 3, 3, 8, 16, 16, 1}, // VGG-style same pad
                      ConvCase{4, 3, 4, 4, 10, 14, 0}, // no pad, non-square
                      ConvCase{4, 3, 2, 2, 9, 9, 1},   // ragged tiles
                      ConvCase{2, 3, 3, 5, 12, 12, 1},
                      ConvCase{6, 3, 2, 3, 16, 16, 1},
                      ConvCase{2, 5, 3, 4, 14, 14, 2}, // AlexNet conv2 shape
                      ConvCase{4, 5, 2, 2, 16, 16, 2},
                      ConvCase{4, 3, 8, 8, 7, 7, 1}),  // tiles bigger than map
    [](const auto& info) {
      const auto& p = info.param;
      return "F" + std::to_string(p.m) + "x" + std::to_string(p.k) + "_c" +
             std::to_string(p.in_c) + "x" + std::to_string(p.out_c) + "_" +
             std::to_string(p.h) + "x" + std::to_string(p.w) + "_p" +
             std::to_string(p.pad);
    });

TEST(WinogradConv, PretransformedFiltersMatchOnTheFly) {
  Tensor in(3, 12, 12);
  nn::fill_deterministic(in, 5);
  FilterBank f(4, 3, 3);
  nn::fill_deterministic(f, 6);
  const WinogradTransform t = winograd_f4x3();
  const TransformedFilters tf = transform_filters(t, f);
  EXPECT_EQ(tf.u.size(), 12u);
  const Tensor a = winograd_conv(t, in, f, {}, 1, false);
  const Tensor b = winograd_conv_pretransformed(tf, in, {}, 1, false);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
}

TEST(WinogradConv, DirectPlanBitEqualsTransformedFilters) {
  // winograd_plan transforms each filter straight into the packed GEMM
  // planes; every element must be the very double transform_filters holds.
  for (const auto& [m, r] :
       {std::pair{2, 3}, std::pair{4, 3}, std::pair{2, 5}, std::pair{4, 5}}) {
    const WinogradTransform t = winograd(m, r);
    nn::FilterBank f(7, 6, r);  // out_c % 4 != 0: a zero-padded tail panel
    nn::fill_deterministic(f, 17);
    const TransformedFilters tf = transform_filters(t, f);
    const kernels::WinogradPlan plan = winograd_plan(t, f);
    const int n = t.n();
    ASSERT_EQ(plan.planes.size(), static_cast<std::size_t>(n * n));
    for (int ab = 0; ab < n * n; ++ab) {
      const kernels::PackedLhsF64& plane = plan.planes[ab];
      ASSERT_EQ(plane.rows(), 7);
      ASSERT_EQ(plane.depth(), 6);
      for (int oc = 0; oc < 7; ++oc) {
        for (int ic = 0; ic < 6; ++ic) {
          const double want = tf.at(oc, ic).at(ab / n, ab % n);
          const double got = plane.at(oc, ic);
          EXPECT_EQ(0, std::memcmp(&want, &got, sizeof(double)))
              << "F(" << m << "," << r << ") plane " << ab << " (" << oc
              << ", " << ic << ")";
        }
      }
    }
  }
}

TEST(WinogradConv, KernelMismatchThrows) {
  FilterBank f(1, 1, 5);
  EXPECT_THROW((void)transform_filters(winograd_f4x3(), f),
               std::invalid_argument);
}

TEST(WinogradConv, FixedPointTracksFloat) {
  Tensor in(3, 16, 16);
  nn::fill_deterministic(in, 21);
  FilterBank f(4, 3, 3);
  nn::fill_deterministic(f, 22);
  const WinogradTransform t = winograd_f4x3();
  const Tensor ref = nn::conv_reference(in, f, {}, 1, 1, false);
  const Tensor fx = winograd_conv_fixed(t, in, f, {}, 1, false, 12, 10);
  ASSERT_EQ(fx.shape(), ref.shape());
  // 16-bit Winograd keeps the error within a few output ULPs.
  EXPECT_LT(fx.max_abs_diff(ref), 0.05f);
}

TEST(WinogradConv, ApplicabilityRule) {
  // The one Winograd rule (paper §2.1: stride 1, small kernel), asked of
  // one-conv layers on its edges.
  const auto ok = [](int kernel, int stride) {
    nn::Network net;
    net.input({4, 16, 16});
    (void)net.conv(8, kernel, stride, kernel / 2, "conv");
    return fpga::EngineModel::winograd_ok(net[1]);
  };
  EXPECT_TRUE(ok(3, 1));
  EXPECT_TRUE(ok(5, 1));
  EXPECT_FALSE(ok(3, 2));   // stride (paper §2.1)
  EXPECT_FALSE(ok(11, 1));  // kernel too large
  EXPECT_FALSE(ok(1, 1));   // 1x1: nothing to reuse
}

TEST(WinogradConv, LayerMultCountReduction) {
  const WinogradTransform t = winograd_f4x3();
  // 64ch -> 64ch, 224x224: tiles = 56*56, each 36 mults per channel pair.
  const long long wino = winograd_layer_mults(t, 64, 64, 224, 224);
  EXPECT_EQ(wino, 56ll * 56 * 36 * 64 * 64);
  const long long direct = 64ll * 64 * 9 * 224 * 224;
  EXPECT_DOUBLE_EQ(static_cast<double>(direct) / static_cast<double>(wino),
                   4.0);
}

// --------------------------------------------------------------- im2col --
TEST(Im2col, PatchMatrixKnownValues) {
  Tensor in(1, 3, 3);
  for (int h = 0; h < 3; ++h) {
    for (int w = 0; w < 3; ++w) in.at(0, h, w) = static_cast<float>(h * 3 + w);
  }
  const auto mat = im2col(in, 2, 1, 0, 2, 2);
  // row 0 = tap (0,0,0): values at output positions
  EXPECT_FLOAT_EQ(mat[0], 0.0f);
  EXPECT_FLOAT_EQ(mat[1], 1.0f);
  EXPECT_FLOAT_EQ(mat[2], 3.0f);
  EXPECT_FLOAT_EQ(mat[3], 4.0f);
  // last row = tap (0,1,1)
  EXPECT_FLOAT_EQ(mat[3 * 4 + 0], 4.0f);
  EXPECT_FLOAT_EQ(mat[3 * 4 + 3], 8.0f);
}

class Im2colSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2colSweep, GemmConvMatchesDirect) {
  const auto [k, stride, pad, channels] = GetParam();
  Tensor in(channels, 13, 11);
  nn::fill_deterministic(in, 31);
  FilterBank f(5, channels, k);
  nn::fill_deterministic(f, 32);
  std::vector<float> bias(5);
  nn::fill_deterministic(bias, 33);
  const Tensor a = nn::conv_reference(in, f, bias, stride, pad, false);
  const Tensor b = conv_im2col(in, f, bias, stride, pad, false);
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_LT(a.max_abs_diff(b), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colSweep,
    ::testing::Combine(::testing::Values(1, 3, 5), ::testing::Values(1, 2),
                       ::testing::Values(0, 1, 2), ::testing::Values(1, 3)));

TEST(ConvDirectFixed, TracksFloatWithinQuantNoise) {
  Tensor in(3, 12, 12);
  nn::fill_deterministic(in, 41);
  FilterBank f(6, 3, 3);
  nn::fill_deterministic(f, 42);
  const Tensor ref = nn::conv_reference(in, f, {}, 1, 1, true);
  const Tensor fx = algo::conv_direct_fixed(in, f, {}, 1, 1, true, 12, 13, 10);
  EXPECT_LT(fx.max_abs_diff(ref), 0.02f);
}

TEST(ConvDirectFixed, StrideAndLargeKernel) {
  Tensor in(3, 23, 23);
  nn::fill_deterministic(in, 51);
  FilterBank f(4, 3, 11);
  nn::fill_deterministic(f, 52);
  const Tensor ref = nn::conv_reference(in, f, {}, 4, 0, false);
  const Tensor fx =
      algo::conv_direct_fixed(in, f, {}, 4, 0, false, 11, 12, 9);
  ASSERT_EQ(ref.shape(), fx.shape());
  EXPECT_LT(fx.max_abs_diff(ref), 0.05f);
}

}  // namespace
}  // namespace hetacc::algo
