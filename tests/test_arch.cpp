#include <gtest/gtest.h>

#include "arch/line_buffer.h"
#include "arch/pipeline.h"
#include "kernels/gemm.h"
#include "kernels/simd.h"
#include "core/strategy.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "quant/calibration.h"

namespace hetacc::arch {
namespace {

using fpga::ConvAlgo;
using nn::Network;
using nn::Shape;
using nn::Tensor;
using nn::WeightStore;

// ------------------------------------------------------------ line buffer --
TEST(CircularLineBuffer, RotatesAndTracksWindow) {
  CircularLineBuffer lb(1, 4, 3);
  for (int r = 0; r < 5; ++r) {
    lb.push_row(std::vector<float>{float(r), float(r) + 0.25f,
                                   float(r) + 0.5f, float(r) + 0.75f});
  }
  EXPECT_EQ(lb.next_row(), 5);
  EXPECT_EQ(lb.oldest_row(), 2);
  EXPECT_TRUE(lb.contains(2));
  EXPECT_TRUE(lb.contains(4));
  EXPECT_FALSE(lb.contains(1));
  EXPECT_FLOAT_EQ(lb.at(0, 3, 2), 3.5f);
}

TEST(CircularLineBuffer, EvictedRowThrows) {
  CircularLineBuffer lb(1, 2, 2);
  lb.push_row({0, 0});
  lb.push_row({1, 1});
  lb.push_row({2, 2});
  EXPECT_THROW((void)lb.at(0, 0, 0), std::out_of_range);
  EXPECT_FLOAT_EQ(lb.at(0, 2, 1), 2.0f);
}

TEST(CircularLineBuffer, MultiChannelLayout) {
  CircularLineBuffer lb(2, 3, 2);
  lb.push_row({1, 2, 3, /*ch1:*/ 4, 5, 6});
  EXPECT_FLOAT_EQ(lb.at(0, 0, 2), 3.0f);
  EXPECT_FLOAT_EQ(lb.at(1, 0, 0), 4.0f);
}

TEST(CircularLineBuffer, BadGeometryAndRowSizeThrow) {
  EXPECT_THROW(CircularLineBuffer(0, 4, 2), std::invalid_argument);
  CircularLineBuffer lb(1, 4, 2);
  EXPECT_THROW(lb.push_row({1, 2}), std::invalid_argument);
}

TEST(RowFifo, OccupancyTracking) {
  RowFifo f;
  f.push(Row{{1}});
  f.push(Row{{2}});
  (void)f.pop();
  f.push(Row{{3}});
  EXPECT_EQ(f.max_occupancy(), 2u);
  EXPECT_EQ(f.total_pushed(), 3);
}

TEST(RowFifo, CapacityEnforced) {
  RowFifo f(1);
  f.push(Row{{1}});
  EXPECT_THROW(f.push(Row{{2}}), std::runtime_error);
  (void)f.pop();
  EXPECT_THROW((void)f.pop(), std::runtime_error);
}

// ----------------------------------------------------- pipeline functional --
/// Runs the fusion pipeline on `net` and compares against the reference
/// executor layer stack.
void expect_pipeline_matches_reference(const Network& net,
                                       std::vector<LayerChoice> choices,
                                       float tol, std::uint32_t seed = 17) {
  const WeightStore ws = WeightStore::deterministic(net, seed);
  Tensor in(net[0].out);
  nn::fill_deterministic(in, seed + 1);
  const Tensor ref = nn::run_network(net, ws, in);
  FusionPipeline pipe(net, ws, std::move(choices));
  const Tensor got = pipe.run(in);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_LE(got.max_abs_diff(ref), tol);
}

TEST(Pipeline, SingleConvConventional) {
  Network net("n");
  net.input({3, 12, 12});
  net.conv(5, 3, 1, 1, "c1");
  expect_pipeline_matches_reference(net, {}, 1e-4f);
}

TEST(Pipeline, SingleConvStride2NoPad) {
  Network net("n");
  net.input({2, 11, 11});
  net.conv(4, 3, 2, 0, "c1");
  expect_pipeline_matches_reference(net, {}, 1e-4f);
}

TEST(Pipeline, SingleConvLargeKernelStride4) {
  Network net("n");
  net.input({3, 23, 23});
  net.conv(4, 11, 4, 0, "c1");  // AlexNet conv1 geometry, scaled down
  expect_pipeline_matches_reference(net, {}, 1e-4f);
}

TEST(Pipeline, SingleConvWinogradF43) {
  Network net("n");
  net.input({3, 12, 12});
  net.conv(5, 3, 1, 1, "c1");
  expect_pipeline_matches_reference(
      net, {LayerChoice{ConvAlgo::kWinograd, 4, {}}}, 2e-4f);
}

TEST(Pipeline, SingleConvWinogradF23NonTileMultiple) {
  Network net("n");
  net.input({2, 9, 13});
  net.conv(3, 3, 1, 1, "c1");
  expect_pipeline_matches_reference(
      net, {LayerChoice{ConvAlgo::kWinograd, 2, {}}}, 2e-4f);
}

TEST(Pipeline, SingleConvWinograd5x5) {
  Network net("n");
  net.input({2, 14, 14});
  net.conv(3, 5, 1, 2, "c1");  // AlexNet conv2 geometry, scaled down
  expect_pipeline_matches_reference(
      net, {LayerChoice{ConvAlgo::kWinograd, 2, {}}}, 5e-4f);
}

TEST(Pipeline, MaxPoolExactAndCeil) {
  Network net("n");
  net.input({3, 8, 8});
  net.max_pool(2, 2, "p1");
  expect_pipeline_matches_reference(net, {}, 0.0f);

  Network net2("n2");
  net2.input({3, 7, 7});
  net2.max_pool(3, 2, "p1");  // ceil: output 3
  expect_pipeline_matches_reference(net2, {}, 0.0f);
}

TEST(Pipeline, AvgPool) {
  Network net("n");
  net.input({2, 9, 9});
  net.avg_pool(3, 3, "p1");
  expect_pipeline_matches_reference(net, {}, 1e-6f);
}

TEST(Pipeline, Lrn) {
  Network net("n");
  net.input({8, 6, 6});
  net.lrn(5, 1e-4f, 0.75f, "l1");
  expect_pipeline_matches_reference(net, {}, 1e-5f);
}

TEST(Pipeline, StandaloneRelu) {
  Network net("n");
  net.input({4, 5, 5});
  net.relu("r1");
  expect_pipeline_matches_reference(net, {}, 0.0f);
}

TEST(Pipeline, FusedConvPoolConv) {
  Network net = nn::tiny_net(4, 16);
  expect_pipeline_matches_reference(net, {}, 1e-3f);
}

TEST(Pipeline, HeterogeneousAlgorithmsAcrossFusedLayers) {
  // The paper's core architecture property: different algorithms for
  // different layers inside one fusion group, streaming through FIFOs.
  Network net("hetero");
  net.input({3, 20, 20});
  net.conv(6, 3, 1, 1, "c1");
  net.conv(8, 3, 1, 1, "c2");
  net.max_pool(2, 2, "p1");
  net.conv(8, 3, 1, 1, "c3");
  std::vector<LayerChoice> ch(4);
  ch[0].algo = ConvAlgo::kConventional;
  ch[1].algo = ConvAlgo::kWinograd;  // wino sandwiched between conventional
  ch[3].algo = ConvAlgo::kWinograd;
  expect_pipeline_matches_reference(net, ch, 2e-3f);
}

TEST(Pipeline, AlexNetHeadWithLrn) {
  Network net("alexhead");
  net.input({3, 35, 35});
  net.conv(8, 11, 4, 0, "conv1");
  net.lrn(5, 1e-4f, 0.75f, "norm1");
  net.max_pool(3, 2, "pool1");
  net.conv(12, 5, 1, 2, "conv2");
  std::vector<LayerChoice> ch(4);
  ch[3].algo = ConvAlgo::kWinograd;
  ch[3].wino_m = 2;
  expect_pipeline_matches_reference(net, ch, 2e-3f);
}

// Output hashes pinned from the row-at-a-time Winograd engine (one GEMM per
// tile row, filters re-packed per call). The band engine must reproduce
// every output byte, through run() and run_batch().
std::uint64_t output_hash(const Tensor& t) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.vec().size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// Winograd on every stride-1 3x3 (F(m3, 3)) and 5x5 (F(2, 5)) conv.
std::vector<LayerChoice> winograd_choices(const Network& net, int m3,
                                          const std::vector<NumericMode>& modes) {
  std::vector<LayerChoice> ch(net.size() - 1);
  for (std::size_t i = 1; i < net.size(); ++i) {
    if (!modes.empty()) ch[i - 1].mode = modes[i - 1];
    const nn::Layer& l = net[i];
    if (l.kind != nn::LayerKind::kConv || l.conv().stride != 1) continue;
    if (l.conv().kernel == 3 || l.conv().kernel == 5) {
      ch[i - 1].algo = ConvAlgo::kWinograd;
      ch[i - 1].wino_m = l.conv().kernel == 5 ? 2 : m3;
    }
  }
  return ch;
}

void expect_pinned_hashes(const Network& net, const WeightStore& ws,
                          const std::vector<LayerChoice>& ch,
                          std::uint64_t first, std::uint64_t second) {
  Tensor a(net[0].out), b(net[0].out);
  nn::fill_deterministic(a, 11);
  nn::fill_deterministic(b, 12);
  FusionPipeline pipe(net, ws, ch);
  EXPECT_EQ(output_hash(pipe.run(a)), first);
  const std::vector<Tensor> batch = pipe.run_batch({a, b}, 2);
  EXPECT_EQ(output_hash(batch[0]), first);
  EXPECT_EQ(output_hash(batch[1]), second);
}

void pin_alexnet_fixed_winograd() {
  // alexnet-accel on the calibrated 16-bit datapath: conv2 F(2,5), conv3-5
  // F(4,3) on 13x13 maps (one band covers the whole map).
  const Network net = nn::alexnet_accel();
  const WeightStore ws = WeightStore::deterministic(net, 7);
  Tensor cal(net[0].out);
  nn::fill_deterministic(cal, 11);
  const auto modes = quant::calibrate(net, ws, {cal}).modes();
  expect_pinned_hashes(net, ws, winograd_choices(net, 4, modes),
                       0x99269f13a587ebe1ull, 0x91aa4443a2c5385cull);
}

void pin_float_winograd() {
  // Clipped bottom/right tiles, out_c % 4 != 0, F(4,3), F(2,5), F(2,3).
  Network net("wino-float");
  net.input({5, 23, 19});
  net.conv(6, 3, 1, 1, "c1");
  net.conv(7, 5, 1, 2, "c2");
  net.max_pool(2, 2, "p1");
  net.conv(9, 3, 1, 0, "c3");
  const WeightStore ws = WeightStore::deterministic(net, 7);
  for (int m3 : {4, 2}) {
    expect_pinned_hashes(net, ws, winograd_choices(net, m3, {}),
                         0x63a8892c510b386cull, 0x17ba1a63dc5d90b5ull);
  }
}

// Element-wise engines: hashes pinned from the per-element LRN and pool
// engines (a quantizer call per window tap, a checked line-buffer read per
// pool tap). The row-pointer engines must reproduce every output byte.
NumericMode i8_mode(float in_scale, std::int32_t in_zp, float out_scale,
                    std::int32_t out_zp) {
  NumericMode m;
  m.i8 = true;
  m.in_scale = in_scale;
  m.in_zp = in_zp;
  m.out_scale = out_scale;
  m.out_zp = out_zp;
  return m;
}

void pin_lrn() {
  // local_size 5 then 3; 7 channels clip the window at both channel edges,
  // 2 channels are fewer than either window.
  struct Case {
    int channels;
    std::uint64_t flt_a, flt_b, fix_a, fix_b;
  };
  for (const Case& k : {Case{7, 0x26f57d1cea95ec3eull, 0x49551fa5f473c7daull,
                            0x4425701c87f6020bull, 0x5c4196a8eb93de5cull},
        Case{2, 0x792e1dcce4f9870bull, 0x8ad1485373e105a9ull,
             0x13139d79feab7c22ull, 0x4b4192589cf4f323ull}}) {
    Network net("lrn-pin");
    net.input({k.channels, 9, 11});
    net.lrn(5, 0.5f, 0.75f, "n1");
    net.lrn(3, 0.3f, 0.6f, "n2");
    const WeightStore ws = WeightStore::deterministic(net, 7);
    std::vector<LayerChoice> ch(2);
    expect_pinned_hashes(net, ws, ch, k.flt_a, k.flt_b);
    ch[0].mode = NumericMode{12, 10};  // in_frac != out_frac
    ch[1].mode = NumericMode{10, 13};
    expect_pinned_hashes(net, ws, ch, k.fix_a, k.fix_b);
  }
}

void pin_pool() {
  // Max k3 s2 pad 1 on 12 rows: Caffe's ceil rounding leaves the last
  // window hanging past the padded bottom edge. Average k2 s2 on 7x7 clips
  // its last row and column; average k3 s1 pad 1 excludes the padding from
  // the divisor.
  Network net("pool-pin");
  net.input({5, 12, 13});
  net.max_pool(3, 2, "p1", 1);
  net.avg_pool(2, 2, "p2");
  net.avg_pool(3, 1, "p3", 1);
  const WeightStore ws = WeightStore::deterministic(net, 7);
  std::vector<LayerChoice> ch(3);
  expect_pinned_hashes(net, ws, ch, 0x82239d88a9c9e5feull,
                       0x3d36afea61d958d4ull);
  ch[0].mode = NumericMode{12, 11};
  ch[1].mode = NumericMode{11, 11};
  ch[2].mode = NumericMode{11, 10};
  expect_pinned_hashes(net, ws, ch, 0xfa00b13a0a9a47fbull,
                       0x6b8a85d05b851c7aull);
  ch[0].mode = i8_mode(2.0f / 255, 0, 2.0f / 255, 0);
  ch[1].mode = i8_mode(2.0f / 255, 0, 1.0f / 255, -128);
  ch[2].mode = i8_mode(1.0f / 255, -128, 1.5f / 255, -40);
  expect_pinned_hashes(net, ws, ch, 0x32abcdcb19567869ull,
                       0x9b16ff35e7be9218ull);
}

void pin_global_pool_and_dag() {
  // A DAG streams as runs of chained engines with merges between them: a
  // direct conv feeds an LRN -> ReLU run and a padded max-pool arm, and the
  // concat feeds 28x28 global average and max pools.
  Network net("elem-dag");
  net.input({6, 28, 28});
  const std::size_t c = net.conv_from(0, 8, 3, 1, 1, "c");
  net.add_from(nn::Layer{nn::LayerKind::kLrn, "n", nn::LrnParam{5, 0.5f, 0.75f},
                         {}, {}, {}},
               {c});
  const std::size_t r = net.relu_from(net.size() - 1, "r");
  const std::size_t p = net.max_pool_from(c, 3, 1, "p", 1);
  const std::size_t cat = net.concat({r, p}, "cat");
  const std::size_t gap = net.avg_pool_from(cat, 28, 1, "gap");
  const std::size_t gmp = net.max_pool_from(cat, 28, 1, "gmp");
  net.concat({gap, gmp}, "out");
  const WeightStore ws = WeightStore::deterministic(net, 7);
  std::vector<LayerChoice> ch(net.size() - 1);
  expect_pinned_hashes(net, ws, ch, 0xc813c9ba967ab3a7ull,
                       0xe110a22fe0582281ull);
  const int fracs[][2] = {{12, 11}, {11, 12}, {12, 12}, {11, 11},
                          {12, 12}, {12, 13}, {12, 12}, {13, 13}};
  for (std::size_t i = 0; i < ch.size(); ++i) {
    ch[i].mode = NumericMode{fracs[i][0], fracs[i][1]};
  }
  expect_pinned_hashes(net, ws, ch, 0x30159271f1ddc99full,
                       0xfb73ffcd0283f483ull);
}

TEST(Pipeline, AlexNetFixedWinogradOutputBytesArePinned) {
  pin_alexnet_fixed_winograd();
}

TEST(Pipeline, FloatWinogradOutputBytesArePinned) {
  pin_float_winograd();
}

TEST(Pipeline, LrnOutputBytesArePinned) {
  pin_lrn();
}

TEST(Pipeline, PoolOutputBytesArePinned) {
  pin_pool();
}

TEST(Pipeline, GlobalPoolAndDagOutputBytesArePinned) {
  pin_global_pool_and_dag();
}

TEST(Pipeline, PinnedOutputBytesHoldOnTheAvx2Stamp) {
  // The hashes above come from the best stamp this CPU runs; the AVX2+FMA
  // stamp, with half the GEMM panel width, must reproduce every byte.
  if (!kernels::simd::stamp_supported(kernels::simd::Stamp::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA is not available on this CPU or build";
  }
  const kernels::simd::ScopedStampCap cap(kernels::simd::Stamp::kAvx2);
  ASSERT_STREQ(kernels::simd_stamp(), "avx2");
  pin_alexnet_fixed_winograd();
  pin_float_winograd();
  pin_lrn();
  pin_pool();
  pin_global_pool_and_dag();
}

TEST(Pipeline, FixedPointModeStaysClose) {
  Network net("fx");
  net.input({3, 16, 16});
  net.conv(6, 3, 1, 1, "c1");
  net.max_pool(2, 2, "p1");
  std::vector<LayerChoice> ch(2);
  ch[0].mode = NumericMode{12, 10};
  ch[1].mode = NumericMode{10, 10};
  const WeightStore ws = WeightStore::deterministic(net, 3);
  Tensor in(net[0].out);
  nn::fill_deterministic(in, 4);
  const Tensor ref = nn::run_network(net, ws, in);
  FusionPipeline pipe(net, ws, ch);
  const Tensor got = pipe.run(in);
  EXPECT_LT(got.max_abs_diff(ref), 0.05f);
}

TEST(Pipeline, FifoOccupancyStaysNearLineBufferScale) {
  // The streaming schedule must not buffer whole feature maps: occupancy on
  // every inter-layer channel stays within a few rows.
  Network net = nn::tiny_net(4, 32);
  const WeightStore ws = WeightStore::deterministic(net, 9);
  Tensor in(net[0].out);
  nn::fill_deterministic(in, 10);
  FusionPipeline pipe(net, ws);
  (void)pipe.run(in);
  const auto& occ = pipe.stats().fifo_max_occupancy;
  ASSERT_EQ(occ.size(), net.size());
  for (std::size_t i = 1; i < occ.size(); ++i) {
    EXPECT_LE(occ[i], 8u) << "channel " << i;
  }
}

TEST(Pipeline, BatchOfImagesThroughOnePipeline) {
  // run() resets engine state per image: a batch through one pipeline must
  // equal per-image references.
  Network net = nn::tiny_net(4, 12);
  const WeightStore ws = WeightStore::deterministic(net, 55);
  FusionPipeline pipe(net, ws);
  for (std::uint32_t seed = 60; seed < 63; ++seed) {
    Tensor in(net[0].out);
    nn::fill_deterministic(in, seed);
    const Tensor got = pipe.run(in);
    const Tensor ref = nn::run_network(net, ws, in);
    EXPECT_LT(got.max_abs_diff(ref), 1e-3f) << "image " << seed;
  }
}

TEST(Pipeline, InputShapeMismatchThrows) {
  Network net = nn::tiny_net(4, 8);
  const WeightStore ws = WeightStore::deterministic(net, 9);
  FusionPipeline pipe(net, ws);
  Tensor wrong(1, 8, 8);
  EXPECT_THROW((void)pipe.run(wrong), std::invalid_argument);
}

TEST(Pipeline, RequiresInputLayer) {
  Network net = nn::tiny_net(4, 8);
  const WeightStore ws = WeightStore::deterministic(net, 9);
  const Network sliced = net.slice(1, 3, "no-input");  // has synthetic input
  EXPECT_NO_THROW(FusionPipeline(sliced, WeightStore::deterministic(sliced, 1)));
}

TEST(Pipeline, ChoiceCountMismatchThrows) {
  Network net = nn::tiny_net(4, 8);
  const WeightStore ws = WeightStore::deterministic(net, 9);
  EXPECT_THROW(FusionPipeline(net, ws, std::vector<LayerChoice>(2)),
               std::invalid_argument);
}

TEST(Engines, LineBufferLinesMatchPaperDesign) {
  Network net("n");
  net.input({2, 12, 12});
  net.conv(2, 3, 1, 1, "c");
  const WeightStore ws = WeightStore::deterministic(net, 1);
  FusionPipeline conv_pipe(net, ws);
  EXPECT_EQ(conv_pipe.engine(0).line_buffer_lines(), 3 + 1);  // K + S

  FusionPipeline wino_pipe(net, ws, {LayerChoice{ConvAlgo::kWinograd, 4, {}}});
  EXPECT_EQ(wino_pipe.engine(0).line_buffer_lines(), 6 + 4);  // n + m
}

// ----------------------------------------------------- schedule simulation --
class ScheduleTest : public ::testing::Test {
 protected:
  fpga::Device dev_ = fpga::zc706();
  fpga::EngineModel model_{dev_};
};

TEST_F(ScheduleTest, MakespanAtLeastAnalyticSteadyState) {
  const Network net = nn::vgg_e_head();
  std::vector<fpga::Implementation> impls;
  for (std::size_t i = 1; i <= 3; ++i) {
    fpga::EngineConfig cfg;
    cfg.algo = net[i].kind == nn::LayerKind::kConv
                   ? fpga::ConvAlgo::kConventional
                   : fpga::ConvAlgo::kNone;
    cfg.tn = 3;
    cfg.tm = 16;
    cfg.tk = 9;
    impls.push_back(model_.implement(net[i], cfg));
  }
  const auto sched = simulate_schedule(net, 1, 3, impls, dev_);
  long long max_compute = 0;
  for (const auto& ipl : impls) {
    max_compute = std::max(max_compute, ipl.compute_cycles);
  }
  EXPECT_GE(sched.makespan_cycles, max_compute);
  // And within 2x of the analytic bound (fill + quantization effects).
  const auto timing = core::evaluate_group_timing(net, 1, 3, impls, dev_);
  EXPECT_LE(sched.makespan_cycles, 2 * timing.latency_cycles);
}

TEST_F(ScheduleTest, FasterEnginesShortenMakespan) {
  const Network net = nn::tiny_net(8, 32);
  auto impls_at = [&](int tm) {
    std::vector<fpga::Implementation> impls;
    for (std::size_t i = 1; i < net.size(); ++i) {
      fpga::EngineConfig cfg;
      if (net[i].kind == nn::LayerKind::kConv) {
        cfg.algo = fpga::ConvAlgo::kConventional;
        cfg.tn = 2;
        cfg.tm = tm;
      } else {
        cfg.algo = fpga::ConvAlgo::kNone;
        cfg.tn = 2;
      }
      impls.push_back(model_.implement(net[i], cfg));
    }
    return impls;
  };
  const auto slow = simulate_schedule(net, 1, net.size() - 1, impls_at(1), dev_);
  const auto fast = simulate_schedule(net, 1, net.size() - 1, impls_at(8), dev_);
  EXPECT_LT(fast.makespan_cycles, slow.makespan_cycles);
}

TEST_F(ScheduleTest, FirstOutputReflectsPyramidFill) {
  const Network net = nn::conv_chain(3, 4, 32);
  std::vector<fpga::Implementation> impls;
  for (std::size_t i = 1; i < net.size(); ++i) {
    impls.push_back(model_.implement(
        net[i], {fpga::ConvAlgo::kConventional, 4, 4, 9, 4}));
  }
  const auto sched = simulate_schedule(net, 1, net.size() - 1, impls, dev_);
  EXPECT_GT(sched.first_output_cycle, 0);
  EXPECT_LT(sched.first_output_cycle, sched.makespan_cycles);
  ASSERT_EQ(sched.layer_finish.size(), net.size() - 1);
  for (std::size_t i = 1; i < sched.layer_finish.size(); ++i) {
    EXPECT_GE(sched.layer_finish[i], sched.layer_finish[i - 1]);
  }
}

TEST_F(ScheduleTest, BadRangeThrows) {
  const Network net = nn::tiny_net(4, 8);
  EXPECT_THROW((void)simulate_schedule(net, 2, 1, {}, dev_),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetacc::arch
