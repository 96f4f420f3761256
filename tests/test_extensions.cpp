// Tests for the extension features: modular-network coarsening (§7.1),
// throughput reporting, extra devices, and the pipelined-latency metric.

#include <gtest/gtest.h>

#include "core/dp_optimizer.h"
#include "core/report.h"
#include "nn/model_zoo.h"
#include "toolflow/toolflow.h"

namespace hetacc {
namespace {

TEST(ModularNet, StructureAndCoarsening) {
  const nn::Network net = nn::modular_net(4);
  // stem + stem_pool + 4 x (a, b) + 2 pools = 1 + 2 + 8 + 2 layers
  EXPECT_EQ(net.size(), 13u);
  const nn::Network coarse = nn::coarsen_modules(net);
  // Every (a, b) pair becomes one pseudo-layer.
  EXPECT_EQ(coarse.size(), net.size() - 4);
  ASSERT_TRUE(coarse.find("mod1").has_value());
  ASSERT_TRUE(coarse.find("mod4").has_value());
  // Shapes through the coarse chain equal the original boundary shapes.
  EXPECT_EQ(coarse[coarse.size() - 1].out, net[net.size() - 1].out);
}

TEST(ModularNet, CoarseChainOptimizes) {
  const nn::Network coarse = nn::coarsen_modules(nn::modular_net(6));
  const fpga::EngineModel model(fpga::zc706());
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 16ll * 1024 * 1024;
  const auto r = core::optimize(coarse, model, oo);
  EXPECT_TRUE(r.feasible);
}

TEST(Devices, Vx690tBiggerThanVc707) {
  const auto small = fpga::vc707();
  const auto big = fpga::vx690t();
  EXPECT_GT(big.capacity.dsp, small.capacity.dsp);
  EXPECT_GT(big.capacity.bram18k, small.capacity.bram18k);
  EXPECT_GT(big.bandwidth_bytes_per_s, small.bandwidth_bytes_per_s);
}

TEST(Devices, BiggerDeviceNeverSlower) {
  const nn::Network head = nn::vgg_e_head();
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 4ll * 1024 * 1024;
  const auto on_small =
      core::optimize(head, fpga::EngineModel(fpga::zc706()), oo);
  const auto on_big =
      core::optimize(head, fpga::EngineModel(fpga::vx690t()), oo);
  ASSERT_TRUE(on_small.feasible);
  ASSERT_TRUE(on_big.feasible);
  EXPECT_LE(on_big.strategy.latency_cycles(),
            on_small.strategy.latency_cycles());
}

TEST(Report, ThroughputAtLeastInverseLatency) {
  const nn::Network head = nn::vgg_e_head();
  const fpga::Device dev = fpga::zc706();
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 8ll * 1024 * 1024;
  const auto r = core::optimize(head, fpga::EngineModel(dev), oo);
  ASSERT_TRUE(r.feasible);
  const auto rep = core::make_report(r.strategy, head, dev);
  const double latency_fps = 1e3 / rep.latency_ms;
  EXPECT_GE(rep.throughput_fps, latency_fps - 1e-9);
  // With >1 group the pipelined rate strictly exceeds 1/latency.
  if (r.strategy.groups.size() > 1) {
    EXPECT_GT(rep.throughput_fps, latency_fps);
  }
}

TEST(Strategy, PipelinedLatencyNeverExceedsSequential) {
  const nn::Network head = nn::vgg_e_head();
  const fpga::EngineModel model(fpga::zc706());
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 34ll * 1024 * 1024;
  const auto r = core::optimize(head, model, oo);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.strategy.pipelined_latency_cycles(),
            r.strategy.latency_cycles());
}

TEST(Bnb, NodeBudgetFlagSurfaces) {
  const nn::Network net = nn::conv_chain(6, 32, 32);
  const fpga::EngineModel model(fpga::zc706());
  core::BnbOptions opt;
  opt.max_nodes = 3;  // absurdly small: the flag must trip
  const auto r = core::fuse_group(net, 1, 6, model, opt);
  // With the proportional seed a (possibly suboptimal) result still exists.
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->node_budget_hit);
}

TEST(Bnb, TinyNodeBudgetStillFeasibleAndSeedIsBalanced) {
  const nn::Network net = nn::vgg_e_head();
  const fpga::EngineModel model(fpga::zc706());
  core::BnbOptions small_budget;
  small_budget.max_nodes = 1;
  const auto seeded = core::fuse_group(net, 1, 7, model, small_budget);
  const auto full = core::fuse_group(net, 1, 7, model);
  ASSERT_TRUE(seeded.has_value());
  ASSERT_TRUE(full.has_value());
  // The proportional seed alone is within 2.5x of the converged search.
  EXPECT_LE(seeded->group.timing.latency_cycles,
            (5 * full->group.timing.latency_cycles) / 2);
}

TEST(Toolflow, SummaryMentionsKeyFigures) {
  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  opt.optimizer.transfer_budget_bytes = 4 * 1024 * 1024;
  const auto r = toolflow::run_toolflow(nn::vgg_e_head(), fpga::zc706(), opt);
  const std::string s = r.summary();
  EXPECT_NE(s.find("fusion groups"), std::string::npos);
  EXPECT_NE(s.find("GOPS"), std::string::npos);
  EXPECT_NE(s.find("transfer"), std::string::npos);
}

TEST(OptimizerOptions, CoarseUnitStillBudgetSafe) {
  // Large discretization unit must stay conservative (never overspend T).
  const nn::Network head = nn::vgg_e_head();
  const fpga::EngineModel model(fpga::zc706());
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 6ll * 1024 * 1024;
  oo.transfer_unit_bytes = 1024 * 1024;  // 1 MB units
  const auto r = core::optimize(head, model, oo);
  if (r.feasible) {
    EXPECT_LE(r.strategy.transfer_bytes(), oo.transfer_budget_bytes);
  }
}

TEST(OptimizerOptions, FinerUnitNeverWorse) {
  const nn::Network head = nn::vgg_e_head();
  const fpga::EngineModel model(fpga::zc706());
  core::OptimizerOptions coarse, fine;
  coarse.transfer_budget_bytes = fine.transfer_budget_bytes =
      8ll * 1024 * 1024;
  coarse.transfer_unit_bytes = 512 * 1024;
  fine.transfer_unit_bytes = 10 * 1024;
  const auto rc = core::optimize(head, model, coarse);
  const auto rf = core::optimize(head, model, fine);
  ASSERT_TRUE(rf.feasible);
  if (rc.feasible) {
    EXPECT_LE(rf.strategy.latency_cycles(), rc.strategy.latency_cycles());
  }
}

TEST(EngineModel, AlexNetConv4FitsViaInputStationaryMode) {
  // conv4's 1.33M weight words exceed the ZC706 BRAM as a resident set; the
  // input-stationary regime must keep it feasible (cf. engine_model.cpp).
  const nn::Network net = nn::alexnet_accel();
  const auto idx = *net.find("conv4");
  const fpga::EngineModel model(fpga::zc706());
  const auto r = core::fuse_group(net, idx, idx, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(r->group.resources().bram18k,
            model.device().capacity.bram18k);
}

TEST(EngineModel, WeightWordsIndependentOfAlgorithm) {
  // Winograd transforms filters on the fly / at load: the DDR weight
  // footprint equals the raw kernel count for both algorithms.
  const nn::Network head = nn::vgg_e_head();
  const fpga::EngineModel model(fpga::zc706());
  const auto conv = model.implement(
      head[2], {fpga::ConvAlgo::kConventional, 2, 2, 1, 4});
  const auto wino =
      model.implement(head[2], {fpga::ConvAlgo::kWinograd, 2, 2, 1, 4});
  EXPECT_EQ(conv.weight_words, wino.weight_words);
  EXPECT_EQ(conv.weight_words, 64ll * 64 * 9);
}

}  // namespace
}  // namespace hetacc
