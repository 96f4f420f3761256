// Tests of the unified accounting layer (src/cost/): the pure arithmetic,
// exact agreement between the optimizer's stored predictions and a fresh
// cost-layer evaluation for every fused VGG-16 group, cycle-count agreement
// between the optimizer and the simulators, and regression pins for the
// paper-reproduction numbers (EXPERIMENTS.md TAB1 / TAB2).

#include <gtest/gtest.h>

#include <cmath>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "core/dp_optimizer.h"
#include "core/report.h"
#include "cost/cost_model.h"
#include "cost/group_timing.h"
#include "nn/model_zoo.h"

namespace hetacc {
namespace {

// ------------------------------------------------------- pure arithmetic --

TEST(CostModel, CeilDiv) {
  EXPECT_EQ(cost::ceil_div(0, 4), 0);
  EXPECT_EQ(cost::ceil_div(1, 4), 1);
  EXPECT_EQ(cost::ceil_div(4, 4), 1);
  EXPECT_EQ(cost::ceil_div(5, 4), 2);
  EXPECT_EQ(cost::ceil_div(8, 4), 2);
}

TEST(CostModel, ConventionalConvCycles) {
  // 96 in, 256 out, 5x5 kernel, unrolls (8, 16, 1), 27x27 outputs.
  EXPECT_EQ(cost::conv_cycles_conventional(96, 256, 5, 8, 16, 1, 27 * 27),
            12ll * 16 * 25 * 27 * 27);
  // Non-dividing unrolls round up per loop level.
  EXPECT_EQ(cost::conv_cycles_conventional(3, 64, 3, 2, 3, 2, 10),
            2ll * 22 * 5 * 10);
}

TEST(CostModel, WinogradCyclesAndTiles) {
  EXPECT_EQ(cost::winograd_tile_count(56, 56, 4), 14 * 14);
  EXPECT_EQ(cost::winograd_tile_count(55, 55, 4), 14 * 14);
  EXPECT_EQ(cost::winograd_tile_count(13, 13, 4), 4 * 4);
  EXPECT_EQ(cost::conv_cycles_winograd(64, 64, 4, 8, 196),
            196ll * 16 * 8);
  EXPECT_EQ(cost::conv_cycles_winograd_stride2(64, 64, 4, 8, 196),
            4 * cost::conv_cycles_winograd(64, 64, 4, 8, 196));
  // F(4x4, 3x3): each tile spends n^2 = 36 multiplies per channel pair.
  EXPECT_EQ(cost::winograd_mults(196, 6, 64, 128), 196ll * 36 * 64 * 128);
}

TEST(CostModel, EfficiencyAndLaneCycles) {
  EXPECT_EQ(cost::apply_efficiency(900, 0.90), 1000);
  EXPECT_EQ(cost::apply_efficiency(901, 0.90), 1002);  // ceil
  EXPECT_EQ(cost::lane_cycles(1600, 16, 1.0), 100);
  EXPECT_EQ(cost::lane_cycles(1601, 16, 1.0), 101);
  EXPECT_EQ(cost::lane_cycles(1440, 16, 0.90), 100);
}

TEST(CostModel, TransferAndFill) {
  EXPECT_EQ(cost::transfer_cycles(128, 12.8), 10);
  EXPECT_EQ(cost::transfer_cycles(129, 12.8), 11);
  EXPECT_DOUBLE_EQ(cost::row_transfer_cycles(224, 3, 2, 12.8),
                   224.0 * 3 * 2 / 12.8);
  // 3 prime rows x 224 wide x 64 channels at 16 words/cycle.
  EXPECT_EQ(cost::line_fill_cycles(3, 224, 64, 16), 3ll * 224 * 4);
  EXPECT_EQ(cost::line_fill_cycles(3, 224, 65, 16), 3ll * 224 * 5);
}

TEST(CostModel, GroupLatencyRule) {
  EXPECT_EQ(cost::group_latency(1000, 400, 50), 1050);  // compute-bound
  EXPECT_EQ(cost::group_latency(400, 1000, 50), 1050);  // transfer-bound
  EXPECT_EQ(cost::scale_cycles(100, 1.5), 150);
  EXPECT_EQ(cost::scale_cycles(101, 1.5), 152);  // ceil
}

TEST(CostModel, RateHelpers) {
  EXPECT_DOUBLE_EQ(cost::latency_seconds(100'000'000, 100e6), 1.0);
  EXPECT_DOUBLE_EQ(cost::effective_gops(2'000'000'000, 100'000'000, 100e6),
                   2.0);
  EXPECT_DOUBLE_EQ(cost::effective_gops(123, 0, 100e6), 0.0);
  EXPECT_DOUBLE_EQ(cost::throughput_fps(1'000'000, 100e6), 100.0);
  EXPECT_DOUBLE_EQ(cost::throughput_fps(0, 100e6), 0.0);
}

// ----------------------------------- optimizer == cost layer, exactly --

class Vgg16Agreement : public ::testing::Test {
 protected:
  static const core::OptimizeResult& result() {
    static const core::OptimizeResult r = [] {
      const fpga::Device dev = fpga::zc706();
      const fpga::EngineModel model(dev);
      const nn::Network net = nn::vgg16().accelerated_portion();
      core::OptimizerOptions oo;
      oo.transfer_budget_bytes =
          net.unfused_feature_transfer_bytes(dev.data_bytes) +
          static_cast<long long>(net.size()) * oo.transfer_unit_bytes;
      return core::optimize(net, model, oo);
    }();
    return r;
  }
  fpga::Device dev_ = fpga::zc706();
  nn::Network net_ = nn::vgg16().accelerated_portion();
};

TEST_F(Vgg16Agreement, EveryGroupTimingMatchesFreshCostEvaluation) {
  const auto& r = result();
  ASSERT_TRUE(r.feasible);
  ASSERT_GT(r.strategy.groups.size(), 1u);
  for (const auto& g : r.strategy.groups) {
    // The timing the optimizer stored (its prediction, produced inside the
    // branch-and-bound) must equal a from-scratch evaluation through the
    // cost layer — field for field, exactly.
    const cost::GroupTiming fresh =
        cost::evaluate_group_timing(net_, g.first, g.last, g.impls, dev_);
    EXPECT_EQ(g.timing, fresh) << "group [" << g.first << ", " << g.last
                               << "]";
    // And the latency must obey the single combination rule.
    EXPECT_EQ(g.timing.latency_cycles,
              cost::group_latency(g.timing.compute_cycles,
                                  g.timing.transfer_cycles,
                                  g.timing.fill_cycles));
    EXPECT_EQ(g.resources(), cost::aggregate_resources(g.impls));
  }
}

TEST_F(Vgg16Agreement, StrategyViewsAreOneReduction) {
  const auto& r = result();
  ASSERT_TRUE(r.feasible);
  const core::Strategy& s = r.strategy;
  cost::StrategyTotals t;
  for (const auto& g : s.groups) t.add(g.timing);
  EXPECT_EQ(s.latency_cycles(), t.latency_cycles);
  EXPECT_EQ(s.pipelined_latency_cycles(), t.pipelined_latency_cycles());
  EXPECT_EQ(s.transfer_bytes(), t.transfer_bytes);
  EXPECT_EQ(s.totals().latency_cycles, t.latency_cycles);
  // The overlapped view can never exceed the sequential one.
  EXPECT_LE(s.pipelined_latency_cycles(), s.latency_cycles());
}

TEST_F(Vgg16Agreement, DdrTraceCyclesEqualOptimizerPrediction) {
  const auto& r = result();
  ASSERT_TRUE(r.feasible);
  // The DDR simulator schedules the same groups; its total cycle count must
  // equal the optimizer's predicted latency and its feature traffic the
  // strategy's T — counted, not re-derived.
  const arch::DdrTrace trace = arch::trace_strategy(r.strategy, net_, dev_);
  EXPECT_EQ(trace.total_cycles, r.strategy.latency_cycles());
  EXPECT_EQ(trace.feature_bytes(), r.strategy.transfer_bytes());
  long long weight_bytes = 0;
  for (const auto& g : r.strategy.groups) {
    weight_bytes += cost::weight_words(g.impls) * dev_.data_bytes;
  }
  EXPECT_EQ(trace.weight_bytes(), weight_bytes);
}

TEST_F(Vgg16Agreement, EventSimCountsWithinBandOfPredictionPerGroup) {
  const auto& r = result();
  ASSERT_TRUE(r.feasible);
  // The row-level event simulator executes each fused group; its counted
  // makespan must land in a tight band around the analytic prediction
  // (row-granularity effects keep it from being cycle-exact).
  for (const auto& g : r.strategy.groups) {
    const auto sim =
        arch::simulate_schedule(net_, g.first, g.last, g.impls, dev_, 64);
    ASSERT_TRUE(sim.completed);
    const double ratio = static_cast<double>(sim.makespan_cycles) /
                         static_cast<double>(g.timing.latency_cycles);
    EXPECT_GT(ratio, 0.7) << "group [" << g.first << ", " << g.last << "]";
    EXPECT_LT(ratio, 1.4) << "group [" << g.first << ", " << g.last << "]";
  }
}

// -------------------------------------------- paper reproduction pins --

TEST(CostRegression, Table1VggHeadAt2MB) {
  // EXPERIMENTS.md TAB1/F5: VGG-E head on ZC706 under T = 2 MB fuses into
  // one group at 2,250,429 cycles (22.50 ms, 501.1 effective GOPS).
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  const nn::Network head = nn::vgg_e_head();
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes = 2 * 1024 * 1024;
  const auto r = core::optimize(head, model, oo);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.strategy.groups.size(), 1u);
  EXPECT_EQ(r.strategy.latency_cycles(), 2'250'429);
  const auto rep = core::make_report(r.strategy, head, dev);
  EXPECT_NEAR(rep.effective_gops, 501.1, 0.5);
  EXPECT_NEAR(rep.latency_ms, 22.50, 0.01);
}

TEST(CostRegression, Table2AlexNetMinimalBudget) {
  // EXPERIMENTS.md TAB2: the ten accelerated AlexNet layers fuse into one
  // group at the smallest feasible budget (320 KB class): 567,041 cycles,
  // 895/900 DSP, 519 BRAM18K.
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  const nn::Network net = nn::alexnet_accel();
  core::OptimizerOptions oo;
  oo.bnb.max_group_layers = net.size() - 1;
  const long long min_budget =
      cost::min_transfer_bytes(net, 1, net.size() - 1, dev.data_bytes);
  core::OptimizeResult r;
  long long budget = min_budget;
  for (; budget < 64ll * 1024 * 1024; budget += 64 * 1024) {
    oo.transfer_budget_bytes = budget;
    r = core::optimize(net, model, oo);
    if (r.feasible) break;
  }
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.strategy.groups.size(), 1u);
  EXPECT_EQ(r.strategy.latency_cycles(), 567'041);
  const auto res = r.strategy.peak_resources();
  EXPECT_EQ(res.dsp, 895);
  EXPECT_EQ(res.bram18k, 519);
}

}  // namespace
}  // namespace hetacc
