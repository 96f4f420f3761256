#include "toolflow/toolflow.h"

#include <gtest/gtest.h>

#include "core/strategy_io.h"
#include "nn/model_zoo.h"

namespace hetacc::toolflow {
namespace {

TEST(Toolflow, AlexNetPrototxtToStrategyAndCode) {
  ToolflowOptions opt;
  opt.optimizer.transfer_budget_bytes = 8 * 1024 * 1024;
  const ToolflowResult r =
      run_toolflow(caffe::alexnet_prototxt(), fpga::zc706(), opt);
  EXPECT_EQ(r.full_net.size(), nn::alexnet().size());
  EXPECT_EQ(r.accel_net.size(), 11u);  // FC stack dropped
  EXPECT_TRUE(r.optimization.feasible);
  EXPECT_GT(r.report.effective_gops, 0.0);
  EXPECT_FALSE(r.design.source.empty());
  EXPECT_FALSE(r.design.group_tops.empty());
  EXPECT_FALSE(r.summary().empty());
}

TEST(Toolflow, HeterogeneousChoicesAppearForAlexNet) {
  // Paper Table 2: conv1/conv4-style layers conventional, some of
  // conv2/conv3/conv5 Winograd. At minimum both algorithms must appear.
  ToolflowOptions opt;
  opt.generate_code = false;
  const ToolflowResult r =
      run_toolflow(nn::alexnet(), fpga::zc706(), opt);
  bool any_conv = false, any_wino = false;
  for (const auto& g : r.optimization.strategy.groups) {
    for (std::size_t k = 0; k < g.impls.size(); ++k) {
      const nn::Layer& l = r.accel_net[g.first + k];
      if (l.kind != nn::LayerKind::kConv) continue;
      any_conv |= g.impls[k].cfg.algo == fpga::ConvAlgo::kConventional;
      any_wino |= g.impls[k].cfg.algo == fpga::ConvAlgo::kWinograd;
    }
  }
  EXPECT_TRUE(any_conv);  // conv1 (11x11 s4) cannot be Winograd
  EXPECT_TRUE(any_wino);
}

TEST(Toolflow, AlexNetConv1IsNeverWinograd) {
  ToolflowOptions opt;
  opt.generate_code = false;
  const ToolflowResult r = run_toolflow(nn::alexnet(), fpga::zc706(), opt);
  const auto& g0 = r.optimization.strategy.groups.front();
  ASSERT_EQ(g0.first, 1u);
  EXPECT_EQ(r.accel_net[1].name, "conv1");
  EXPECT_EQ(g0.impls[0].cfg.algo, fpga::ConvAlgo::kConventional);
}

TEST(Toolflow, DefaultBudgetIsUnfusedTransfer) {
  ToolflowOptions opt;
  opt.generate_code = false;
  const ToolflowResult r = run_toolflow(nn::alexnet(), fpga::zc706(), opt);
  EXPECT_LE(r.report.feature_transfer_bytes,
            r.accel_net.unfused_feature_transfer_bytes(2));
}

TEST(Toolflow, InfeasibleBudgetThrows) {
  ToolflowOptions opt;
  opt.optimizer.transfer_budget_bytes = 1024;  // 1 KB: impossible
  EXPECT_THROW((void)run_toolflow(nn::alexnet(), fpga::zc706(), opt),
               std::runtime_error);
}

TEST(Toolflow, VggHeadOnVc707) {
  ToolflowOptions opt;
  opt.generate_code = false;
  opt.optimizer.transfer_budget_bytes = 4 * 1024 * 1024;
  const ToolflowResult r =
      run_toolflow(nn::vgg_e_head(), fpga::vc707(), opt);
  EXPECT_TRUE(r.optimization.feasible);
  EXPECT_TRUE(
      r.report.peak_resources.fits_in(fpga::vc707().capacity));
}

TEST(Toolflow, GoogleNetStyleCoarsening) {
  // §7.1: treat a module as a single layer, then optimize the coarse chain.
  nn::Network net("modular");
  net.input({64, 56, 56});
  net.conv(64, 3, 1, 1, "pre");
  net.conv(128, 3, 1, 1, "m1a");
  net.conv(128, 3, 1, 1, "m1b");
  net.max_pool(2, 2, "pool");
  const nn::Network coarse = net.coarsen(2, 3, "module1");
  ToolflowOptions opt;
  opt.generate_code = false;
  const ToolflowResult r = run_toolflow(coarse, fpga::zc706(), opt);
  EXPECT_TRUE(r.optimization.feasible);
}

TEST(Toolflow, OptionsReachTheOptimizer) {
  // Every DSE option the CLI sets goes through ToolflowOptions: the flow's
  // strategy must equal the optimizer's own, called with the same engine
  // params, the (hardened) device and the minimal budget. Each option other
  // than the interval DP (same optimum by design) must also move the
  // strategy, so a dropped option cannot pass as the default.
  struct Variant {
    const char* name;
    bool interval_dp = false;
    fpga::EngineModelParams model;
  };
  std::vector<Variant> variants(6);
  variants[0].name = "interval_dp";
  variants[0].interval_dp = true;
  variants[1].name = "enable_int8";
  variants[1].model.enable_int8 = true;
  variants[2].name = "!enable_winograd";
  variants[2].model.enable_winograd = false;
  variants[3].name = "wino_tile_m=2";
  variants[3].model.wino_tile_m = 2;
  variants[4].name = "explore_wino_tiles";
  variants[4].model.explore_wino_tiles = true;
  variants[5].name = "protect";
  variants[5].model.protect = true;

  for (const nn::Network& net : {nn::alexnet(), nn::inception_mini()}) {
    ToolflowOptions opt;
    opt.generate_code = false;
    const ToolflowResult base = run_toolflow(net, fpga::zc706(), opt);
    const std::string base_csv =
        core::strategy_to_csv(base.optimization.strategy, base.accel_net);
    for (const Variant& v : variants) {
      SCOPED_TRACE(net.name() + " " + v.name);
      opt.model = v.model;
      opt.interval_dp = v.interval_dp;
      const ToolflowResult r = run_toolflow(net, fpga::zc706(), opt);

      fpga::Device dev = fpga::zc706();
      dev.protection.enabled = v.model.protect;
      const fpga::EngineModel model(dev, v.model);
      core::OptimizerOptions oo;
      oo.transfer_budget_bytes =
          minimal_transfer_budget(r.accel_net, dev, oo.transfer_unit_bytes);
      const core::OptimizeResult direct =
          v.interval_dp ? core::optimize_interval(r.accel_net, model, oo)
                        : core::optimize(r.accel_net, model, oo);
      ASSERT_TRUE(direct.feasible);
      const std::string csv =
          core::strategy_to_csv(r.optimization.strategy, r.accel_net);
      EXPECT_EQ(csv, core::strategy_to_csv(direct.strategy, r.accel_net));
      if (!v.interval_dp) {
        EXPECT_NE(csv, base_csv);
      }
    }
  }
}

}  // namespace
}  // namespace hetacc::toolflow
