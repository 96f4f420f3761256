#include "arch/pipeline.h"

#include <gtest/gtest.h>

#include "core/dp_optimizer.h"
#include "nn/model_zoo.h"

namespace hetacc::arch {
namespace {

using fpga::ConvAlgo;
using fpga::EngineModel;

class EventSimTest : public ::testing::Test {
 protected:
  fpga::Device dev_ = fpga::zc706();
  EngineModel model_{dev_};

  std::vector<fpga::Implementation> impls_for(const nn::Network& net,
                                              bool winograd) {
    std::vector<fpga::Implementation> impls;
    for (std::size_t i = 1; i < net.size(); ++i) {
      fpga::EngineConfig cfg;
      if (net[i].kind == nn::LayerKind::kConv) {
        cfg.algo = (winograd && EngineModel::winograd_ok(net[i]))
                       ? ConvAlgo::kWinograd
                       : ConvAlgo::kConventional;
        cfg.tn = 2;
        cfg.tm = 4;
      } else {
        cfg.algo = ConvAlgo::kNone;
        cfg.tn = 2;
      }
      impls.push_back(model_.implement(net[i], cfg));
    }
    return impls;
  }
};

TEST_F(EventSimTest, CompletesAndTracksOccupancy) {
  const nn::Network net = nn::tiny_net(4, 32);
  const auto impls = impls_for(net, false);
  const auto r = simulate_schedule(net, 1, net.size() - 1, impls, dev_, 16);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.makespan_cycles, 0);
  ASSERT_EQ(r.fifo_max_occupancy.size(), net.size());
  for (std::size_t k = 1; k + 1 < r.fifo_max_occupancy.size(); ++k) {
    EXPECT_LE(r.fifo_max_occupancy[k], 16u);
  }
}

TEST_F(EventSimTest, UnboundedMatchesScheduleRecurrenceClosely) {
  // Exact pins taken from the row-level recurrence the event simulator
  // replaced: with unbounded FIFOs it must reproduce every figure. The
  // makespans are the SIM table's schedule column (bench_simulator).
  struct Case {
    nn::Network net;
    std::vector<long long> makespans;
  };
  const Case cases[] = {
      {nn::vgg_e_head(), {684791, 307104, 592969, 319240}},
      {nn::alexnet_accel(), {144032, 117218, 330847, 80125}},
      {nn::conv_chain(6, 64, 56), {37829, 246928}},
  };
  for (const auto& c : cases) {
    core::OptimizerOptions oo;
    oo.transfer_budget_bytes = 64ll * 1024 * 1024;
    const auto r = core::optimize(c.net, model_, oo);
    ASSERT_TRUE(r.feasible) << c.net.name();
    ASSERT_EQ(r.strategy.groups.size(), c.makespans.size()) << c.net.name();
    for (std::size_t gi = 0; gi < c.makespans.size(); ++gi) {
      const auto& g = r.strategy.groups[gi];
      EXPECT_EQ(simulate_schedule(c.net, g.first, g.last, g.impls, dev_)
                    .makespan_cycles,
                c.makespans[gi])
          << c.net.name() << " [" << g.first << "," << g.last << "]";
    }
  }

  const nn::Network chain = nn::conv_chain(3, 4, 32);
  const auto s = simulate_schedule(chain, 1, chain.size() - 1,
                                   impls_for(chain, true), dev_);
  EXPECT_EQ(s.first_output_cycle, 93);
  EXPECT_EQ(s.layer_finish, (std::vector<long long>{213, 236, 258}));
  EXPECT_EQ(s.makespan_cycles, 288);
}

TEST_F(EventSimTest, DeeperFifosNeverSlower) {
  const nn::Network net = nn::tiny_net(8, 32);
  const auto impls = impls_for(net, true);
  long long prev = -1;
  for (std::size_t cap : {4u, 8u, 32u, 256u}) {
    const auto r = simulate_schedule(net, 1, net.size() - 1, impls, dev_, cap);
    ASSERT_TRUE(r.completed) << cap;
    if (prev >= 0) {
      EXPECT_LE(r.makespan_cycles, prev + prev / 50) << cap;
    }
    prev = (prev < 0) ? r.makespan_cycles : std::min(prev, r.makespan_cycles);
  }
}

TEST_F(EventSimTest, WinogradBurstNeedsBlockDeepFifo) {
  // An F(4x4,3x3) engine retires 4 rows per tile pass: capacity < 4 on its
  // output channel deadlocks the row-granular dataflow.
  nn::Network net("w");
  net.input({4, 24, 24});
  net.conv(4, 3, 1, 1, "c1");
  net.conv(4, 3, 1, 1, "c2");
  std::vector<fpga::Implementation> impls;
  impls.push_back(
      model_.implement(net[1], {ConvAlgo::kWinograd, 1, 2, 1, 4}));
  impls.push_back(
      model_.implement(net[2], {ConvAlgo::kConventional, 2, 2, 1, 4}));
  const auto shallow = simulate_schedule(net, 1, 2, impls, dev_, 3);
  EXPECT_FALSE(shallow.completed);
  const auto ok = simulate_schedule(net, 1, 2, impls, dev_, 4);
  EXPECT_TRUE(ok.completed);
}

TEST_F(EventSimTest, MinimalDepthFindsSmallValue) {
  const nn::Network net = nn::tiny_net(4, 32);
  const auto impls = impls_for(net, true);
  const std::size_t depth =
      minimal_fifo_depth_rows(net, 1, net.size() - 1, impls, dev_);
  EXPECT_GE(depth, 1u);
  EXPECT_LE(depth, 64u);
  // And the chosen depth indeed lands within tolerance of unbounded.
  const auto bounded =
      simulate_schedule(net, 1, net.size() - 1, impls, dev_, depth);
  const auto unbounded =
      simulate_schedule(net, 1, net.size() - 1, impls, dev_);
  ASSERT_TRUE(bounded.completed);
  EXPECT_LE(static_cast<double>(bounded.makespan_cycles),
            1.021 * static_cast<double>(unbounded.makespan_cycles));
}

TEST_F(EventSimTest, StallCyclesDropWithCapacity) {
  const nn::Network net = nn::conv_chain(3, 8, 32);
  const auto impls = impls_for(net, true);
  const auto tight = simulate_schedule(net, 1, 3, impls, dev_, 4);
  const auto roomy = simulate_schedule(net, 1, 3, impls, dev_, 128);
  ASSERT_TRUE(tight.completed);
  ASSERT_TRUE(roomy.completed);
  EXPECT_GT(tight.producer_stall_cycles, 0);
  EXPECT_GE(tight.producer_stall_cycles, roomy.producer_stall_cycles);
  EXPECT_GE(tight.makespan_cycles, roomy.makespan_cycles);
}

TEST_F(EventSimTest, InvalidArgsThrow) {
  const nn::Network net = nn::tiny_net(4, 16);
  const auto impls = impls_for(net, false);
  EXPECT_THROW(
      (void)simulate_schedule(net, 1, net.size() - 1, impls, dev_, 0),
      std::invalid_argument);
  EXPECT_THROW((void)simulate_schedule(net, 2, 1, impls, dev_, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetacc::arch
