// Determinism of the parallel fusion-table construction: for any worker
// count the optimizer must return a byte-identical strategy (serialized via
// strategy_io), identical search counters, and the interval DP must still
// agree with the prefix DP. Also covers the thread-safe per-layer
// implementation memo in fpga::EngineModel.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/dp_optimizer.h"
#include "core/strategy_io.h"
#include "fpga/engine_model.h"
#include "nn/model_zoo.h"
#include "toolflow/toolflow.h"

namespace hetacc {
namespace {

struct OptRun {
  core::OptimizeResult result;
  std::string strategy_csv;
  std::string timing_csv;
};

OptRun run_with_threads(const nn::Network& net, int threads) {
  const fpga::Device dev = fpga::zc706();
  // A fresh model per run: no memo sharing between the runs under
  // comparison, so the serial run cannot warm the parallel one.
  const fpga::EngineModel model(dev);
  core::OptimizerOptions oo;
  oo.threads = threads;
  oo.transfer_budget_bytes =
      toolflow::minimal_transfer_budget(net, dev, oo.transfer_unit_bytes);
  OptRun r;
  r.result = core::optimize(net, model, oo);
  r.strategy_csv = core::strategy_to_csv(r.result.strategy, net);
  r.timing_csv = core::group_timing_to_csv(r.result.strategy);
  return r;
}

void expect_identical(const OptRun& a, const OptRun& b) {
  ASSERT_EQ(a.result.feasible, b.result.feasible);
  EXPECT_EQ(a.strategy_csv, b.strategy_csv);
  EXPECT_EQ(a.timing_csv, b.timing_csv);
  EXPECT_EQ(a.result.fusion_ranges_evaluated, b.result.fusion_ranges_evaluated);
  EXPECT_EQ(a.result.bnb_nodes_visited, b.result.bnb_nodes_visited);
  EXPECT_EQ(a.result.strategy.latency_cycles(),
            b.result.strategy.latency_cycles());
}

TEST(DpParallel, AlexNetByteIdenticalAcrossThreadCounts) {
  const nn::Network net = nn::alexnet().accelerated_portion();
  const OptRun serial = run_with_threads(net, 1);
  ASSERT_TRUE(serial.result.feasible);
  expect_identical(serial, run_with_threads(net, 3));
  expect_identical(serial, run_with_threads(net, 0));  // hardware concurrency
}

TEST(DpParallel, Vgg16ByteIdenticalAcrossThreadCounts) {
  const nn::Network net = nn::vgg16().accelerated_portion();
  const OptRun serial = run_with_threads(net, 1);
  ASSERT_TRUE(serial.result.feasible);
  expect_identical(serial, run_with_threads(net, 2));
  expect_identical(serial, run_with_threads(net, 0));
}

TEST(DpParallel, FusionTableContentsThreadInvariant) {
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  const nn::Network net = nn::alexnet_accel();
  const core::BnbOptions opt;
  const core::FusionTable serial(net, model, opt, 1);
  const core::FusionTable parallel(net, model, opt, 4);
  ASSERT_EQ(serial.count(), parallel.count());
  EXPECT_EQ(serial.ranges_evaluated(), parallel.ranges_evaluated());
  EXPECT_EQ(serial.nodes_visited(), parallel.nodes_visited());
  for (std::size_t i = 0; i < serial.count(); ++i) {
    for (std::size_t j = i; j < serial.count(); ++j) {
      ASSERT_EQ(serial.feasible(i, j), parallel.feasible(i, j))
          << "cell (" << i << ", " << j << ")";
      EXPECT_EQ(serial.min_transfer(i, j), parallel.min_transfer(i, j));
      if (!serial.feasible(i, j)) continue;
      EXPECT_EQ(serial.latency(i, j), parallel.latency(i, j));
      const auto& gs = serial.group(i, j);
      const auto& gp = parallel.group(i, j);
      EXPECT_EQ(gs.timing, gp.timing) << "cell (" << i << ", " << j << ")";
      ASSERT_EQ(gs.impls.size(), gp.impls.size());
      for (std::size_t k = 0; k < gs.impls.size(); ++k) {
        EXPECT_EQ(gs.impls[k].cfg.tn, gp.impls[k].cfg.tn);
        EXPECT_EQ(gs.impls[k].cfg.tm, gp.impls[k].cfg.tm);
        EXPECT_EQ(gs.impls[k].cfg.algo, gp.impls[k].cfg.algo);
        EXPECT_EQ(gs.impls[k].compute_cycles, gp.impls[k].compute_cycles);
      }
    }
  }
}

TEST(DpParallel, IntervalDpAgreesWithPrefixDpWhenParallel) {
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  const nn::Network net = nn::alexnet_accel();
  core::OptimizerOptions oo;
  oo.transfer_budget_bytes =
      toolflow::minimal_transfer_budget(net, dev, oo.transfer_unit_bytes);
  oo.threads = 1;
  const auto prefix = core::optimize(net, model, oo);
  oo.threads = 4;
  const auto interval = core::optimize_interval(net, model, oo);
  ASSERT_TRUE(prefix.feasible);
  ASSERT_TRUE(interval.feasible);
  EXPECT_EQ(prefix.strategy.latency_cycles(),
            interval.strategy.latency_cycles());
  EXPECT_EQ(core::strategy_to_csv(prefix.strategy, net),
            core::strategy_to_csv(interval.strategy, net));
}

TEST(DpParallel, ImplementationMemoReturnsSharedResult) {
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  const nn::Network net = nn::vgg16().accelerated_portion();
  // Two VGG-16 layers with identical structure (conv3-256 pair) must hit
  // the same memo entry; repeated lookups return the very same vector.
  const auto a = model.implementations(net[1]);
  const auto b = model.implementations(net[1]);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  // The memo must not change what is computed: entry k is implement()
  // applied to candidates() entry k.
  const auto cfgs = model.candidates(net[1]);
  ASSERT_EQ(a->size(), cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    EXPECT_EQ((*a)[k].cfg, cfgs[k]);
    const auto direct = model.implement(net[1], cfgs[k]);
    EXPECT_EQ((*a)[k].compute_cycles, direct.compute_cycles);
    EXPECT_EQ((*a)[k].fill_cycles, direct.fill_cycles);
    EXPECT_EQ((*a)[k].res, direct.res);
  }
  // Copies of the model share the cache.
  const fpga::EngineModel copy = model;
  EXPECT_EQ(copy.implementations(net[1]).get(), a.get());
}

TEST(DpParallel, MemoIsSafeUnderConcurrentLookups) {
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  const nn::Network net = nn::vgg16().accelerated_portion();
  std::vector<std::thread> pool;
  std::vector<std::size_t> sums(4, 0);
  for (int w = 0; w < 4; ++w) {
    pool.emplace_back([&, w] {
      std::size_t sum = 0;
      for (std::size_t i = 1; i < net.size(); ++i) {
        sum += model.implementations(net[i])->size();
      }
      sums[w] = sum;
    });
  }
  for (auto& t : pool) t.join();
  for (int w = 1; w < 4; ++w) EXPECT_EQ(sums[w], sums[0]);
  EXPECT_GT(sums[0], 0u);
}

}  // namespace
}  // namespace hetacc
