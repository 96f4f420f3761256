// Fault-injection, detection and recovery layer: seed determinism, the
// zero-cost-when-absent guarantee (no plan installed => byte-identical
// simulation), CRC coverage computed over really-corrupted buffers, the
// DDR retry path, the DATAFLOW watchdog, and the protection cost accounting
// shared by the optimizer and the simulators.

#include <gtest/gtest.h>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "cost/cost_model.h"
#include "cost/group_timing.h"
#include "fault/crc32.h"
#include "fault/fault.h"
#include "fault/protect.h"
#include "nn/model_zoo.h"
#include "support/error.h"
#include "toolflow/toolflow.h"

namespace hetacc {
namespace {

using arch::FusionPipeline;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::ProtectionConfig;

// ------------------------------------------------------------ determinism --
TEST(FaultInjector, DecisionsArePureFunctionsOfSeedSiteStreamEvent) {
  FaultPlan p;
  p.seed = 99;
  p.ddr_burst_flip_rate = 0.3;
  p.line_buffer_flip_rate = 0.3;
  const FaultInjector a(p), b(p);
  for (std::uint64_t s = 0; s < 4; ++s) {
    for (std::uint64_t e = 0; e < 200; ++e) {
      EXPECT_EQ(a.decide(FaultSite::kDdrBurst, s, e),
                b.decide(FaultSite::kDdrBurst, s, e));
      EXPECT_EQ(a.noise(FaultSite::kLineBuffer, s, e, 7),
                b.noise(FaultSite::kLineBuffer, s, e, 7));
    }
  }
}

TEST(FaultInjector, DecisionsIgnoreQueryOrderAndOtherSites) {
  FaultPlan p;
  p.seed = 5;
  p.ddr_burst_flip_rate = 0.5;
  const FaultInjector a(p), b(p);
  std::vector<bool> fwd, rev;
  for (std::uint64_t e = 0; e < 100; ++e) {
    fwd.push_back(a.decide(FaultSite::kDdrBurst, 1, e));
  }
  for (std::uint64_t e = 100; e-- > 0;) {
    (void)b.decide(FaultSite::kWeightPanel, 9, e);  // unrelated traffic
    rev.push_back(b.decide(FaultSite::kDdrBurst, 1, e));
  }
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(fwd[i], rev[99 - i]);
}

TEST(FaultInjector, SeedChangesOutcomesAndRatesBound) {
  FaultPlan p;
  p.ddr_burst_flip_rate = 0.25;
  p.seed = 1;
  const FaultInjector a(p);
  p.seed = 2;
  const FaultInjector b(p);
  int fires_a = 0, fires_b = 0, differ = 0;
  for (std::uint64_t e = 0; e < 4000; ++e) {
    const bool fa = a.decide(FaultSite::kDdrBurst, 0, e);
    const bool fb = b.decide(FaultSite::kDdrBurst, 0, e);
    fires_a += fa;
    fires_b += fb;
    differ += fa != fb;
  }
  EXPECT_GT(differ, 0);  // seeds are not aliases
  // Hash uniformity: empirical rate within a loose band of 0.25.
  EXPECT_NEAR(fires_a / 4000.0, 0.25, 0.05);
  EXPECT_NEAR(fires_b / 4000.0, 0.25, 0.05);
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires) {
  FaultPlan p;
  const FaultInjector zero(p);  // all rates default 0
  p.ddr_burst_flip_rate = 1.0;
  const FaultInjector one(p);
  for (std::uint64_t e = 0; e < 1000; ++e) {
    EXPECT_FALSE(zero.decide(FaultSite::kDdrBurst, 0, e));
    EXPECT_TRUE(one.decide(FaultSite::kDdrBurst, 0, e));
  }
}

TEST(FaultInjector, FlipFloatBitIsAnInvolution) {
  for (std::uint32_t bit = 0; bit < 32; ++bit) {
    const float v = 1.7182818f;
    const float flipped = fault::flip_float_bit(v, bit);
    EXPECT_NE(flipped, v) << bit;
    EXPECT_EQ(fault::flip_float_bit(flipped, bit), v) << bit;
  }
}

// -------------------------------------------------------------------- crc --
TEST(Crc32, CatchesEverySingleBitFlip) {
  std::vector<unsigned char> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  const std::uint32_t golden = fault::crc32(buf.data(), buf.size());
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(fault::crc32(buf.data(), buf.size()), golden) << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(fault::crc32(buf.data(), buf.size()), golden);
}

TEST(Crc32, FloatVariantCatchesSingleUpsets) {
  std::vector<float> w(128);
  nn::fill_deterministic(w, 11);
  const std::uint32_t golden = fault::crc32_f32(w);
  for (std::size_t i = 0; i < w.size(); i += 7) {
    const float keep = w[i];
    w[i] = fault::flip_float_bit(w[i], static_cast<std::uint32_t>(i));
    EXPECT_NE(fault::crc32_f32(w), golden) << i;
    w[i] = keep;
  }
}

// -------------------------------------------- zero-cost-when-absent hooks --
class PipelineFaultTest : public ::testing::Test {
 protected:
  nn::Network net_ = nn::tiny_net(4, 16);
  nn::WeightStore ws_ = nn::WeightStore::deterministic(net_, 21);
  nn::Tensor input_{net_[0].out};

  void SetUp() override { nn::fill_deterministic(input_, 22); }
};

TEST_F(PipelineFaultTest, ZeroRatePlanIsByteIdenticalToNoPlan) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan zero;  // all rates 0, no wedge
  zero.seed = 77;
  pipe.install_fault_plan(zero, ProtectionConfig::all_on());
  EXPECT_TRUE(pipe.fault_plan_installed());
  const nn::Tensor with_plan = pipe.run(input_);
  EXPECT_EQ(with_plan, golden);  // exact, not approximate
  EXPECT_EQ(pipe.fault_stats().total_injected(), 0);

  pipe.clear_fault_plan();
  EXPECT_FALSE(pipe.fault_plan_installed());
  EXPECT_EQ(pipe.run(input_), golden);
}

TEST_F(PipelineFaultTest, WeightPanelFaultsCorruptOutputWhenUnprotected) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;  // strike every resident panel
  pipe.install_fault_plan(p);      // detectors off
  const nn::Tensor corrupted = pipe.run(input_);
  EXPECT_GT(pipe.fault_stats().injected[static_cast<std::size_t>(
                FaultSite::kWeightPanel)],
            0);
  EXPECT_NE(corrupted, golden);
}

TEST_F(PipelineFaultTest, WeightCrcDetectsAndRecoversEveryPanelFault) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  pipe.install_fault_plan(p, ProtectionConfig::all_on());
  const nn::Tensor hardened = pipe.run(input_);
  const auto stats = pipe.fault_stats();
  EXPECT_GT(stats.detected, 0);
  EXPECT_EQ(stats.recovered, stats.detected);
  EXPECT_EQ(stats.unrecovered, 0);
  // Recovery reloads the golden weights: output is bit-exact again.
  EXPECT_EQ(hardened, golden);
}

TEST_F(PipelineFaultTest, ClearRestoresGoldenConstantsAfterCorruption) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);
  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  pipe.install_fault_plan(p);
  (void)pipe.run(input_);
  pipe.clear_fault_plan();
  EXPECT_EQ(pipe.run(input_), golden);
}

// --------------------------------------------------------------- watchdog --
TEST_F(PipelineFaultTest, WatchdogNamesTheWedgedStage) {
  FusionPipeline pipe(net_, ws_);
  FaultPlan p;
  p.seed = 1;
  p.wedge_channel = 0;
  p.wedge_after_pushes = 3;
  pipe.install_fault_plan(p, ProtectionConfig::all_on());
  try {
    (void)pipe.run(input_);
    FAIL() << "wedged pipeline completed";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFault);
    EXPECT_EQ(e.stage(), net_[1].name);  // channel 0 feeds the first engine
    EXPECT_NE(std::string(e.what()).find("wedged"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("channel 0"), std::string::npos);
  }
}

TEST_F(PipelineFaultTest, MidPipelineWedgeBlamesTheConsumerStage) {
  ASSERT_GT(net_.size(), 2u);
  FusionPipeline pipe(net_, ws_);
  FaultPlan p;
  p.seed = 1;
  p.wedge_channel = 1;  // channel between engine 0 and engine 1
  p.wedge_after_pushes = 2;
  pipe.install_fault_plan(p, ProtectionConfig::all_on());
  EXPECT_THROW((void)pipe.run(input_), FaultError);
}

// --------------------------------------------------------------- ddr replay --
arch::DdrTrace small_trace() {
  arch::DdrTrace t;
  t.transactions.push_back(
      {arch::DdrOp::kLoadWeights, 0, "w0", 64 * 1024, 0, 100});
  t.transactions.push_back(
      {arch::DdrOp::kLoadFeature, 0, "in", 200 * 1024, 100, 400});
  t.transactions.push_back(
      {arch::DdrOp::kStoreFeature, 0, "out", 100 * 1024, 400, 600});
  t.total_cycles = 600;
  return t;
}

TEST(DdrReplay, UnprotectedFlipsAreDeliveredSilently) {
  const auto trace = small_trace();
  FaultPlan p;
  p.seed = 4;
  p.ddr_burst_flip_rate = 1.0;
  const FaultInjector inj(p);
  const auto r =
      arch::replay_trace_with_faults(trace, fpga::zc706(), inj, {});
  EXPECT_GT(r.bursts, 0);
  EXPECT_EQ(r.injected, r.bursts);
  EXPECT_EQ(r.silent, r.injected);
  EXPECT_EQ(r.detected, 0);
  EXPECT_EQ(r.retry_cycles, 0);
}

TEST(DdrReplay, CrcCoversEveryInjectedBurst) {
  const auto trace = small_trace();
  FaultPlan p;
  p.seed = 4;
  p.ddr_burst_flip_rate = 0.2;
  const FaultInjector inj(p);
  const auto r = arch::replay_trace_with_faults(trace, fpga::zc706(), inj,
                                                ProtectionConfig::all_on());
  EXPECT_GT(r.injected, 0);
  EXPECT_EQ(r.detected, r.injected);  // single-bit flips: CRC-32 is exact
  EXPECT_EQ(r.silent, 0);
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
  EXPECT_EQ(r.recovered + r.unrecovered, r.detected);
  EXPECT_GT(r.recovered, 0);
  EXPECT_GT(r.retry_cycles, 0);
  EXPECT_GT(r.retry_bytes, 0);
}

TEST(DdrReplay, RetryCannotRecoverWhenEveryRereadIsAlsoHit) {
  const auto trace = small_trace();
  FaultPlan p;
  p.seed = 4;
  p.ddr_burst_flip_rate = 1.0;  // retries are distinct events, also struck
  const FaultInjector inj(p);
  const auto r = arch::replay_trace_with_faults(trace, fpga::zc706(), inj,
                                                ProtectionConfig::all_on());
  EXPECT_EQ(r.detected, r.injected);
  EXPECT_EQ(r.unrecovered, r.injected);
  EXPECT_EQ(r.recovered, 0);
}

TEST(DdrReplay, SameSeedSameReport) {
  const auto trace = small_trace();
  FaultPlan p;
  p.seed = 123;
  p.ddr_burst_flip_rate = 0.05;
  const FaultInjector a(p), b(p);
  const auto ra = arch::replay_trace_with_faults(trace, fpga::zc706(), a,
                                                 ProtectionConfig::all_on());
  const auto rb = arch::replay_trace_with_faults(trace, fpga::zc706(), b,
                                                 ProtectionConfig::all_on());
  EXPECT_EQ(ra.injected, rb.injected);
  EXPECT_EQ(ra.recovered, rb.recovered);
  EXPECT_EQ(ra.retry_cycles, rb.retry_cycles);
}

// ------------------------------------------------------- event-sim timing --
class EventSimFaultTest : public ::testing::Test {
 protected:
  fpga::Device dev_ = fpga::zc706();
  fpga::EngineModel model_{dev_};
  nn::Network net_ = nn::tiny_net(4, 16);

  std::vector<fpga::Implementation> impls() {
    std::vector<fpga::Implementation> out;
    for (std::size_t i = 1; i < net_.size(); ++i) {
      fpga::EngineConfig cfg;
      cfg.algo = net_[i].kind == nn::LayerKind::kConv
                     ? fpga::ConvAlgo::kConventional
                     : fpga::ConvAlgo::kNone;
      cfg.tn = 2;
      cfg.tm = net_[i].kind == nn::LayerKind::kConv ? 2 : 1;
      out.push_back(model_.implement(net_[i], cfg));
    }
    return out;
  }
};

TEST_F(EventSimFaultTest, NullInjectorAndZeroPlanAgreeExactly) {
  const auto is = impls();
  const auto base =
      arch::simulate_schedule(net_, 1, net_.size() - 1, is, dev_, 8);
  const FaultInjector zero{FaultPlan{}};
  const auto z =
      arch::simulate_schedule(net_, 1, net_.size() - 1, is, dev_, 8, &zero);
  ASSERT_TRUE(base.completed);
  EXPECT_EQ(z.makespan_cycles, base.makespan_cycles);
  EXPECT_EQ(z.injected_delay_cycles, 0);
  EXPECT_EQ(z.fifo_max_occupancy, base.fifo_max_occupancy);
}

TEST_F(EventSimFaultTest, EngineStallsLengthenTheMakespan) {
  const auto is = impls();
  const auto base =
      arch::simulate_schedule(net_, 1, net_.size() - 1, is, dev_, 8);
  FaultPlan p;
  p.seed = 9;
  p.engine_stall_rate = 0.5;
  p.engine_stall_cycles = 50;
  const FaultInjector inj(p);
  const auto r =
      arch::simulate_schedule(net_, 1, net_.size() - 1, is, dev_, 8, &inj);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.injected_delay_cycles, 0);
  EXPECT_GT(r.makespan_cycles, base.makespan_cycles);
}

TEST_F(EventSimFaultTest, FifoDelaysAreCountedAndDeterministic) {
  const auto is = impls();
  FaultPlan p;
  p.seed = 9;
  p.fifo_delay_rate = 0.3;
  p.fifo_delay_cycles = 20;
  const FaultInjector a(p), b(p);
  const auto ra =
      arch::simulate_schedule(net_, 1, net_.size() - 1, is, dev_, 8, &a);
  const auto rb =
      arch::simulate_schedule(net_, 1, net_.size() - 1, is, dev_, 8, &b);
  ASSERT_TRUE(ra.completed);
  EXPECT_GT(ra.injected_delay_cycles, 0);
  EXPECT_EQ(ra.makespan_cycles, rb.makespan_cycles);
  EXPECT_EQ(ra.injected_delay_cycles, rb.injected_delay_cycles);
}

// ------------------------------------------------------- protection costs --
TEST(ProtectionCost, CrcHelpersAgreeWithHandArithmetic) {
  EXPECT_EQ(cost::crc_burst_count(0, 4096), 0);
  EXPECT_EQ(cost::crc_burst_count(1, 4096), 1);
  EXPECT_EQ(cost::crc_burst_count(4096, 4096), 1);
  EXPECT_EQ(cost::crc_burst_count(4097, 4096), 2);
  EXPECT_EQ(cost::crc_check_cycles(8192, 4096, 8), 16);
  const long long plain = cost::transfer_cycles(100000, 8.0);
  EXPECT_EQ(cost::protected_transfer_cycles(100000, 8.0, 4096, 8),
            plain + cost::crc_check_cycles(100000, 4096, 8));
}

TEST(ProtectionCost, ProtectedDeviceChargesEveryGroupTransferTail) {
  const nn::Network net = nn::tiny_net(4, 16);
  fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  std::vector<fpga::Implementation> impls;
  for (std::size_t i = 1; i < net.size(); ++i) {
    impls.push_back(model.implementations(net[i])->front());
  }
  const auto plain =
      cost::evaluate_group_timing(net, 1, net.size() - 1, impls, dev);
  dev.protection.enabled = true;
  const auto prot =
      cost::evaluate_group_timing(net, 1, net.size() - 1, impls, dev);
  EXPECT_GT(prot.transfer_cycles, plain.transfer_cycles);
  EXPECT_EQ(prot.transfer_bytes, plain.transfer_bytes);  // cycles, not bytes
  EXPECT_GE(prot.latency_cycles, plain.latency_cycles);
}

TEST(ProtectionCost, ProtectedEnginesCostMoreLogicAndFill) {
  const nn::Network net = nn::tiny_net(4, 16);
  const nn::Layer* conv = nullptr;
  for (std::size_t i = 1; i < net.size(); ++i) {
    if (net[i].kind == nn::LayerKind::kConv) { conv = &net[i]; break; }
  }
  ASSERT_NE(conv, nullptr);
  fpga::Device dev = fpga::zc706();
  fpga::EngineConfig cfg;
  cfg.algo = fpga::ConvAlgo::kConventional;
  cfg.tn = 2;
  cfg.tm = 2;
  const auto plain = fpga::EngineModel(dev).implement(*conv, cfg);
  fpga::EngineModelParams pp;
  pp.protect = true;
  dev.protection.enabled = true;
  const auto prot = fpga::EngineModel(dev, pp).implement(*conv, cfg);
  EXPECT_GT(prot.res.lut, plain.res.lut);
  EXPECT_GT(prot.res.ff, plain.res.ff);
  EXPECT_GE(prot.res.bram18k, plain.res.bram18k);
  EXPECT_GT(prot.fill_cycles, plain.fill_cycles);  // weight-CRC fill tax
  EXPECT_EQ(prot.compute_cycles, plain.compute_cycles);
}

TEST(ProtectionCost, ProtectedToolflowStillFeasibleAndNoFaster) {
  const nn::Network net = nn::tiny_net(8, 16);
  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  const auto plain = toolflow::run_toolflow(net, fpga::zc706(), opt);
  opt.protect = true;
  const auto prot = toolflow::run_toolflow(net, fpga::zc706(), opt);
  EXPECT_TRUE(prot.optimization.feasible);
  EXPECT_GE(prot.report.latency_cycles, plain.report.latency_cycles);
  EXPECT_GE(prot.report.peak_resources.lut, plain.report.peak_resources.lut);
}

// --------------------------------------------------- graceful degradation --
TEST(ErrorHierarchy, CategoriesMapToDistinctExitCodes) {
  EXPECT_EQ(ParseError("x").exit_code(), 2);
  EXPECT_EQ(ValidationError("x").exit_code(), 2);
  EXPECT_EQ(InfeasibleError("x").exit_code(), 3);
  EXPECT_EQ(FaultError("x").exit_code(), 4);
  EXPECT_EQ(Error(ErrorCategory::kInternal, "x").exit_code(), 1);
}

TEST(ErrorHierarchy, ContextIsPrefixedIntoWhat) {
  const ParseError p("bad token", 12);
  EXPECT_EQ(p.line(), 12);
  EXPECT_EQ(std::string(p.what()), "line 12: bad token");
  const FaultError f("stall", "conv2");
  EXPECT_EQ(f.stage(), "conv2");
  EXPECT_EQ(std::string(f.what()), "conv2: stall");
}

TEST(ErrorHierarchy, InfeasibleToolflowNamesTheBindingConstraint) {
  const nn::Network net = nn::tiny_net(8, 16);
  toolflow::ToolflowOptions opt;
  opt.generate_code = false;
  opt.transfer_budget_bytes = 16;  // below any achievable transfer
  try {
    (void)toolflow::run_toolflow(net, fpga::zc706(), opt);
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInfeasible);
    EXPECT_NE(std::string(e.what()).find("transfer budget"),
              std::string::npos);
  }
}

TEST(ErrorHierarchy, NetworkValidationRejectsDegenerateParams) {
  nn::Network net("bad");
  net.input({3, 8, 8});
  EXPECT_THROW(net.conv(0, 3, 1, 1, "c"), ValidationError);   // no outputs
  EXPECT_THROW(net.conv(4, 3, 0, 1, "c"), ValidationError);   // stride 0
  EXPECT_THROW(net.conv(4, 3, 1, 3, "c"), ValidationError);   // pad >= kernel
  EXPECT_THROW(net.max_pool(0, 2, "p"), ValidationError);     // kernel 0
  EXPECT_THROW(net.lrn(0, 1e-4f, 0.75f, "n"), ValidationError);
  EXPECT_THROW(net.fc(-1, "f"), ValidationError);
  net.conv(4, 3, 1, 1, "ok");  // sane layer still accepted afterwards
  EXPECT_EQ(net.size(), 2u);
}

}  // namespace
}  // namespace hetacc
