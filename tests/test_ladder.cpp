// Degradation-ladder tests: the RegimeController's hysteresis state machine
// in isolation, a one-model FleetServer (the `hetacc --serve` shape)
// walking a multi-rung ladder under oscillating load (descend fast, recover
// slowly, never flap), thread-count invariance of the rung timelines, the
// toolflow ladder builder's monotonicity/home invariants on AlexNet, and
// the multi-strategy ladder CSV round trip with typed, line-numbered parse
// errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/strategy_io.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "serve/regime.h"
#include "serve/trace.h"
#include "support/error.h"
#include "toolflow/ladder.h"

namespace hetacc::serve {
namespace {

// ---------------------------------------------------------------------------
// RegimeController unit tests: drive the virtual-time signals directly.

RegimeController make_controller(RegimeConfig cfg = {}) {
  // Three rungs, home in the middle: {conservative 2000, home 1000, deep
  // 500}, admission queue of 16 → descend watermark 12, ascend watermark 4.
  return RegimeController({2000, 1000, 500}, /*home=*/1,
                          /*queue_capacity=*/16, cfg);
}

TEST(RegimeController, DescendsFastUnderQueuePressure) {
  RegimeController rc = make_controller();
  EXPECT_EQ(rc.rung(), 1);
  EXPECT_EQ(rc.home(), 1);
  EXPECT_EQ(rc.conservative_rung(), 0);

  rc.observe_queue(1000, 14);  // above the descend watermark, dwell elapsed
  EXPECT_EQ(rc.rung(), 2);
  ASSERT_EQ(rc.log().size(), 1u);
  EXPECT_EQ(rc.log()[0].from, 1);
  EXPECT_EQ(rc.log()[0].to, 2);
  EXPECT_EQ(rc.log()[0].reason, RungMove::kLoadDescend);
  EXPECT_EQ(to_string(rc.log()[0].reason), "load");

  // Already at the deepest rung: more pressure moves nothing.
  rc.observe_queue(2000, 16);
  EXPECT_EQ(rc.rung(), 2);
  EXPECT_EQ(rc.log().size(), 1u);
}

TEST(RegimeController, AscentNeedsBothCalmStreakAndDwell) {
  RegimeConfig cfg;  // streak 8, ascend dwell 16384
  RegimeController rc = make_controller(cfg);
  rc.observe_queue(1000, 14);
  ASSERT_EQ(rc.rung(), 2);

  // Eight calm observations well inside the dwell window: the streak is
  // satisfied but the dwell gate holds the rung.
  for (int i = 0; i < 8; ++i) rc.observe_queue(1100 + i * 100, 0);
  EXPECT_EQ(rc.rung(), 2);

  // One more calm observation after the dwell elapses: ascend exactly one
  // rung, back to home.
  rc.observe_queue(1000 + 16384, 0);
  EXPECT_EQ(rc.rung(), 1);
  ASSERT_EQ(rc.log().size(), 2u);
  EXPECT_EQ(rc.log()[1].reason, RungMove::kLoadAscend);
  EXPECT_EQ(to_string(rc.log()[1].reason), "load-recover");
}

TEST(RegimeController, PressureResetsTheCalmStreak) {
  RegimeController rc = make_controller();
  rc.observe_queue(1000, 14);
  ASSERT_EQ(rc.rung(), 2);

  // Oscillate pressure/calm far past the ascend dwell: the streak never
  // reaches its threshold, so the controller parks at the deep rung
  // instead of flapping.
  long long t = 2000;
  for (int i = 0; i < 200; ++i) {
    rc.observe_queue(t, i % 2 == 0 ? 0 : 14);
    t += 1000;
  }
  EXPECT_EQ(rc.rung(), 2);
  EXPECT_EQ(rc.log().size(), 1u);  // the single initial descent
}

TEST(RegimeController, DeadlineMissWindowAlsoDescends) {
  RegimeController rc = make_controller();
  // Queue stays empty; eight misses inside the 16-completion window are
  // pressure on their own.
  long long t = 1000;
  for (int i = 0; i < 8; ++i) rc.observe_completion(t += 100, true);
  EXPECT_EQ(rc.rung(), 2);
  ASSERT_EQ(rc.log().size(), 1u);
  EXPECT_EQ(rc.log()[0].reason, RungMove::kLoadDescend);
}

TEST(RegimeController, BreakerAxisUsesConservativeRungOnlyAtHome) {
  RegimeController rc = make_controller();
  rc.on_breaker(500, true);
  EXPECT_EQ(rc.rung(), 0);  // off home, onto the protect rung above it
  rc.on_breaker(900, false);
  EXPECT_EQ(rc.rung(), 1);
  ASSERT_EQ(rc.log().size(), 2u);
  EXPECT_EQ(rc.log()[0].reason, RungMove::kBreakerDegrade);
  EXPECT_EQ(rc.log()[1].reason, RungMove::kBreakerRestore);

  // While load-descended the deep rung is already off the primary: a
  // breaker trip moves nothing.
  rc.observe_queue(2000, 14);
  ASSERT_EQ(rc.rung(), 2);
  rc.on_breaker(2500, true);
  EXPECT_EQ(rc.rung(), 2);
  EXPECT_EQ(rc.log().size(), 3u);  // just the load descent appended
}

TEST(RegimeController, TimeInRungAccountingCoversTheWholeRun) {
  RegimeController rc = make_controller();
  rc.observe_queue(1000, 14);  // home → deep at cycle 1000
  rc.finish(5000);
  const std::vector<long long>& cyc = rc.cycles_in_rung();
  ASSERT_EQ(cyc.size(), 3u);
  EXPECT_EQ(cyc[0], 0);
  EXPECT_EQ(cyc[1], 1000);
  EXPECT_EQ(cyc[2], 4000);
}

// ---------------------------------------------------------------------------
// Server-level ladder behavior. Mirrors test_serve.cpp's ServerTest shape:
// a tiny functional net with hand-priced serving modes, one model with two
// replicas, one tenant, batch cap 1.

class LadderServerTest : public ::testing::Test {
 protected:
  nn::Network net_ = nn::tiny_net(4, 16);
  nn::WeightStore ws_ = nn::WeightStore::deterministic(net_, 21);

  static ServingMode mode(long long cycles, std::string label = {}) {
    ServingMode m;
    m.service_cycles = cycles;  // empty choices = all-conventional float
    m.label = std::move(label);
    return m;
  }

  /// {protected 1600, primary 1000, int8 640}, home = 1.
  static ServingLadder ladder3() {
    ServingLadder l;
    l.rungs = {mode(1600, "protected"), mode(1000, "primary"),
               mode(640, "int8")};
    l.home = 1;
    return l;
  }

  /// Breaker effectively disabled so only the load axis moves rungs —
  /// the fault axis has its own tests in test_serve.cpp.
  static FleetConfig load_config(int threads = 0) {
    FleetConfig cfg;
    cfg.threads = threads;
    cfg.health.enabled = false;
    cfg.retry.max_retries = 1;
    cfg.retry.backoff_base_cycles = 125;
    cfg.retry.backoff_cap_cycles = 2000;
    cfg.breaker.failure_threshold = 1 << 20;
    cfg.breaker.cooldown_cycles = 2000;
    cfg.breaker.probe_successes = 2;
    return cfg;
  }

  FleetServer make(ServingLadder ladder, const FleetConfig& cfg) const {
    FleetModel m;
    m.name = "m";
    m.net = net_;
    m.ws = ws_;
    m.ladder = std::move(ladder);
    m.replicas = 2;
    TenantConfig t;
    t.name = "t";
    t.queue_capacity = 32;
    t.deadline_cycles = 4000;
    t.batch_cap = 1;
    t.batch_age_cycles = 0;
    std::vector<FleetModel> models;
    models.push_back(std::move(m));
    return FleetServer(std::move(models), {t}, cfg);
  }

  /// Square-wave load against home service time 1000 on 2 replicas
  /// (capacity: one request per 500 cycles): bursts arrive 2x too fast,
  /// lulls 4x slower than capacity.
  static ArrivalTrace osc_trace(std::size_t periods = 6,
                                std::size_t per_phase = 40) {
    return ArrivalTrace::oscillating(periods, per_phase,
                                     /*burst=*/250, /*lull=*/2000,
                                     /*seed=*/11);
  }

  static void expect_same_rung_log(const std::vector<RungTransition>& a,
                                   const std::vector<RungTransition>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cycle, b[i].cycle) << "transition " << i;
      EXPECT_EQ(a[i].from, b[i].from) << "transition " << i;
      EXPECT_EQ(a[i].to, b[i].to) << "transition " << i;
      EXPECT_EQ(a[i].reason, b[i].reason) << "transition " << i;
    }
  }
};

TEST_F(LadderServerTest, RejectsMalformedLadders) {
  const FleetConfig cfg = load_config();
  ServingLadder empty;
  EXPECT_THROW(make(empty, cfg), ServeError);

  ServingLadder bad_home = ladder3();
  bad_home.home = 3;
  EXPECT_THROW(make(bad_home, cfg), ServeError);

  // Deeper-than-home rungs must be strictly faster...
  ServingLadder flat = ladder3();
  flat.rungs[2].service_cycles = flat.rungs[1].service_cycles;
  EXPECT_THROW(make(flat, cfg), ServeError);

  // ...but above home, equal pricing is legal (a [fallback, primary] pair
  // may price both modes identically).
  ServingLadder eq_above = ladder3();
  eq_above.rungs[0].service_cycles = eq_above.rungs[1].service_cycles;
  EXPECT_NO_THROW(make(eq_above, cfg));
}

TEST_F(LadderServerTest, OscillatingLoadDescendsThenRecoversWithoutFlap) {
  FleetServer s = make(ladder3(), load_config());
  const FleetStats st = s.run({osc_trace()});
  EXPECT_TRUE(st.accounted());

  // The load axis must both degrade under the bursts and climb back in the
  // lulls — and the dwell gates must keep each replica's walk far below
  // one move per phase boundary.
  long long descents = 0, recoveries = 0, moves = 0;
  for (const std::vector<RungTransition>& log : s.rung_logs()[0]) {
    EXPECT_LE(log.size(), 4u * 6u);  // no flapping across 6 periods
    moves += static_cast<long long>(log.size());
    for (const RungTransition& tr : log) {
      descents += tr.reason == RungMove::kLoadDescend;
      recoveries += tr.reason == RungMove::kLoadAscend;
    }
  }
  EXPECT_GE(descents, 1);
  EXPECT_GE(recoveries, 1);

  const ModelStats& m = st.models[0];
  const TenantStats& t = st.tenants[0];
  ASSERT_EQ(m.rung_completions.size(), 3u);
  EXPECT_EQ(m.rung_completions[0] + m.rung_completions[1] +
                m.rung_completions[2],
            t.completed);
  EXPECT_GT(m.rung_completions[2], 0);  // the deep rung actually served
  EXPECT_EQ(t.completed_degraded,
            m.rung_completions[0] + m.rung_completions[2]);
  EXPECT_EQ(m.rung_transitions, moves);

  // Time-in-rung accounting is exhaustive and index-aligned.
  ASSERT_EQ(m.rung_cycles.size(), 3u);
  EXPECT_GT(m.rung_cycles[1], 0);
  EXPECT_GT(m.rung_cycles[2], 0);
}

TEST_F(LadderServerTest, RungTimelineIsInvariantAcrossThreadCounts) {
  FleetStats ref;
  std::vector<std::vector<RungTransition>> ref_logs;
  for (const int threads : {1, 2, 8}) {
    FleetServer s = make(ladder3(), load_config(threads));
    const FleetStats st = s.run({osc_trace()});
    if (threads == 1) {
      EXPECT_EQ(st.response_hash, 14226001050535768091ull);
      ref = st;
      ref_logs = s.rung_logs()[0];
      continue;
    }
    EXPECT_TRUE(st == ref) << "threads=" << threads
                           << " diverged from the single-thread stats";
    ASSERT_EQ(s.rung_logs()[0].size(), ref_logs.size());
    for (std::size_t r = 0; r < ref_logs.size(); ++r) {
      expect_same_rung_log(s.rung_logs()[0][r], ref_logs[r]);
    }
  }
}

TEST_F(LadderServerTest, LadderBeatsBinaryPairAndShedOnlyUnderOverload) {
  // On a sustained-overload trace, a >=3-rung ladder completes strictly
  // more within-deadline requests than both the binary [fallback, primary]
  // pair and a shed-everything single-rung server.
  const ArrivalTrace t = osc_trace(/*periods=*/4, /*per_phase=*/80);

  const auto within_deadline = [&](ServingLadder l) {
    FleetServer s = make(std::move(l), load_config());
    const FleetStats st = s.run({t});
    EXPECT_TRUE(st.accounted());
    return st.tenants[0].completed - st.tenants[0].deadline_misses;
  };

  ServingLadder pair;
  pair.rungs = {mode(1600, "fallback"), mode(1000, "primary")};
  pair.home = 1;
  ServingLadder shed_only;
  shed_only.rungs = {mode(1000, "primary")};
  shed_only.home = 0;

  const long long ladder = within_deadline(ladder3());
  const long long binary = within_deadline(std::move(pair));
  const long long shed = within_deadline(std::move(shed_only));
  EXPECT_GT(ladder, binary);
  EXPECT_GT(ladder, shed);
}

}  // namespace
}  // namespace hetacc::serve

namespace hetacc::toolflow {
namespace {

// ---------------------------------------------------------------------------
// Ladder builder + CSV round trip on AlexNet/ZC706 (the paper's platform).
// cached_serving_ladder amortizes the six DSE runs across these tests.

const ServingLadderPlan& alexnet_plan() {
  return cached_serving_ladder(nn::alexnet(), fpga::zc706());
}

TEST(LadderBuilder, EmitsMonotoneLadderWithPrimaryHome) {
  const ServingLadderPlan& plan = alexnet_plan();
  ASSERT_GE(plan.rungs.size(), 3u);
  ASSERT_LE(plan.rungs.size(), 4u);  // default max_rungs
  ASSERT_LT(plan.home, plan.rungs.size());
  EXPECT_EQ(plan.rungs[plan.home].label, "primary");

  for (std::size_t i = 1; i < plan.rungs.size(); ++i) {
    EXPECT_LT(plan.rungs[i].service_cycles,
              plan.rungs[i - 1].service_cycles)
        << "ladder must be strictly monotone at rung " << i;
  }
  // The deep-throughput rungs ride the int8 datapath, and they sit below
  // home (strictly faster than the 16-bit primary).
  bool any_int8_below_home = false;
  for (std::size_t i = plan.home + 1; i < plan.rungs.size(); ++i) {
    any_int8_below_home |= plan.rungs[i].int8;
  }
  EXPECT_TRUE(any_int8_below_home);
  EXPECT_FALSE(plan.table().empty());
}

TEST(LadderBuilder, CacheReturnsTheSameInstance) {
  const ServingLadderPlan& a = alexnet_plan();
  const ServingLadderPlan& b = alexnet_plan();
  EXPECT_EQ(&a, &b);
}

TEST(LadderBuilder, ServingModesCarryPerRungChoicesAndLabels) {
  const ServingLadderPlan& plan = alexnet_plan();
  const std::size_t layers = 3;
  const std::vector<arch::NumericMode> m16(layers);
  const std::vector<arch::NumericMode> mi8(layers);
  const serve::ServingLadder l = plan.to_serving_modes(layers, m16, mi8);
  ASSERT_EQ(l.rungs.size(), plan.rungs.size());
  EXPECT_EQ(l.home, plan.home);
  for (std::size_t i = 0; i < l.rungs.size(); ++i) {
    EXPECT_EQ(l.rungs[i].choices.size(), layers);
    EXPECT_EQ(l.rungs[i].label, plan.rungs[i].label);
    EXPECT_EQ(l.rungs[i].service_cycles, plan.rungs[i].service_cycles);
  }
}

TEST(LadderCsv, RoundTripsTheFullPlan) {
  const ServingLadderPlan& plan = alexnet_plan();
  const std::string csv =
      core::ladder_to_csv(plan.to_csv_rungs(), plan.accel_net);
  const std::vector<core::LadderRungCsv> parsed =
      core::ladder_from_csv(csv, plan.accel_net, fpga::zc706());
  const ServingLadderPlan back =
      ServingLadderPlan::from_csv_rungs(parsed, plan.accel_net);

  ASSERT_EQ(back.rungs.size(), plan.rungs.size());
  EXPECT_EQ(back.home, plan.home);
  for (std::size_t i = 0; i < plan.rungs.size(); ++i) {
    EXPECT_EQ(back.rungs[i].label, plan.rungs[i].label);
    EXPECT_EQ(back.rungs[i].service_cycles, plan.rungs[i].service_cycles);
    EXPECT_EQ(back.rungs[i].protect, plan.rungs[i].protect);
    EXPECT_EQ(back.rungs[i].int8, plan.rungs[i].int8);
    EXPECT_EQ(back.rungs[i].strategy.latency_cycles(),
              plan.rungs[i].strategy.latency_cycles());
  }
}

TEST(LadderCsv, TamperedInputsRaiseTypedLineNumberedErrors) {
  const ServingLadderPlan& plan = alexnet_plan();
  const std::string csv =
      core::ladder_to_csv(plan.to_csv_rungs(), plan.accel_net);

  const auto expect_parse_error = [&](std::string bad) {
    try {
      (void)core::ladder_from_csv(bad, plan.accel_net, fpga::zc706());
      FAIL() << "tampered ladder csv accepted";
    } catch (const ParseError& e) {
      EXPECT_GE(e.line(), 1) << e.what();
    }
  };

  // No home rung: strip the 'home' flag everywhere.
  std::string no_home = csv;
  for (std::size_t p = no_home.find(",home"); p != std::string::npos;
       p = no_home.find(",home", p + 2)) {
    no_home.replace(p, 5, ",-");
  }
  expect_parse_error(no_home);

  // Unknown flag token.
  std::string bad_flag = csv;
  const std::size_t fp = bad_flag.find(",home");
  ASSERT_NE(fp, std::string::npos);
  bad_flag.replace(fp, 5, ",hme");
  expect_parse_error(bad_flag);

  // Break per-block metadata consistency (one row of a rung disagrees on
  // service_cycles with its siblings).
  const std::string deep =
      std::to_string(plan.rungs.back().service_cycles);
  std::string torn = csv;
  const std::size_t dp = torn.find("," + deep + ",");
  ASSERT_NE(dp, std::string::npos);
  torn.replace(dp, deep.size() + 2,
               "," + std::to_string(plan.rungs.back().service_cycles +
                                    plan.rungs.front().service_cycles) +
                   ",");
  expect_parse_error(torn);

  // Truncated mid-block.
  expect_parse_error(csv.substr(0, csv.size() / 2));
}

}  // namespace
}  // namespace hetacc::toolflow
