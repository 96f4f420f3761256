// Resilient serving runtime in the `hetacc --serve` shape — a one-model,
// one-tenant, batch-cap-1 FleetServer: bounded-queue admission and
// back-pressure, virtual-clock deadlines with load-shedding, deterministic
// capped-exponential retry backoff, circuit-breaker strategy downgrade with
// half-open recovery under a trace fault burst, and the determinism
// contract — same trace + seed + config produces byte-identical FleetStats
// for any worker-thread count. Also the pipeline-side hooks the runtime
// depends on: reset() idempotence, cooperative cancellation, and structured
// fault-identity payloads on escalation.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "fault/fault.h"
#include "nn/model_zoo.h"
#include "serve/breaker.h"
#include "serve/fleet.h"
#include "serve/queue.h"
#include "serve/stats.h"
#include "serve/trace.h"
#include "support/error.h"

namespace hetacc {
namespace {

using arch::FusionPipeline;
using fault::FaultPlan;
using fault::ProtectionConfig;
using serve::ArrivalTrace;
using serve::BoundedQueue;
using serve::BreakerConfig;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::FleetConfig;
using serve::FleetModel;
using serve::FleetServer;
using serve::FleetStats;
using serve::LatencyHistogram;
using serve::ServingMode;
using serve::TenantConfig;
using serve::TenantStats;

// ------------------------------------------------------------ typed error --
TEST(ServeErrorType, CarriesReasonAndMapsToExitCode5) {
  const ServeError e(ServeError::Reason::kQueueFull, "queue at capacity");
  EXPECT_EQ(e.category(), ErrorCategory::kServe);
  EXPECT_EQ(e.exit_code(), 5);
  EXPECT_EQ(e.reason(), ServeError::Reason::kQueueFull);
  EXPECT_EQ(to_string(ServeError::Reason::kDeadline), "deadline");
  EXPECT_EQ(to_string(ErrorCategory::kServe), "serve");
}

// ----------------------------------------------------------- bounded queue --
TEST(BoundedQueueTest, TryPushRefusesWhenFullPopMakesRoom) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // admission control: full
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsConsumersAndRefusesProducers) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));
  EXPECT_FALSE(q.push(9));
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // drains what was queued before close
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerFreesASlot) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::atomic<bool> second_in{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // must block until the pop below
    second_in = true;
  });
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  producer.join();
  EXPECT_TRUE(second_in);
}

// MPMC contention under TSan: every item is delivered exactly once, bound
// never exceeded, producers mix blocking and non-blocking pushes.
TEST(BoundedQueueTest, MpmcStressDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s = 0;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        if (i % 2 == 0) {
          while (!q.try_push(item)) std::this_thread::yield();
        } else {
          ASSERT_TRUE(q.push(item));
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int item = 0;
      while (q.pop(item)) {
        seen[static_cast<std::size_t>(item)].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// --------------------------------------------------------- circuit breaker --
BreakerConfig fast_breaker() {
  BreakerConfig c;
  c.failure_threshold = 2;
  c.cooldown_cycles = 100;
  c.probe_successes = 2;
  return c;
}

TEST(CircuitBreakerTest, ConsecutiveFailuresOpenSuccessResetsTheStreak) {
  CircuitBreaker b(fast_breaker());
  b.record_failure(10);
  b.record_success(20);  // streak broken
  b.record_failure(30);
  EXPECT_EQ(b.state(40), BreakerState::kClosed);
  b.record_failure(50);  // second consecutive
  EXPECT_EQ(b.state(50), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 1);
}

TEST(CircuitBreakerTest, HalfOpenRecoveryNeedsConfiguredProbeWins) {
  CircuitBreaker b(fast_breaker());
  b.record_failure(0);
  b.record_failure(1);  // open until 101
  EXPECT_EQ(b.state(100), BreakerState::kOpen);
  EXPECT_EQ(b.state(101), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.try_acquire_probe(101));
  EXPECT_FALSE(b.try_acquire_probe(102));  // single probe slot
  b.record_success(110);
  EXPECT_EQ(b.state(110), BreakerState::kHalfOpen);  // one win is not enough
  EXPECT_TRUE(b.try_acquire_probe(111));
  b.record_success(120);
  EXPECT_EQ(b.state(120), BreakerState::kClosed);
  EXPECT_EQ(b.closes(), 1);
  // Transition log records the exact sequence.
  ASSERT_EQ(b.transitions().size(), 3u);
  EXPECT_EQ(b.transitions()[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(b.transitions()[2].to, BreakerState::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopensWithFreshCooldown) {
  CircuitBreaker b(fast_breaker());
  b.record_failure(0);
  b.record_failure(0);
  ASSERT_EQ(b.state(100), BreakerState::kHalfOpen);
  ASSERT_TRUE(b.try_acquire_probe(100));
  b.record_failure(105);  // probe found the primary still sick
  EXPECT_EQ(b.state(106), BreakerState::kOpen);
  EXPECT_EQ(b.state(204), BreakerState::kOpen);  // cooldown restarted at 105
  EXPECT_EQ(b.state(205), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.try_acquire_probe(205));  // the failed probe freed the slot
}

// ------------------------------------------------------- latency histogram --
TEST(LatencyHistogramTest, NearestRankPercentiles) {
  LatencyHistogram h;
  for (long long v : {50, 10, 20, 30, 40}) h.record(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.p50(), 30);
  EXPECT_EQ(h.p99(), 50);
  EXPECT_EQ(h.max(), 50);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
  EXPECT_EQ(h.percentile(0.0), 10);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  const LatencyHistogram h;
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------- arrival traces --
TEST(ArrivalTraceTest, SyntheticIsDeterministicAndMonotonic) {
  const ArrivalTrace a = ArrivalTrace::synthetic(200, 1000, 42, 3.0);
  const ArrivalTrace b = ArrivalTrace::synthetic(200, 1000, 42, 3.0);
  ASSERT_EQ(a.requests.size(), 200u);
  long long prev = -1;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, i);
    EXPECT_GE(a.requests[i].arrival_cycle, prev);
    prev = a.requests[i].arrival_cycle;
    EXPECT_EQ(a.requests[i].arrival_cycle, b.requests[i].arrival_cycle);
    EXPECT_EQ(a.requests[i].input_seed, b.requests[i].input_seed);
  }
  // Different seed, different trace.
  const ArrivalTrace c = ArrivalTrace::synthetic(200, 1000, 43, 3.0);
  EXPECT_NE(a.requests.back().arrival_cycle, c.requests.back().arrival_cycle);
}

TEST(ArrivalTraceTest, SurgeCompressesTheMiddleThird) {
  const ArrivalTrace flat = ArrivalTrace::synthetic(300, 1000, 7, 1.0);
  const ArrivalTrace surged = ArrivalTrace::synthetic(300, 1000, 7, 4.0);
  const auto span = [](const ArrivalTrace& t, std::size_t lo, std::size_t hi) {
    return t.requests[hi].arrival_cycle - t.requests[lo].arrival_cycle;
  };
  EXPECT_EQ(span(flat, 0, 99), span(surged, 0, 99));  // head untouched
  EXPECT_GT(span(flat, 100, 199), 2 * span(surged, 100, 199));
}

TEST(ArrivalTraceTest, CsvRoundTripIsExact) {
  const ArrivalTrace a = ArrivalTrace::synthetic(64, 500, 9, 2.0);
  const ArrivalTrace b = ArrivalTrace::from_csv(a.to_csv());
  ASSERT_EQ(b.requests.size(), a.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(b.requests[i].id, a.requests[i].id);
    EXPECT_EQ(b.requests[i].arrival_cycle, a.requests[i].arrival_cycle);
    EXPECT_EQ(b.requests[i].input_seed, a.requests[i].input_seed);
  }
}

TEST(ArrivalTraceTest, FromCsvRejectsGarbageWithLineNumbers) {
  EXPECT_THROW((void)ArrivalTrace::from_csv(""), ParseError);
  EXPECT_THROW((void)ArrivalTrace::from_csv("wrong,header\n"), ParseError);
  const std::string head = "id,arrival_cycle,input_seed\n";
  EXPECT_THROW((void)ArrivalTrace::from_csv(head + "0,10\n"), ParseError);
  EXPECT_THROW((void)ArrivalTrace::from_csv(head + "0,ten,1\n"), ParseError);
  EXPECT_THROW((void)ArrivalTrace::from_csv(head + "1,10,1\n"), ParseError);
  EXPECT_THROW(
      (void)ArrivalTrace::from_csv(head + "0,10,1\n1,5,2\n"),  // time warp
      ParseError);
  try {
    (void)ArrivalTrace::from_csv(head + "0,10,1\n1,bad,2\n");
    FAIL() << "garbled row accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

// ------------------------------------------------------------ server stats --
TEST(FleetStatsTest, AccountedRequiresEveryRequestToLandSomewhere) {
  TenantStats t;
  t.name = "t";
  t.submitted = 10;
  t.completed = 7;
  t.rejected_queue_full = 1;
  t.shed_deadline = 1;
  EXPECT_FALSE(t.accounted());
  FleetStats s;
  s.tenants = {t};
  EXPECT_FALSE(s.accounted());
  s.tenants[0].failed = 1;
  EXPECT_TRUE(s.accounted());
  EXPECT_NE(s.to_json().find("\"submitted\": 10"), std::string::npos);
}

TEST(RetryBackoffTest, DoublesFromTheBaseUpToTheCap) {
  serve::RetryConfig r;
  r.backoff_base_cycles = 500;
  r.backoff_cap_cycles = 1500;  // not base * 2^k: the cap must still bind
  EXPECT_EQ(serve::retry_backoff(r, 1), 500);
  EXPECT_EQ(serve::retry_backoff(r, 2), 1000);
  EXPECT_EQ(serve::retry_backoff(r, 3), 1500);
  EXPECT_EQ(serve::retry_backoff(r, 4), 1500);
}

// ----------------------------------------------------------------- server --
// The `hetacc --serve` shape: one model on a [fallback 1600, primary 1000]
// pair (home = primary), one tenant, batch cap 1, health scoring off.
class ServerTest : public ::testing::Test {
 protected:
  nn::Network net_ = nn::tiny_net(4, 16);
  nn::WeightStore ws_ = nn::WeightStore::deterministic(net_, 21);

  struct Config {
    int replicas = 2;
    TenantConfig tenant;
    FleetConfig fleet;
  };

  /// What one run reports: the stats plus the model's breaker log.
  struct Run {
    FleetStats stats;
    std::vector<serve::BreakerTransition> breaker_log;
    [[nodiscard]] const TenantStats& req() const { return stats.tenants[0]; }
    [[nodiscard]] const serve::ModelStats& model() const {
      return stats.models[0];
    }
  };

  static ServingMode mode(long long cycles) {
    ServingMode m;
    m.service_cycles = cycles;  // empty choices = all-conventional float
    return m;
  }

  static Config base_config() {
    Config c;
    c.tenant.name = "t";
    c.tenant.queue_capacity = 64;
    c.tenant.batch_cap = 1;
    c.tenant.batch_age_cycles = 0;
    c.fleet.health.enabled = false;
    c.fleet.retry.max_retries = 1;
    c.fleet.retry.backoff_base_cycles = 500;
    c.fleet.retry.backoff_cap_cycles = 2000;
    c.fleet.breaker.failure_threshold = 2;
    c.fleet.breaker.cooldown_cycles = 2000;
    c.fleet.breaker.probe_successes = 2;
    return c;
  }

  FleetServer make(const Config& c, ServingMode primary = mode(1000),
                   ServingMode fallback = mode(1600)) const {
    FleetModel m;
    m.name = "m";
    m.net = net_;
    m.ws = ws_;
    m.ladder.rungs = {std::move(fallback), std::move(primary)};
    m.ladder.home = 1;
    m.replicas = c.replicas;
    std::vector<FleetModel> models;
    models.push_back(std::move(m));
    return FleetServer(std::move(models), {c.tenant}, c.fleet);
  }

  /// A trace whose middle third wedges the primary pipeline: the hard,
  /// deterministic failure the watchdog + retry + breaker chain must absorb.
  static ArrivalTrace burst_trace(std::size_t n = 60,
                                  std::uint64_t seed = 7) {
    ArrivalTrace t = ArrivalTrace::synthetic(n, 800, seed);
    const long long span = t.last_arrival();
    t.burst.from_cycle = span / 3;
    t.burst.until_cycle = 2 * span / 3;
    t.burst.plan.seed = seed;
    t.burst.plan.wedge_channel = 0;
    t.burst.plan.wedge_after_pushes = 2;
    return t;
  }

  Run run_once(const ArrivalTrace& trace, const Config& c) const {
    FleetServer s = make(c);
    Run r;
    r.stats = s.run({trace});
    r.breaker_log = s.breaker_logs()[0];
    return r;
  }

  /// The burst was absorbed: nothing failed, the breaker routed around the
  /// wedge, and it recovered open -> half-open -> closed exactly once.
  static void expect_absorbed(const Run& r) {
    EXPECT_TRUE(r.stats.accounted());
    EXPECT_EQ(r.req().failed, 0);
    EXPECT_GT(r.model().retries, 0);
    EXPECT_GT(r.model().faults_absorbed, 0);
    EXPECT_GT(r.req().completed_degraded, 0);
    EXPECT_GE(r.model().breaker_opens, 1);
    EXPECT_EQ(r.model().breaker_closes, 1);
    ASSERT_FALSE(r.breaker_log.empty());
    EXPECT_EQ(r.breaker_log.back().from, BreakerState::kHalfOpen);
    EXPECT_EQ(r.breaker_log.back().to, BreakerState::kClosed);
    bool saw_open = false;
    for (const auto& tr : r.breaker_log) {
      saw_open |= tr.to == BreakerState::kOpen;
    }
    EXPECT_TRUE(saw_open);
  }

  /// Runs at 1, 2 and 8 worker threads and requires identical stats and
  /// breaker timelines.
  void expect_thread_invariant(const ArrivalTrace& t, Config c) const {
    Run first;
    for (const int threads : {1, 2, 8}) {
      c.fleet.threads = threads;
      const Run r = run_once(t, c);
      EXPECT_TRUE(r.stats.accounted());
      if (threads == 1) {
        first = r;
        continue;
      }
      EXPECT_TRUE(r.stats == first.stats)
          << "stats diverged at threads=" << threads;
      EXPECT_EQ(r.stats.to_json(), first.stats.to_json());
      ASSERT_EQ(r.breaker_log.size(), first.breaker_log.size());
      for (std::size_t i = 0; i < r.breaker_log.size(); ++i) {
        EXPECT_EQ(r.breaker_log[i].cycle, first.breaker_log[i].cycle);
        EXPECT_EQ(r.breaker_log[i].to, first.breaker_log[i].to);
      }
    }
  }
};

TEST_F(ServerTest, RejectsUnusableConfigurations) {
  Config cfg = base_config();
  cfg.replicas = 0;
  EXPECT_THROW(make(cfg), ServeError);
  cfg = base_config();
  cfg.tenant.queue_capacity = 0;
  EXPECT_THROW(make(cfg), ServeError);
  cfg = base_config();
  cfg.fleet.retry.max_retries = -1;
  EXPECT_THROW(make(cfg), ServeError);
  cfg = base_config();
  cfg.fleet.retry.backoff_cap_cycles = cfg.fleet.retry.backoff_base_cycles - 1;
  EXPECT_THROW(make(cfg), ServeError);
  cfg = base_config();
  EXPECT_THROW(make(cfg, mode(0), mode(10)), ServeError);
  ServingMode bad = mode(10);
  bad.choices.resize(2);  // tiny_net has 4 accelerated layers
  EXPECT_THROW(make(cfg, bad, mode(10)), ServeError);
  EXPECT_NO_THROW(make(cfg, mode(10), mode(10)));
}

TEST_F(ServerTest, HealthyTraceCompletesEveryRequestOnThePrimary) {
  const ArrivalTrace t = ArrivalTrace::synthetic(40, 1500, 3);
  const Run r = run_once(t, base_config());
  const TenantStats& s = r.req();
  EXPECT_TRUE(r.stats.accounted());
  EXPECT_EQ(s.submitted, 40);
  EXPECT_EQ(s.completed, 40);
  EXPECT_EQ(s.completed_degraded, 0);
  EXPECT_EQ(s.rejected_queue_full, 0);
  EXPECT_EQ(s.shed_deadline, 0);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(r.model().retries, 0);
  EXPECT_EQ(r.model().breaker_opens, 0);
  EXPECT_TRUE(r.breaker_log.empty());
  EXPECT_GE(s.latency.p50(), 1000);  // at least one service time
  EXPECT_NE(r.stats.response_hash, 0u);
}

TEST_F(ServerTest, OverloadIsRejectedAtTheQueueBoundNeverLost) {
  // One slow replica, a tiny queue, and a tight arrival burst: admission
  // control must refuse the overflow instead of queueing without bound.
  Config cfg = base_config();
  cfg.replicas = 1;
  cfg.tenant.queue_capacity = 3;
  const ArrivalTrace t = ArrivalTrace::synthetic(50, 100, 11);
  const Run r = run_once(t, cfg);
  const TenantStats& s = r.req();
  EXPECT_TRUE(r.stats.accounted());
  EXPECT_GT(s.rejected_queue_full, 0);
  EXPECT_LE(s.queue_peak, 3);
  EXPECT_EQ(s.completed + s.rejected_queue_full, s.submitted);
}

TEST_F(ServerTest, LateRequestsAreShedAndMissesCounted) {
  Config cfg = base_config();
  cfg.replicas = 1;
  cfg.tenant.deadline_cycles = 2500;
  const ArrivalTrace t = ArrivalTrace::synthetic(50, 300, 13);
  const Run r = run_once(t, cfg);
  EXPECT_TRUE(r.stats.accounted());
  EXPECT_GT(r.req().shed_deadline, 0);  // shed before wasting a replica
  EXPECT_EQ(r.req().failed, 0);
  // Whatever completed either met the deadline or was counted as a miss.
  EXPECT_GT(r.req().completed, 0);
}

TEST_F(ServerTest, FaultBurstIsAbsorbedByRetriesAndTheBreaker) {
  const Run r = run_once(burst_trace(), base_config());
  expect_absorbed(r);
  EXPECT_EQ(r.req().completed, r.req().submitted);
}

// The determinism contract (DESIGN.md §11): worker threads only change how
// fast the functional work grinds through, never any stat. Exercises every
// path at once — overload, deadlines, fault burst, retries, breaker.
TEST_F(ServerTest, StatsAreByteIdenticalForAnyWorkerCount) {
  Config cfg = base_config();
  cfg.tenant.queue_capacity = 8;
  cfg.tenant.deadline_cycles = 20000;
  expect_thread_invariant(burst_trace(80, 17), cfg);
  EXPECT_EQ(run_once(burst_trace(80, 17), cfg).stats.response_hash,
            1143510471221907758ull);
}

// Batching under a burst: a failed home-rung batch retries every request
// it carried, and the breaker and thread invariance hold as at batch 1.
TEST_F(ServerTest, BurstUnderBatchingIsAbsorbedAndThreadInvariant) {
  Config cfg = base_config();
  cfg.tenant.batch_cap = 4;
  cfg.tenant.batch_age_cycles = 600;
  const ArrivalTrace t = burst_trace(120, 9);
  const Run r = run_once(t, cfg);
  expect_absorbed(r);
  EXPECT_EQ(r.req().completed, r.req().submitted);
  EXPECT_GT(r.model().batches, 0);
  EXPECT_LT(r.model().batches, r.req().completed + r.model().retries);
  expect_thread_invariant(t, cfg);
  EXPECT_EQ(r.stats.response_hash, 3170513584712694310ull);
}

TEST_F(ServerTest, ResponseDigestDependsOnRequestPayloads) {
  ArrivalTrace a = ArrivalTrace::synthetic(10, 2000, 5);
  ArrivalTrace b = a;
  for (auto& r : b.requests) r.input_seed += 1;  // same arrivals, new inputs
  const Run sa = run_once(a, base_config());
  const Run sb = run_once(b, base_config());
  EXPECT_EQ(sa.req().completed, sb.req().completed);
  EXPECT_NE(sa.stats.response_hash, sb.stats.response_hash);
}

TEST_F(ServerTest, RejectsTracesWithNonDenseIds) {
  ArrivalTrace t = ArrivalTrace::synthetic(4, 100, 1);
  t.requests[2].id = 9;
  FleetServer s = make(base_config());
  EXPECT_THROW((void)s.run({t}), ServeError);
}

// ---------------------------------------------- pipeline hooks (satellites) --
class PipelineHookTest : public ::testing::Test {
 protected:
  nn::Network net_ = nn::tiny_net(4, 16);
  nn::WeightStore ws_ = nn::WeightStore::deterministic(net_, 21);
  nn::Tensor input_{net_[0].out};

  void SetUp() override { nn::fill_deterministic(input_, 22); }
};

TEST_F(PipelineHookTest, ResetIsIdempotentAndRestoresCorruptedConstants) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  pipe.install_fault_plan(p);  // detectors off: resident panels corrupt
  EXPECT_NE(pipe.run(input_), golden);
  pipe.clear_fault_plan();

  pipe.reset();
  const nn::Tensor once = pipe.run(input_);
  EXPECT_EQ(once, golden);
  pipe.reset();
  pipe.reset();  // idempotent: twice leaves the same state as once
  EXPECT_EQ(pipe.run(input_), golden);
}

TEST_F(PipelineHookTest, ResetWithPlanInstalledRestrikesDeterministically) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);
  FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  pipe.install_fault_plan(p);
  const nn::Tensor struck = pipe.run(input_);
  pipe.reset();  // models "reload the accelerator", faults re-strike
  EXPECT_EQ(pipe.run(input_), struck);
  EXPECT_NE(struck, golden);
  pipe.clear_fault_plan();
}

TEST_F(PipelineHookTest, ResetRearmsAMidBatchWedgeForReuse) {
  FusionPipeline pipe(net_, ws_);
  const nn::Tensor golden = pipe.run(input_);

  FaultPlan wedge;
  wedge.seed = 1;
  wedge.wedge_channel = 0;
  wedge.wedge_after_pushes = 2;
  pipe.install_fault_plan(wedge, ProtectionConfig::all_on());
  EXPECT_THROW((void)pipe.run(input_), FaultError);
  pipe.clear_fault_plan();
  pipe.reset();

  // The same pipeline object is reusable mid-batch after the wedge: a
  // multi-image batch comes back bit-exact against the healthy run.
  const std::vector<nn::Tensor> batch(3, input_);
  const auto outs = pipe.run_batch(batch, 2);
  ASSERT_EQ(outs.size(), 3u);
  for (const auto& o : outs) EXPECT_EQ(o, golden);
  EXPECT_EQ(pipe.run(input_), golden);
}

TEST_F(PipelineHookTest, CancelTokenAbandonsTheRunWithATypedError) {
  FusionPipeline pipe(net_, ws_);
  const std::atomic<bool> cancelled{true};
  pipe.set_cancel_token(&cancelled);
  try {
    (void)pipe.run(input_);
    FAIL() << "cancelled run completed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.reason(), ServeError::Reason::kCancelled);
    EXPECT_EQ(e.exit_code(), 5);
  }
  pipe.set_cancel_token(nullptr);
  EXPECT_NO_THROW((void)pipe.run(input_));
}

TEST_F(PipelineHookTest, WedgeEscalationCarriesStageAndChannelIdentity) {
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
    EXPECT_EQ(e.stage(), net_[1].name);
    EXPECT_EQ(e.unit(), 0);  // the wedged channel
  }
  // The injector kept the first unrecovered fault's identity for reports.
  const auto fs = pipe.fault_stats();
  EXPECT_TRUE(fs.first_unrecovered.valid);
  EXPECT_EQ(fs.first_unrecovered.site, fault::FaultSite::kFifoPush);
  EXPECT_EQ(fs.first_unrecovered.stream, 0u);
  EXPECT_FALSE(fs.first_unrecovered.describe().empty());
  pipe.clear_fault_plan();
}

TEST(DdrFailurePayload, UnrecoveredBurstsCarryFullIdentity) {
  arch::DdrTrace trace;
  trace.transactions.push_back(
      {arch::DdrOp::kLoadWeights, 2, "conv1-w", 64 * 1024, 0, 100});
  trace.total_cycles = 100;
  FaultPlan p;
  p.seed = 4;
  p.ddr_burst_flip_rate = 1.0;  // every burst and every re-read is hit
  const fault::FaultInjector inj(p);
  const auto dev = fpga::zc706();
  const auto rep = arch::replay_trace_with_faults(trace, dev, inj,
                                                  ProtectionConfig::all_on());
  ASSERT_GT(rep.unrecovered, 0);
  ASSERT_EQ(rep.failures.size(), static_cast<std::size_t>(rep.unrecovered));
  const auto& f = rep.failures.front();
  EXPECT_EQ(f.transaction, 0u);
  EXPECT_EQ(f.group, 2u);
  EXPECT_EQ(f.what, "conv1-w");
  EXPECT_EQ(f.attempts, ProtectionConfig::all_on().retry_limit);
  const FaultError err = f.to_error();
  EXPECT_EQ(err.category(), ErrorCategory::kFault);
  EXPECT_EQ(err.stage(), "conv1-w");
  EXPECT_EQ(err.unit(), f.burst);
  EXPECT_EQ(err.attempts(), f.attempts);
  EXPECT_NE(std::string(err.what()).find("unrecovered"), std::string::npos);
}

}  // namespace
}  // namespace hetacc
