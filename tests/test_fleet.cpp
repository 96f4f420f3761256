// Fleet-serving runtime: shared prepack bundles (warm construction aliases,
// reset() never invalidates peers), the refcounted PrepackCache, the
// deterministic batch close rule and its edge cases, weighted-fair (DRR)
// admission, replica autoscale, the one-shared-worker-pool execution model,
// and the fleet determinism contract — same traces + config produce
// byte-identical FleetStats for any worker-thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/pipeline.h"
#include "fault/fault.h"
#include "fault/fleet_fault.h"
#include "serve/breaker.h"
#include "kernels/parallel.h"
#include "kernels/simd.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "serve/prepack_cache.h"
#include "support/error.h"
#include "support/hardware.h"

namespace hetacc {
namespace {

using arch::FusionPipeline;
using serve::ArrivalTrace;
using serve::FleetConfig;
using serve::FleetModel;
using serve::FleetServer;
using serve::FleetStats;
using serve::PrepackCache;
using serve::TenantConfig;

nn::Tensor probe_input(const nn::Network& net) {
  nn::Tensor t(net[0].out);
  nn::fill_deterministic(t, 7);
  return t;
}

// ------------------------------------------------- shared prepack bundles --
class PrepackShareTest : public ::testing::Test {
 protected:
  PrepackShareTest()
      : net_(nn::tiny_net(4, 16)),
        ws_(nn::WeightStore::deterministic(net_, 21)),
        input_(probe_input(net_)) {}
  nn::Network net_;
  nn::WeightStore ws_;
  nn::Tensor input_;
};

TEST_F(PrepackShareTest, WarmConstructionAliasesThePeerBundle) {
  FusionPipeline a(net_, ws_);
  ASSERT_NE(a.shared_prepack(), nullptr);
  EXPECT_GT(a.shared_prepack()->resident_bytes(), 0);

  FusionPipeline b(net_, ws_, {}, a.shared_prepack());
  EXPECT_EQ(a.shared_prepack().get(), b.shared_prepack().get());
  EXPECT_EQ(a.run(input_), b.run(input_));
}

TEST_F(PrepackShareTest, CleanResetKeepsTheSharedBundle) {
  FusionPipeline a(net_, ws_);
  FusionPipeline b(net_, ws_, {}, a.shared_prepack());
  const nn::Tensor golden = a.run(input_);

  b.reset();  // clean: value-identical re-derive is skipped, aliasing kept
  EXPECT_EQ(a.shared_prepack().get(), b.shared_prepack().get());
  EXPECT_EQ(b.run(input_), golden);
}

TEST_F(PrepackShareTest, FaultedRederiveNeverInvalidatesPeers) {
  FusionPipeline a(net_, ws_);
  FusionPipeline b(net_, ws_, {}, a.shared_prepack());
  const nn::Tensor golden = a.run(input_);
  const auto before = a.shared_prepack();

  // Installing a plan re-derives a's constants from struck filter copies —
  // into a fresh private bundle. The peer keeps the original, untouched.
  fault::FaultPlan p;
  p.seed = 3;
  p.weight_panel_flip_rate = 1.0;
  a.install_fault_plan(p);
  EXPECT_NE(a.shared_prepack().get(), before.get());
  EXPECT_EQ(b.shared_prepack().get(), before.get());
  EXPECT_NE(a.run(input_), golden);
  EXPECT_EQ(b.run(input_), golden);

  a.clear_fault_plan();
  EXPECT_EQ(a.run(input_), golden);
  EXPECT_EQ(b.shared_prepack().get(), before.get());
}

// -------------------------------------------------------- refcounted cache --
TEST_F(PrepackShareTest, CacheRefcountsSharesAndEvicts) {
  PrepackCache cache(/*share=*/true);
  int builds = 0;
  const PrepackCache::Builder build = [&] {
    ++builds;
    FusionPipeline p(net_, ws_);
    return p.shared_prepack();
  };

  const auto l1 = cache.acquire("m/r0", build);
  EXPECT_FALSE(l1.hit);
  EXPECT_EQ(builds, 1);
  const long long bytes = l1.bundle->resident_bytes();
  ASSERT_GT(bytes, 0);

  const auto l2 = cache.acquire("m/r0", build);
  EXPECT_TRUE(l2.hit);
  EXPECT_EQ(builds, 1);  // served from residence, not rebuilt
  EXPECT_EQ(l1.bundle.get(), l2.bundle.get());
  EXPECT_EQ(cache.refcount("m/r0"), 2);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().resident_bytes, bytes);
  EXPECT_EQ(cache.stats().bytes_saved, bytes);

  cache.release(l1);
  EXPECT_EQ(cache.refcount("m/r0"), 1);
  EXPECT_EQ(cache.stats().evictions, 0);
  cache.release(l2);
  EXPECT_EQ(cache.refcount("m/r0"), 0);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.stats().peak_resident_bytes, bytes);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_THROW(cache.release(l2), std::logic_error);
}

TEST_F(PrepackShareTest, UnsharedCacheBuildsPrivateCopies) {
  PrepackCache cache(/*share=*/false);
  int builds = 0;
  const PrepackCache::Builder build = [&] {
    ++builds;
    FusionPipeline p(net_, ws_);
    return p.shared_prepack();
  };

  const auto l1 = cache.acquire("m/r0", build);
  const auto l2 = cache.acquire("m/r0", build);
  EXPECT_FALSE(l1.hit);
  EXPECT_FALSE(l2.hit);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(l1.bundle.get(), l2.bundle.get());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().bytes_saved, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 2 * l1.bundle->resident_bytes());
}

// ------------------------------------------------------------ fleet fixture --
FleetModel tiny_model(const std::string& name, int replicas,
                      std::vector<long long> rung_cycles, std::size_t home,
                      std::uint32_t seed = 21) {
  FleetModel m;
  m.name = name;
  m.net = nn::tiny_net(4, 16);
  m.ws = nn::WeightStore::deterministic(m.net, seed);
  for (std::size_t i = 0; i < rung_cycles.size(); ++i) {
    serve::ServingMode r;
    r.label = "r" + std::to_string(i);
    r.service_cycles = rung_cycles[i];
    m.ladder.rungs.push_back(std::move(r));
  }
  m.ladder.home = home;
  m.replicas = replicas;
  return m;
}

TenantConfig tenant(const std::string& name, std::size_t model, int weight,
                    std::size_t batch_cap, long long batch_age,
                    long long deadline = 0) {
  TenantConfig t;
  t.name = name;
  t.model = model;
  t.weight = weight;
  t.queue_capacity = 32;
  t.deadline_cycles = deadline;
  t.batch_cap = batch_cap;
  t.batch_age_cycles = batch_age;
  return t;
}

ArrivalTrace at_cycles(const std::vector<long long>& cycles) {
  ArrivalTrace t;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    t.requests.push_back(
        {i, cycles[i], static_cast<std::uint32_t>(100 + i)});
  }
  return t;
}

// -------------------------------------------------------- config validation --
TEST(FleetConfigTest, RejectsMalformedModelsAndTenants) {
  const auto model = [] { return tiny_model("m", 1, {1000}, 0); };
  // Tenant pointing past the model list.
  EXPECT_THROW(FleetServer({model()}, {tenant("t", 1, 1, 8, 0)}, {}),
               ServeError);
  // DRR weight below 1 cannot make progress.
  EXPECT_THROW(FleetServer({model()}, {tenant("t", 0, 0, 8, 0)}, {}),
               ServeError);
  // A batch cap of zero can never close a batch.
  EXPECT_THROW(FleetServer({model()}, {tenant("t", 0, 1, 0, 0)}, {}),
               ServeError);
  // setup fraction must leave per-request work positive.
  FleetConfig cfg;
  cfg.batch_setup_frac = 1.0;
  EXPECT_THROW(FleetServer({model()}, {tenant("t", 0, 1, 8, 0)}, cfg),
               ServeError);
  // Deeper rungs must be strictly faster.
  EXPECT_THROW(
      FleetServer({tiny_model("m", 1, {1000, 1000}, 0)},
                  {tenant("t", 0, 1, 8, 0)}, {}),
      ServeError);
}

// ------------------------------------------------------- batch close rule --
TEST(FleetBatchingTest, CapClosesABatchTheMomentItFills) {
  FleetConfig cfg;
  FleetServer fleet({tiny_model("m", 1, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/1000000)}, cfg);
  const FleetStats s = fleet.run({at_cycles({0, 0, 0, 0})});
  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.models[0].batches, 1);
  ASSERT_GT(s.models[0].batch_size_counts.size(), 4u);
  EXPECT_EQ(s.models[0].batch_size_counts[4], 1);
  EXPECT_EQ(s.tenants[0].completed, 4);
}

TEST(FleetBatchingTest, AgeBudgetDispatchesASingleStraggler) {
  FleetConfig cfg;  // batch_setup_frac default: svc(1) == service exactly
  FleetServer fleet({tiny_model("m", 1, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/8, /*age=*/500)}, cfg);
  const FleetStats s = fleet.run({at_cycles({0})});
  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.models[0].batches, 1);
  EXPECT_EQ(s.models[0].batch_size_counts[1], 1);
  // The straggler waits its full age budget, then serves svc(1) == 1000.
  EXPECT_EQ(s.tenants[0].latency.p50(), 1500);
  EXPECT_EQ(s.makespan_cycles, 1500);
}

TEST(FleetBatchingTest, CapArrivingExactlyAtTheAgeDeadlineIsDeterministic) {
  // The second request lands exactly on the first one's close cycle. The
  // event order pins the outcome: the close timer fires before the
  // same-cycle arrival, so the rule deterministically produces two
  // single-request batches — never a race between cap and age.
  FleetConfig cfg;
  FleetServer fleet({tiny_model("m", 1, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/2, /*age=*/50)}, cfg);
  const FleetStats s = fleet.run({at_cycles({0, 50})});
  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.models[0].batches, 2);
  EXPECT_EQ(s.models[0].batch_size_counts[1], 2);
  EXPECT_EQ(s.tenants[0].completed, 2);
}

TEST(FleetBatchingTest, EmptyLullTimersAreHarmlessNoOps) {
  // A long silent gap between arrivals: the armed close timer outlives its
  // batch, fires into an empty queue, and must neither dispatch anything
  // nor stall termination.
  FleetConfig cfg;
  FleetServer fleet({tiny_model("m", 1, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/8, /*age=*/500)}, cfg);
  const FleetStats s = fleet.run({at_cycles({0, 100000})});
  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.models[0].batches, 2);
  EXPECT_EQ(s.models[0].batch_size_counts[1], 2);
  EXPECT_EQ(s.makespan_cycles, 101500);
}

// ------------------------------------------------------------ DRR fairness --
TEST(FleetDrrTest, BurstyTenantCannotStarveItsSteadyNeighbor) {
  // One replica at 1000 cycles/request. The bursty tenant floods 100
  // requests almost at once; the steady tenant trickles well under its
  // fair share. DRR (weight 2:1) must keep serving the steady tenant out
  // of the middle of the backlog instead of draining the flood first.
  std::vector<long long> steady_cycles, burst_cycles;
  for (int i = 0; i < 40; ++i) steady_cycles.push_back(2000LL * i);
  for (int i = 0; i < 100; ++i) burst_cycles.push_back(10LL * i);
  TenantConfig steady = tenant("steady", 0, 2, 8, 1000);
  TenantConfig bursty = tenant("bursty", 0, 1, 8, 1000);
  bursty.queue_capacity = 128;

  FleetConfig cfg;
  FleetServer fleet({tiny_model("m", 1, {1000}, 0)}, {steady, bursty}, cfg);
  const FleetStats s =
      fleet.run({at_cycles(steady_cycles), at_cycles(burst_cycles)});
  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.tenants[0].completed, 40);
  EXPECT_EQ(s.tenants[0].rejected_queue_full, 0);
  EXPECT_EQ(s.tenants[1].completed, 100);
  // The steady tenant's tail must not absorb the flood's queueing delay.
  EXPECT_LT(s.tenants[0].latency.p99(), s.tenants[1].latency.p99());
}

// -------------------------------------------------------------- autoscale --
TEST(FleetAutoscaleTest, OscillatingLoadScalesUpAndBackDown) {
  FleetConfig cfg;
  cfg.autoscale.enabled = true;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 4;
  cfg.autoscale.up_queue_frac = 0.15;
  cfg.autoscale.down_queue_frac = 0.05;
  cfg.autoscale.up_streak = 4;
  cfg.autoscale.down_streak = 12;
  cfg.autoscale.dwell_cycles = 4000;
  cfg.autoscale.spinup_cold_cycles = 2000;
  cfg.autoscale.spinup_warm_cycles = 250;

  TenantConfig t = tenant("osc", 0, 1, 8, 1000, /*deadline=*/12000);
  const ArrivalTrace trace = ArrivalTrace::oscillating(
      /*periods=*/6, /*per_phase=*/40, /*burst=*/250, /*lull=*/3000,
      /*seed=*/11);
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)}, {t}, cfg);
  const FleetStats s = fleet.run({trace});
  ASSERT_TRUE(s.accounted());
  EXPECT_GE(s.models[0].scale_ups, 1);
  EXPECT_GE(s.models[0].scale_downs, 1);
  EXPECT_GT(s.models[0].replica_peak, 2);
  // The shared cache makes every post-first spin-up warm.
  EXPECT_GE(s.models[0].warm_spinups, 1);
  EXPECT_GT(s.models[0].spinup_cycles, 0);
  EXPECT_EQ(s.models[0].scale_ups,
            s.models[0].cold_spinups + s.models[0].warm_spinups -
                2);  // the two initial replicas spin up uncharged
  // The timeline and the stats agree.
  long long ups = 0, downs = 0;
  for (const auto& e : fleet.scale_log()) (e.up ? ups : downs) += 1;
  EXPECT_EQ(ups, s.models[0].scale_ups);
  EXPECT_EQ(downs, s.models[0].scale_downs);
}

// ------------------------------------------------ one shared worker pool --
int live_os_threads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

TEST(FleetPoolTest, ReplicasShareOneWorkerSetUnderTheThreadClamp) {
  // 8 virtual replicas, 1 real worker thread: replicas are virtual-time
  // capacity, not threads. The peak OS thread count during the run must
  // stay within dispatcher + the clamped worker set (+ the sampler and
  // whatever the process-wide kernel pool already holds) — a per-replica
  // pool would show up as ~8 extra threads here.
  std::vector<FleetModel> models;
  models.push_back(tiny_model("a", 4, {1000}, 0));
  models.push_back(tiny_model("b", 4, {800}, 0, 22));
  std::vector<TenantConfig> tenants = {tenant("ta", 0, 1, 8, 500),
                                       tenant("tb", 1, 1, 8, 400)};
  FleetConfig cfg;
  cfg.threads = 1;

  const int baseline = live_os_threads();
  ASSERT_GT(baseline, 0);
  std::atomic<bool> stop{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      const int n = live_os_threads();
      if (n > peak.load()) peak.store(n);
      std::this_thread::yield();
    }
  });

  FleetServer fleet(std::move(models), std::move(tenants), cfg);
  const FleetStats s = fleet.run(
      {ArrivalTrace::synthetic(300, 400, 5, 2.0),
       ArrivalTrace::synthetic(300, 350, 6, 2.0)});
  stop.store(true);
  sampler.join();

  ASSERT_TRUE(s.accounted());
  // dispatcher thread is the caller; budget = 1 worker + 1 sampler + the
  // process kernel pool (shared, not per-replica).
  EXPECT_LE(peak.load(),
            baseline + 2 + kernels::pool_thread_count());
  // The pool holds at most H - 1 workers; the caller is the H-th.
  EXPECT_LE(kernels::pool_thread_count(), hardware_threads() - 1);
}

// ------------------------------------------------------------ determinism --
/// The determinism fleet: two models, a steady and a bursty tenant each,
/// autoscaling on, run on `threads` workers.
FleetStats run_determinism_fleet(int threads) {
  const auto build_models = [] {
    std::vector<FleetModel> m;
    m.push_back(tiny_model("a", 2, {1600, 1000, 640}, 1));
    m.push_back(tiny_model("b", 2, {1200, 800}, 1, 22));
    return m;
  };
  std::vector<TenantConfig> tenants = {
      tenant("a/steady", 0, 2, 8, 1000, 12000),
      tenant("a/bursty", 0, 1, 8, 1000, 12000),
      tenant("b/steady", 1, 2, 8, 800, 9600),
      tenant("b/bursty", 1, 1, 8, 800, 9600)};
  const std::vector<ArrivalTrace> traces = {
      ArrivalTrace::synthetic(150, 700, 41, 2.0),
      ArrivalTrace::oscillating(4, 20, 250, 3000, 42),
      ArrivalTrace::synthetic(150, 550, 43, 2.0),
      ArrivalTrace::oscillating(4, 20, 200, 2400, 44)};

  FleetConfig cfg;
  cfg.threads = threads;
  cfg.autoscale.enabled = true;
  cfg.autoscale.max_replicas = 3;
  cfg.autoscale.up_queue_frac = 0.15;
  cfg.autoscale.dwell_cycles = 4000;
  cfg.autoscale.spinup_cold_cycles = 2000;
  cfg.autoscale.spinup_warm_cycles = 250;
  FleetServer fleet(build_models(), tenants, cfg);
  return fleet.run(traces);
}

/// The determinism fleet's response hash, pinned.
constexpr std::uint64_t kDeterminismFleetHash = 13050217049901503213ull;

TEST(FleetDeterminismTest, StatsAreByteIdenticalForAnyThreadCount) {
  std::vector<FleetStats> runs;
  for (const int threads : {1, 2, 8}) {
    runs.push_back(run_determinism_fleet(threads));
  }
  ASSERT_TRUE(runs[0].accounted());
  EXPECT_GT(runs[0].completed_total(), 0);
  // Pinned: the retry, breaker and burst paths are inert on a healthy
  // fleet, so the digest must not move when they change.
  EXPECT_EQ(runs[0].response_hash, kDeterminismFleetHash);
  EXPECT_TRUE(runs[0] == runs[1]);
  EXPECT_TRUE(runs[0] == runs[2]);
  EXPECT_EQ(runs[0].to_json(), runs[1].to_json());
  EXPECT_EQ(runs[0].to_json(), runs[2].to_json());
}

TEST(FleetDeterminismTest, ResponseHashHoldsOnTheAvx2Stamp) {
  // The pinned hash comes from the best stamp this CPU runs; the AVX2+FMA
  // stamp must serve every response byte for byte.
  if (!kernels::simd::stamp_supported(kernels::simd::Stamp::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA is not available on this CPU or build";
  }
  const kernels::simd::ScopedStampCap cap(kernels::simd::Stamp::kAvx2);
  const FleetStats stats = run_determinism_fleet(2);
  ASSERT_TRUE(stats.accounted());
  EXPECT_EQ(stats.response_hash, kDeterminismFleetHash);
}

TEST(FleetDeterminismTest, BurstOnOneModelIsThreadInvariant) {
  // One model's steady tenant carries a wedge burst over the middle third of
  // its trace; the other model runs clean. Burst-struck and fault-free
  // batches complete interleaved in one run, so the two settlement paths
  // (the struck batch's outcome read back from its worker, the clean
  // batch's response folded in later) must give the same digest for any
  // worker count.
  const auto build_models = [] {
    std::vector<FleetModel> m;
    m.push_back(tiny_model("a", 2, {1600, 1000}, 1));
    m.push_back(tiny_model("b", 2, {1200, 800}, 1, 22));
    return m;
  };
  std::vector<TenantConfig> tenants = {
      tenant("a/steady", 0, 2, 8, 1000, 12000),
      tenant("a/bursty", 0, 1, 8, 1000, 12000),
      tenant("b/steady", 1, 2, 8, 800, 9600),
      tenant("b/bursty", 1, 1, 8, 800, 9600)};
  std::vector<ArrivalTrace> traces = {
      ArrivalTrace::synthetic(150, 700, 41, 2.0),
      ArrivalTrace::oscillating(4, 20, 250, 3000, 42),
      ArrivalTrace::synthetic(150, 550, 43, 2.0),
      ArrivalTrace::oscillating(4, 20, 200, 2400, 44)};
  ArrivalTrace& struck = traces[0];
  const long long span = struck.last_arrival();
  struck.burst.from_cycle = span / 3;
  struck.burst.until_cycle = 2 * span / 3;
  struck.burst.plan.seed = 7;
  struck.burst.plan.wedge_channel = 0;
  struck.burst.plan.wedge_after_pushes = 2;

  std::vector<FleetStats> runs;
  for (const int threads : {1, 2, 8}) {
    FleetConfig cfg;
    cfg.threads = threads;
    cfg.retry.max_retries = 1;
    cfg.retry.backoff_base_cycles = 500;
    cfg.retry.backoff_cap_cycles = 2000;
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.cooldown_cycles = 2000;
    FleetServer fleet(build_models(), tenants, cfg);
    runs.push_back(fleet.run(traces));
  }
  ASSERT_TRUE(runs[0].accounted());
  EXPECT_GT(runs[0].models[0].retries, 0);  // the burst struck model a
  EXPECT_GE(runs[0].models[0].breaker_opens, 1);
  EXPECT_EQ(runs[0].models[1].retries, 0);  // model b ran clean
  EXPECT_EQ(runs[0].models[1].breaker_opens, 0);
  EXPECT_EQ(runs[0].response_hash, 4660556615126945740ull);
  EXPECT_TRUE(runs[0] == runs[1]);
  EXPECT_TRUE(runs[0] == runs[2]);
  EXPECT_EQ(runs[0].to_json(), runs[1].to_json());
  EXPECT_EQ(runs[0].to_json(), runs[2].to_json());
}

// ---------------------------------------------------------- fault domains --
using serve::HealthEvent;

fault::FleetFaultEvent strike(fault::FleetFaultKind kind, long long cycle,
                              std::size_t model, int replica) {
  fault::FleetFaultEvent e;
  e.kind = kind;
  e.cycle = cycle;
  e.model = model;
  e.replica = replica;
  return e;
}

fault::FleetFaultPlan plan_of(std::vector<fault::FleetFaultEvent> events) {
  fault::FleetFaultPlan p;
  p.events = std::move(events);
  return p;
}

/// Health-event kinds for one (model, replica), in timeline order.
std::vector<HealthEvent::Kind> kinds_for(const FleetServer& fleet,
                                         std::size_t model, int replica) {
  std::vector<HealthEvent::Kind> out;
  for (const HealthEvent& e : fleet.health_log()) {
    if (e.model == model && e.replica == replica) out.push_back(e.kind);
  }
  return out;
}

/// Index of `kind` in `kinds`, or npos — for ordering assertions.
std::size_t first_of(const std::vector<HealthEvent::Kind>& kinds,
                     HealthEvent::Kind kind) {
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == kind) return i;
  }
  return static_cast<std::size_t>(-1);
}

ArrivalTrace every(std::size_t n, long long gap) {
  std::vector<long long> cycles;
  for (std::size_t i = 0; i < n; ++i) {
    cycles.push_back(static_cast<long long>(i) * gap);
  }
  return at_cycles(cycles);
}

TEST(FleetChaosTest, WedgeWalksQuarantineProbeReadmitAndLosesNothing) {
  FleetConfig cfg;  // health on by default; hedging off
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
  const FleetStats s = fleet.run(
      {every(60, 600)},
      plan_of({strike(fault::FleetFaultKind::kWedge, 5000, 0, 0)}));

  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.tenants[0].completed, 60);  // zero lost, zero shed
  EXPECT_EQ(s.tenants[0].failed, 0);
  EXPECT_GE(s.quarantines, 1);
  EXPECT_GE(s.probes, 1);
  EXPECT_GE(s.readmits, 1);
  EXPECT_GE(s.requeued, 1);  // the wedged batch was rescued, not dropped
  EXPECT_EQ(s.unrecovered_replicas, 0);

  // The full recovery walk, in order, on the struck replica.
  const auto kinds = kinds_for(fleet, 0, 0);
  const auto wedged = first_of(kinds, HealthEvent::Kind::kWedged);
  const auto quarantined = first_of(kinds, HealthEvent::Kind::kQuarantine);
  const auto respawned = first_of(kinds, HealthEvent::Kind::kRespawn);
  const auto probed = first_of(kinds, HealthEvent::Kind::kProbe);
  const auto readmitted = first_of(kinds, HealthEvent::Kind::kReadmit);
  ASSERT_NE(readmitted, static_cast<std::size_t>(-1));
  EXPECT_LT(wedged, quarantined);
  EXPECT_LT(quarantined, respawned);
  EXPECT_LT(respawned, probed);
  EXPECT_LT(probed, readmitted);
}

TEST(FleetChaosTest, CrashDetectionIsImmediateAndRescuesInFlightWork) {
  FleetConfig cfg;
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
  const FleetStats s = fleet.run(
      {every(60, 600)},
      plan_of({strike(fault::FleetFaultKind::kCrash, 5000, 0, 1)}));

  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.tenants[0].completed, 60);
  EXPECT_GE(s.quarantines, 1);
  EXPECT_GE(s.readmits, 1);
  EXPECT_EQ(s.unrecovered_replicas, 0);
  // The virtual machine-check: quarantine lands on the crash cycle itself,
  // never a watchdog interval later.
  long long crash_cycle = -1, quarantine_cycle = -1;
  for (const HealthEvent& e : fleet.health_log()) {
    if (e.replica != 1) continue;
    if (e.kind == HealthEvent::Kind::kCrashed) crash_cycle = e.cycle;
    if (e.kind == HealthEvent::Kind::kQuarantine && quarantine_cycle < 0) {
      quarantine_cycle = e.cycle;
    }
  }
  ASSERT_GE(crash_cycle, 0);
  EXPECT_EQ(quarantine_cycle, crash_cycle);
}

TEST(FleetChaosTest, SlowReplicaIsCaughtByTheMissWindowNotTheWatchdog) {
  FleetConfig cfg;  // watchdog_factor 6 > slow_factor 4: the window decides
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
  auto slow = strike(fault::FleetFaultKind::kSlow, 3000, 0, 1);
  slow.slow_factor = 4.0;
  slow.slow_duration = 0;  // sick until quarantined
  const FleetStats s = fleet.run({every(60, 600)}, plan_of({slow}));

  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.tenants[0].completed, 60);
  EXPECT_GE(s.quarantines, 1);
  EXPECT_GE(s.readmits, 1);
  EXPECT_EQ(s.unrecovered_replicas, 0);
  const auto kinds = kinds_for(fleet, 0, 1);
  EXPECT_LT(first_of(kinds, HealthEvent::Kind::kSlowed),
            first_of(kinds, HealthEvent::Kind::kQuarantine));
  EXPECT_EQ(s.response_hash, 17197640662674072468ull);
}

TEST(FleetChaosTest, HealthDisabledLosesTheWedgedRequests) {
  // The failure mode this subsystem exists to close: with detection off, a
  // wedge's in-flight requests simply never resolve. The run terminates,
  // the books don't balance, and the replica ends the run unrecovered.
  FleetConfig cfg;
  cfg.health.enabled = false;
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
  const FleetStats s = fleet.run(
      {every(60, 600)},
      plan_of({strike(fault::FleetFaultKind::kWedge, 5000, 0, 0)}));

  EXPECT_FALSE(s.accounted());
  EXPECT_LT(s.tenants[0].completed, 60);
  EXPECT_EQ(s.quarantines, 0);
  EXPECT_EQ(s.unrecovered_replicas, 1);
  EXPECT_EQ(s.response_hash, 15718412054438178942ull);
}

TEST(FleetChaosTest, HedgingRescuesAWedgeEvenWithHealthScoringOff) {
  // Hedging alone (no watchdog, no quarantine) duplicates the straggling
  // requests onto the healthy replica; first completion wins and the books
  // balance even though the wedged replica never recovers.
  FleetConfig cfg;
  cfg.health.enabled = false;
  cfg.hedge.enabled = true;
  cfg.hedge.delay_cycles = 500;
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
  const FleetStats s = fleet.run(
      {every(60, 600)},
      plan_of({strike(fault::FleetFaultKind::kWedge, 5000, 0, 0)}));

  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.tenants[0].completed, 60);
  EXPECT_GE(s.hedges_fired, 1);
  EXPECT_GE(s.hedge_wins, 1);
  EXPECT_EQ(s.unrecovered_replicas, 1);  // still wedged — but nothing lost
}

TEST(FleetChaosTest, HedgingImprovesTheTailUnderOneSlowReplica) {
  // The bench claim, asserted functionally: same trace, same slow replica,
  // hedging on vs off. Hedged p99 must beat unhedged p99, and the duplicate
  // work must stay a small fraction of the completed volume.
  const auto run_one = [](bool hedge) {
    FleetConfig cfg;
    cfg.health.enabled = false;  // isolate hedging from quarantine rescue
    cfg.hedge.enabled = hedge;
    cfg.hedge.delay_cycles = 500;
    FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                      {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
    auto slow = strike(fault::FleetFaultKind::kSlow, 0, 0, 1);
    slow.slow_factor = 6.0;
    slow.slow_duration = 1'000'000;
    FleetStats s = fleet.run({every(80, 600)}, plan_of({slow}));
    return s;
  };
  const FleetStats off = run_one(false);
  const FleetStats on = run_one(true);
  ASSERT_TRUE(off.accounted());
  ASSERT_TRUE(on.accounted());
  EXPECT_EQ(off.hedges_fired, 0);
  EXPECT_GE(on.hedge_wins, 1);
  EXPECT_LT(on.tenants[0].latency.p99(), off.tenants[0].latency.p99());
  // Duplicate dispatches stay bounded: at most one hedge copy per request
  // (the replica is slow for the whole run here — the <5% extra-work claim
  // is the bench's transient-burst scenario, not this saturated one).
  EXPECT_LT(on.hedges_fired, on.tenants[0].completed);
  EXPECT_EQ(off.response_hash, 4957564238985409953ull);
  EXPECT_EQ(on.response_hash, 16625465179805558507ull);
}

TEST(FleetChaosTest, CorruptBundleIsScrubbedOnTheRespawnLease) {
  // Corruption alone is latent — it is the next lease that detects it. The
  // wedge's quarantine-respawn re-acquires the home rung, trips the CRC
  // guard, and rebuilds the resident copy without invalidating peers.
  FleetConfig cfg;
  FleetServer fleet({tiny_model("m", 2, {1000}, 0)},
                    {tenant("t", 0, 1, /*cap=*/4, /*age=*/0)}, cfg);
  auto corrupt = strike(fault::FleetFaultKind::kCorruptBundle, 3000, 0, 0);
  corrupt.rung = -1;  // the model's home rung
  const FleetStats s = fleet.run(
      {every(60, 600)},
      plan_of({corrupt,
               strike(fault::FleetFaultKind::kWedge, 8000, 0, 0)}));

  ASSERT_TRUE(s.accounted());
  EXPECT_EQ(s.tenants[0].completed, 60);
  EXPECT_GE(s.bundles_scrubbed, 1);
  EXPECT_EQ(s.bundles_scrubbed, s.cache.scrubs);
  const auto log = fleet.health_log();
  bool corrupted = false, scrubbed = false;
  for (const HealthEvent& e : log) {
    if (e.kind == HealthEvent::Kind::kCorrupted) {
      corrupted = true;
      EXPECT_EQ(e.replica, -1);  // a cache event, not a replica event
    }
    if (e.kind == HealthEvent::Kind::kScrub) scrubbed = true;
  }
  EXPECT_TRUE(corrupted);
  EXPECT_TRUE(scrubbed);
}

TEST(FleetChaosTest, CorruptionFaultsRequireTheSharedCache) {
  FleetConfig cfg;
  cfg.share_prepack = false;
  FleetServer fleet({tiny_model("m", 1, {1000}, 0)},
                    {tenant("t", 0, 1, 4, 0)}, cfg);
  EXPECT_THROW(
      (void)fleet.run(
          {every(4, 600)},
          plan_of({strike(fault::FleetFaultKind::kCorruptBundle, 100, 0,
                          0)})),
      ServeError);
}

TEST(FleetChaosTest, ChaosStatsAreByteIdenticalForAnyThreadCount) {
  const auto build_models = [] {
    std::vector<FleetModel> m;
    m.push_back(tiny_model("a", 2, {1600, 1000, 640}, 1));
    m.push_back(tiny_model("b", 2, {1200, 800}, 1, 22));
    return m;
  };
  std::vector<TenantConfig> tenants = {
      tenant("a/steady", 0, 2, 8, 1000, 12000),
      tenant("a/bursty", 0, 1, 8, 1000, 12000),
      tenant("b/steady", 1, 2, 8, 800, 9600),
      tenant("b/bursty", 1, 1, 8, 800, 9600)};
  const std::vector<ArrivalTrace> traces = {
      ArrivalTrace::synthetic(150, 700, 41, 2.0),
      ArrivalTrace::oscillating(4, 20, 250, 3000, 42),
      ArrivalTrace::synthetic(150, 550, 43, 2.0),
      ArrivalTrace::oscillating(4, 20, 200, 2400, 44)};
  const fault::FleetFaultPlan plan =
      fault::make_fleet_campaign("mix", 5, 2, 2, 1000);

  std::vector<FleetStats> runs;
  for (const int threads : {1, 2, 8}) {
    FleetConfig cfg;
    cfg.threads = threads;
    cfg.hedge.enabled = true;
    cfg.hedge.delay_cycles = 300;
    cfg.autoscale.enabled = true;
    cfg.autoscale.max_replicas = 3;
    cfg.autoscale.up_queue_frac = 0.15;
    cfg.autoscale.dwell_cycles = 4000;
    cfg.autoscale.spinup_cold_cycles = 2000;
    cfg.autoscale.spinup_warm_cycles = 250;
    FleetServer fleet(build_models(), tenants, cfg);
    runs.push_back(fleet.run(traces, plan));
  }
  ASSERT_TRUE(runs[0].accounted());
  EXPECT_GE(runs[0].quarantines, 1);  // the campaign actually struck
  EXPECT_GE(runs[0].readmits, 1);
  EXPECT_GE(runs[0].bundles_scrubbed, 1);
  // Pinned: no campaign strike is an execution failure, so the retry and
  // breaker paths stay inert under chaos too.
  EXPECT_EQ(runs[0].response_hash, 9113157340383100524ull);
  EXPECT_TRUE(runs[0] == runs[1]);
  EXPECT_TRUE(runs[0] == runs[2]);
  EXPECT_EQ(runs[0].to_json(), runs[1].to_json());
  EXPECT_EQ(runs[0].to_json(), runs[2].to_json());
}

// -------------------------------------------------------- canned campaigns --
TEST(FleetCampaignTest, BuilderIsDeterministicPerSeedAndValidates) {
  const auto a = fault::make_fleet_campaign("wedge+corrupt", 7, 2, 2, 1000);
  const auto b = fault::make_fleet_campaign("wedge+corrupt", 7, 2, 2, 1000);
  ASSERT_EQ(a.events.size(), 2u);
  ASSERT_EQ(b.events.size(), 2u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].cycle, b.events[i].cycle);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].model, b.events[i].model);
    EXPECT_EQ(a.events[i].replica, b.events[i].replica);
  }
  // A different seed jitters the strike cycles, not the campaign shape.
  const auto c = fault::make_fleet_campaign("wedge+corrupt", 8, 2, 2, 1000);
  ASSERT_EQ(c.events.size(), 2u);
  EXPECT_EQ(c.events[0].kind, a.events[0].kind);
  bool any_moved = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    any_moved |= c.events[i].cycle != a.events[i].cycle;
  }
  EXPECT_TRUE(any_moved);
  // "mix" expands to all four kinds.
  EXPECT_EQ(fault::make_fleet_campaign("mix", 1, 4, 2, 1000).events.size(),
            4u);

  EXPECT_THROW(fault::make_fleet_campaign("bogus", 1, 2, 2, 1000),
               ParseError);
  EXPECT_THROW(fault::make_fleet_campaign("", 1, 2, 2, 1000), ParseError);
  EXPECT_THROW(fault::make_fleet_campaign("mix", 1, 0, 2, 1000),
               ValidationError);
}

// ------------------------------------------------------- bundle CRC guard --
TEST_F(PrepackShareTest, CacheScrubsAVirtuallyCorruptedResident) {
  PrepackCache cache(/*share=*/true);
  const PrepackCache::Builder build = [&] {
    FusionPipeline p(net_, ws_);
    return p.shared_prepack();
  };
  const auto l1 = cache.acquire("m/r0", build);
  ASSERT_FALSE(l1.hit);
  EXPECT_FALSE(cache.corrupt_resident("nope"));  // unknown key: no-op
  ASSERT_TRUE(cache.corrupt_resident("m/r0"));

  const auto l2 = cache.acquire("m/r0", build);
  EXPECT_FALSE(l2.hit);  // a scrub is a miss: the constants were re-derived
  EXPECT_TRUE(l2.scrubbed);
  EXPECT_NE(l1.bundle.get(), l2.bundle.get());
  EXPECT_EQ(cache.stats().scrubs, 1);
  // The peer holding the old pointer was never invalidated...
  EXPECT_EQ(cache.refcount("m/r0"), 2);

  // ...a post-scrub acquire is an ordinary hit on the fresh copy...
  const auto l3 = cache.acquire("m/r0", build);
  EXPECT_TRUE(l3.hit);
  EXPECT_FALSE(l3.scrubbed);
  EXPECT_EQ(l3.bundle.get(), l2.bundle.get());

  cache.release(l1);  // ...and every release still balances.
  cache.release(l2);
  cache.release(l3);
  EXPECT_EQ(cache.refcount("m/r0"), 0);
}

TEST_F(PrepackShareTest, CacheCrcCatchesARealBitFlip) {
  PrepackCache cache(/*share=*/true);
  const PrepackCache::Builder build = [&] {
    FusionPipeline p(net_, ws_);
    return p.shared_prepack();
  };
  const auto l1 = cache.acquire("m/r0", build);
  // Flip one real constant byte in the resident copy (single-threaded:
  // nothing is streaming the bundle, so the mutation itself is safe).
  auto* b = const_cast<arch::PrepackBundle*>(l1.bundle.get());
  bool flipped = false;
  for (const auto& p : b->packed) {
    if (p && p->pblocks() > 0 && p->iblocks() > 0 &&
        !p->block(0, 0).empty()) {
      const_cast<float&>(p->block(0, 0)[0]) += 1.0f;
      flipped = true;
      break;
    }
  }
  if (!flipped) {
    for (const auto& p : b->wino) {
      if (p && !p->planes.empty() && p->planes[0].pblocks() > 0 &&
          p->planes[0].iblocks() > 0 && !p->planes[0].block(0, 0).empty()) {
        const_cast<double&>(p->planes[0].block(0, 0)[0]) += 1.0;
        flipped = true;
        break;
      }
    }
  }
  ASSERT_TRUE(flipped);

  const auto l2 = cache.acquire("m/r0", build);
  EXPECT_TRUE(l2.scrubbed);
  EXPECT_EQ(cache.stats().scrubs, 1);
  cache.release(l1);
  cache.release(l2);
}

// -------------------------------------------------- breaker as quarantine --
TEST(BreakerForceOpenTest, ForceOpenWalksTheOrdinaryProbationPath) {
  serve::BreakerConfig bc;
  bc.probe_successes = 1;
  serve::CircuitBreaker br(bc);
  EXPECT_EQ(br.state(0), serve::BreakerState::kClosed);

  br.force_open(100, 400);  // cooldown = the respawn spin-up
  EXPECT_EQ(br.state(100), serve::BreakerState::kOpen);
  EXPECT_FALSE(br.try_acquire_probe(200));  // still spinning up

  EXPECT_EQ(br.state(500), serve::BreakerState::kHalfOpen);
  EXPECT_TRUE(br.try_acquire_probe(500));
  EXPECT_FALSE(br.try_acquire_probe(500));  // single probe slot

  br.record_success(510);
  EXPECT_EQ(br.state(510), serve::BreakerState::kClosed);
}

}  // namespace
}  // namespace hetacc
