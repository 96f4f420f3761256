// FLEET: multi-model fleet-serving characterization for DESIGN.md §15.
// Drives the same multi-tenant traces (three models, each with a steady
// stream and a bursty oscillator) through the FleetServer under three
// conditions and quantifies the two fleet mechanisms:
//
//   fleet-batch1       dynamic batching off (cap 1) — the per-request
//                      setup cost is paid on every request
//   fleet-batched      batching on (cap 8, one-service-time age budget)
//   fleet-copies       batching on, shared prepack cache off — every
//                      replica packs its own bundle (the per-replica-copy
//                      memory baseline)
//   fleet-autoscale    batching + sharing + replica autoscale, for the
//                      cold-vs-warm spin-up numbers
//   fleet-faultburst   a 6x slow burst on one model-0 replica, hedging off
//   fleet-hedged       the same burst with deterministic request hedging
//
// Exit status asserts the §15 claims — dynamic batching buys >= 1.3x
// virtual-time throughput over batch=1 at an equal-or-better deadline-miss
// rate, and the shared cache keeps strictly fewer resident bytes than
// replicas x per-replica copies — plus the §16 claim that hedging beats the
// unhedged p99 on the struck model at < 5% duplicated work. Those claims are
// virtual-time figures; the wall-clock ones come from running every scenario
// kRounds times in alternating rounds, reported as the median and quartiles
// of wall_ms and req_per_s, and the exit status also asserts that every
// round's FleetStats equal the first round's. Emits a table and
// BENCH_fleet.json with all verdicts, stamped with the core count, the SIMD
// stamp and kernels::machine_topology_key().

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fault/fleet_fault.h"
#include "kernels/blocking.h"
#include "kernels/gemm.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "serve_common.h"
#include "support/hardware.h"

using namespace hetacc;

namespace {

/// Repetitions of every scenario.
constexpr int kRounds = 5;

/// Three single-rung models (no regime descent, so the batch1-vs-batched
/// delta is batching alone) over the tiny functional testbed.
std::vector<serve::FleetModel> make_models(int replicas) {
  const long long service[3] = {1000, 800, 1200};
  std::vector<serve::FleetModel> models;
  for (int m = 0; m < 3; ++m) {
    serve::FleetModel fm;
    fm.name = "model-" + std::to_string(m);
    fm.net = nn::tiny_net(4, 16);
    fm.ws = nn::WeightStore::deterministic(fm.net, 21 + m);
    serve::ServingMode home;
    home.label = "home";
    home.service_cycles = service[m];
    fm.ladder.rungs = {std::move(home)};
    fm.ladder.home = 0;
    fm.replicas = replicas;
    models.push_back(std::move(fm));
  }
  return models;
}

struct Scenario {
  serve::FleetStats stats;
  long long submitted = 0;
  long long misses = 0;  ///< deadline misses + deadline sheds
  double throughput = 0.0;  ///< completed per kilo-cycle of virtual time
};

long long miss_count(const serve::FleetStats& s) {
  long long m = 0;
  for (const auto& t : s.tenants) m += t.deadline_misses + t.shed_deadline;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoull(argv[1]) : 1500;
  const int replicas = 2;
  bench::header("FLEET", "multi-model fleet: batching + shared prepack cache");

  // Per model: a steady stream plus a bursty oscillator, together arriving
  // faster than the batch=1 pool can drain (2 replicas / service) but near
  // what batching unlocks — the regime where amortizing the per-batch setup
  // is the difference between shedding and keeping up.
  std::vector<serve::TenantConfig> tenants;
  std::vector<serve::ArrivalTrace> traces;
  const auto models = make_models(replicas);
  for (std::size_t m = 0; m < models.size(); ++m) {
    const long long svc = models[m].ladder.rungs[0].service_cycles;
    serve::TenantConfig steady;
    steady.name = models[m].name + "/steady";
    steady.model = m;
    steady.weight = 2;
    steady.queue_capacity = 32;
    steady.deadline_cycles = 12 * svc;
    steady.batch_cap = 8;
    steady.batch_age_cycles = svc;
    serve::TenantConfig bursty = steady;
    bursty.name = models[m].name + "/bursty";
    bursty.weight = 1;
    tenants.push_back(std::move(steady));
    traces.push_back(serve::ArrivalTrace::synthetic(
        n, /*mean=*/2 * svc / 5, /*seed=*/31 + 2 * m, /*surge=*/2.0));
    tenants.push_back(std::move(bursty));
    traces.push_back(serve::ArrivalTrace::oscillating(
        /*periods=*/8, /*per_phase=*/n / 16 > 4 ? n / 16 : 4,
        /*burst=*/svc / 4, /*lull=*/3 * svc / 2, /*seed=*/32 + 2 * m));
  }
  std::printf("%zu models x %d replicas, %zu tenants, ~%zu requests each\n\n",
              models.size(), replicas, tenants.size(), n);

  // Every scenario is a fresh FleetServer over the same traces, so every
  // repetition must report the same FleetStats; only wall time varies.
  const auto fleet_run = [&](std::size_t batch_cap, bool share,
                             bool autoscale) {
    serve::FleetConfig cfg;
    cfg.threads = 0;
    cfg.share_prepack = share;
    cfg.batch_setup_frac = 0.5;
    cfg.autoscale.enabled = autoscale;
    cfg.autoscale.max_replicas = replicas + 2;
    cfg.autoscale.up_queue_frac = 0.15;
    cfg.autoscale.dwell_cycles = 4000;
    cfg.autoscale.spinup_cold_cycles = 2000;
    cfg.autoscale.spinup_warm_cycles = 250;
    auto ts = tenants;
    if (batch_cap == 1) {
      for (auto& t : ts) {
        t.batch_cap = 1;
        t.batch_age_cycles = 0;
      }
    }
    serve::FleetServer fleet(make_models(replicas), std::move(ts), cfg);
    double wall_ms = 0.0;
    serve::FleetStats stats =
        bench::timed_ms(wall_ms, [&] { return fleet.run(traces); });
    return std::make_pair(std::move(stats), wall_ms);
  };
  // Fault-burst rows (DESIGN.md §16): one replica of model-0 runs 6x slow
  // for a ~100k-cycle burst mid-run. Hedging must pull the struck model's
  // p99 back down while duplicating only a small fraction of the work —
  // the whole point of hedging stragglers instead of replicating requests.
  const auto burst_run = [&](bool hedge) {
    serve::FleetConfig cfg;
    cfg.threads = 0;
    cfg.batch_setup_frac = 0.5;
    cfg.health.enabled = false;  // isolate hedging from quarantine rescue
    cfg.hedge.enabled = hedge;
    cfg.hedge.delay_cycles = 250;
    fault::FleetFaultPlan plan;
    fault::FleetFaultEvent slow;
    slow.kind = fault::FleetFaultKind::kSlow;
    slow.cycle = 100'000;
    slow.model = 0;
    slow.replica = 1;
    slow.slow_factor = 6.0;
    slow.slow_duration = 100'000;
    plan.events.push_back(slow);
    serve::FleetServer fleet(make_models(replicas), tenants, cfg);
    double wall_ms = 0.0;
    serve::FleetStats stats =
        bench::timed_ms(wall_ms, [&] { return fleet.run(traces, plan); });
    return std::make_pair(std::move(stats), wall_ms);
  };
  const std::vector<
      std::pair<std::string,
                std::function<std::pair<serve::FleetStats, double>()>>>
      specs = {
          {"fleet-batch1", [&] { return fleet_run(1, true, false); }},
          {"fleet-batched", [&] { return fleet_run(8, true, false); }},
          {"fleet-copies", [&] { return fleet_run(8, false, false); }},
          {"fleet-autoscale", [&] { return fleet_run(8, true, true); }},
          {"fleet-faultburst", [&] { return burst_run(false); }},
          {"fleet-hedged", [&] { return burst_run(true); }},
      };

  // Rounds of one run per scenario, so drift in the machine's speed lands
  // on every scenario alike; each scenario's wall time and request rate are
  // the median and quartiles over its rounds.
  std::vector<Scenario> sc(specs.size());
  std::vector<std::vector<double>> wall(specs.size()), rate(specs.size());
  bool repeatable = true;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto [stats, wall_ms] = specs[i].second();
      wall[i].push_back(wall_ms);
      rate[i].push_back(bench::req_per_s(stats.completed_total(), wall_ms));
      if (round == 0) {
        sc[i].stats = std::move(stats);
      } else if (!(stats == sc[i].stats)) {
        repeatable = false;
        std::printf("  %s: round %d's FleetStats differ from round 0's\n",
                    specs[i].first.c_str(), round);
      }
    }
  }

  std::vector<bench::ServeRecord> recs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Scenario& s = sc[i];
    for (const auto& t : s.stats.tenants) s.submitted += t.submitted;
    s.misses = miss_count(s.stats);
    s.throughput = s.stats.makespan_cycles > 0
                       ? 1000.0 *
                             static_cast<double>(s.stats.completed_total()) /
                             static_cast<double>(s.stats.makespan_cycles)
                       : 0.0;
    const bench::Quartiles w = bench::quartiles(wall[i]);
    const bench::Quartiles q = bench::quartiles(rate[i]);
    bench::ServeRecord r{.scenario = specs[i].first,
                         .stats_json = s.stats.to_json(),
                         .wall_ms = w.median,
                         .req_per_s = q.median,
                         .wall = w,
                         .rate = q,
                         .reps = kRounds};
    // The struck model's tail: worst p99 over model-0's two tenants.
    const long long p99 = std::max(s.stats.tenants[0].latency.p99(),
                                   s.stats.tenants[1].latency.p99());
    std::printf("  %-16s %6lld ok  %5lld missed/shed  %7.3f req/kcyc  "
                "model-0 p99 %6lld  %4lld hedges  cache %6lld B  "
                "%8.1f req/s [%.1f, %.1f]  %s\n",
                r.scenario.c_str(), s.stats.completed_total(), s.misses,
                s.throughput, p99, s.stats.hedges_fired,
                s.stats.cache.resident_bytes, r.rate.median, r.rate.p25,
                r.rate.p75,
                s.stats.accounted() ? "accounted" : "LOST REQUESTS");
    recs.push_back(std::move(r));
  }
  const Scenario& batch1 = sc[0];
  const Scenario& batched = sc[1];
  const Scenario& copies = sc[2];
  const Scenario& scaled = sc[3];
  const Scenario& unhedged = sc[4];
  const Scenario& hedged = sc[5];

  // Claim (a): batching amortizes the per-batch setup into >= 1.3x
  // virtual-time throughput without trading deadline quality away.
  const double speedup =
      batch1.throughput > 0.0 ? batched.throughput / batch1.throughput : 0.0;
  const double miss1 = batch1.submitted > 0
                           ? static_cast<double>(batch1.misses) /
                                 static_cast<double>(batch1.submitted)
                           : 0.0;
  const double missb = batched.submitted > 0
                           ? static_cast<double>(batched.misses) /
                                 static_cast<double>(batched.submitted)
                           : 0.0;
  // Claim (b): sharing keeps one bundle per (model, rung) resident instead
  // of one per replica.
  const long long shared_bytes = batched.stats.cache.resident_bytes;
  const long long copy_bytes = copies.stats.cache.resident_bytes;
  const bool batching_ok = speedup >= 1.3 && missb <= miss1;
  const bool cache_ok = shared_bytes < copy_bytes;
  // Claim (c): under the slow-replica burst, hedging beats the unhedged
  // tail on the struck model at < 5% duplicated work.
  const long long p99_unhedged =
      std::max(unhedged.stats.tenants[0].latency.p99(),
               unhedged.stats.tenants[1].latency.p99());
  const long long p99_hedged =
      std::max(hedged.stats.tenants[0].latency.p99(),
               hedged.stats.tenants[1].latency.p99());
  const double extra_work =
      hedged.stats.completed_total() > 0
          ? static_cast<double>(hedged.stats.hedges_fired) /
                static_cast<double>(hedged.stats.completed_total())
          : 1.0;
  const bool hedging_ok = p99_hedged < p99_unhedged && extra_work < 0.05;

  std::printf("\nbatching: %.2fx throughput vs batch=1 (miss rate %.3f vs "
              "%.3f) -> %s\n",
              speedup, missb, miss1, batching_ok ? "ok" : "FAIL");
  std::printf("sharing:  %lld bytes resident vs %lld per-replica copies "
              "(%d replicas) -> %s\n",
              shared_bytes, copy_bytes, replicas, cache_ok ? "ok" : "FAIL");
  std::printf("hedging:  model-0 p99 %lld hedged vs %lld unhedged under the "
              "slow burst (%.1f%% extra work) -> %s\n",
              p99_hedged, p99_unhedged, 100.0 * extra_work,
              hedging_ok ? "ok" : "FAIL");
  std::printf("spin-ups: %lld cold / %lld warm across the autoscale run\n",
              scaled.stats.models[0].cold_spinups +
                  scaled.stats.models[1].cold_spinups +
                  scaled.stats.models[2].cold_spinups,
              scaled.stats.models[0].warm_spinups +
                  scaled.stats.models[1].warm_spinups +
                  scaled.stats.models[2].warm_spinups);
  std::printf("repeat:   %d rounds per scenario, FleetStats %s\n", kRounds,
              repeatable ? "identical in every round" : "DIFFER");

  std::FILE* f = std::fopen("BENCH_fleet.json", "w");
  if (f) {
    std::fprintf(f,
                 "{\"batching_speedup\": %.3f, \"batch1_miss_rate\": %.4f, "
                 "\"batched_miss_rate\": %.4f, \"batching_ok\": %s, "
                 "\"shared_resident_bytes\": %lld, "
                 "\"replica_copy_resident_bytes\": %lld, \"cache_ok\": %s, "
                 "\"p99_unhedged\": %lld, \"p99_hedged\": %lld, "
                 "\"hedge_extra_work\": %.4f, \"hedging_ok\": %s, "
                 "\"rounds\": %d, \"repeatable\": %s, \"nproc\": %u, "
                 "\"simd_stamp\": \"%s\", \"machine_topology_key\": \"%s\", "
                 "\"scenarios\": %s}\n",
                 speedup, miss1, missb, batching_ok ? "true" : "false",
                 shared_bytes, copy_bytes, cache_ok ? "true" : "false",
                 p99_unhedged, p99_hedged, extra_work,
                 hedging_ok ? "true" : "false", kRounds,
                 repeatable ? "true" : "false", hardware_threads(),
                 kernels::simd_stamp(),
                 kernels::machine_topology_key().c_str(),
                 bench::records_json(recs).c_str());
    std::fclose(f);
    std::printf("wrote BENCH_fleet.json (%zu scenarios)\n", recs.size());
  } else {
    std::printf("warning: cannot open BENCH_fleet.json for writing\n");
  }

  const bool accounted =
      batch1.stats.accounted() && batched.stats.accounted() &&
      copies.stats.accounted() && scaled.stats.accounted() &&
      unhedged.stats.accounted() && hedged.stats.accounted();
  return accounted && repeatable && batching_ok && cache_ok && hedging_ok
             ? 0
             : 1;
}
