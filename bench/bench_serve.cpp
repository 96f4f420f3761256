// SRV: resilient-serving-runtime characterization for DESIGN.md §11/§14.
// Drives the same synthetic arrival trace through a one-model, one-tenant,
// batch-cap-1 FleetServer (the `hetacc --serve` shape) under three
// conditions — healthy, mid-trace fault burst (wedged primary), and
// fallback-only — and reports the virtual-time service quality (p50/p99
// latency, degraded share, retries) next to the real wall-clock execution
// throughput of the worker pool. The fault-burst row quantifies the price
// of resilience: how much tail latency the retry + breaker machinery spends
// to keep zero requests lost. A second section pits the degradation ladder
// against shed-everything and the binary pair on an oscillating-overload
// trace (the §14 hot-swap scenario) and on a burst-then-calm recovery
// trace. Emits a table and BENCH_serve.json; exits non-zero unless every
// row is accounted, the burst row lost nothing, served degraded and ended
// with the breaker closed, and the ladder beat shed-everything.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nn/model_zoo.h"
#include "serve/fleet.h"
#include "serve_common.h"

using namespace hetacc;

namespace {

serve::FleetConfig config() {
  serve::FleetConfig cfg;
  cfg.threads = 0;
  cfg.health.enabled = false;
  cfg.retry.max_retries = 2;
  cfg.retry.backoff_base_cycles = 500;
  cfg.retry.backoff_cap_cycles = 4000;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_cycles = 4000;
  return cfg;
}

serve::TenantConfig tenant(std::size_t queue, long long deadline) {
  serve::TenantConfig t;
  t.name = "serve";
  t.queue_capacity = queue;
  t.deadline_cycles = deadline;
  t.batch_cap = 1;
  t.batch_age_cycles = 0;
  return t;
}

serve::ServingMode mode(long long cycles, const char* label) {
  serve::ServingMode m;
  m.service_cycles = cycles;  // empty choices = all-conventional float
  m.label = label;
  return m;
}

struct Outcome {
  serve::FleetStats stats;
  bool breaker_closed = true;  ///< no breaker move, or the last one closed
};

const serve::TenantStats& req(const Outcome& o) { return o.stats.tenants[0]; }

long long within_deadline(const Outcome& o) {
  return req(o).completed - req(o).deadline_misses;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoull(argv[1]) : 2000;
  bench::header("SRV", "serving runtime: healthy vs fault burst vs fallback");

  const nn::Network net = nn::tiny_net(4, 16);
  const auto ws = nn::WeightStore::deterministic(net, 21);

  const serve::ArrivalTrace healthy = serve::ArrivalTrace::synthetic(
      n, /*mean=*/1200, /*seed=*/17, /*surge=*/2.0);
  serve::ArrivalTrace burst = healthy;
  burst.burst.from_cycle = burst.last_arrival() / 3;
  burst.burst.until_cycle = 2 * burst.last_arrival() / 3;
  burst.burst.plan.seed = 17;
  burst.burst.plan.wedge_channel = 0;
  burst.burst.plan.wedge_after_pushes = 2;

  std::vector<bench::ServeRecord> recs;
  const auto run = [&](const std::string& name,
                       const serve::ArrivalTrace& trace,
                       serve::ServingLadder ladder,
                       const serve::TenantConfig& t,
                       const serve::FleetConfig& cfg) {
    std::vector<serve::FleetModel> models;
    models.push_back({"serve", net, ws, std::move(ladder), /*replicas=*/2});
    serve::FleetServer server(std::move(models), {t}, cfg);
    double wall_ms = 0.0;
    Outcome o;
    o.stats = bench::timed_ms(wall_ms, [&] { return server.run({trace}); });
    const auto& log = server.breaker_logs()[0];
    o.breaker_closed =
        log.empty() || log.back().to == serve::BreakerState::kClosed;
    const serve::TenantStats& s = req(o);
    const serve::ModelStats& m = o.stats.models[0];
    bench::ServeRecord r{name, o.stats.to_json(), wall_ms,
                         bench::req_per_s(s.completed, wall_ms)};
    std::printf(
        "  %-12s %6lld ok (%4lld degraded) %4lld retries  p50 %7lld  "
        "p99 %7lld cyc  %8.1f req/s  %s\n",
        name.c_str(), s.completed, s.completed_degraded, m.retries,
        s.latency.p50(), s.latency.p99(), r.req_per_s,
        o.stats.accounted() ? "accounted" : "LOST REQUESTS");
    recs.push_back(std::move(r));
    return o;
  };

  // The pair the binary server degrades between: the primary at home and
  // the pre-hardened fallback above it.
  const auto pair_of = [](serve::ServingMode home_mode) {
    serve::ServingLadder l;
    l.rungs = {mode(1600, "fallback"), std::move(home_mode)};
    l.home = 1;
    return l;
  };
  const serve::TenantConfig open_tenant = tenant(64, /*deadline=*/0);

  std::printf("%zu requests, 2 replicas, primary 1000 / fallback 1600 "
              "cycles per request\n\n",
              n);
  const Outcome h = run("healthy", healthy, pair_of(mode(1000, "primary")),
                        open_tenant, config());
  const Outcome b = run("fault-burst", burst, pair_of(mode(1000, "primary")),
                        open_tenant, config());
  // Fallback-only: what the degraded strategy alone would deliver — the
  // lower bound the breaker degrades toward.
  const Outcome s_fb = run("fallback", healthy,
                           pair_of(mode(1600, "fallback")), open_tenant,
                           config());
  std::printf(
      "\nfault-burst delta vs healthy: p99 %+lld cycles, %lld retried, "
      "%lld served degraded, %lld failed, breaker %lld opens / %lld closes, "
      "ends %s\n",
      req(b).latency.p99() - req(h).latency.p99(), b.stats.models[0].retries,
      req(b).completed_degraded, req(b).failed,
      b.stats.models[0].breaker_opens, b.stats.models[0].breaker_closes,
      b.breaker_closed ? "closed" : "NOT CLOSED");

  // ---- degradation ladder vs shed-everything under oscillating overload.
  // Burst arrivals (one per 400 cycles) land between the 2-replica home
  // capacity (one per 500) and the int8 rung's (one per 320): the primary
  // drowns, the deep rung keeps up. The ladder may hot-swap onto the
  // 640-cycle int8 rung; the binary pair and the shed-only server must
  // ride out the bursts at home.
  std::printf("\nladder under oscillating overload (deadline 4000 cycles)\n\n");
  const std::size_t per_phase = n / 8 > 8 ? n / 8 : 8;
  const serve::ArrivalTrace osc = serve::ArrivalTrace::oscillating(
      /*periods=*/4, per_phase, /*burst=*/400, /*lull=*/2000, /*seed=*/11);
  // One long burst, then a long calm tail: how fast the dwell-gated ascent
  // returns to home after sustained pressure.
  const serve::ArrivalTrace recovery = serve::ArrivalTrace::oscillating(
      /*periods=*/1, 2 * per_phase, /*burst=*/400, /*lull=*/2000,
      /*seed=*/13);

  serve::FleetConfig ladder_cfg = config();
  ladder_cfg.retry.backoff_base_cycles = 125;
  // Load axis only: the fault rows above already characterize the breaker,
  // and the overload traces carry no fault burst.
  ladder_cfg.breaker.failure_threshold = 1 << 20;
  const serve::TenantConfig slo_tenant = tenant(32, /*deadline=*/4000);

  serve::ServingLadder three;
  three.rungs = {mode(1600, "protected"), mode(1000, "primary"),
                 mode(640, "int8")};
  three.home = 1;
  serve::ServingLadder shed;
  shed.rungs = {mode(1000, "primary")};
  shed.home = 0;

  const auto run_ladder = [&](const std::string& name,
                              const serve::ArrivalTrace& trace,
                              serve::ServingLadder l) {
    const Outcome o = run(name, trace, std::move(l), slo_tenant, ladder_cfg);
    std::printf("  %-12s %6lld within deadline, %lld shed, "
                "%lld rung moves\n",
                "", within_deadline(o), req(o).shed_deadline,
                o.stats.models[0].rung_transitions);
    return o;
  };

  const Outcome s_shed = run_ladder("over-shed", osc, shed);
  const Outcome s_pair =
      run_ladder("over-binary", osc, pair_of(mode(1000, "primary")));
  const Outcome s_ladd = run_ladder("over-ladder", osc, three);
  const Outcome s_recv = run_ladder("burst-recover", recovery, three);

  const long long wd_shed = within_deadline(s_shed);
  const long long wd_ladd = within_deadline(s_ladd);
  std::printf(
      "\nladder delta: %+lld within-deadline vs shed-everything, "
      "%+lld vs binary pair; recovery run ended after %lld rung moves\n",
      wd_ladd - wd_shed, wd_ladd - within_deadline(s_pair),
      s_recv.stats.models[0].rung_transitions);

  bench::write_serve_json(recs, "BENCH_serve.json");
  const bool ok = h.stats.accounted() && b.stats.accounted() &&
                  s_fb.stats.accounted() && s_shed.stats.accounted() &&
                  s_pair.stats.accounted() && s_ladd.stats.accounted() &&
                  s_recv.stats.accounted() &&
                  // Resilience: the burst is absorbed — nothing failed,
                  // the breaker routed around it and recovered.
                  req(b).failed == 0 && req(b).completed_degraded > 0 &&
                  b.stats.models[0].breaker_opens > 0 && b.breaker_closed &&
                  // The whole point of the ladder: degraded-rung service
                  // beats shedding everything the primary cannot absorb.
                  wd_ladd > wd_shed;
  return ok ? 0 : 1;
}
