#pragma once
// The serving runtime over the single-dispatcher virtual-time loop
// (DESIGN.md §11/§14/§15). One FleetServer owns M models, each with its own
// degradation ladder and a pool of replicas, serving T tenants whose
// arrival traces interleave on one virtual clock. `hetacc --serve` is the
// one-model, one-tenant, batch-cap-1 case of the same loop.
//
//  * shared prepack cache — replicas of the same (model, rung) alias one
//    refcounted PrepackBundle (serve/prepack_cache.h) instead of each
//    packing its own panels; cold spin-ups build the bundle, warm spin-ups
//    adopt it, and both the bytes saved and the spin-up cycles saved are
//    reported.
//  * dynamic batching — the dispatcher coalesces queued same-(model, rung)
//    requests into one batch per free replica, closed by a deterministic
//    rule: pending >= the tenants' batch cap, OR virtual-time age (the
//    oldest pending request's arrival + its tenant's batch-age budget has
//    passed). Batch service time follows svc(b) = setup + b*(service -
//    setup) with setup = service * batch_setup_frac, so svc(1) == service
//    exactly and batching amortizes the setup fraction.
//  * weighted-fair admission — per-tenant bounded queues drained by deficit
//    round-robin (quantum = tenant weight, cost 1 per request), so a bursty
//    tenant saturates its own queue, not its neighbors' service share.
//  * degradation ladders per (model, replica) — each replica runs its own
//    RegimeController on the model's ladder, descending under queue and
//    deadline pressure with the existing dwell-gated hysteresis.
//  * trace fault bursts, retries and a per-model breaker — a burst on a
//    tenant's trace strikes its model's home design; a failed home-rung
//    batch retries after capped exponential backoff on a reset() pipeline,
//    then on the conservative rung; the model's CircuitBreaker, fed by
//    home-rung execution outcomes only, moves every replica off home while
//    open and probes home with one batch when half-open.
//  * autoscale — streaks of pressure (queue above the up-watermark at
//    arrivals) add replicas, streaks of idleness retire them, both gated by
//    a per-model dwell so an oscillating trace cannot thrash the pool.
//
// Determinism contract: every stats-bearing decision — admission, DRR
// order, batch composition and close cycle, rung moves, retries, breaker
// moves, scale moves, cache hits — is made by the dispatcher thread in
// virtual time, so FleetStats (histograms, hash, timelines included) is
// byte-identical for any worker-thread count. Worker threads only grind the
// functional pipeline work that yields each response's CRC (or the fault
// a burst provokes).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/pipeline.h"
#include "fault/fleet_fault.h"
#include "serve/breaker.h"
#include "serve/prepack_cache.h"
#include "serve/regime.h"
#include "serve/stats.h"
#include "serve/trace.h"

namespace hetacc::serve {

/// One strategy a model can serve from: per-layer algorithm choices for
/// the functional pipeline plus the modeled per-request service time (the
/// strategy's end-to-end latency as priced by the cost layer).
struct ServingMode {
  std::vector<arch::LayerChoice> choices;
  long long service_cycles = 0;
  /// Hardening installed when this mode's pipeline runs inside a trace
  /// fault burst (home rung only) — the detectors that absorb recoverable
  /// SEUs.
  fault::ProtectionConfig protect = fault::ProtectionConfig::all_on();
  /// Display label for rung tables and the transition timeline.
  std::string label;
};

/// The degradation ladder: rungs ordered most-conservative first, `home`
/// the preferred operating point. Rungs deeper than home must be strictly
/// faster (service_cycles strictly decreasing) — that is what makes load
/// descent meaningful. toolflow::build_serving_ladder emits this shape;
/// hand-built ladders are validated by the FleetServer constructor.
struct ServingLadder {
  std::vector<ServingMode> rungs;
  std::size_t home = 0;
};

/// One model the fleet serves: a functional testbed network + weights (the
/// request payload work) and its degradation ladder (service pricing +
/// per-rung choices). toolflow::build_testbed_ladder emits this shape.
struct FleetModel {
  std::string name;
  nn::Network net;
  nn::WeightStore ws;
  ServingLadder ladder;
  int replicas = 1;  ///< initial replica count (autoscale moves it later)
};

/// One tenant: a stream of requests against a single model, with its own
/// admission queue, SLO, fair-share weight, and batching budget.
struct TenantConfig {
  std::string name;
  std::size_t model = 0;  ///< index into the fleet's model list
  int weight = 1;         ///< DRR quantum: requests per round-robin round
  std::size_t queue_capacity = 64;
  long long deadline_cycles = 0;  ///< SLO; 0 disables deadline accounting
  /// Batching budget: a batch closes when `batch_cap` requests are pending
  /// (across the model's tenants; the effective cap is the min over tenants
  /// with queued work) or when this tenant's oldest queued request has
  /// waited `batch_age_cycles`. age = 0 dispatches immediately (batch=1
  /// unless a backlog already queued up).
  std::size_t batch_cap = 8;
  long long batch_age_cycles = 0;
};

struct AutoscaleConfig {
  bool enabled = false;
  int min_replicas = 1;
  int max_replicas = 4;
  /// Arrival-time queue depth >= up_queue_frac * (model's total tenant
  /// capacity) is a pressure observation; depth <= down_queue_frac * cap
  /// (and a drained queue at completions) is an idle observation.
  double up_queue_frac = 0.75;
  double down_queue_frac = 0.05;
  int up_streak = 6;     ///< consecutive pressure observations to scale up
  int down_streak = 24;  ///< consecutive idle observations to scale down
  long long dwell_cycles = 8192;  ///< min cycles between moves per model
  /// Virtual spin-up cost of a new replica: cold pays the full prepack
  /// derivation, warm adopts the shared bundle.
  long long spinup_cold_cycles = 4096;
  long long spinup_warm_cycles = 512;
};

/// Per-replica health scoring + the quarantine state machine (DESIGN.md
/// §16). The miss signal is *replica-attributable*: a batch whose actual
/// service time overran its nominal svc(b). Queue-wait lateness never
/// implicates the replica, so an honest fleet under pure overload scores
/// zero — only sick replicas (kSlow, kWedge) accumulate. Quarantine cancels
/// and requeues the in-flight batch, releases the replica's bundle leases,
/// respawns through the autoscale cold/warm spin-up ledger, and re-admits
/// via a breaker-style single-probe probation (CircuitBreaker::force_open
/// with the spin-up as the cooldown, then the ordinary open -> half-open ->
/// closed walk). With `enabled = false` nothing detects or recovers faults:
/// a wedge loses its requests — the failure mode this PR exists to close.
struct HealthConfig {
  bool enabled = true;
  int miss_window = 8;        ///< rolling batch-completion window length
  int miss_threshold = 3;     ///< overruns in window that quarantine
  int failure_threshold = 2;  ///< consecutive execution failures likewise
  /// A batch still unfinished at dispatch + watchdog_factor x nominal
  /// svc(b) is a wedge; the watchdog quarantines the replica instead of
  /// waiting for a completion that will never come. Must clear the worst
  /// honest service time (any slow multiplier below it is caught by the
  /// miss window, not the watchdog).
  double watchdog_factor = 6.0;
};

/// Deterministic request hedging: once a batch is `delay_cycles` past its
/// *nominal* completion, its unfinished requests are duplicated onto the
/// next free replica; the first virtual-time completion wins and the losing
/// copy's real work is cancelled through the pipeline cancel token. Dedup
/// accounting keeps accounted() exact — each request lands in exactly one
/// stats bin no matter how many copies raced — and the response digest
/// folds the winner's CRC only.
struct HedgeConfig {
  bool enabled = false;
  long long delay_cycles = 0;  ///< grace past nominal completion; >= 0
};

/// Retry budget for requests whose home-rung batch failed: the request
/// becomes eligible again after retry_backoff(attempt), on a reset()
/// pipeline; once `max_retries` retries are spent it is pinned to the
/// model's conservative rung.
struct RetryConfig {
  int max_retries = 2;
  long long backoff_base_cycles = 1024;
  long long backoff_cap_cycles = 16384;
};

/// Capped exponential backoff, jitter-free: min(base << (attempt-1), cap).
[[nodiscard]] long long retry_backoff(const RetryConfig& cfg, int attempt);

struct FleetConfig {
  int threads = 0;  ///< real worker threads; never affects FleetStats
  /// Share prepack bundles across replicas (false = per-replica-copy
  /// baseline for the bench comparison).
  bool share_prepack = true;
  /// Fraction of a rung's service time that is per-batch setup (weight
  /// streaming, pipeline fill) rather than per-request work. svc(1) is
  /// exactly the rung's service_cycles for any value.
  double batch_setup_frac = 0.35;
  RegimeConfig regime;
  RetryConfig retry;
  /// Per-model fault breaker over home-rung execution outcomes.
  BreakerConfig breaker;
  AutoscaleConfig autoscale;
  HealthConfig health;
  HedgeConfig hedge;
};

struct TenantStats {
  std::string name;
  long long submitted = 0;
  long long rejected_queue_full = 0;
  long long shed_deadline = 0;
  long long completed = 0;
  long long failed = 0;
  long long deadline_misses = 0;
  long long completed_degraded = 0;  ///< served off the model's home rung
  long long queue_peak = 0;
  LatencyHistogram latency;

  [[nodiscard]] bool accounted() const {
    return submitted ==
           rejected_queue_full + shed_deadline + completed + failed;
  }
  bool operator==(const TenantStats& o) const = default;
};

struct ModelStats {
  std::string name;
  long long batches = 0;
  /// batch_size_counts[b] = batches that carried exactly b requests.
  std::vector<long long> batch_size_counts;
  std::vector<long long> rung_completions;  ///< summed over replicas
  long long rung_transitions = 0;           ///< summed over replicas
  long long scale_ups = 0;
  long long scale_downs = 0;
  int replica_peak = 0;
  long long cold_spinups = 0;
  long long warm_spinups = 0;
  long long spinup_cycles = 0;  ///< virtual cycles paid spinning up
  // Trace-fault-burst accounting (all zero without a burst).
  long long retries = 0;          ///< re-dispatches after a failed batch
  long long faults_absorbed = 0;  ///< retried requests that completed
  long long breaker_opens = 0;
  long long breaker_closes = 0;
  /// Virtual cycles replicas spent at each rung, summed over replicas.
  std::vector<long long> rung_cycles;

  [[nodiscard]] double mean_batch() const;
  bool operator==(const ModelStats& o) const = default;
};

struct FleetStats {
  std::vector<TenantStats> tenants;  ///< index-aligned with the tenant list
  std::vector<ModelStats> models;    ///< index-aligned with the model list
  PrepackCacheStats cache;
  long long makespan_cycles = 0;  ///< last completion's virtual cycle

  // Fault-domain accounting (all zero without a chaos plan or sick replica).
  long long hedges_fired = 0;  ///< duplicate request copies dispatched
  long long hedge_wins = 0;    ///< requests whose hedge copy finished first
  long long quarantines = 0;   ///< replica isolations (wedge/crash/sick)
  long long probes = 0;        ///< probation probe batches dispatched
  long long readmits = 0;      ///< probations that closed healthy again
  long long requeued = 0;      ///< in-flight requests rescued at quarantine
  long long bundles_scrubbed = 0;  ///< corrupted residents caught by CRC
  long long unrecovered_replicas = 0;  ///< not healthy when the run ended

  /// Order-independent digest: every response CRC keyed by (tenant, id),
  /// every rung transition of every replica, every scale event, and the
  /// whole fault-domain timeline + counters. Two runs that agree here
  /// answered, degraded, scaled, and recovered identically.
  std::uint64_t response_hash = 0;

  [[nodiscard]] bool accounted() const;
  [[nodiscard]] long long completed_total() const;
  bool operator==(const FleetStats& o) const = default;
  [[nodiscard]] std::string summary() const;
  [[nodiscard]] std::string to_json() const;
};

/// A replica-pool change, for the CLI timeline and the CI soak greps.
struct ScaleEvent {
  long long cycle = 0;
  std::size_t model = 0;
  bool up = false;
  int replicas_after = 0;
};

/// One entry in the fault-domain timeline: plan strikes as the dispatcher
/// applied them, detections, and every quarantine -> respawn -> probe ->
/// readmit step. Drives the CLI timeline and the CI soak greps.
struct HealthEvent {
  enum class Kind : std::uint8_t {
    kWedged,       ///< plan strike: replica stopped completing work
    kCrashed,      ///< plan strike: replica died (detection immediate)
    kSlowed,       ///< plan strike: service multiplier applied
    kCorrupted,    ///< plan strike: resident bundle flipped (replica = -1)
    kQuarantine,   ///< replica isolated; in-flight batch cancelled/requeued
    kRespawn,      ///< spin-up finished; probation begins
    kProbe,        ///< single probation probe batch dispatched
    kReadmit,      ///< probe succeeded; replica healthy again
    kProbeFail,    ///< probe failed; back to quarantine
    kScrub,        ///< corrupted bundle caught on lease and re-derived
  };
  long long cycle = 0;
  Kind kind = Kind::kQuarantine;
  std::size_t model = 0;
  int replica = 0;  ///< dense per-model replica id; -1 for cache events
};

[[nodiscard]] std::string_view to_string(HealthEvent::Kind k);

class FleetServer {
 public:
  /// Validates every model's ladder (non-empty, home in range, deeper rungs
  /// strictly faster), every tenant (live model index, weight >= 1, cap >=
  /// 1) and the retry budget. Throws ServeError(kConfig) otherwise.
  FleetServer(std::vector<FleetModel> models,
              std::vector<TenantConfig> tenants, FleetConfig cfg);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Serves the tenants' traces (index-aligned with the tenant list; ids
  /// dense from 0 within each trace). A trace's fault burst strikes its
  /// tenant's model on the home rung. A chaos `plan` is merged in as the
  /// highest-precedence event source (fault strikes resolve before
  /// completions at the same cycle). Plan events later than the last live
  /// fleet event never strike — the campaign out-ran the trace. Corruption
  /// events require share_prepack (the per-copy baseline has no shared
  /// resident to flip). Deterministic for a given (traces, config, plan)
  /// regardless of cfg.threads.
  [[nodiscard]] FleetStats run(const std::vector<ArrivalTrace>& traces,
                               const fault::FleetFaultPlan& plan = {});

  /// Rung timelines of the last run: one log per replica ever spun up,
  /// indexed [model][replica id] (retired replicas keep their log).
  [[nodiscard]] const std::vector<std::vector<std::vector<RungTransition>>>&
  rung_logs() const {
    return rung_logs_;
  }
  [[nodiscard]] const std::vector<ScaleEvent>& scale_log() const {
    return scale_log_;
  }
  /// Fault-breaker transitions of the last run, one log per model.
  [[nodiscard]] const std::vector<std::vector<BreakerTransition>>&
  breaker_logs() const {
    return breaker_logs_;
  }
  /// Fault-domain timeline of the last run (strikes + recovery walk).
  [[nodiscard]] const std::vector<HealthEvent>& health_log() const {
    return health_log_;
  }

  [[nodiscard]] const std::vector<FleetModel>& models() const {
    return models_;
  }

 private:
  std::vector<FleetModel> models_;
  std::vector<TenantConfig> tenants_;
  FleetConfig cfg_;
  std::vector<std::vector<std::vector<RungTransition>>> rung_logs_;
  std::vector<ScaleEvent> scale_log_;
  std::vector<std::vector<BreakerTransition>> breaker_logs_;
  std::vector<HealthEvent> health_log_;
};

}  // namespace hetacc::serve
