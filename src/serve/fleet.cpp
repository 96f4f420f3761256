#include "serve/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "fault/crc32.h"
#include "kernels/parallel.h"
#include "serve/breaker.h"
#include "serve/queue.h"
#include "support/error.h"

namespace hetacc::serve {

namespace {

constexpr long long kInf = std::numeric_limits<long long>::max();

/// The shared digest primitive (stats.h): order-independent folding.
constexpr std::uint64_t mix64(std::uint64_t x) { return digest_mix64(x); }

/// Globally unique request key for the response digest and the live-copy
/// ledger hedging dedups through.
constexpr std::uint64_t request_key(std::size_t tenant, std::uint64_t id) {
  return ((static_cast<std::uint64_t>(tenant) + 1) << 32) ^ (id + 1);
}

/// One coalesced dispatch: a batch of same-(model, rung) requests ground
/// through a warm pipeline by whichever worker picks it up. `done` resolves
/// to the response CRCs, index-aligned with `seeds`, or to the exception the
/// run threw. Only a burst-struck batch's outcome depends on its run, so
/// only its `done` is read at the batch's virtual completion; an exception
/// there (the burst striking the home rung) is a failed execution, accounted
/// as a retry or `failed` rather than lost. A fault-free batch settles as a
/// success without waiting: its CRCs fold into the digest once `done` is
/// ready (after any event, or at the end of the run), and an exception there
/// aborts the run. `cancel` is the pipeline cancel token the dispatcher
/// flips when the batch's virtual outcome no longer needs the real work
/// (hedge loser, quarantine drain) — the only dispatcher->worker signal
/// besides the queue itself, and it never carries stats.
struct FleetJob {
  std::size_t model = 0;
  int rung = 0;
  const FaultBurst* burst = nullptr;  ///< run with burst->plan installed
  bool reset_first = false;           ///< retry path: reset() the pipeline
  std::shared_ptr<const arch::PrepackBundle> bundle;
  std::vector<std::uint32_t> seeds;
  std::atomic<bool> cancel{false};
  std::promise<std::vector<std::uint32_t>> done;
};

}  // namespace

long long retry_backoff(const RetryConfig& cfg, int attempt) {
  long long b = cfg.backoff_base_cycles;
  for (int i = 1; i < attempt && b < cfg.backoff_cap_cycles; ++i) b <<= 1;
  return std::min(b, cfg.backoff_cap_cycles);
}

std::string_view to_string(HealthEvent::Kind k) {
  switch (k) {
    case HealthEvent::Kind::kWedged: return "wedge-struck";
    case HealthEvent::Kind::kCrashed: return "crash-struck";
    case HealthEvent::Kind::kSlowed: return "slow-struck";
    case HealthEvent::Kind::kCorrupted: return "bundle-corrupted";
    case HealthEvent::Kind::kQuarantine: return "quarantine";
    case HealthEvent::Kind::kRespawn: return "respawn";
    case HealthEvent::Kind::kProbe: return "probe";
    case HealthEvent::Kind::kReadmit: return "readmit";
    case HealthEvent::Kind::kProbeFail: return "probe-fail";
    case HealthEvent::Kind::kScrub: return "bundle-scrub";
  }
  return "?";
}

double ModelStats::mean_batch() const {
  if (batches == 0) return 0.0;
  long long requests = 0;
  for (std::size_t b = 0; b < batch_size_counts.size(); ++b) {
    requests += batch_size_counts[b] * static_cast<long long>(b);
  }
  return static_cast<double>(requests) / static_cast<double>(batches);
}

bool FleetStats::accounted() const {
  for (const TenantStats& t : tenants) {
    if (!t.accounted()) return false;
  }
  return true;
}

long long FleetStats::completed_total() const {
  long long total = 0;
  for (const TenantStats& t : tenants) total += t.completed;
  return total;
}

std::string FleetStats::summary() const {
  std::ostringstream os;
  os << "  tenant                       sub   rej  shed  done  degr  fail  "
        "miss   p50        p99\n";
  for (const TenantStats& t : tenants) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-24s %7lld %5lld %5lld %5lld %5lld %5lld %5lld  %8lld  "
                  "%9lld\n",
                  t.name.c_str(), t.submitted, t.rejected_queue_full,
                  t.shed_deadline, t.completed, t.completed_degraded,
                  t.failed, t.deadline_misses, t.latency.p50(),
                  t.latency.p99());
    os << line;
  }
  for (const ModelStats& m : models) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  model %-16s %6lld batches (mean %.2f)  replicas peak %d  "
                  "scale +%lld/-%lld  spinup %lldc/%lldw (%lld cycles)  "
                  "rung moves %lld\n",
                  m.name.c_str(), m.batches, m.mean_batch(), m.replica_peak,
                  m.scale_ups, m.scale_downs, m.cold_spinups, m.warm_spinups,
                  m.spinup_cycles, m.rung_transitions);
    os << line;
    os << "    retries " << m.retries << ", faults absorbed "
       << m.faults_absorbed << ", breaker " << m.breaker_opens << " opens, "
       << m.breaker_closes << " closes, rung cycles";
    for (std::size_t r = 0; r < m.rung_cycles.size(); ++r) {
      os << (r ? " / r" : " r") << r << ":" << m.rung_cycles[r];
    }
    os << "\n";
  }
  os << "  cache       " << cache.hits << " hits, " << cache.misses
     << " misses, " << cache.resident_bytes << " bytes resident (peak "
     << cache.peak_resident_bytes << "), " << cache.bytes_saved
     << " bytes saved\n"
     << "  faults      " << quarantines << " quarantines, " << probes
     << " probes, " << readmits << " readmits, " << requeued << " requeued, "
     << hedges_fired << " hedges (" << hedge_wins << " wins), "
     << bundles_scrubbed << " bundles scrubbed, " << unrecovered_replicas
     << " unrecovered\n"
     << "  makespan    " << makespan_cycles << " cycles\n"
     << "  accounted   " << (accounted() ? "yes" : "NO — REQUESTS LOST")
     << "\n";
  return os.str();
}

std::string FleetStats::to_json() const {
  std::ostringstream os;
  os << "{\"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantStats& t = tenants[i];
    if (i) os << ", ";
    os << "{\"name\": \"" << t.name << "\", \"submitted\": " << t.submitted
       << ", \"rejected_queue_full\": " << t.rejected_queue_full
       << ", \"shed_deadline\": " << t.shed_deadline
       << ", \"completed\": " << t.completed << ", \"failed\": " << t.failed
       << ", \"deadline_misses\": " << t.deadline_misses
       << ", \"completed_degraded\": " << t.completed_degraded
       << ", \"queue_peak\": " << t.queue_peak
       << ", \"latency_p50\": " << t.latency.p50()
       << ", \"latency_p99\": " << t.latency.p99() << "}";
  }
  os << "], \"models\": [";
  for (std::size_t i = 0; i < models.size(); ++i) {
    const ModelStats& m = models[i];
    if (i) os << ", ";
    os << "{\"name\": \"" << m.name << "\", \"batches\": " << m.batches
       << ", \"batch_size_counts\": [";
    for (std::size_t b = 0; b < m.batch_size_counts.size(); ++b) {
      if (b) os << ", ";
      os << m.batch_size_counts[b];
    }
    os << "], \"rung_completions\": [";
    for (std::size_t r = 0; r < m.rung_completions.size(); ++r) {
      if (r) os << ", ";
      os << m.rung_completions[r];
    }
    os << "], \"rung_transitions\": " << m.rung_transitions
       << ", \"scale_ups\": " << m.scale_ups
       << ", \"scale_downs\": " << m.scale_downs
       << ", \"replica_peak\": " << m.replica_peak
       << ", \"cold_spinups\": " << m.cold_spinups
       << ", \"warm_spinups\": " << m.warm_spinups
       << ", \"spinup_cycles\": " << m.spinup_cycles
       << ", \"retries\": " << m.retries
       << ", \"faults_absorbed\": " << m.faults_absorbed
       << ", \"breaker_opens\": " << m.breaker_opens
       << ", \"breaker_closes\": " << m.breaker_closes << "}";
  }
  os << "], \"cache\": {\"hits\": " << cache.hits
     << ", \"misses\": " << cache.misses
     << ", \"evictions\": " << cache.evictions
     << ", \"resident_bytes\": " << cache.resident_bytes
     << ", \"peak_resident_bytes\": " << cache.peak_resident_bytes
     << ", \"bytes_saved\": " << cache.bytes_saved
     << ", \"scrubs\": " << cache.scrubs
     << "}, \"hedges_fired\": " << hedges_fired
     << ", \"hedge_wins\": " << hedge_wins
     << ", \"quarantines\": " << quarantines << ", \"probes\": " << probes
     << ", \"readmits\": " << readmits << ", \"requeued\": " << requeued
     << ", \"bundles_scrubbed\": " << bundles_scrubbed
     << ", \"unrecovered_replicas\": " << unrecovered_replicas
     << ", \"makespan_cycles\": " << makespan_cycles
     << ", \"response_hash\": " << response_hash << "}";
  return os.str();
}

FleetServer::FleetServer(std::vector<FleetModel> models,
                         std::vector<TenantConfig> tenants, FleetConfig cfg)
    : models_(std::move(models)), tenants_(std::move(tenants)), cfg_(cfg) {
  if (models_.empty()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "fleet needs at least one model");
  }
  if (tenants_.empty()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "fleet needs at least one tenant");
  }
  if (cfg_.batch_setup_frac < 0.0 || cfg_.batch_setup_frac >= 1.0) {
    throw ServeError(ServeError::Reason::kConfig,
                     "batch_setup_frac must be in [0, 1)");
  }
  const AutoscaleConfig& as = cfg_.autoscale;
  if (as.enabled &&
      (as.min_replicas < 1 || as.max_replicas < as.min_replicas ||
       as.up_streak < 1 || as.down_streak < 1 ||
       as.spinup_cold_cycles < 0 || as.spinup_warm_cycles < 0)) {
    throw ServeError(ServeError::Reason::kConfig,
                     "invalid autoscale configuration");
  }
  const HealthConfig& hc = cfg_.health;
  if (hc.enabled && (hc.miss_window < 1 || hc.miss_threshold < 1 ||
                     hc.failure_threshold < 1 || hc.watchdog_factor <= 1.0)) {
    throw ServeError(ServeError::Reason::kConfig,
                     "invalid health configuration (window/thresholds >= 1, "
                     "watchdog_factor > 1)");
  }
  const RetryConfig& rc = cfg_.retry;
  if (rc.max_retries < 0 || rc.backoff_base_cycles < 0 ||
      rc.backoff_cap_cycles < rc.backoff_base_cycles) {
    throw ServeError(ServeError::Reason::kConfig,
                     "invalid retry/backoff configuration");
  }
  if (cfg_.hedge.enabled && cfg_.hedge.delay_cycles < 0) {
    throw ServeError(ServeError::Reason::kConfig,
                     "hedge delay must be >= 0 cycles");
  }
  for (std::size_t mi = 0; mi < models_.size(); ++mi) {
    const FleetModel& m = models_[mi];
    if (m.replicas < 1) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + m.name + "' needs >= 1 initial replica");
    }
    if (m.ladder.rungs.empty() || m.ladder.home >= m.ladder.rungs.size()) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + m.name + "' has an unusable ladder");
    }
    if (m.net.empty() || m.net[0].kind != nn::LayerKind::kInput) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + m.name + "' net must start with input");
    }
    const std::size_t layer_count = m.net.size() - 1;
    for (std::size_t i = 0; i < m.ladder.rungs.size(); ++i) {
      const ServingMode& r = m.ladder.rungs[i];
      if (r.service_cycles <= 0 ||
          (!r.choices.empty() && r.choices.size() != layer_count)) {
        throw ServeError(ServeError::Reason::kConfig,
                         "model '" + m.name + "' rung " + std::to_string(i) +
                             " is malformed");
      }
      if (i > m.ladder.home &&
          r.service_cycles >= m.ladder.rungs[i - 1].service_cycles) {
        throw ServeError(ServeError::Reason::kConfig,
                         "model '" + m.name +
                             "': rungs deeper than home must be strictly "
                             "faster (rung " + std::to_string(i) + " is not)");
      }
    }
  }
  for (const TenantConfig& t : tenants_) {
    if (t.model >= models_.size()) {
      throw ServeError(ServeError::Reason::kConfig,
                       "tenant '" + t.name + "' references model " +
                           std::to_string(t.model) + " of " +
                           std::to_string(models_.size()));
    }
    if (t.weight < 1 || t.queue_capacity < 1 || t.batch_cap < 1 ||
        t.batch_age_cycles < 0 || t.deadline_cycles < 0) {
      throw ServeError(ServeError::Reason::kConfig,
                       "tenant '" + t.name + "' has an invalid config");
    }
  }
}

FleetServer::~FleetServer() = default;

namespace {

/// The dispatcher's event kinds in tie order: of two events due at the same
/// cycle, the one whose kind comes first fires first. Fault strikes land
/// before anything else observes the cycle; capacity frees (completion) and
/// comes online (replica-ready) before sickness is judged; admitted work
/// (retry-eligible) beats detection (watchdog), detection beats duplication
/// (hedge fire), and all of them beat new admission (batch-close timer,
/// arrival). DESIGN.md §16.
enum class Event : std::uint8_t {
  kFault,
  kCompletion,
  kReplicaReady,
  kRetry,
  kWatchdog,
  kHedge,
  kTimer,
  kArrival,
  kNone,  ///< nothing can fire
};

/// One entry of the merged arrival stream, ordered (cycle, tenant, id) — the
/// global event order every run sees regardless of threads.
struct Arrival {
  long long cycle = 0;
  std::size_t tenant = 0;
  std::uint64_t id = 0;
};

struct BatchItem {
  std::size_t tenant = 0;
  std::uint64_t id = 0;
  long long arrival = 0;
  int attempt = 1;  ///< > 1 on retries after a failed home-rung batch
};

/// The requests one dispatch carries, and the class they were drawn from.
struct Batch {
  std::vector<BatchItem> items;
  bool is_hedge = false;  ///< hedge copies (already counted in the ledger)
  bool pinned = false;    ///< retries whose budget is spent
};

struct Retry {
  long long eligible = 0;  ///< failure cycle + retry_backoff(attempt)
  BatchItem item;
  bool pinned = false;  ///< retry budget spent: conservative rung only
};

struct Replica {
  enum class Health : std::uint8_t { kHealthy, kQuarantined, kProbation };
  int id = 0;
  long long busy_until = -1;  ///< -1 = free
  long long ready_at = 0;
  bool spinning = false;  ///< between spawn and its replica-ready event
  bool retired = false;
  // Fault-domain state. The dispatcher *applies* wedge/crash/slow strikes
  // but never reads them for scheduling decisions (it cannot know a
  // replica is sick until the health layer detects it) — except that a
  // wedged/crashed replica's batches simply never complete.
  Health health = Health::kHealthy;
  bool wedged = false;
  bool crashed = false;
  double slow_factor = 1.0;
  long long slow_until = 0;  ///< kInf = until quarantine replaces it
  std::unique_ptr<CircuitBreaker> gate;  ///< quarantine state machine
  bool probe_pending = false;  ///< mirror of the gate's probe slot
  std::deque<char> miss_ring;  ///< rolling service-overrun window
  int window_misses = 0;
  int consec_failures = 0;
  std::unique_ptr<RegimeController> regime;
  std::vector<std::unique_ptr<PrepackCache::Lease>> leases;  ///< per rung

  void reset_health_window() {
    miss_ring.clear();
    window_misses = 0;
    consec_failures = 0;
  }
  [[nodiscard]] bool idle() const {
    return !retired && !spinning && busy_until < 0;
  }
};

struct ModelState {
  std::vector<Replica> replicas;
  int next_replica_id = 0;
  std::vector<std::size_t> tenant_ids;
  std::vector<long long> deficit;  ///< DRR, aligned with tenant_ids
  std::size_t drr_next = 0;        ///< next tenant_ids slot to visit
  long long batch_timer = kInf;    ///< armed virtual-age close cycle
  std::size_t cap_total = 0;       ///< sum of tenant queue capacities
  std::size_t up_depth = 0, down_depth = 0;  ///< autoscale watermarks
  int up_streak = 0, idle_streak = 0;
  long long last_scale = 0;
  std::vector<long long> service;  ///< per-rung service cycles
  std::deque<BatchItem> rescue;    ///< requeued at quarantine; served first
  std::deque<BatchItem> hedge_q;   ///< hedge copies awaiting a replica
  std::vector<Retry> retries;      ///< failed home-rung requests
  std::vector<const FaultBurst*> bursts;  ///< its tenants' trace bursts
  CircuitBreaker breaker;          ///< fault breaker over home outcomes
  bool breaker_degraded = false;   ///< last state pushed to the regimes
};

int live_count(const ModelState& ms) {
  return static_cast<int>(
      std::count_if(ms.replicas.begin(), ms.replicas.end(),
                    [](const Replica& r) { return !r.retired; }));
}

struct InFlight {
  long long completion = 0;  ///< kInf while the replica is wedged/crashed
  long long dispatched = 0;
  long long nominal = 0;      ///< svc(b) at the dispatcher's price list
  long long watchdog_at = kInf;
  long long hedge_at = kInf;
  std::size_t model = 0;
  std::size_t replica = 0;  ///< index into the model's replicas
  int rung = 0;
  bool hedged = false;    ///< hedge copies were cloned off this batch
  bool is_hedge = false;  ///< this batch carries hedge copies
  bool is_probe = false;  ///< probation probe batch
  bool breaker_probe = false;  ///< the model breaker's half-open probe
  std::vector<BatchItem> items;
  std::unique_ptr<FleetJob> job;
  std::future<std::vector<std::uint32_t>> fut;
};

/// (request key, item index) of each request a settled batch delivered.
using Owed = std::vector<std::pair<std::uint64_t, std::size_t>>;

/// A fault-free batch already settled at its virtual completion whose run
/// may not have landed yet: the job (a worker may still hold it), its
/// future, and the requests whose response CRCs the digest still owes.
struct Settled {
  std::unique_ptr<FleetJob> job;
  std::future<std::vector<std::uint32_t>> fut;
  Owed owed;
};

/// Live-copy ledger entry for hedging dedup: copies = dispatched duplicates
/// plus queued hedge clones; done = the request's single completion
/// happened. Entries exist only between first dispatch and last copy's
/// resolution, so the ledger stays O(in-flight), not O(trace).
struct ReqState {
  int copies = 0;
  bool done = false;
};
using Ledger = std::map<std::uint64_t, ReqState>;

/// The fleet's real execution machinery: ONE shared job queue and worker
/// set for the whole fleet. Replicas are virtual-time capacity, not threads
/// — a 32-replica fleet on a 4-core box still runs at most
/// resolve_threads() workers, all drawing kernel parallelism from the one
/// process pool. Workers resolve each job's promise when its run ends
/// (FleetJob says when the dispatcher reads it). The destructor closes the
/// queue and joins; workers drain it first, so every submitted job's
/// promise is resolved by then.
class WorkerPool {
 public:
  WorkerPool(const std::vector<FleetModel>& models, const FleetConfig& cfg)
      : models_(models), q_(slots(models, cfg) * 2 + 4) {
    // The queue's headroom beyond one batch per replica: cancelled (zombie)
    // jobs linger until a worker pops them, and quarantine bursts can stack
    // a few; the bound only back-pressures the dispatcher, never drops.
    const int n = std::max(
        1, std::min(kernels::resolve_threads(cfg.threads),
                    static_cast<int>(slots(models, cfg))));
    threads_.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
      threads_.emplace_back([this] { work(); });
    }
  }
  ~WorkerPool() {
    q_.close();
    for (std::thread& t : threads_) t.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void submit(FleetJob* job) { q_.push(job); }

 private:
  /// Most replicas the fleet can hold at once: the initial pools, or the
  /// autoscale ceiling where that is higher.
  static std::size_t slots(const std::vector<FleetModel>& models,
                           const FleetConfig& cfg) {
    int total = 0;
    for (const FleetModel& m : models) {
      total += cfg.autoscale.enabled
                   ? std::max(cfg.autoscale.max_replicas, m.replicas)
                   : m.replicas;
    }
    return static_cast<std::size_t>(total);
  }

  void work() {
    // Worker-owned warm pipelines, one per (model, rung, burst) this worker
    // actually serves — every one adopts the dispatcher's shared bundle, so
    // construction skips the pack/transform work entirely. A burst-struck
    // pipeline carries the burst's plan and the rung's hardening.
    std::map<std::tuple<std::size_t, int, const FaultBurst*>,
             std::unique_ptr<arch::FusionPipeline>>
        pipes;
    FleetJob* job = nullptr;
    while (q_.pop(job)) {
      const FleetModel& model = models_[job->model];
      std::vector<std::uint32_t> crcs;
      std::exception_ptr error;
      arch::FusionPipeline* pipe = nullptr;
      try {
        auto& slot = pipes[{job->model, job->rung, job->burst}];
        if (!slot) {
          const ServingMode& mode =
              model.ladder.rungs[static_cast<std::size_t>(job->rung)];
          slot = std::make_unique<arch::FusionPipeline>(
              model.net, model.ws, mode.choices, job->bundle);
          if (job->burst) {
            slot->install_fault_plan(job->burst->plan, mode.protect);
          }
        }
        pipe = slot.get();
        if (job->reset_first) pipe->reset();
        pipe->set_cancel_token(&job->cancel);
        crcs.reserve(job->seeds.size());
        for (const std::uint32_t seed : job->seeds) {
          nn::Tensor in(model.net[0].out);
          nn::fill_deterministic(in, seed);
          const nn::Tensor out = pipe->run(in);
          crcs.push_back(fault::crc32_f32(out.data(), out.vec().size()));
        }
      } catch (...) {
        // A struck run's failure, a cooperative cancel, or a fault-free run
        // that threw anyway: the batch has no usable CRCs, and whatever was
        // thrown travels to the dispatcher in the promise. The dispatcher
        // never reads a cancelled job's promise.
        error = std::current_exception();
      }
      if (pipe) pipe->set_cancel_token(nullptr);
      if (error) {
        job->done.set_exception(error);
      } else {
        job->done.set_value(std::move(crcs));
      }
    }
  }

  const std::vector<FleetModel>& models_;
  BoundedQueue<FleetJob*> q_;
  std::vector<std::thread> threads_;
};

/// The single-threaded, virtual-time discrete-event loop: every
/// stats-bearing decision of a run is made here, one event at a time, in
/// the order `next_event` picks. Workers only grind the functional work of
/// the batches `launch` hands the pool.
class Dispatcher {
 public:
  Dispatcher(const std::vector<FleetModel>& models,
             const std::vector<TenantConfig>& tenants,
             const FleetConfig& cfg,
             const std::vector<ArrivalTrace>& traces,
             const fault::FleetFaultPlan& chaos, FleetStats& stats,
             std::vector<ScaleEvent>& scale_log,
             std::vector<HealthEvent>& health_log)
      : models_(models),
        tenants_(tenants),
        cfg_(cfg),
        traces_(traces),
        chaos_(chaos),
        stats_(stats),
        scale_log_(scale_log),
        health_log_(health_log),
        cache_(cfg.share_prepack),
        mstate_(models.size()),
        tq_(tenants.size()),
        pool_(models, cfg) {
    stats_.tenants.resize(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      stats_.tenants[t].name = tenants_[t].name;
      ModelState& ms = mstate_[tenants_[t].model];
      ms.tenant_ids.push_back(t);
      ms.cap_total += tenants_[t].queue_capacity;
      if (traces_[t].burst.active()) ms.bursts.push_back(&traces_[t].burst);
      for (const TraceRequest& r : traces_[t].requests) {
        arrivals_.push_back({r.arrival_cycle, t, r.id});
      }
    }
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Arrival& a, const Arrival& b) {
                return std::tie(a.cycle, a.tenant, a.id) <
                       std::tie(b.cycle, b.tenant, b.id);
              });
    stats_.models.resize(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const std::size_t rungs = models_[m].ladder.rungs.size();
      stats_.models[m].name = models_[m].name;
      stats_.models[m].rung_completions.assign(rungs, 0);
      stats_.models[m].rung_cycles.assign(rungs, 0);
      ModelState& ms = mstate_[m];
      ms.deficit.assign(ms.tenant_ids.size(), 0);
      ms.breaker = CircuitBreaker(cfg_.breaker);
      ms.up_depth = static_cast<std::size_t>(
          cfg_.autoscale.up_queue_frac * static_cast<double>(ms.cap_total));
      ms.down_depth = static_cast<std::size_t>(
          cfg_.autoscale.down_queue_frac * static_cast<double>(ms.cap_total));
      for (const ServingMode& r : models_[m].ladder.rungs) {
        ms.service.push_back(r.service_cycles);
      }
      for (int k = 0; k < models_[m].replicas; ++k) {
        spawn_replica(m, 0, /*initial=*/true);
      }
    }
  }

  /// Cancels the batches still in flight (wedged ones, or all of them when
  /// the run threw) and, when the run threw, the settled ones not yet
  /// folded; `pool_` then joins before any job dies.
  ~Dispatcher() {
    for (InFlight& f : inflight_) {
      f.job->cancel.store(true, std::memory_order_relaxed);
    }
    for (Settled& s : settled_) {
      s.job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Fires events until no work is left or none can fire.
  void run() {
    // Work-driven: the loop ends with the last live event, so a plan event
    // later than that never strikes (DESIGN.md §16).
    while (has_work()) {
      const Next e = next_event();
      switch (e.kind) {
        case Event::kFault: on_fault(chaos_.events[next_fault_++]); break;
        case Event::kCompletion: on_completion(e.flight); break;
        case Event::kReplicaReady:
          on_replica_ready(e.model, e.replica, e.cycle);
          break;
        case Event::kRetry: try_dispatch(e.model, e.cycle); break;
        case Event::kWatchdog: on_watchdog(e.flight); break;
        case Event::kHedge: on_hedge(e.flight); break;
        case Event::kTimer:
          mstate_[e.model].batch_timer = kInf;
          try_dispatch(e.model, e.cycle);
          break;
        case Event::kArrival: on_arrival(); break;
        case Event::kNone:
          // No event can fire: only wedged batches (health + hedging both
          // off) remain. Their requests are lost — the accounting surfaces
          // it — and the destructor cancels their real jobs.
          return;
      }
      fold_settled(/*wait=*/false);
    }
  }

  /// End of run: folds the last settled responses, closes the rung
  /// timelines and the breaker logs, folds the rung moves into the digest
  /// and snapshots the cache.
  void close(
      std::vector<std::vector<std::vector<RungTransition>>>& rung_logs,
      std::vector<std::vector<BreakerTransition>>& breaker_logs) {
    fold_settled(/*wait=*/true);
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& ms = mstate_[m];
      ModelStats& mst = stats_.models[m];
      breaker_logs[m] = ms.breaker.transitions();
      mst.breaker_opens = ms.breaker.opens();
      mst.breaker_closes = ms.breaker.closes();
      rung_logs[m].resize(static_cast<std::size_t>(ms.next_replica_id));
      for (Replica& r : ms.replicas) {
        if (!r.retired) {
          r.regime->finish(last_completion_);
          if (r.health != Replica::Health::kHealthy || r.wedged || r.crashed) {
            ++stats_.unrecovered_replicas;
          }
        }
        rung_logs[m][static_cast<std::size_t>(r.id)] = r.regime->log();
        mst.rung_transitions += static_cast<long long>(r.regime->log().size());
        for (std::size_t i = 0; i < mst.rung_cycles.size(); ++i) {
          mst.rung_cycles[i] += r.regime->cycles_in_rung()[i];
        }
        for (const RungTransition& t : r.regime->log()) {
          stats_.response_hash += mix64(
              static_cast<std::uint64_t>(t.cycle) * 0x2545F4914F6CDD1Dull ^
              (static_cast<std::uint64_t>(m + 1) << 40) ^
              (static_cast<std::uint64_t>(static_cast<unsigned>(r.id)) << 32) ^
              (static_cast<std::uint64_t>(static_cast<unsigned>(t.from))
               << 24) ^
              (static_cast<std::uint64_t>(static_cast<unsigned>(t.to)) << 16) ^
              static_cast<std::uint64_t>(static_cast<unsigned>(t.reason)));
        }
      }
    }
    stats_.makespan_cycles = last_completion_;
    stats_.cache = cache_.stats();  // snapshot with live leases still resident
    stats_.bundles_scrubbed = stats_.cache.scrubs;
  }

 private:
  /// The earliest event: its cycle, its kind and what it belongs to.
  struct Next {
    long long cycle = kInf;
    Event kind = Event::kNone;
    std::size_t model = 0;
    std::size_t replica = 0;  ///< replica index (ready, and in-flight ties)
    std::size_t flight = 0;   ///< index into inflight_
  };
  Next next_event() const {
    // One scan over every event source. Same-cycle events order by kind
    // (Event), then by (model, replica): completions and watchdogs pick the
    // smallest (model, replica), replica-ready the first model and the first
    // replica in spawn order, retries and timers the first model — so every
    // pick is a pure function of the virtual schedule.
    Next best;
    const auto offer = [&best](long long cycle, Event kind,
                               std::size_t model = 0, std::size_t replica = 0,
                               std::size_t flight = 0) {
      if (cycle == kInf) return;
      if (std::tie(cycle, kind, model, replica) <
          std::tie(best.cycle, best.kind, best.model, best.replica)) {
        best = {cycle, kind, model, replica, flight};
      }
    };
    if (next_fault_ < chaos_.events.size()) {
      offer(chaos_.events[next_fault_].cycle, Event::kFault);
    }
    for (std::size_t i = 0; i < inflight_.size(); ++i) {
      const InFlight& f = inflight_[i];
      offer(f.completion, Event::kCompletion, f.model, f.replica, i);
      offer(f.watchdog_at, Event::kWatchdog, f.model, f.replica, i);
      if (!f.hedged) offer(f.hedge_at, Event::kHedge, f.model, f.replica, i);
    }
    for (std::size_t m = 0; m < mstate_.size(); ++m) {
      const ModelState& ms = mstate_[m];
      for (std::size_t k = 0; k < ms.replicas.size(); ++k) {
        if (ms.replicas[k].spinning) {
          offer(ms.replicas[k].ready_at, Event::kReplicaReady, m, k);
        }
      }
      // A retry is an event only while its model has a replica to take it;
      // otherwise the next completion's dispatch picks it up.
      if (!ms.retries.empty() && free_replica(ms).first >= 0) {
        for (const Retry& r : ms.retries) {
          offer(r.eligible, Event::kRetry, m);
        }
      }
      offer(ms.batch_timer, Event::kTimer, m);
    }
    if (next_arrival_ < arrivals_.size()) {
      offer(arrivals_[next_arrival_].cycle, Event::kArrival);
    }
    return best;
  }

  void on_fault(const fault::FleetFaultEvent& e) {
    const long long now = e.cycle;
    if (e.model >= models_.size()) return;
    if (e.kind == fault::FleetFaultKind::kCorruptBundle) {
      const int rung = e.rung < 0
                           ? static_cast<int>(models_[e.model].ladder.home)
                           : e.rung;
      if (rung >= static_cast<int>(models_[e.model].ladder.rungs.size())) {
        return;
      }
      if (cache_.corrupt_resident(bundle_key(e.model, rung))) {
        health_log_.push_back(
            {now, HealthEvent::Kind::kCorrupted, e.model, -1});
      }
      return;
    }
    std::vector<Replica>& reps = mstate_[e.model].replicas;
    const auto it =
        std::find_if(reps.begin(), reps.end(),
                     [&](const Replica& r) { return r.id == e.replica; });
    if (it == reps.end()) return;
    Replica& rep = *it;
    const auto ki = static_cast<std::size_t>(it - reps.begin());
    if (rep.retired || rep.spinning ||
        rep.health != Replica::Health::kHealthy) {
      return;  // already out of service — the strike is a no-op
    }
    switch (e.kind) {
      case fault::FleetFaultKind::kWedge:
        rep.wedged = true;
        health_log_.push_back(
            {now, HealthEvent::Kind::kWedged, e.model, rep.id});
        // Only the watchdog (or a hedge) can save its requests now.
        stall(e.model, ki);
        break;
      case fault::FleetFaultKind::kSlow:
        rep.slow_factor = e.slow_factor;
        rep.slow_until = e.slow_duration > 0 ? now + e.slow_duration : kInf;
        health_log_.push_back(
            {now, HealthEvent::Kind::kSlowed, e.model, rep.id});
        break;
      case fault::FleetFaultKind::kCrash:
        rep.crashed = true;
        health_log_.push_back(
            {now, HealthEvent::Kind::kCrashed, e.model, rep.id});
        if (cfg_.health.enabled) {
          // The virtual machine-check: detection is immediate.
          quarantine(e.model, ki, now);
          try_dispatch(e.model, now);
        } else {
          stall(e.model, ki);
        }
        break;
      case fault::FleetFaultKind::kCorruptBundle:
        break;  // handled above
    }
  }

  void on_completion(std::size_t i) {
    InFlight f = std::move(inflight_[i]);
    inflight_.erase(inflight_.begin() + static_cast<long>(i));
    const long long now = f.completion;
    last_completion_ = std::max(last_completion_, now);
    // Only a burst-struck batch's outcome depends on its run, so only it
    // waits for the real job (which may still be running). A fault-free
    // batch succeeds now; its response CRCs fold in once the run lands.
    const bool struck = f.job->burst != nullptr;
    std::vector<std::uint32_t> crcs;
    bool ok = true;
    if (struck) {
      try {
        crcs = f.fut.get();
      } catch (...) {
        ok = false;
      }
    }
    Owed owed;
    const std::size_t m = f.model;
    ModelState& ms = mstate_[m];
    ms.replicas[f.replica].busy_until = -1;
    const int home = static_cast<int>(models_[m].ladder.home);
    long long delivered = 0;
    for (std::size_t k = 0; k < f.items.size(); ++k) {
      const BatchItem& it = f.items[k];
      TenantStats& ts = stats_.tenants[it.tenant];
      const auto st = req_state_.find(request_key(it.tenant, it.id));
      const bool done_before = st->second.done;
      st->second.done = done_before || ok;
      const bool last_copy = drop_copy(st) == 0;
      if (!ok) {
        // Failed execution, decided by the last copy: a home-rung failure
        // retries after backoff (pinned to the conservative rung once the
        // budget is spent); a failure off home is terminal.
        if (!last_copy || done_before) continue;
        if (f.rung == home) {
          ms.retries.push_back({now + retry_backoff(cfg_.retry, it.attempt),
                                {it.tenant, it.id, it.arrival, it.attempt + 1},
                                it.attempt > cfg_.retry.max_retries});
          ++stats_.models[m].retries;
        } else {
          ++ts.failed;
        }
        continue;
      }
      // Hedge race loser: the request already completed elsewhere. Dedup
      // keeps accounted() exact and the digest single-voiced.
      if (done_before) continue;
      ++delivered;
      const long long lat = now - it.arrival;
      ++ts.completed;
      ts.latency.record(lat);
      if (f.rung != home) ++ts.completed_degraded;
      if (it.attempt > 1) ++stats_.models[m].faults_absorbed;
      if (f.is_hedge) ++stats_.hedge_wins;
      if (struck) {
        fold_response(request_key(it.tenant, it.id), crcs[k]);
      } else {
        owed.emplace_back(request_key(it.tenant, it.id), k);
      }
      const bool late = tenants_[it.tenant].deadline_cycles > 0 &&
                        lat > tenants_[it.tenant].deadline_cycles;
      if (late) ++ts.deadline_misses;
      ms.replicas[f.replica].regime->observe_completion(now, late);
    }
    if (ok) {
      stats_.models[m].rung_completions[static_cast<std::size_t>(f.rung)] +=
          delivered;
    }
    if (f.rung == home) {
      // The breaker hears execution outcomes only: lateness is the regime's
      // miss-window signal, never a breaker failure.
      if (ok) {
        ms.breaker.record_success(now);
      } else {
        ms.breaker.record_failure(now);
      }
      sync_breaker(m, now);
    }
    score_health(f, ok, now);
    if (!struck) {
      settled_.push_back({std::move(f.job), std::move(f.fut), std::move(owed)});
    }
    if (cfg_.autoscale.enabled && pending_total(ms) == 0) {
      ++ms.idle_streak;
      ms.up_streak = 0;
    }
    maybe_scale(m, now);
    reap_deduped(now);
    try_dispatch(m, now);
  }

  /// The response digest's term for one delivered request; a commutative
  /// sum, so folding a response late leaves the digest as it would be.
  void fold_response(std::uint64_t key, std::uint32_t crc) {
    stats_.response_hash += mix64(key * 0x9E3779B97F4A7C15ull ^ crc);
  }

  /// Folds the responses of settled batches whose runs have landed; with
  /// `wait`, waits for every one. A settled run that threw rethrows here:
  /// its batch already counted as a success, so the run cannot finish.
  void fold_settled(bool wait) {
    for (std::size_t i = 0; i < settled_.size();) {
      Settled& s = settled_[i];
      if (!wait && s.fut.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        ++i;
        continue;
      }
      const std::vector<std::uint32_t> crcs = s.fut.get();
      for (const auto& [key, k] : s.owed) fold_response(key, crcs[k]);
      if (&s != &settled_.back()) s = std::move(settled_.back());
      settled_.pop_back();
    }
  }

  void on_replica_ready(std::size_t m, std::size_t ki, long long now) {
    Replica& r = mstate_[m].replicas[ki];
    r.spinning = false;
    if (r.health == Replica::Health::kQuarantined) {
      // Respawn finished; the gate's cooldown == spin-up, so reading the
      // state commits open -> half-open and probation begins.
      (void)r.gate->state(now);
      r.health = Replica::Health::kProbation;
      health_log_.push_back({now, HealthEvent::Kind::kRespawn, m, r.id});
    }
    try_dispatch(m, now);
  }

  void on_watchdog(std::size_t i) {
    // A batch overdue past watchdog_factor x nominal means its replica
    // wedged. Quarantine cancels + rescues the batch.
    const InFlight& f = inflight_[i];
    const std::size_t m = f.model;
    const long long now = f.watchdog_at;
    quarantine(m, f.replica, now);
    try_dispatch(m, now);
  }

  void on_hedge(std::size_t i) {
    // Clone the straggling batch's unfinished requests onto the model's hedge
    // queue; the next free replica picks them up.
    InFlight& f = inflight_[i];
    f.hedged = true;
    ModelState& ms = mstate_[f.model];
    for (const BatchItem& it : f.items) {
      const auto st = req_state_.find(request_key(it.tenant, it.id));
      if (st == req_state_.end() || st->second.done) continue;
      ++st->second.copies;
      ms.hedge_q.push_back(it);
      ++stats_.hedges_fired;
    }
    try_dispatch(f.model, f.hedge_at);
  }

  void on_arrival() {
    const Arrival& a = arrivals_[next_arrival_++];
    const std::size_t t = a.tenant;
    const std::size_t m = tenants_[t].model;
    ModelState& ms = mstate_[m];
    TenantStats& ts = stats_.tenants[t];
    ++ts.submitted;
    if (tq_[t].size() >= tenants_[t].queue_capacity) {
      ++ts.rejected_queue_full;
    } else {
      tq_[t].push_back(a.id);
      ts.queue_peak =
          std::max(ts.queue_peak, static_cast<long long>(tq_[t].size()));
    }
    const std::size_t depth = pending_total(ms);
    for (Replica& r : ms.replicas) {
      if (!r.retired) r.regime->observe_queue(a.cycle, depth);
    }
    if (cfg_.autoscale.enabled) {
      const bool pressure = depth >= std::max<std::size_t>(ms.up_depth, 1);
      const bool idle = !pressure && depth <= ms.down_depth;
      ms.up_streak = pressure ? ms.up_streak + 1 : 0;
      ms.idle_streak = idle ? ms.idle_streak + 1 : 0;
      maybe_scale(m, a.cycle);
    }
    try_dispatch(m, a.cycle);
  }

  void try_dispatch(std::size_t m, long long now) {
    while (true) {
      const auto [k, probe] = free_replica(mstate_[m]);
      if (k < 0) return;
      Batch batch = next_batch(m, now);
      if (batch.items.empty()) return;
      launch(m, static_cast<std::size_t>(k), probe, std::move(batch), now);
    }
  }

  Batch next_batch(std::size_t m, long long now) {
    // Batch class priority: quarantine rescues, then due retries, then hedge
    // copies, then fresh DRR work. Rescue/retry/hedge batches bypass the
    // close rule — their requests were already admitted.
    ModelState& ms = mstate_[m];
    const std::size_t cap = model_cap(m);
    Batch batch;
    std::vector<BatchItem>& items = batch.items;
    while (!ms.rescue.empty() && items.size() < cap) {
      const BatchItem it = ms.rescue.front();
      ms.rescue.pop_front();
      if (!shed_if_late(it.tenant, it.arrival, now)) items.push_back(it);
    }
    if (!items.empty()) return batch;
    // Due retries, earliest eligibility first (ties by tenant, id); a batch
    // never mixes pinned and home-bound retries.
    while (items.size() < cap) {
      auto pick = ms.retries.end();
      for (auto r = ms.retries.begin(); r != ms.retries.end(); ++r) {
        if (r->eligible > now ||
            (!items.empty() && r->pinned != batch.pinned)) {
          continue;
        }
        if (pick == ms.retries.end() ||
            std::tie(r->eligible, r->item.tenant, r->item.id) <
                std::tie(pick->eligible, pick->item.tenant, pick->item.id)) {
          pick = r;
        }
      }
      if (pick == ms.retries.end()) break;
      const Retry r = *pick;
      ms.retries.erase(pick);
      if (shed_if_late(r.item.tenant, r.item.arrival, now)) continue;
      batch.pinned = r.pinned;
      items.push_back(r.item);
    }
    if (!items.empty()) return batch;
    while (!ms.hedge_q.empty() && items.size() < cap) {
      const BatchItem it = ms.hedge_q.front();
      ms.hedge_q.pop_front();
      const auto st = req_state_.find(request_key(it.tenant, it.id));
      if (st == req_state_.end() || st->second.done) {
        // The original finished while this copy queued — drop it.
        if (st != req_state_.end()) drop_copy(st);
        continue;
      }
      items.push_back(it);
      batch.is_hedge = true;
    }
    if (items.empty()) items = form_batch(m, now);
    return batch;
  }

  /// Deterministic batch close rule: dispatch when pending >= the effective cap
  /// (min over tenants with queued work) OR the oldest pending request of some
  /// tenant has aged past that tenant's budget. Otherwise arm the model's close
  /// timer at the earliest such age-out cycle.
  std::vector<BatchItem> form_batch(std::size_t m, long long now) {
    ModelState& ms = mstate_[m];
    std::size_t avail = 0;
    std::size_t cap = 0;
    long long close_at = kInf;
    for (const std::size_t t : ms.tenant_ids) {
      if (tq_[t].empty()) continue;
      avail += tq_[t].size();
      cap = cap == 0 ? tenants_[t].batch_cap
                     : std::min(cap, tenants_[t].batch_cap);
      const TraceRequest& front = traces_[t].requests[tq_[t].front()];
      close_at = std::min(close_at,
                          front.arrival_cycle + tenants_[t].batch_age_cycles);
    }
    if (avail == 0) return {};
    if (avail < cap && now < close_at) {
      ms.batch_timer = std::min(ms.batch_timer, close_at);
      return {};
    }
    // Deficit round-robin over the model's tenants: quantum = weight, cost 1
    // per request. A drained queue forfeits its deficit (standard DRR), so an
    // idle tenant cannot bank service.
    std::vector<BatchItem> batch;
    const std::size_t T = ms.tenant_ids.size();
    while (batch.size() < cap && pending_total(ms) > 0) {
      const std::size_t ti = ms.drr_next;
      const std::size_t t = ms.tenant_ids[ti];
      if (tq_[t].empty()) {
        ms.deficit[ti] = 0;
        ms.drr_next = (ti + 1) % T;
        continue;
      }
      ms.deficit[ti] += tenants_[t].weight;
      while (ms.deficit[ti] >= 1 && !tq_[t].empty() && batch.size() < cap) {
        const std::uint64_t id = tq_[t].front();
        tq_[t].pop_front();
        const long long arrival = traces_[t].requests[id].arrival_cycle;
        // Load-shedding does not consume the tenant's deficit.
        if (shed_if_late(t, arrival, now)) continue;
        batch.push_back({t, id, arrival});
        --ms.deficit[ti];
      }
      if (tq_[t].empty()) ms.deficit[ti] = 0;
      if (batch.size() >= cap) {
        // Mid-round stop: the pointer stays on a tenant with live deficit and
        // queued work (it resumes first), advances otherwise.
        if (tq_[t].empty() || ms.deficit[ti] < 1) ms.drr_next = (ti + 1) % T;
        break;
      }
      ms.drr_next = (ti + 1) % T;
    }
    return batch;
  }

  void launch(std::size_t m, std::size_t ki, bool probe, Batch batch,
              long long now) {
    ModelState& ms = mstate_[m];
    Replica& rep = ms.replicas[ki];
    const int home = static_cast<int>(models_[m].ladder.home);
    int rung = rep.regime->conservative_rung();
    bool breaker_probe = false;
    if (!batch.pinned) {
      // Reading the breaker commits open -> half-open once the cooldown has
      // passed; a half-open breaker tests home with one batch.
      const BreakerState st = ms.breaker.state(now);
      sync_breaker(m, now);
      breaker_probe =
          st == BreakerState::kHalfOpen && ms.breaker.try_acquire_probe(now);
      rung = breaker_probe ? home : rep.regime->rung();
    }
    // A trace burst strikes the model's home design only: the hardened
    // conservative rung and load-descended rungs run unstruck.
    const FaultBurst* burst = nullptr;
    if (rung == home) {
      const auto b = std::find_if(ms.bursts.begin(), ms.bursts.end(),
                                  [&](const FaultBurst* fb) {
                                    return fb->covers(now);
                                  });
      if (b != ms.bursts.end()) burst = *b;
    }
    acquire_rung(m, rep, rung, now);  // deterministic cache event
    const long long service = ms.service[static_cast<std::size_t>(rung)];
    const long long setup = static_cast<long long>(
        static_cast<double>(service) * cfg_.batch_setup_frac);
    const long long nominal =
        setup + static_cast<long long>(batch.items.size()) * (service - setup);
    // The dispatcher prices the batch at the *nominal* rate — it cannot know
    // the replica is sick. The fault only shows in when (whether) the
    // completion event actually fires.
    long long actual = nominal;
    if (rep.slow_factor > 1.0 && now < rep.slow_until) {
      actual = static_cast<long long>(static_cast<double>(nominal) *
                                      rep.slow_factor);
    }
    InFlight f;
    f.completion = (rep.wedged || rep.crashed) ? kInf : now + actual;
    f.dispatched = now;
    f.nominal = nominal;
    f.model = m;
    f.replica = ki;
    f.rung = rung;
    f.is_hedge = batch.is_hedge;
    f.breaker_probe = breaker_probe;
    f.items = std::move(batch.items);
    if (cfg_.health.enabled) {
      f.watchdog_at =
          now + static_cast<long long>(cfg_.health.watchdog_factor *
                                       static_cast<double>(nominal));
    }
    if (cfg_.hedge.enabled && !f.is_hedge && !probe) {
      f.hedge_at = now + nominal + cfg_.hedge.delay_cycles;
    }
    if (probe) {
      (void)rep.gate->try_acquire_probe(now);  // scan guaranteed the slot
      rep.probe_pending = true;
      f.is_probe = true;
      ++stats_.probes;
      health_log_.push_back({now, HealthEvent::Kind::kProbe, m, rep.id});
    }
    // Live-copy ledger: hedge copies were already counted at clone time.
    if (!f.is_hedge) {
      for (const BatchItem& it : f.items) {
        ++req_state_[request_key(it.tenant, it.id)].copies;
      }
    }
    f.job = std::make_unique<FleetJob>();
    f.job->model = m;
    f.job->rung = rung;
    f.job->burst = burst;
    f.job->reset_first =
        std::any_of(f.items.begin(), f.items.end(),
                    [](const BatchItem& it) { return it.attempt > 1; });
    f.job->bundle = rep.leases[static_cast<std::size_t>(rung)]->bundle;
    for (const BatchItem& it : f.items) {
      f.job->seeds.push_back(traces_[it.tenant].requests[it.id].input_seed);
    }
    f.fut = f.job->done.get_future();
    rep.busy_until = f.completion;
    ++stats_.models[m].batches;
    auto& hist = stats_.models[m].batch_size_counts;
    if (hist.size() <= f.items.size()) hist.resize(f.items.size() + 1, 0);
    ++hist[f.items.size()];
    pool_.submit(f.job.get());
    inflight_.push_back(std::move(f));
  }

  void score_health(const InFlight& f, bool ok, long long now) {
    Replica& rep = mstate_[f.model].replicas[f.replica];
    // Replica-attributable miss: the batch overran its nominal svc(b). Honest
    // replicas complete exactly on time in virtual time, so the window only
    // ever fills on a sick one.
    const bool overran = now - f.dispatched > f.nominal;
    if (f.is_probe) {
      rep.probe_pending = false;
      if (ok && !overran) {
        rep.gate->record_success(now);  // half-open -> closed (1 probe)
        rep.health = Replica::Health::kHealthy;
        rep.reset_health_window();
        ++stats_.readmits;
        health_log_.push_back(
            {now, HealthEvent::Kind::kReadmit, f.model, rep.id});
      } else {
        health_log_.push_back(
            {now, HealthEvent::Kind::kProbeFail, f.model, rep.id});
        quarantine(f.model, f.replica, now);
      }
      return;
    }
    if (!cfg_.health.enabled || rep.health != Replica::Health::kHealthy) return;
    if (!ok) {
      if (++rep.consec_failures >= cfg_.health.failure_threshold) {
        quarantine(f.model, f.replica, now);
      }
      return;
    }
    rep.consec_failures = 0;
    rep.miss_ring.push_back(overran ? 1 : 0);
    if (overran) ++rep.window_misses;
    if (static_cast<int>(rep.miss_ring.size()) > cfg_.health.miss_window) {
      if (rep.miss_ring.front()) --rep.window_misses;
      rep.miss_ring.pop_front();
    }
    if (rep.window_misses >= cfg_.health.miss_threshold) {
      quarantine(f.model, f.replica, now);
    }
  }

  /// Quarantine: isolate the replica, cancel + rescue its in-flight batch, and
  /// respawn it in place through the cold/warm spin-up ledger. The gate breaker
  /// opens with the spin-up as cooldown, so the replica-ready event lands
  /// exactly when half-open probation can begin.
  void quarantine(std::size_t m, std::size_t ki, long long now) {
    ModelState& ms = mstate_[m];
    Replica& rep = ms.replicas[ki];
    if (rep.health == Replica::Health::kQuarantined) return;
    ++stats_.quarantines;
    health_log_.push_back({now, HealthEvent::Kind::kQuarantine, m, rep.id});
    for (std::size_t i = 0; i < inflight_.size();) {
      InFlight& f = inflight_[i];
      if (f.model != m || f.replica != ki) {
        ++i;
        continue;
      }
      if (f.breaker_probe) {
        // The probe never reports back: count it failed, which frees the
        // breaker's probe slot for a fresh cooldown.
        ms.breaker.record_failure(now);
        sync_breaker(m, now);
      }
      for (const BatchItem& it : f.items) {
        const auto st = req_state_.find(request_key(it.tenant, it.id));
        const bool done = st->second.done;
        if (drop_copy(st) == 0 && !done) {
          // No other copy will complete this request: rescue it. It goes back
          // through dispatch (and its deadline check) — never lost.
          ms.rescue.push_back(it);
          ++stats_.requeued;
        }
      }
      park(i);
    }
    // Fresh incarnation: the fault dies with the old one.
    rep.wedged = false;
    rep.crashed = false;
    rep.slow_factor = 1.0;
    rep.slow_until = 0;
    rep.busy_until = -1;
    rep.probe_pending = false;
    rep.reset_health_window();
    rep.health = Replica::Health::kQuarantined;
    release_leases(rep);
    rep.gate->force_open(now, spin_up(m, rep, now, /*charged=*/true));
  }

  /// A batch whose every request already completed elsewhere (its hedges
  /// all won) is pure waste: cancel the real work and free the replica now.
  /// Wedged/crashed replicas stay busy — there is nothing to free — and
  /// probes run to completion (probation needs their verdict).
  void reap_deduped(long long now) {
    for (std::size_t i = 0; i < inflight_.size();) {
      InFlight& f = inflight_[i];
      const Replica& rep = mstate_[f.model].replicas[f.replica];
      const auto done = [&](const BatchItem& it) {
        const auto st = req_state_.find(request_key(it.tenant, it.id));
        return st != req_state_.end() && st->second.done;
      };
      if (f.is_probe || f.breaker_probe || rep.wedged || rep.crashed ||
          f.items.empty() ||
          !std::all_of(f.items.begin(), f.items.end(), done)) {
        ++i;
        continue;
      }
      for (const BatchItem& it : f.items) {
        const auto st = req_state_.find(request_key(it.tenant, it.id));
        if (st != req_state_.end()) drop_copy(st);
      }
      const std::size_t m = f.model;
      mstate_[m].replicas[f.replica].busy_until = -1;
      park(i);
      try_dispatch(m, now);
    }
  }

  /// Cancels in-flight batch `i`'s real work and parks it with the zombies
  /// until the pool joins: its virtual outcome is already settled.
  void park(std::size_t i) {
    inflight_[i].job->cancel.store(true, std::memory_order_relaxed);
    zombies_.push_back(std::move(inflight_[i]));
    inflight_.erase(inflight_.begin() + static_cast<long>(i));
  }

  /// A wedged or crashed replica never completes: its in-flight batch loses its
  /// completion event and the replica stays busy.
  void stall(std::size_t m, std::size_t ki) {
    for (InFlight& f : inflight_) {
      if (f.model == m && f.replica == ki) f.completion = kInf;
    }
    Replica& rep = mstate_[m].replicas[ki];
    if (rep.busy_until >= 0) rep.busy_until = kInf;
  }

  void maybe_scale(std::size_t m, long long now) {
    const AutoscaleConfig& as = cfg_.autoscale;
    if (!as.enabled) return;
    ModelState& ms = mstate_[m];
    const int live = live_count(ms);
    if (now - ms.last_scale < as.dwell_cycles) return;
    if (ms.up_streak >= as.up_streak && live < as.max_replicas) {
      spawn_replica(m, now, /*initial=*/false);
      ++stats_.models[m].scale_ups;
      scale_log_.push_back({now, m, true, live + 1});
      ms.up_streak = 0;
      ms.last_scale = now;
      return;
    }
    if (ms.idle_streak < as.down_streak || live <= as.min_replicas) return;
    // Retire the youngest free, ready, *healthy* replica; quarantined or
    // probing replicas are mid-recovery and keep their slot.
    for (std::size_t i = ms.replicas.size(); i-- > 0;) {
      Replica& r = ms.replicas[i];
      if (!r.idle() || r.health != Replica::Health::kHealthy) continue;
      r.retired = true;
      r.regime->finish(now);
      release_leases(r);
      ++stats_.models[m].scale_downs;
      scale_log_.push_back({now, m, false, live - 1});
      ms.idle_streak = 0;
      ms.last_scale = now;
      return;
    }
  }

  void spawn_replica(std::size_t m, long long now, bool initial) {
    ModelState& ms = mstate_[m];
    Replica rep;
    rep.id = ms.next_replica_id++;
    rep.regime = std::make_unique<RegimeController>(
        ms.service, models_[m].ladder.home, ms.cap_total, cfg_.regime);
    if (ms.breaker_degraded) rep.regime->on_breaker(now, true);
    rep.leases.resize(models_[m].ladder.rungs.size());
    BreakerConfig gate_cfg;
    gate_cfg.probe_successes = 1;  // single-probe probation
    rep.gate = std::make_unique<CircuitBreaker>(gate_cfg);
    // Initial replicas are pre-warmed before traffic: ready at cycle 0, their
    // (modeled) spin-up happened offline and is not charged.
    spin_up(m, rep, now, /*charged=*/!initial);
    ms.replicas.push_back(std::move(rep));
    stats_.models[m].replica_peak =
        std::max(stats_.models[m].replica_peak, live_count(ms));
  }

  /// The home-rung bundle decides cold vs warm: a cold spin-up derives the
  /// constants, a warm one adopts the resident copy a peer already built. A
  /// charged spin-up takes the replica offline until ready_at; returns its
  /// cycles.
  long long spin_up(std::size_t m, Replica& rep, long long now, bool charged) {
    const bool hit =
        acquire_rung(m, rep, static_cast<int>(models_[m].ladder.home), now);
    const long long spinup = hit ? cfg_.autoscale.spinup_warm_cycles
                                 : cfg_.autoscale.spinup_cold_cycles;
    if (hit) {
      ++stats_.models[m].warm_spinups;
    } else {
      ++stats_.models[m].cold_spinups;
    }
    if (charged) {
      rep.ready_at = now + spinup;
      rep.spinning = true;
      stats_.models[m].spinup_cycles += spinup;
    }
    return spinup;
  }

  /// Leases `rung`'s bundle for the replica unless it already holds it;
  /// returns whether that lease was a cache hit.
  bool acquire_rung(std::size_t m, Replica& rep, int rung, long long now) {
    auto& slot = rep.leases[static_cast<std::size_t>(rung)];
    if (slot) return false;  // already leased; not a cache event
    auto lease = cache_.acquire(bundle_key(m, rung), [&] {
      arch::FusionPipeline p(
          models_[m].net, models_[m].ws,
          models_[m].ladder.rungs[static_cast<std::size_t>(rung)].choices);
      return p.shared_prepack();
    });
    const bool hit = lease.hit;
    if (lease.scrubbed) {
      health_log_.push_back({now, HealthEvent::Kind::kScrub, m, rep.id});
    }
    slot = std::make_unique<PrepackCache::Lease>(std::move(lease));
    return hit;
  }

  void release_leases(Replica& rep) {
    for (auto& lease : rep.leases) {
      if (lease) cache_.release(*lease);
      lease.reset();
    }
  }

  /// The model breaker's open/half-open state moves every live replica's rung
  /// pointer off home (RegimeController::on_breaker); pushed on change.
  void sync_breaker(std::size_t m, long long now) {
    ModelState& ms = mstate_[m];
    const bool degraded = ms.breaker.current() != BreakerState::kClosed;
    if (degraded == ms.breaker_degraded) return;
    ms.breaker_degraded = degraded;
    for (Replica& r : ms.replicas) {
      if (!r.retired) r.regime->on_breaker(now, degraded);
    }
  }

  /// Load-shedding: a request already past its tenant's deadline at dispatch
  /// is dropped (and counted) instead of wasting a replica.
  bool shed_if_late(std::size_t tenant, long long arrival, long long now) {
    const long long deadline = tenants_[tenant].deadline_cycles;
    if (deadline <= 0 || now <= arrival + deadline) return false;
    ++stats_.tenants[tenant].shed_deadline;
    return true;
  }

  /// Drops one live copy of a request; the ledger entry goes with its last
  /// copy. Returns the copies left.
  int drop_copy(Ledger::iterator st) {
    const int left = --st->second.copies;
    if (left == 0) req_state_.erase(st);
    return left;
  }

  /// Free-replica scan: healthy first, then a probation replica whose single
  /// probe slot is open (index order == id order, so the pick is a pure
  /// function of the virtual schedule). {-1, false} when none can dispatch.
  std::pair<int, bool> free_replica(const ModelState& ms) const {
    int probe = -1;
    for (std::size_t i = 0; i < ms.replicas.size(); ++i) {
      const Replica& r = ms.replicas[i];
      if (!r.idle()) continue;
      if (r.health == Replica::Health::kHealthy) {
        return {static_cast<int>(i), false};
      }
      if (probe < 0 && r.health == Replica::Health::kProbation &&
          !r.probe_pending) {
        probe = static_cast<int>(i);
      }
    }
    return {probe, probe >= 0};
  }

  std::size_t model_cap(std::size_t m) const {
    std::size_t cap = 0;
    for (const std::size_t t : mstate_[m].tenant_ids) {
      cap = cap == 0 ? tenants_[t].batch_cap
                     : std::min(cap, tenants_[t].batch_cap);
    }
    return std::max<std::size_t>(cap, 1);
  }

  std::size_t pending_total(const ModelState& ms) const {
    std::size_t total = 0;
    for (const std::size_t t : ms.tenant_ids) total += tq_[t].size();
    return total;
  }

  bool has_work() const {
    if (next_arrival_ < arrivals_.size() || !inflight_.empty()) return true;
    for (const auto& q : tq_) {
      if (!q.empty()) return true;
    }
    for (const ModelState& ms : mstate_) {
      if (!ms.rescue.empty() || !ms.hedge_q.empty() || !ms.retries.empty() ||
          std::any_of(ms.replicas.begin(), ms.replicas.end(),
                      [](const Replica& r) { return r.spinning; })) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::string bundle_key(std::size_t m, int rung) const {
    // (model, strategy/rung, datapath): the rung label carries the strategy
    // identity and the datapath mode is a function of the rung's choices.
    return models_[m].name + "/r" + std::to_string(rung);
  }

  const std::vector<FleetModel>& models_;
  const std::vector<TenantConfig>& tenants_;
  const FleetConfig& cfg_;
  const std::vector<ArrivalTrace>& traces_;
  const fault::FleetFaultPlan& chaos_;
  FleetStats& stats_;
  std::vector<ScaleEvent>& scale_log_;
  std::vector<HealthEvent>& health_log_;

  std::vector<Arrival> arrivals_;
  std::size_t next_arrival_ = 0;
  std::size_t next_fault_ = 0;
  long long last_completion_ = 0;
  PrepackCache cache_;
  std::vector<ModelState> mstate_;
  std::vector<std::deque<std::uint64_t>> tq_;  ///< per-tenant request ids
  Ledger req_state_;
  std::vector<InFlight> inflight_;
  // Cancelled batches whose real job may still be in the worker pipeline;
  // their promises resolve before the workers join, after which these are
  // safe to destroy. Futures are never read — the virtual outcome already
  // settled without them.
  std::vector<InFlight> zombies_;
  // Fault-free batches settled before their runs landed. The job queue's
  // bound keeps at most its capacity plus the workers unresolved, and
  // fold_settled drops each once it lands, so this stays O(in-flight).
  std::vector<Settled> settled_;
  WorkerPool pool_;  ///< last: joins before the jobs above are destroyed
};

}  // namespace

FleetStats FleetServer::run(const std::vector<ArrivalTrace>& traces,
                            const fault::FleetFaultPlan& plan) {
  if (traces.size() != tenants_.size()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "fleet run wants one trace per tenant (" +
                         std::to_string(tenants_.size()) + "), got " +
                         std::to_string(traces.size()));
  }
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (std::size_t i = 0; i < traces[t].requests.size(); ++i) {
      if (traces[t].requests[i].id != i) {
        throw ServeError(ServeError::Reason::kConfig,
                         "trace ids must be dense from 0 (tenant '" +
                             tenants_[t].name + "')");
      }
    }
  }
  for (std::size_t m = 0; m < models_.size(); ++m) {
    if (std::none_of(tenants_.begin(), tenants_.end(),
                     [&](const TenantConfig& t) { return t.model == m; })) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + models_[m].name + "' has no tenants");
    }
  }
  fault::FleetFaultPlan chaos = plan;
  chaos.normalize();
  for (const fault::FleetFaultEvent& e : chaos.events) {
    if (e.kind == fault::FleetFaultKind::kCorruptBundle &&
        !cfg_.share_prepack) {
      throw ServeError(ServeError::Reason::kConfig,
                       "bundle-corruption faults need share_prepack (the "
                       "per-copy baseline has no shared resident to flip)");
    }
    if (e.kind == fault::FleetFaultKind::kSlow && e.slow_factor <= 1.0) {
      throw ServeError(ServeError::Reason::kConfig,
                       "slow-replica faults need slow_factor > 1");
    }
  }

  rung_logs_.assign(models_.size(), {});
  breaker_logs_.assign(models_.size(), {});
  scale_log_.clear();
  health_log_.clear();
  FleetStats stats;
  Dispatcher dispatcher(models_, tenants_, cfg_, traces, chaos, stats,
                        scale_log_, health_log_);
  dispatcher.run();
  dispatcher.close(rung_logs_, breaker_logs_);

  // Fold the scale and fault-domain timelines and counters into the digest.
  for (const ScaleEvent& e : scale_log_) {
    stats.response_hash += mix64(
        static_cast<std::uint64_t>(e.cycle) * 0xD1B54A32D192ED03ull ^
        (static_cast<std::uint64_t>(e.model + 1) << 8) ^
        (e.up ? 0x100u : 0u) ^
        static_cast<std::uint64_t>(static_cast<unsigned>(e.replicas_after)));
  }
  for (const HealthEvent& e : health_log_) {
    stats.response_hash += mix64(
        static_cast<std::uint64_t>(e.cycle) * 0x9FB21C651E98DF25ull ^
        (static_cast<std::uint64_t>(e.model + 1) << 20) ^
        (static_cast<std::uint64_t>(static_cast<unsigned>(e.replica + 2))
         << 8) ^
        static_cast<std::uint64_t>(static_cast<unsigned>(e.kind)));
  }
  stats.response_hash += mix64(
      static_cast<std::uint64_t>(stats.hedges_fired) * 0xD6E8FEB86659FD93ull ^
      (static_cast<std::uint64_t>(stats.hedge_wins) << 40) ^
      (static_cast<std::uint64_t>(stats.quarantines) << 24) ^
      (static_cast<std::uint64_t>(stats.probes) << 12) ^
      static_cast<std::uint64_t>(stats.readmits));
  stats.response_hash += mix64(
      static_cast<std::uint64_t>(stats.requeued) * 0xA0761D6478BD642Full ^
      (static_cast<std::uint64_t>(stats.bundles_scrubbed) << 8) ^
      static_cast<std::uint64_t>(stats.unrecovered_replicas));
  return stats;
}

}  // namespace hetacc::serve
