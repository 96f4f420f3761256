#pragma once
// Load-regime controller: walks one replica's degradation ladder. The
// ladder is an ordered vector of ServingModes, rung 0 the most conservative
// (slowest, most hardened) and the deepest rung the cheapest (int8 /
// conventional-i8 — maximum throughput, degraded accuracy). `home` is the
// preferred operating point: the 16-bit latency-optimal strategy the
// optimizer would pick offline.
//
// Two independent axes move the current rung:
//
//  * load  — queue-depth watermarks and a rolling deadline-miss window
//            descend to deeper (strictly faster) rungs under pressure and
//            climb back toward home when calm. Hysteresis is asymmetric:
//            descent is fast (small dwell), ascent requires both a long
//            dwell at the current rung and a sustained calm streak, so an
//            oscillating arrival process cannot make the server flap.
//  * fault — the model's circuit breaker's open/half-open transitions move
//            the effective rung off `home` onto the conservative rung (the
//            --protect re-optimization sitting just above home), restoring
//            it when the breaker closes.
//
// Every input is a virtual-time signal observed by the single dispatcher
// thread, so the transition log and time-in-rung accounting are
// byte-identical for any worker-thread count.

#include <cstdint>
#include <string_view>
#include <vector>

namespace hetacc::serve {

enum class RungMove : std::uint8_t {
  kLoadDescend,     ///< pressure: one rung deeper (faster, more degraded)
  kLoadAscend,      ///< calm + dwell: one rung back toward home
  kBreakerDegrade,  ///< breaker opened: off the home rung
  kBreakerRestore,  ///< breaker closed: back onto the load rung
};

[[nodiscard]] std::string_view to_string(RungMove m);

struct RungTransition {
  long long cycle = 0;
  int from = 0;
  int to = 0;
  RungMove reason = RungMove::kLoadDescend;
};

struct RegimeConfig {
  /// Queue-depth watermarks as fractions of the admission-queue capacity:
  /// depth >= descend watermark is pressure, depth <= ascend watermark is
  /// calm. The gap between them is the hysteresis band.
  double descend_queue_frac = 0.75;
  double ascend_queue_frac = 0.25;
  /// Rolling window (completions) the deadline-miss signal is computed over.
  int miss_window = 16;
  /// Misses within the window that count as pressure / as calm.
  int descend_miss_count = 8;
  int ascend_miss_count = 2;
  /// Minimum virtual cycles between rung moves: descent is fast, ascent is
  /// dwell-gated so recovery never races the load it is recovering from.
  long long descend_dwell_cycles = 512;
  long long ascend_dwell_cycles = 16384;
  /// Consecutive calm observations required before an ascent step.
  int ascend_calm_streak = 8;
};

/// Deterministic rung selector driven by the dispatcher. All state changes
/// happen in observe_queue / observe_completion / on_breaker, each stamped
/// with the dispatcher's virtual cycle.
class RegimeController {
 public:
  /// `service_cycles` is the per-rung modeled service time (index-aligned
  /// with the ladder); rungs deeper than `home` must be strictly faster —
  /// the FleetServer validates this before constructing the controller.
  RegimeController(std::vector<long long> service_cycles, std::size_t home,
                   std::size_t queue_capacity, RegimeConfig cfg);

  /// Effective rung for the next non-probe dispatch.
  [[nodiscard]] int rung() const { return effective_; }
  [[nodiscard]] int home() const { return home_; }
  /// Rung for requests forced off the primary after the retry budget, and
  /// the breaker's degrade target: the rung just above home when one exists
  /// (the --protect re-optimization), else the first rung below home.
  [[nodiscard]] int conservative_rung() const { return conservative_; }

  /// Admission-queue depth observed at an arrival or dispatch event.
  void observe_queue(long long now, std::size_t depth);
  /// A completion (any rung) and whether it blew its deadline.
  void observe_completion(long long now, bool missed_deadline);
  /// Breaker state after the dispatcher consulted it: `degraded` is true
  /// while the breaker is open or half-open (non-probe traffic must leave
  /// the home rung).
  void on_breaker(long long now, bool degraded);

  /// Closes the time-in-rung accounting at the end of the run.
  void finish(long long now);

  [[nodiscard]] const std::vector<RungTransition>& log() const {
    return log_;
  }
  /// Virtual cycles spent at each rung (index-aligned with the ladder).
  [[nodiscard]] const std::vector<long long>& cycles_in_rung() const {
    return cycles_;
  }

 private:
  void step(long long now);
  void refresh_effective(long long now, RungMove reason);
  void set_effective(long long now, int to, RungMove reason);

  std::vector<long long> service_cycles_;
  int home_ = 0;
  int deepest_ = 0;
  int conservative_ = 0;
  std::size_t descend_depth_ = 0;  ///< queue watermark, absolute
  std::size_t ascend_depth_ = 0;
  RegimeConfig cfg_;

  int load_rung_ = 0;          ///< load axis: in [home, deepest]
  bool breaker_degraded_ = false;
  int effective_ = 0;
  long long last_move_cycle_ = 0;
  int calm_streak_ = 0;
  std::size_t last_depth_ = 0;
  std::vector<bool> miss_ring_;  ///< rolling deadline-miss window
  std::size_t miss_next_ = 0;
  std::size_t miss_filled_ = 0;
  int misses_in_window_ = 0;

  std::vector<RungTransition> log_;
  std::vector<long long> cycles_;
  long long integrated_until_ = 0;
};

}  // namespace hetacc::serve
