#pragma once
// Circuit breaker guarding a model's home design. Classic three-state
// machine, driven entirely by the dispatcher in virtual time (single
// threaded, so no locking):
//
//   closed ──(K consecutive failures)──▶ open
//   open   ──(cooldown_cycles elapse)──▶ half-open
//   half-open ──(probe_successes probes succeed)──▶ closed
//             ──(any probe fails)──▶ open (fresh cooldown)
//
// It hears execution outcomes only — lateness is the load regime's signal.
// While open or half-open (probe slot taken), requests are served from the
// conservative rung — the pre-optimized, hardened design the optimizer
// computed offline — instead of failing. Every transition is logged with
// its virtual cycle so tests can assert the exact recovery sequence.

#include <cstdint>
#include <string_view>
#include <vector>

namespace hetacc::serve {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState s);

struct BreakerConfig {
  /// Consecutive primary failures that open the breaker.
  int failure_threshold = 3;
  /// Cycles the breaker stays open before probing half-open recovery.
  long long cooldown_cycles = 50'000;
  /// Successful half-open probes required to close again.
  int probe_successes = 2;
};

struct BreakerTransition {
  long long cycle = 0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig cfg = {}) : cfg_(cfg) {}

  /// Current state at virtual cycle `now`. Reading the state performs the
  /// open -> half-open transition once the cooldown has elapsed.
  [[nodiscard]] BreakerState state(long long now);

  /// Last committed state, with NO cooldown side effect — for observers
  /// (the regime controller) that must not perturb the transition log.
  [[nodiscard]] BreakerState current() const { return state_; }

  /// Half-open probe admission: true grants the (single) probe slot, and
  /// the caller must report the probe's outcome via record_success /
  /// record_failure. While a probe is in flight further requests are served
  /// from the conservative rung.
  [[nodiscard]] bool try_acquire_probe(long long now);

  /// Trips the breaker immediately with an explicit cooldown, bypassing the
  /// consecutive-failure counters. For callers that score health themselves
  /// and know the repair time up front — the fleet's quarantine machine uses
  /// this with the replica's respawn spin-up as the cooldown, then walks the
  /// ordinary open -> half-open -> closed probation sequence.
  void force_open(long long now, long long cooldown_cycles);

  /// Outcome of a request served on the *primary* strategy.
  void record_success(long long now);
  void record_failure(long long now);

  [[nodiscard]] const std::vector<BreakerTransition>& transitions() const {
    return log_;
  }
  [[nodiscard]] long long opens() const { return opens_; }
  [[nodiscard]] long long closes() const { return closes_; }

 private:
  void transition(long long now, BreakerState to);

  BreakerConfig cfg_;
  BreakerState state_ = BreakerState::kClosed;
  long long open_until_ = 0;
  int consecutive_failures_ = 0;
  int probe_wins_ = 0;
  bool probe_in_flight_ = false;
  long long opens_ = 0;
  long long closes_ = 0;
  std::vector<BreakerTransition> log_;
};

}  // namespace hetacc::serve
