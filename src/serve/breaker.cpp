#include "serve/breaker.h"

namespace hetacc::serve {

std::string_view to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

void CircuitBreaker::transition(long long now, BreakerState to) {
  if (to == state_) return;
  log_.push_back({now, state_, to});
  if (to == BreakerState::kOpen) ++opens_;
  if (to == BreakerState::kClosed) ++closes_;
  state_ = to;
}

BreakerState CircuitBreaker::state(long long now) {
  if (state_ == BreakerState::kOpen && now >= open_until_) {
    transition(now, BreakerState::kHalfOpen);
    probe_wins_ = 0;
    probe_in_flight_ = false;
  }
  return state_;
}

bool CircuitBreaker::try_acquire_probe(long long now) {
  if (state(now) != BreakerState::kHalfOpen || probe_in_flight_) return false;
  probe_in_flight_ = true;
  return true;
}

void CircuitBreaker::force_open(long long now, long long cooldown_cycles) {
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  probe_wins_ = 0;
  transition(now, BreakerState::kOpen);
  open_until_ = now + cooldown_cycles;
}

void CircuitBreaker::record_success(long long now) {
  consecutive_failures_ = 0;
  if (state(now) == BreakerState::kHalfOpen) {
    probe_in_flight_ = false;
    if (++probe_wins_ >= cfg_.probe_successes) {
      transition(now, BreakerState::kClosed);
    }
  }
}

void CircuitBreaker::record_failure(long long now) {
  if (state(now) == BreakerState::kHalfOpen) {
    // The probe found the primary still sick: re-open for a fresh cooldown.
    probe_in_flight_ = false;
    probe_wins_ = 0;
    transition(now, BreakerState::kOpen);
    open_until_ = now + cfg_.cooldown_cycles;
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= cfg_.failure_threshold) {
    consecutive_failures_ = 0;
    transition(now, BreakerState::kOpen);
    open_until_ = now + cfg_.cooldown_cycles;
  }
}

}  // namespace hetacc::serve
