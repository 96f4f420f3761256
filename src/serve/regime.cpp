#include "serve/regime.h"

#include <algorithm>
#include <cmath>

namespace hetacc::serve {

std::string_view to_string(RungMove m) {
  switch (m) {
    case RungMove::kLoadDescend: return "load";
    case RungMove::kLoadAscend: return "load-recover";
    case RungMove::kBreakerDegrade: return "breaker";
    case RungMove::kBreakerRestore: return "breaker-recover";
  }
  return "?";
}

RegimeController::RegimeController(std::vector<long long> service_cycles,
                                   std::size_t home,
                                   std::size_t queue_capacity,
                                   RegimeConfig cfg)
    : service_cycles_(std::move(service_cycles)),
      home_(static_cast<int>(home)),
      deepest_(static_cast<int>(service_cycles_.size()) - 1),
      cfg_(cfg),
      load_rung_(static_cast<int>(home)),
      effective_(static_cast<int>(home)),
      miss_ring_(static_cast<std::size_t>(std::max(cfg.miss_window, 1)),
                 false),
      cycles_(service_cycles_.size(), 0) {
  // The breaker degrades onto the rung just above home (the --protect
  // re-optimization). A home-rung-0 ladder has no conservative
  // rung above it, so the first deeper rung stands in; a ladder of one rung
  // degrades onto itself (shed-only operation).
  if (home_ > 0) {
    conservative_ = home_ - 1;
  } else {
    conservative_ = std::min(home_ + 1, deepest_);
  }
  const double cap = static_cast<double>(queue_capacity);
  descend_depth_ = static_cast<std::size_t>(
      std::max(1.0, std::ceil(cap * cfg_.descend_queue_frac)));
  ascend_depth_ = static_cast<std::size_t>(
      std::max(0.0, std::floor(cap * cfg_.ascend_queue_frac)));
}

void RegimeController::set_effective(long long now, int to, RungMove reason) {
  if (to == effective_) return;
  cycles_[static_cast<std::size_t>(effective_)] +=
      std::max<long long>(now - integrated_until_, 0);
  integrated_until_ = std::max(integrated_until_, now);
  log_.push_back({now, effective_, to, reason});
  effective_ = to;
}

void RegimeController::refresh_effective(long long now, RungMove reason) {
  // The breaker only needs to push traffic off the home rung; a
  // load-descended rung is already off the primary (and never struck by the
  // trace's fault burst), so the deeper rung wins while overloaded.
  const int want = breaker_degraded_ && load_rung_ == home_ ? conservative_
                                                            : load_rung_;
  set_effective(now, want, reason);
}

void RegimeController::on_breaker(long long now, bool degraded) {
  if (degraded == breaker_degraded_) return;
  breaker_degraded_ = degraded;
  refresh_effective(now, degraded ? RungMove::kBreakerDegrade
                                  : RungMove::kBreakerRestore);
}

void RegimeController::observe_queue(long long now, std::size_t depth) {
  last_depth_ = depth;
  step(now);
}

void RegimeController::observe_completion(long long now,
                                          bool missed_deadline) {
  if (miss_filled_ == miss_ring_.size()) {
    if (miss_ring_[miss_next_]) --misses_in_window_;
  } else {
    ++miss_filled_;
  }
  miss_ring_[miss_next_] = missed_deadline;
  if (missed_deadline) ++misses_in_window_;
  miss_next_ = (miss_next_ + 1) % miss_ring_.size();
  step(now);
}

void RegimeController::step(long long now) {
  const bool pressure = last_depth_ >= descend_depth_ ||
                        misses_in_window_ >= cfg_.descend_miss_count;
  const bool calm = last_depth_ <= ascend_depth_ &&
                    misses_in_window_ <= cfg_.ascend_miss_count;
  if (pressure) {
    calm_streak_ = 0;
    // Fast descent — but only onto rungs that actually buy throughput
    // (deeper-than-home rungs are strictly faster by construction). On a
    // [fallback, primary] pair home is the deepest rung, so load pressure
    // never moves anything.
    if (load_rung_ < deepest_ &&
        now - last_move_cycle_ >= cfg_.descend_dwell_cycles) {
      ++load_rung_;
      last_move_cycle_ = now;
      refresh_effective(now, RungMove::kLoadDescend);
    }
    return;
  }
  if (!calm) {
    calm_streak_ = 0;
    return;
  }
  // Slow, dwell-gated ascent: one rung at a time toward home, each step
  // requiring a fresh calm streak, so recovery cannot flap against a load
  // oscillation shorter than the ascend dwell.
  ++calm_streak_;
  if (load_rung_ > home_ && calm_streak_ >= cfg_.ascend_calm_streak &&
      now - last_move_cycle_ >= cfg_.ascend_dwell_cycles) {
    --load_rung_;
    last_move_cycle_ = now;
    calm_streak_ = 0;
    refresh_effective(now, RungMove::kLoadAscend);
  }
}

void RegimeController::finish(long long now) {
  cycles_[static_cast<std::size_t>(effective_)] +=
      std::max<long long>(now - integrated_until_, 0);
  integrated_until_ = std::max(integrated_until_, now);
}

}  // namespace hetacc::serve
