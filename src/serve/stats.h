#pragma once
// Serving-runtime statistics primitives shared by the fleet loop
// (serve/fleet.h) and the benchmarks: the response-digest mixer and the
// exact latency histogram. Every sample is a virtual-clock value, so a
// histogram — like every FleetStats field — is byte-identical for any
// worker thread count.

#include <cstdint>
#include <vector>

namespace hetacc::serve {

/// splitmix64 finalizer — the shared counter-hash primitive every serving
/// response digest folds with (the fleet loop and the fault layer's
/// identity hashes use the same mixer, so digests compose). Pure and
/// constexpr: a digest is a function of virtual-time event order only.
[[nodiscard]] constexpr std::uint64_t digest_mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Latency distribution in cycles. Samples are kept exactly (a serving
/// trace is bounded), so percentiles are exact order statistics and
/// equality is multiset equality — the strongest determinism check.
class LatencyHistogram {
 public:
  void record(long long cycles);

  [[nodiscard]] long long count() const {
    return static_cast<long long>(samples_.size());
  }
  /// Exact p-th percentile (nearest-rank), 0 when empty. p in [0, 100].
  [[nodiscard]] long long percentile(double p) const;
  [[nodiscard]] long long p50() const { return percentile(50.0); }
  [[nodiscard]] long long p99() const { return percentile(99.0); }
  [[nodiscard]] long long max() const;
  [[nodiscard]] double mean() const;

  bool operator==(const LatencyHistogram& o) const;

 private:
  /// Sorted on demand by the accessors; recorded order is irrelevant by
  /// construction (completion events are applied in virtual-time order).
  mutable std::vector<long long> samples_;
  mutable bool sorted_ = true;
  void sort() const;
};

}  // namespace hetacc::serve
