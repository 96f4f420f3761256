#pragma once
// Shared prepack cache for the serving fleet: one refcounted PrepackBundle
// per (model, strategy/rung, datapath) key, so every replica serving the
// same rung aliases one copy of the packed GEMM panels, transformed
// Winograd filter planes, and int8 constants instead of duplicating the
// dominant per-replica memory cost.
//
// Determinism contract: the cache is driven exclusively by the fleet's
// single dispatcher thread, in virtual-time event order, so the hit/miss
// counters and the resident-bytes trajectory are a pure function of
// (traces, fleet config) — byte-identical for any worker-thread count. It
// is deliberately NOT thread-safe; workers only ever see the immutable
// bundles the dispatcher hands them inside jobs.
//
// `share = false` turns the cache into a measurement foil: every acquire
// builds a private copy under a synthesized unique key, so resident bytes
// grow linearly with replicas. bench_fleet runs both and asserts the shared
// mode's resident bytes stay strictly below the per-replica copies'.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "arch/pipeline.h"

namespace hetacc::serve {

struct PrepackCacheStats {
  long long hits = 0;        ///< acquires satisfied by a resident bundle
  long long misses = 0;      ///< acquires that had to build
  long long evictions = 0;   ///< bundles dropped when their last lease ended
  long long resident_bytes = 0;       ///< bytes currently held
  long long peak_resident_bytes = 0;  ///< high-water mark of the above
  long long bytes_saved = 0;  ///< bytes a hit avoided duplicating (sum)
  long long scrubs = 0;  ///< corrupted residents caught by CRC and re-derived

  bool operator==(const PrepackCacheStats& o) const = default;
};

class PrepackCache {
 public:
  /// `share = false` disables deduplication (the per-replica-copy baseline).
  explicit PrepackCache(bool share = true) : share_(share) {}

  /// Builds a bundle on a cache miss. Must be deterministic for a given key
  /// (the fleet derives from golden weights, so it is).
  using Builder =
      std::function<std::shared_ptr<const arch::PrepackBundle>()>;

  /// One acquire's receipt: the bundle plus the internal key release() needs
  /// (== the logical key in shared mode, a synthesized unique key in the
  /// per-copy baseline) and whether the acquire was a hit.
  struct Lease {
    std::shared_ptr<const arch::PrepackBundle> bundle;
    std::string key;
    bool hit = false;
    bool scrubbed = false;  ///< the resident copy failed its CRC re-check
  };

  /// Returns the resident bundle for `key` (hit: refcount bumped, bytes
  /// saved credited) or builds, inserts, and leases a new one (miss). When
  /// the resident copy fails its CRC re-check, the lease is a *scrub*: the
  /// bundle is re-derived and the clean copy replaces the resident one.
  /// Peers that adopted the old pointer keep it alive and untouched — the
  /// cache only stops handing the corrupted copy out. A scrub counts as a
  /// miss (the lease paid a full re-derivation).
  [[nodiscard]] Lease acquire(const std::string& key, const Builder& build);

  /// Simulates a bit flip in the resident master copy of `key` (dispatcher
  /// only, like everything here). The flip is *virtual* — a flag, not a real
  /// mutation — because workers may be streaming through the shared bytes;
  /// the next acquire detects it exactly as a real CRC mismatch would.
  /// Returns false (no-op) when the key is not resident.
  bool corrupt_resident(const std::string& key);

  /// Ends a lease. The bundle is evicted when its last lease ends; a peer
  /// still holding the shared_ptr keeps its (immutable) bundle alive — the
  /// cache only stops handing it out.
  void release(const Lease& lease);

  [[nodiscard]] const PrepackCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t entries() const { return entries_.size(); }
  /// Live leases on `key` (0 when not resident). Shared-mode key space.
  [[nodiscard]] long long refcount(const std::string& key) const;

 private:
  struct Entry {
    std::shared_ptr<const arch::PrepackBundle> bundle;
    long long refs = 0;
    long long bytes = 0;
    std::uint32_t crc = 0;  ///< content CRC recorded at insert
    bool corrupt = false;   ///< virtual flip pending detection on next lease
  };
  bool share_;
  long long serial_ = 0;  ///< synthesized-key counter for the baseline mode
  std::map<std::string, Entry> entries_;
  PrepackCacheStats stats_;
};

}  // namespace hetacc::serve
