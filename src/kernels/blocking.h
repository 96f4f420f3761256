#pragma once
// Cache-blocking parameters for the packed GEMM driver, plus the persistent
// per-(datapath, machine) tuning cache the autotuner writes and gemm_run
// consults at dispatch.
//
// Determinism contract (the reason KC is special): the integer datapath (i8)
// accumulates exactly, so any KC regrouping is bit-identical and KC is
// freely tunable. Float datapaths accumulate C += per-KC partials, so the
// per-element addition order depends on KC; for them KC is pinned to the
// default and only MC / NC / grain — which never change any element's
// accumulation chain — may be tuned. set_blocking() and the cache loader
// enforce this, so a tuning-cache hit can only change speed, never results.

#include <string>

namespace hetacc::kernels {

/// The GEMM datapaths that dispatch through blocking_for().
enum class Datapath : int { kF32 = 0, kF32d, kF64, kI8 };
inline constexpr int kNumDatapaths = 4;

[[nodiscard]] const char* datapath_name(Datapath dp);
/// Inverse of datapath_name; returns false on unknown names (a tuning cache
/// written by a build with other datapaths skips those entries).
[[nodiscard]] bool datapath_from_name(const std::string& name, Datapath& out);

/// Cache-level blocking of one GEMM dispatch. The defaults reproduce the
/// constants the driver shipped with (the no-cache fallback).
struct BlockingParams {
  int mc = 96;    ///< rows of A per packed block (multiple of MR)
  int kc = 256;   ///< K-panel depth (pinned to the default on float paths)
  int nc = 0;     ///< columns of B per packed block; 0 = all of N at once
  int grain = 0;  ///< tile-grid chunk cap; 0 = derived from tasks/threads
  bool operator==(const BlockingParams&) const = default;
};

/// The shipped constants for a datapath (identical for all of them today;
/// kept per-datapath so tuned entries stay independent).
[[nodiscard]] BlockingParams default_blocking(Datapath dp);

/// Blocking the next dispatch of `dp` will use: the tuned entry if one was
/// loaded or set, otherwise default_blocking(dp). Thread-safe.
[[nodiscard]] BlockingParams blocking_for(Datapath dp);

/// Installs a tuned entry (clamped to sane ranges; KC forced back to the
/// default on float datapaths — see the determinism contract above).
void set_blocking(Datapath dp, const BlockingParams& bp);

/// Drops every tuned entry; dispatch reverts to the defaults.
void clear_tuned_blocking();

/// True when KC may differ from the default for this datapath (integer
/// accumulation commutes; float accumulation order depends on KC).
[[nodiscard]] bool kc_tunable(Datapath dp);

/// Identity of this machine's cache topology (L1d/L2/L3 sizes + core
/// count); tuned entries are only valid on the machine they were measured
/// on, so cache entries are keyed by this string.
[[nodiscard]] std::string machine_topology_key();

inline constexpr int kTuningCacheVersion = 1;

/// Serializes the currently tuned entries as a versioned JSON document
/// keyed by datapath + machine_topology_key().
[[nodiscard]] std::string tuning_cache_to_json();

/// Applies the entries of a tuning-cache document that match this machine's
/// topology key and the current version. Returns the number of entries
/// applied (0 for a different machine, an unreadable document, or a version
/// mismatch — dispatch then stays on the defaults).
int load_tuning_cache_json(const std::string& text);

/// File variants. load returns the number of entries applied, -1 when the
/// file cannot be read; save returns false on I/O failure.
int load_tuning_cache_file(const std::string& path);
bool save_tuning_cache_file(const std::string& path);

}  // namespace hetacc::kernels
