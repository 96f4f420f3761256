#pragma once
// Shared harness pieces for the serving-runtime benches (bench_serve,
// bench_fleet): wall-clock timing around a virtual-time run, per-scenario
// records carrying the runtime's own JSON blob, and the BENCH_*.json
// record-array emitter both binaries share.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace hetacc::bench {

/// One scenario's outcome: the runtime's own stats JSON plus the harness's
/// wall-clock measurements (virtual-time quality lives inside stats_json;
/// req_per_s is the real execution throughput of the worker pool).
struct ServeRecord {
  std::string scenario;
  std::string stats_json;
  double wall_ms = 0.0;
  double req_per_s = 0.0;
  /// Over `reps` repeated runs: wall_ms and req_per_s are the medians, and
  /// these their medians and quartiles (emitted only when reps > 1).
  Quartiles wall, rate;
  int reps = 1;
};

/// Runs `fn`, returns its result, stores the elapsed wall milliseconds.
template <typename Fn>
auto timed_ms(double& wall_ms, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto stats = fn();
  wall_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  return stats;
}

inline double req_per_s(long long completed, double wall_ms) {
  return wall_ms > 0.0 ? 1000.0 * static_cast<double>(completed) / wall_ms
                       : 0.0;
}

/// The records as a JSON array, one scenario per line (the exact layout the
/// committed BENCH_serve.json files carry).
inline std::string records_json(const std::vector<ServeRecord>& recs) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const ServeRecord& r = recs[i];
    char head[320];
    std::snprintf(head, sizeof(head),
                  "  {\"scenario\": \"%s\", \"wall_ms\": %.3f, "
                  "\"req_per_s\": %.1f, ",
                  r.scenario.c_str(), r.wall_ms, r.req_per_s);
    out += head;
    if (r.reps > 1) {
      std::snprintf(head, sizeof(head),
                    "\"wall_ms_p25\": %.3f, \"wall_ms_p75\": %.3f, "
                    "\"req_per_s_p25\": %.1f, \"req_per_s_p75\": %.1f, "
                    "\"reps\": %d, ",
                    r.wall.p25, r.wall.p75, r.rate.p25, r.rate.p75, r.reps);
      out += head;
    }
    out += "\"stats\": ";
    out += r.stats_json;
    out += i + 1 < recs.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

inline void write_serve_json(const std::vector<ServeRecord>& recs,
                             const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("warning: cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "%s", records_json(recs).c_str());
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, recs.size());
}

}  // namespace hetacc::bench
