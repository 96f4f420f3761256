#pragma once
// Shared helpers for the experiment harnesses (one binary per paper
// table/figure; see DESIGN.md experiment index).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace hetacc::bench {

inline void header(const std::string& id, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

inline void note(const std::string& s) { std::printf("note: %s\n", s.c_str()); }

constexpr double kMB = 1024.0 * 1024.0;

/// Linear-interpolated quantile q of sorted, non-empty samples.
inline double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Median and quartiles of a set of repeated measurements.
struct Quartiles {
  double median = 0.0, p25 = 0.0, p75 = 0.0;
};

/// The median and quartiles of non-empty `samples`.
inline Quartiles quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {quantile(samples, 0.5), quantile(samples, 0.25),
          quantile(samples, 0.75)};
}

}  // namespace hetacc::bench
