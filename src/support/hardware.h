#pragma once
// Hardware thread count, probed once per process (header-only: hetacc_core
// and the serving layer read it without linking hetacc_kernels).
//
// std::thread::hardware_concurrency() is not free: glibc answers each call
// by reading /sys/devices/system/cpu/online, a few microseconds of system
// time. The kernel dispatch path asks on every parallel_for, and the fusion
// pipeline issues a small GEMM per streamed row, so the probe is done once
// at first use and every later read is a load of the cached value. CPUs
// brought online after that first read are not seen, which matches the
// kernel pool: it never shrinks and is sized against this same count.

#include <thread>

namespace hetacc {

/// Hardware threads available to the process, at least 1 (0 from the
/// runtime, meaning "unknown", reads as 1). Thread-safe; constant for the
/// life of the process.
[[nodiscard]] inline unsigned hardware_threads() {
  static const unsigned count = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1u;
  }();
  return count;
}

}  // namespace hetacc
