#pragma once
// Identity of the machine a measurement ran on, recorded beside kernel
// timings (the GEMM's cache blocking itself is fixed: kernels/gemm.h).

#include <string>

namespace hetacc::kernels {

/// Identity of this machine's cache topology (L1d/L2/L3 sizes + core
/// count), so a recorded timing names the machine it was measured on.
[[nodiscard]] std::string machine_topology_key();

}  // namespace hetacc::kernels
