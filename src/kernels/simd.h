#pragma once
// Kernel-layer internal: the portable GCC/Clang vector types every stamped
// kernel body is written against, and the runtime ISA selection shared by
// gemm.cpp (micro-kernels, gemm_micro.inc) and lanes.cpp (lane kernels,
// lane_kernels.inc). Not part of the public kernel API.
//
// A body is compiled once per ISA level ("stamped") by defining a target
// attribute and a name suffix and including its .inc file; the dispatcher
// picks a stamp at runtime. HETACC_VEC is defined when the vector stamps
// exist (GCC/Clang without -DHETACC_NO_SIMD); otherwise every kernel runs
// its scalar twin.

#include <cstdint>
#include <cstring>

#if (defined(__GNUC__) || defined(__clang__)) && !defined(HETACC_NO_SIMD)
#define HETACC_VEC 1
#if defined(__x86_64__)
#define HETACC_X86_DISPATCH 1
#endif
#endif

#ifdef HETACC_VEC

// vload/vstore return and take 256-bit vectors by value, and every ISA stamp
// calls them. A vector argument's calling convention depends on the target
// ISA (registers with AVX2, memory without), so an out-of-line copy compiled
// for the baseline stamp cannot be shared with the AVX2 stamp: at -O0 the
// AVX2 body would call it and read its vector from the wrong place.
// always_inline keeps every helper body inside its caller's stamp at any
// optimization level, so no vector ever crosses a call boundary and GCC's
// -Wpsabi note about that boundary does not apply; it is silenced for every
// includer.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace hetacc::kernels::simd {

typedef float vf4 __attribute__((vector_size(16)));
typedef float vf8 __attribute__((vector_size(32)));
typedef double vd4 __attribute__((vector_size(32)));
typedef std::int8_t vb8 __attribute__((vector_size(8)));
typedef std::int32_t vi8 __attribute__((vector_size(32)));

template <typename V, typename T>
__attribute__((always_inline)) inline V vload(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <typename T, typename V>
__attribute__((always_inline)) inline void vstore(T* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

#ifdef HETACC_X86_DISPATCH
/// The GEMM's AVX2 stamp: 256-bit lanes and FMA.
inline bool cpu_has_avx2_fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

/// The lane kernels' AVX2 stamp: 256-bit lanes, no FMA (see lanes.cpp).
inline bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}
#endif  // HETACC_X86_DISPATCH

}  // namespace hetacc::kernels::simd

#endif  // HETACC_VEC
