#pragma once
// Kernel-layer internal: the ISA stamps, their runtime selection, and the
// portable GCC/Clang vector types every stamped kernel body is written
// against, shared by gemm.cpp (micro-kernels, gemm_micro.inc) and lanes.cpp
// (lane kernels, lane_kernels.inc). Not part of the public kernel API.
//
// A body is compiled once per ISA level ("stamped") by defining a target
// attribute, a name suffix and a vector width and including its .inc file;
// the dispatcher picks a stamp at runtime. HETACC_VEC is defined when the
// vector stamps exist (GCC/Clang without -DHETACC_NO_SIMD); every kernel
// also has a scalar twin, the only one such builds run.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#if (defined(__GNUC__) || defined(__clang__)) && !defined(HETACC_NO_SIMD)
#define HETACC_VEC 1
#if defined(__x86_64__)
#define HETACC_X86_DISPATCH 1
#endif
#endif

// The target attribute of the AVX-512 stamps, and what the CPU must report
// for them to run (detected_stamp() below checks the same four flags).
#define HETACC_AVX512_TARGET \
  __attribute__((target("avx512f,avx512vl,avx512bw,avx512dq,avx2,fma")))

namespace hetacc::kernels::simd {

/// The stamps, lowest first. Each one computes every output byte the way
/// the stamps below it do (DESIGN.md §8 has the table).
enum class Stamp : int {
  kScalar = 0,  ///< plain C++ twins, no vector extensions
  kBase = 1,    ///< vector extensions legalized to the build's baseline ISA
  kAvx2 = 2,    ///< 256-bit lanes and FMA
  kAvx512 = 3,  ///< 512-bit lanes and FMA
};

inline const char* stamp_name(Stamp s) {
  switch (s) {
    case Stamp::kAvx512:
      return "avx512";
    case Stamp::kAvx2:
      return "avx2";
    case Stamp::kBase:
      return "base";
    case Stamp::kScalar:
      break;
  }
  return "scalar";
}

/// The highest stamp this build and CPU run, probed once per process.
inline Stamp detected_stamp() {
  static const Stamp s = [] {
#ifdef HETACC_X86_DISPATCH
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq")) {
      return Stamp::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Stamp::kAvx2;
    }
#endif
#ifdef HETACC_VEC
    return Stamp::kBase;
#else
    return Stamp::kScalar;
#endif
  }();
  return s;
}

namespace detail {
inline std::atomic<int>& stamp_cap() {
  static std::atomic<int> cap{static_cast<int>(Stamp::kAvx512)};
  return cap;
}
}  // namespace detail

/// The stamp kernels dispatch to now: detected_stamp(), lowered by any live
/// ScopedStampCap. Read once per GEMM call and once per lane-kernel call.
inline Stamp active_stamp() {
  return static_cast<Stamp>(
      std::min(static_cast<int>(detected_stamp()),
               detail::stamp_cap().load(std::memory_order_relaxed)));
}

/// True when this build and CPU can run stamp `s`.
inline bool stamp_supported(Stamp s) {
  return static_cast<int>(s) <= static_cast<int>(detected_stamp());
}

/// For tests and the perf tripwire only (no CLI flag or environment
/// variable reaches it): while alive, every kernel in the process runs no
/// stamp above `cap`. Construct it while no kernel call is in flight;
/// nested caps restore in reverse order.
class ScopedStampCap {
 public:
  explicit ScopedStampCap(Stamp cap)
      : prev_(detail::stamp_cap().exchange(static_cast<int>(cap))) {}
  ~ScopedStampCap() { detail::stamp_cap().store(prev_); }
  ScopedStampCap(const ScopedStampCap&) = delete;
  ScopedStampCap& operator=(const ScopedStampCap&) = delete;

 private:
  int prev_;
};

}  // namespace hetacc::kernels::simd

#ifdef HETACC_VEC

// vload/vstore/vsplat return and take vectors by value, and every ISA stamp
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

typedef float vf8 __attribute__((vector_size(32)));
typedef float vf16 __attribute__((vector_size(64)));
typedef double vd4 __attribute__((vector_size(32)));
typedef double vd8 __attribute__((vector_size(64)));
typedef std::int8_t vb8 __attribute__((vector_size(8)));
typedef std::int8_t vb16 __attribute__((vector_size(16)));
typedef std::int16_t vs8 __attribute__((vector_size(16)));
typedef std::int16_t vs16 __attribute__((vector_size(32)));
typedef std::int32_t vi8 __attribute__((vector_size(32)));
typedef std::int32_t vi16 __attribute__((vector_size(64)));

/// The `Bytes`-wide vector of T lanes a stamp computes in (32 bytes on the
/// baseline and AVX2 stamps, 64 on the AVX-512 stamp).
template <typename T, int Bytes>
struct VecOf;
template <> struct VecOf<float, 32> { using type = vf8; };
template <> struct VecOf<float, 64> { using type = vf16; };
template <> struct VecOf<double, 32> { using type = vd4; };
template <> struct VecOf<double, 64> { using type = vd8; };
template <> struct VecOf<std::int32_t, 32> { using type = vi8; };
template <> struct VecOf<std::int32_t, 64> { using type = vi16; };
template <> struct VecOf<std::int8_t, 8> { using type = vb8; };
template <> struct VecOf<std::int8_t, 16> { using type = vb16; };
template <> struct VecOf<std::int16_t, 16> { using type = vs8; };
template <> struct VecOf<std::int16_t, 32> { using type = vs16; };
template <typename T, int Bytes>
using vec_t = typename VecOf<T, Bytes>::type;

template <typename V>
using elem_t = std::remove_cv_t<std::remove_reference_t<
    decltype(std::declval<V&>()[0])>>;
template <typename V>
inline constexpr int lanes_v = static_cast<int>(sizeof(V) / sizeof(elem_t<V>));

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

/// Every lane set to x: a true broadcast. The shorthand `V{} + x` is not
/// one for floating-point lanes: 0.0 + x turns -0 into +0, so the compiler
/// must keep the add and emits a scalar add ahead of every broadcast. The
/// lanes go through a scalar array and vload, not a vector literal or
/// expression: GCC lowers those for this helper's own (baseline) ISA before
/// inlining it, and a 512-bit stamp then rebuilds the vector lane by lane,
/// while the array folds into one broadcast in any stamp.
template <typename V>
__attribute__((always_inline)) inline V vsplat(elem_t<V> x) {
  elem_t<V> lanes[lanes_v<V>];
  for (int i = 0; i < lanes_v<V>; ++i) lanes[i] = x;
  return vload<V>(lanes);
}

/// vsplat of *p, loaded straight into the broadcast. The empty asm hides
/// p's relation to its neighbours: without it, GCC's SLP vectorizer merges
/// the loads of adjacent broadcast operands into one vector load and then
/// spends a shuffle per lane taking it apart again, on the port a 512-bit
/// FMA needs.
template <typename V, typename T>
__attribute__((always_inline)) inline V vsplat_at(const T* p) {
  __asm__("" : "+r"(p));
  return vsplat<V>(*p);
}

}  // namespace hetacc::kernels::simd

#endif  // HETACC_VEC
