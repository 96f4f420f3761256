#include "kernels/lanes.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "fixed/fixed16.h"
#include "kernels/simd.h"

namespace hetacc::kernels {

namespace {

using TransformFn = void (*)(const double*, const double*, int,
                             const double*, std::size_t, double*,
                             std::size_t, int);
using SnapFn = void (*)(const float*, float*, std::size_t, int);

/// One TransformFn per inner dimension b = 1 .. kLaneTransformMaxDim.
using TransformTable = std::array<TransformFn, kLaneTransformMaxDim>;

template <template <int> class Fn, int... Bs>
constexpr TransformTable make_table(std::integer_sequence<int, Bs...>) {
  return {Fn<Bs + 1>::run...};
}

#ifdef HETACC_VEC

using namespace simd;

// Baseline stamp: generic vectors legalized to whatever the build targets.
#define HETACC_LANE_TARGET
#define HETACC_LANE_NAME(n) n##_base
#include "kernels/lane_kernels.inc"
#undef HETACC_LANE_TARGET
#undef HETACC_LANE_NAME

template <int B>
struct TransformBase {
  static constexpr TransformFn run = &lane_transform_base<B>;
};

#ifdef HETACC_X86_DISPATCH
// AVX2 stamp without FMA (see lane_kernels.inc), selected at runtime.
#define HETACC_LANE_TARGET __attribute__((target("avx2")))
#define HETACC_LANE_NAME(n) n##_avx2
#include "kernels/lane_kernels.inc"
#undef HETACC_LANE_TARGET
#undef HETACC_LANE_NAME

template <int B>
struct TransformAvx2 {
  static constexpr TransformFn run = &lane_transform_avx2<B>;
};
#endif  // HETACC_X86_DISPATCH

#else  // !HETACC_VEC

/// Scalar twin of the lane_transform stamps, one lane at a time.
template <int B>
void lane_transform_scalar(const double* L, const double* R, int a,
                           const double* x, std::size_t xs, double* y,
                           std::size_t ys, int lanes) {
  double p[kLaneTransformMaxDim][B];
  for (int i = 0; i < lanes; ++i) {
    for (int r = 0; r < a; ++r) {
      double acc[B] = {};
      for (int k = 0; k < B; ++k) {
        const double l = L[r * B + k];
        if (l == 0.0) continue;
        for (int c = 0; c < B; ++c) acc[c] += l * x[(k * B + c) * xs + i];
      }
      for (int c = 0; c < B; ++c) p[r][c] = acc[c];
    }
    for (int r = 0; r < a; ++r) {
      for (int s = 0; s < a; ++s) {
        double acc = 0.0;
        for (int k = 0; k < B; ++k) acc += p[r][k] * R[s * B + k];
        y[(r * a + s) * ys + i] = acc;
      }
    }
  }
}

template <int B>
struct TransformScalar {
  static constexpr TransformFn run = &lane_transform_scalar<B>;
};

/// Scalar twin of the snap_q16 stamps.
void snap_q16_scalar(const float* src, float* dst, std::size_t n, int frac) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = src[i] == src[i] ? fixed::quantize_to_float(src[i], frac) : 0.0f;
  }
}

#endif  // HETACC_VEC

/// The stamp this CPU runs, chosen once per process.
struct LaneKernels {
  TransformTable transform;
  SnapFn snap;
};

const LaneKernels& lane_kernels() {
  static const LaneKernels k = [] {
    constexpr auto dims = std::make_integer_sequence<int, kLaneTransformMaxDim>();
#ifdef HETACC_VEC
#ifdef HETACC_X86_DISPATCH
    if (cpu_has_avx2()) {
      return LaneKernels{make_table<TransformAvx2>(dims), &snap_q16_avx2};
    }
#endif
    return LaneKernels{make_table<TransformBase>(dims), &snap_q16_base};
#else
    return LaneKernels{make_table<TransformScalar>(dims), &snap_q16_scalar};
#endif
  }();
  return k;
}

}  // namespace

void lane_transform(const double* L, const double* R, int a, int b,
                    const double* x, std::size_t xs, double* y,
                    std::size_t ys, int lanes) {
  if (a < 1 || a > kLaneTransformMaxDim || b < 1 ||
      b > kLaneTransformMaxDim) {
    throw std::logic_error("lane_transform: unsupported shape " +
                           std::to_string(a) + "x" + std::to_string(b));
  }
  lane_kernels().transform[static_cast<std::size_t>(b - 1)](L, R, a, x, xs, y,
                                                            ys, lanes);
}

void snap_q16(const float* src, float* dst, std::size_t n, int frac) {
  lane_kernels().snap(src, dst, n, frac);
}

}  // namespace hetacc::kernels
