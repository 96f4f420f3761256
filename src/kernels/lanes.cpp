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

#ifdef HETACC_VEC

using namespace simd;

// Baseline stamp: generic vectors legalized to whatever the build targets.
#define HETACC_LANE_TARGET
#define HETACC_LANE_NAME(n) n##_base
#define HETACC_LANE_BYTES 32
#include "kernels/lane_kernels.inc"
#undef HETACC_LANE_TARGET
#undef HETACC_LANE_NAME
#undef HETACC_LANE_BYTES

template <int B>
struct TransformBase {
  static constexpr TransformFn run = &lane_transform_base<B>;
};

#ifdef HETACC_X86_DISPATCH
// AVX2 stamp without FMA, and the AVX-512 stamp, whose target includes FMA
// (this file is compiled without contraction; see lane_kernels.inc).
// Selected at runtime.
#define HETACC_LANE_TARGET __attribute__((target("avx2")))
#define HETACC_LANE_NAME(n) n##_avx2
#define HETACC_LANE_BYTES 32
#include "kernels/lane_kernels.inc"
#undef HETACC_LANE_TARGET
#undef HETACC_LANE_NAME
#undef HETACC_LANE_BYTES

#define HETACC_LANE_TARGET HETACC_AVX512_TARGET
#define HETACC_LANE_NAME(n) n##_avx512
#define HETACC_LANE_BYTES 64
#include "kernels/lane_kernels.inc"
#undef HETACC_LANE_TARGET
#undef HETACC_LANE_NAME
#undef HETACC_LANE_BYTES

template <int B>
struct TransformAvx2 {
  static constexpr TransformFn run = &lane_transform_avx2<B>;
};

template <int B>
struct TransformAvx512 {
  static constexpr TransformFn run = &lane_transform_avx512<B>;
};
#endif  // HETACC_X86_DISPATCH

#endif  // HETACC_VEC

/// A stamp's lane kernels.
struct LaneKernels {
  TransformTable transform;
  SnapFn snap;
};

constexpr auto kDims = std::make_integer_sequence<int, kLaneTransformMaxDim>();

/// The lane kernels of the active stamp (simd::active_stamp()).
const LaneKernels& lane_kernels() {
  switch (simd::active_stamp()) {
#ifdef HETACC_X86_DISPATCH
    case simd::Stamp::kAvx512: {
      static constexpr LaneKernels k{make_table<TransformAvx512>(kDims),
                                     &snap_q16_avx512};
      return k;
    }
    case simd::Stamp::kAvx2: {
      static constexpr LaneKernels k{make_table<TransformAvx2>(kDims),
                                     &snap_q16_avx2};
      return k;
    }
#endif
#ifdef HETACC_VEC
    case simd::Stamp::kBase: {
      static constexpr LaneKernels k{make_table<TransformBase>(kDims),
                                     &snap_q16_base};
      return k;
    }
#endif
    default: {
      static constexpr LaneKernels k{make_table<TransformScalar>(kDims),
                                     &snap_q16_scalar};
      return k;
    }
  }
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
