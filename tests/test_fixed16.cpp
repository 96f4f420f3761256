#include "fixed/fixed16.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace hetacc::fixed {
namespace {

TEST(Fixed16, RoundTripExactValues) {
  // Values on the Q8 grid round-trip exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 3.25f, -7.875f}) {
    EXPECT_EQ(Fixed16(v, 8).to_float(), v);
  }
}

TEST(Fixed16, QuantizationErrorBounded) {
  const int frac = 10;
  const float ulp = 1.0f / (1 << frac);
  for (float v = -3.0f; v < 3.0f; v += 0.00137f) {
    const float q = quantize_to_float(v, frac);
    EXPECT_LE(std::abs(q - v), ulp / 2 + 1e-7f) << v;
  }
}

TEST(Fixed16, SaturatesAtRangeEnds) {
  EXPECT_EQ(Fixed16(1e9f, 8).raw(), Fixed16::kMax);
  EXPECT_EQ(Fixed16(-1e9f, 8).raw(), Fixed16::kMin);
}

// The std::nearbyint body the inline quantizer replaced, kept as its oracle.
std::int16_t quantize_nearbyint(float v, int frac) {
  const float scaled = v * static_cast<float>(1 << frac);
  const float rounded = std::nearbyint(scaled);
  const float clamped = std::clamp(rounded, static_cast<float>(Fixed16::kMin),
                                   static_cast<float>(Fixed16::kMax));
  return static_cast<std::int16_t>(clamped);
}

TEST(Fixed16, QuantizeMatchesNearbyintOnTiesRailsAndSpecials) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
  constexpr float kNormMin = std::numeric_limits<float>::min();
  constexpr float kMaxF = std::numeric_limits<float>::max();
  // Scaled values (v * 2^frac) at and around both saturation rails and the
  // edges of the rounding constant's exact range.
  const std::vector<float> rails = {
      32767.0f,  32767.5f,  32768.0f,   32768.5f,  -32768.0f,  -32768.5f,
      -32769.0f, -32769.5f, 65535.5f,   -65536.5f, 4194303.5f, 4194304.0f,
      4194305.0f, -4194303.5f, -4194304.0f, 8388608.0f, -8388608.0f,
      12582912.0f, -12582912.0f, 16777216.0f, -16777216.0f, 1e30f, -1e30f};
  // Raw inputs: signed zeros, infinities, denormals, the normal extremes.
  const std::vector<float> specials = {
      0.0f,        -0.0f,        kInf,        -kInf,
      kDenormMin,  -kDenormMin,  kNormMin - kDenormMin,
      -(kNormMin - kDenormMin),  kNormMin,    -kNormMin,
      kMaxF,       -kMaxF};
  for (int frac = 0; frac <= 15; ++frac) {
    const float scale = static_cast<float>(1 << frac);
    long long checked = 0;
    long long mismatches = 0;
    float first_bad = 0.0f;
    auto check = [&](float v) {
      ++checked;
      const std::int16_t want = quantize_nearbyint(v, frac);
      const float want_f = static_cast<float>(want) / scale;
      if (Fixed16::quantize(v, frac) != want ||
          std::bit_cast<std::uint32_t>(quantize_to_float(v, frac)) !=
              std::bit_cast<std::uint32_t>(want_f)) {
        if (mismatches++ == 0) first_bad = v;
      }
    };
    auto with_neighbours = [&](float v) {
      check(v);
      check(std::nextafter(v, kInf));
      check(std::nextafter(v, -kInf));
    };
    // Every half-integer tie of the scaled value in [-2^16, 2^16].
    for (int k = -(1 << 16); k < (1 << 16); ++k) {
      with_neighbours((static_cast<float>(k) + 0.5f) / scale);
    }
    for (float r : rails) with_neighbours(r / scale);
    for (float v : specials) with_neighbours(v);
    EXPECT_EQ(mismatches, 0) << "frac " << frac << ": first mismatch at "
                             << first_bad << " of " << checked;
  }
}

TEST(Fixed16, AddSaturates) {
  const Fixed16 big(127.0f, 8);
  const Fixed16 sum = big.add_sat(big);
  EXPECT_EQ(sum.raw(), Fixed16::kMax);
  const Fixed16 small(1.5f, 8);
  EXPECT_FLOAT_EQ(small.add_sat(small).to_float(), 3.0f);
}

TEST(Fixed16, MulMatchesFloatWithinUlp) {
  const int frac = 8;
  const Fixed16 a(1.25f, frac), b(-2.5f, frac);
  EXPECT_NEAR(a.mul_sat(b).to_float(), -3.125f, a.ulp());
}

TEST(Fixed16, MulSaturates) {
  const Fixed16 a(100.0f, 8), b(100.0f, 8);
  EXPECT_EQ(a.mul_sat(b).raw(), Fixed16::kMax);
}

TEST(Fixed16, UlpMatchesFrac) {
  EXPECT_FLOAT_EQ(Fixed16(0.0f, 12).ulp(), 1.0f / 4096.0f);
}

TEST(ChooseFracBits, CoversMagnitude) {
  EXPECT_EQ(choose_frac_bits(0.5f), 15);
  EXPECT_EQ(choose_frac_bits(1.5f), 14);
  EXPECT_EQ(choose_frac_bits(3.9f), 13);
  EXPECT_EQ(choose_frac_bits(100.0f), 8);
  EXPECT_EQ(choose_frac_bits(0.0f), 15);
}

TEST(ChooseFracBits, NoSaturationAtChosenWidth) {
  for (float mag : {0.3f, 1.0f, 2.7f, 9.0f, 200.0f}) {
    const int frac = choose_frac_bits(mag);
    const float q = quantize_to_float(mag, frac);
    // Quantization may clamp by at most one ulp at the extreme.
    EXPECT_NEAR(q, mag, 1.0f / (1 << frac) + 1e-6f);
  }
}

TEST(Accumulator, ExactProductAccumulation) {
  const int frac = 8;
  Accumulator acc(frac);
  // 0.5 * 0.25 accumulated 16 times = 2.0 exactly in Q8.
  for (int i = 0; i < 16; ++i) acc.mac(Fixed16(0.5f, frac), Fixed16(0.25f, frac));
  EXPECT_FLOAT_EQ(acc.result().to_float(), 2.0f);
}

TEST(Accumulator, BiasInjection) {
  const int frac = 8;
  Accumulator acc(frac);
  acc.add_bias(Fixed16(1.5f, frac));
  acc.mac(Fixed16(2.0f, frac), Fixed16(2.0f, frac));
  EXPECT_FLOAT_EQ(acc.result().to_float(), 5.5f);
}

TEST(Accumulator, ReluClampsNegative) {
  Accumulator acc(8);
  acc.mac(Fixed16(-2.0f, 8), Fixed16(3.0f, 8));
  EXPECT_FLOAT_EQ(acc.result_relu().to_float(), 0.0f);
  EXPECT_FLOAT_EQ(acc.result().to_float(), -6.0f);
}

TEST(Accumulator, SaturatesOnWriteback) {
  Accumulator acc(8);
  for (int i = 0; i < 100; ++i) acc.mac(Fixed16(100.0f, 8), Fixed16(100.0f, 8));
  EXPECT_EQ(acc.result().raw(), Fixed16::kMax);
}

TEST(QuantizeInPlace, WholeVector) {
  std::vector<float> v{0.1f, 0.2f, -0.3f};
  quantize_in_place(v, 4);
  for (float x : v) {
    EXPECT_FLOAT_EQ(x * 16.0f, std::nearbyint(x * 16.0f));
  }
}

}  // namespace
}  // namespace hetacc::fixed
