#pragma once
// 16-bit fixed-point arithmetic (the paper's designs all use "16-bit fixed
// data type", §7.1). Q-format with a runtime fraction width so different
// layers can pick different scalings, saturating on overflow like a DSP48E
// datapath with saturation logic.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace hetacc::fixed {

/// A 16-bit signed fixed-point value with `frac` fractional bits.
/// Stored/computed explicitly rather than via a template parameter so the
/// simulator can mix formats across layers at runtime.
class Fixed16 {
 public:
  static constexpr int kBits = 16;
  static constexpr std::int32_t kMax = std::numeric_limits<std::int16_t>::max();
  static constexpr std::int32_t kMin = std::numeric_limits<std::int16_t>::min();

  Fixed16() = default;
  Fixed16(float v, int frac) : frac_(frac), raw_(quantize(v, frac)) {}

  static Fixed16 from_raw(std::int16_t raw, int frac) {
    Fixed16 f;
    f.raw_ = raw;
    f.frac_ = frac;
    return f;
  }

  [[nodiscard]] std::int16_t raw() const { return raw_; }
  [[nodiscard]] int frac() const { return frac_; }
  [[nodiscard]] float to_float() const {
    return static_cast<float>(raw_) / static_cast<float>(1 << frac_);
  }

  /// Quantization step at this format.
  [[nodiscard]] float ulp() const { return 1.0f / static_cast<float>(1 << frac_); }

  /// Saturating add; both operands must share a format.
  [[nodiscard]] Fixed16 add_sat(Fixed16 other) const;
  /// Saturating multiply: full 32-bit product, round-to-nearest shift back.
  [[nodiscard]] Fixed16 mul_sat(Fixed16 other) const;

  /// The one Q16 rounding routine: v * 2^frac rounded to nearest, ties to
  /// even, saturated to [kMin, kMax]. Adding and subtracting 1.5 * 2^23
  /// rounds exactly like std::nearbyint for |scaled| < 2^22, and any larger
  /// value lands on the same saturation rail either way. The pair must
  /// survive compilation, so this header must not be built with -ffast-math
  /// or -fassociative-math (they would fold it to a no-op).
  static std::int16_t quantize(float v, int frac) {
    constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
    const float scaled = v * pow2(frac);
    const float rounded = (scaled + kRound) - kRound;
    const float clamped = std::clamp(rounded, static_cast<float>(kMin),
                                     static_cast<float>(kMax));
    return static_cast<std::int16_t>(clamped);
  }

  /// Exact 2^e for |e| < 127, built from its bit pattern (no libm call, no
  /// division).
  static float pow2(int e) {
    return std::bit_cast<float>(static_cast<std::uint32_t>(127 + e) << 23);
  }

 private:
  int frac_ = 8;
  std::int16_t raw_ = 0;
};

/// Round-trip a float through the 16-bit grid (the operation applied to all
/// feature maps and weights before they enter a fixed-point datapath).
[[nodiscard]] inline float quantize_to_float(float v, int frac) {
  return static_cast<float>(Fixed16::quantize(v, frac)) *
         Fixed16::pow2(-frac);
}

void quantize_in_place(std::vector<float>& data, int frac);

/// Fraction width that covers `max_abs` without saturation while keeping
/// maximal precision; clamped to [0, 15].
[[nodiscard]] int choose_frac_bits(float max_abs);

/// 32-bit accumulator in Q(2*frac) as used by MAC trees: products of two
/// Q(frac) values accumulate exactly, one rounding at writeback.
class Accumulator {
 public:
  explicit Accumulator(int frac) : frac_(frac) {}
  void mac(Fixed16 a, Fixed16 b) {
    acc_ += static_cast<std::int64_t>(a.raw()) * b.raw();
  }
  void add_bias(Fixed16 b) {
    acc_ += static_cast<std::int64_t>(b.raw()) << frac_;
  }
  [[nodiscard]] Fixed16 result() const;
  [[nodiscard]] Fixed16 result_relu() const;

 private:
  int frac_;
  std::int64_t acc_ = 0;
};

}  // namespace hetacc::fixed
