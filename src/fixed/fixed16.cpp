#include "fixed/fixed16.h"

namespace hetacc::fixed {

Fixed16 Fixed16::add_sat(Fixed16 other) const {
  const std::int32_t sum =
      static_cast<std::int32_t>(raw_) + static_cast<std::int32_t>(other.raw_);
  return from_raw(static_cast<std::int16_t>(std::clamp(sum, kMin, kMax)),
                  frac_);
}

Fixed16 Fixed16::mul_sat(Fixed16 other) const {
  const std::int64_t prod =
      static_cast<std::int64_t>(raw_) * static_cast<std::int64_t>(other.raw_);
  // Round to nearest when shifting out `frac_` bits.
  const std::int64_t half = frac_ > 0 ? (1ll << (frac_ - 1)) : 0;
  const std::int64_t shifted = (prod + half) >> frac_;
  return from_raw(
      static_cast<std::int16_t>(std::clamp<std::int64_t>(shifted, kMin, kMax)),
      frac_);
}

void quantize_in_place(std::vector<float>& data, int frac) {
  for (auto& x : data) x = quantize_to_float(x, frac);
}

int choose_frac_bits(float max_abs) {
  if (!(max_abs > 0.0f)) return 15;
  int integer_bits = 0;
  while ((1 << integer_bits) <= static_cast<int>(max_abs) &&
         integer_bits < 15) {
    ++integer_bits;
  }
  // One sign bit + integer_bits + frac = 16.
  return std::clamp(15 - integer_bits, 0, 15);
}

Fixed16 Accumulator::result() const {
  const std::int64_t half = frac_ > 0 ? (1ll << (frac_ - 1)) : 0;
  const std::int64_t shifted = (acc_ + half) >> frac_;
  return Fixed16::from_raw(
      static_cast<std::int16_t>(
          std::clamp<std::int64_t>(shifted, Fixed16::kMin, Fixed16::kMax)),
      frac_);
}

Fixed16 Accumulator::result_relu() const {
  Fixed16 r = result();
  return r.raw() < 0 ? Fixed16::from_raw(0, r.frac()) : r;
}

}  // namespace hetacc::fixed
