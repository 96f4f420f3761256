#include "arch/line_buffer.h"

#include <algorithm>

namespace hetacc::arch {

void CircularLineBuffer::push_row(const std::vector<float>& row) {
  if (static_cast<int>(row.size()) != channels_ * width_) {
    throw std::invalid_argument("push_row: wrong row size");
  }
  std::copy(row.begin(), row.end(), next_line());
  commit_row();
}

void CircularLineBuffer::commit_row() {
  if (fault_) {
    fault_->maybe_corrupt_row(fault::FaultSite::kLineBuffer, fault_stream_,
                              static_cast<std::uint64_t>(next_row_),
                              next_line(),
                              static_cast<std::size_t>(channels_) * width_);
  }
  ++next_row_;
}

float CircularLineBuffer::at(int channel, long long row, int col) const {
  if (channel < 0 || channel >= channels_ || col < 0 || col >= width_) {
    throw std::out_of_range("CircularLineBuffer::at: bad channel/col");
  }
  if (!contains(row)) {
    throw std::out_of_range(
        "CircularLineBuffer::at: row " + std::to_string(row) +
        " not resident (window [" + std::to_string(oldest_row()) + ", " +
        std::to_string(next_row_) + "))");
  }
  const auto line = static_cast<std::size_t>(row % lines_);
  return data_[(line * channels_ + channel) * width_ + col];
}

const float* CircularLineBuffer::row_ptr(int channel, long long row) const {
  if (channel < 0 || channel >= channels_) {
    throw std::out_of_range("CircularLineBuffer::row_ptr: bad channel");
  }
  if (!contains(row)) {
    throw std::out_of_range(
        "CircularLineBuffer::row_ptr: row " + std::to_string(row) +
        " not resident (window [" + std::to_string(oldest_row()) + ", " +
        std::to_string(next_row_) + "))");
  }
  const auto line = static_cast<std::size_t>(row % lines_);
  return data_.data() + (line * channels_ + channel) * width_;
}

void CircularLineBuffer::reset() {
  next_row_ = 0;
  std::fill(data_.begin(), data_.end(), 0.0f);
}

}  // namespace hetacc::arch
