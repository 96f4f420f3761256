#pragma once
// Circular line buffer (paper §4.2, Fig. 2(b)): holds `lines` rows of an
// M-channel feature map. Rows are pushed in raster order and addressed by
// their absolute row index; the storage reuses lines modulo `lines`,
// exactly like the BRAM structure the generated HLS code infers.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fault/fault.h"

namespace hetacc::arch {

class CircularLineBuffer {
 public:
  CircularLineBuffer(int channels, int width, int lines)
      : channels_(channels), width_(width), lines_(lines),
        data_(static_cast<std::size_t>(channels) * width * lines, 0.0f) {
    if (channels <= 0 || width <= 0 || lines <= 0) {
      throw std::invalid_argument("CircularLineBuffer: bad geometry");
    }
  }

  [[nodiscard]] int channels() const { return channels_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int lines() const { return lines_; }
  /// Absolute index of the next row to be pushed.
  [[nodiscard]] long long next_row() const { return next_row_; }
  /// Oldest absolute row still resident.
  [[nodiscard]] long long oldest_row() const {
    return next_row_ < lines_ ? 0 : next_row_ - lines_;
  }
  [[nodiscard]] bool contains(long long row) const {
    return row >= oldest_row() && row < next_row_;
  }

  /// Pushes one row: `row[c * width + w]`. Overwrites the line that has
  /// rotated out of the reuse window — the "load into line [1, S]" step of
  /// the paper's walk-through.
  void push_row(const std::vector<float>& row);

  /// In-place push, for writers that build the row straight into storage:
  /// next_line() is the line the next push overwrites (channels() * width()
  /// floats, still holding the evicted row), and commit_row() publishes it
  /// exactly as push_row would, fault hook included.
  [[nodiscard]] float* next_line() {
    return data_.data() +
           static_cast<std::size_t>(next_row_ % lines_) * channels_ * width_;
  }
  void commit_row();

  /// Element access by absolute row index; throws if the row has already
  /// been overwritten (a correctness guard the hardware enforces by
  /// schedule construction).
  [[nodiscard]] float at(int channel, long long row, int col) const;

  /// Raw pointer to one channel's row (width() floats); residency and
  /// channel range checked once per row, not per element.
  [[nodiscard]] const float* row_ptr(int channel, long long row) const;

  /// Returns to the post-construction state (frame boundary): counters
  /// cleared and storage zeroed, matching the hardware's per-frame reset.
  void reset();

  /// Attaches a fault injector; `stream` identifies this buffer's engine as
  /// an injection stream. Null detaches; no injector means push_row is
  /// byte-identical to the unhooked design.
  void attach_fault(const fault::FaultInjector* inj, std::uint64_t stream) {
    fault_ = inj;
    fault_stream_ = stream;
  }

 private:
  int channels_, width_, lines_;
  long long next_row_ = 0;
  std::vector<float> data_;  ///< [line][channel][col]
  const fault::FaultInjector* fault_ = nullptr;
  std::uint64_t fault_stream_ = 0;
};

}  // namespace hetacc::arch
