#pragma once
// Dense tensor in CHW layout used throughout the reference executor and the
// architecture simulator. Single-image (batch-1) inference, matching the
// paper's latency experiments.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hetacc::nn {

/// Shape of a CHW tensor. `c` is channels, `h` rows, `w` columns.
struct Shape {
  int c = 0;
  int h = 0;
  int w = 0;

  [[nodiscard]] std::int64_t elems() const {
    return static_cast<std::int64_t>(c) * h * w;
  }
  /// Bytes occupied at the given element width (paper uses 16-bit fixed).
  [[nodiscard]] std::int64_t bytes(int bytes_per_elem = 2) const {
    return elems() * bytes_per_elem;
  }
  bool operator==(const Shape&) const = default;
  [[nodiscard]] std::string str() const;
};

/// Row-major CHW float tensor.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape s, float fill = 0.0f)
      : shape_(s), data_(static_cast<std::size_t>(s.elems()), fill) {
    if (s.c < 0 || s.h < 0 || s.w < 0) {
      throw std::invalid_argument("Tensor: negative shape " + s.str());
    }
  }
  Tensor(int c, int h, int w, float fill = 0.0f) : Tensor(Shape{c, h, w}, fill) {}

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t size() const { return shape_.elems(); }

  float& at(int c, int h, int w) { return data_[index(c, h, w)]; }
  [[nodiscard]] float at(int c, int h, int w) const {
    return data_[index(c, h, w)];
  }
  /// Reads with zero padding outside the spatial extent (channels must be
  /// in range). Convolution reference paths use this for padded borders.
  [[nodiscard]] float at_padded(int c, int h, int w) const {
    if (h < 0 || h >= shape_.h || w < 0 || w >= shape_.w) return 0.0f;
    return at(c, h, w);
  }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::vector<float>& vec() { return data_; }
  [[nodiscard]] const std::vector<float>& vec() const { return data_; }

  /// Raw row pointers for hot loops: no per-element bounds check
  /// (the caller owns range correctness, checked once here).
  [[nodiscard]] float* row_ptr(int c, int h) {
    check(c, h, 0);
    return data_.data() + (static_cast<std::size_t>(c) * shape_.h + h) * shape_.w;
  }
  [[nodiscard]] const float* row_ptr(int c, int h) const {
    check(c, h, 0);
    return data_.data() + (static_cast<std::size_t>(c) * shape_.h + h) * shape_.w;
  }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Max absolute difference against another tensor of identical shape.
  [[nodiscard]] float max_abs_diff(const Tensor& other) const;

  bool operator==(const Tensor&) const = default;

 private:
  [[nodiscard]] std::size_t index(int c, int h, int w) const {
    check(c, h, w);
    return (static_cast<std::size_t>(c) * shape_.h + h) * shape_.w + w;
  }
  void check(int c, int h, int w) const {
    if (c < 0 || c >= shape_.c || h < 0 || h >= shape_.h || w < 0 ||
        w >= shape_.w) {
      throw std::out_of_range("Tensor index (" + std::to_string(c) + "," +
                              std::to_string(h) + "," + std::to_string(w) +
                              ") out of " + shape_.str());
    }
  }

  Shape shape_{};
  std::vector<float> data_;
};

/// Filter bank for a convolutional layer: N output channels, each an
/// M x K x K kernel, stored as [n][m][u][v] row-major.
class FilterBank {
 public:
  FilterBank() = default;
  FilterBank(int n, int m, int k, float fill = 0.0f)
      : n_(n), m_(m), k_(k),
        data_(static_cast<std::size_t>(n) * m * k * k, fill) {
    if (n < 0 || m < 0 || k < 0) {
      throw std::invalid_argument("FilterBank: negative dimension");
    }
  }

  [[nodiscard]] int out_channels() const { return n_; }
  [[nodiscard]] int in_channels() const { return m_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(n_) * m_ * k_ * k_;
  }

  float& at(int n, int m, int u, int v) {
    return data_[index(n, m, u, v)];
  }
  [[nodiscard]] float at(int n, int m, int u, int v) const {
    return data_[index(n, m, u, v)];
  }
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

 private:
  [[nodiscard]] std::size_t index(int n, int m, int u, int v) const {
    if (n < 0 || n >= n_ || m < 0 || m >= m_ || u < 0 || u >= k_ || v < 0 ||
        v >= k_) {
      throw std::out_of_range("FilterBank index out of range");
    }
    return ((static_cast<std::size_t>(n) * m_ + m) * k_ + u) * k_ + v;
  }

  int n_ = 0, m_ = 0, k_ = 0;
  std::vector<float> data_;
};

/// Deterministic pseudo-random fill used by tests and benches so that every
/// run and every implementation sees identical data.
void fill_deterministic(Tensor& t, std::uint32_t seed);
void fill_deterministic(FilterBank& f, std::uint32_t seed);
void fill_deterministic(std::vector<float>& v, std::uint32_t seed);

}  // namespace hetacc::nn
