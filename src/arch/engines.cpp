#include "arch/engines.h"

#include <algorithm>
#include <cmath>

#include "algo/int8_quant.h"
#include "kernels/lanes.h"
#include "nn/reference.h"

namespace hetacc::arch {

namespace {

/// Snaps `n` values onto one grid of the mode: the i8 activation grid
/// (`scale`, `zp`) in int8 mode (round-trip through the code so buffered
/// floats are exactly representable and later re-quantization recovers the
/// same code), the Q(frac) grid when frac >= 0 (kernels::snap_q16, 8 lanes
/// per vector; a NaN snaps to +0), identity otherwise. The mode is picked
/// once per row, not per element. `dst` may alias `src`.
void snap_row(bool i8, float scale, std::int32_t zp, int frac,
              const float* src, float* dst, std::size_t n) {
  if (i8) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = algo::dequantize_act_i8(algo::quantize_act_i8(src[i], scale, zp),
                                       scale, zp);
    }
  } else if (frac >= 0) {
    kernels::snap_q16(src, dst, n, frac);
  } else if (dst != src) {
    std::copy(src, src + n, dst);
  }
}

/// Snaps onto the mode's input grid.
void snap_in(const NumericMode& m, const float* src, float* dst,
             std::size_t n) {
  snap_row(m.int8(), m.in_scale, m.in_zp, m.in_frac, src, dst, n);
}

/// Snaps onto the mode's output grid.
void snap_out(const NumericMode& m, const float* src, float* dst,
              std::size_t n) {
  snap_row(m.int8(), m.out_scale, m.out_zp, m.out_frac, src, dst, n);
}

/// Common row-ingestion machinery: presents the input as a padded stream of
/// rows held in a circular line buffer. Vertical padding rows are
/// synthesized, horizontal padding is embedded in the buffered row. `lines`
/// is the modeled hardware's line count; an engine that computes several
/// output rows per host step may hold `host_lines` >= lines rows instead,
/// without changing what line_buffer_lines() reports.
class RowWindowBase : public StreamEngine {
 public:
  RowWindowBase(const nn::Layer& layer, int lines, NumericMode mode,
                int host_lines = 0)
      : layer_(layer), mode_(mode), pad_(layer.padding()),
        padded_w_(layer.in.w + 2 * layer.padding()),
        padded_h_(layer.in.h + 2 * layer.padding()),
        lines_(lines),
        lb_(layer.in.c, layer.in.w + 2 * layer.padding(),
            std::max(lines, host_lines)) {}

  [[nodiscard]] const nn::Layer& layer() const override { return layer_; }
  [[nodiscard]] int line_buffer_lines() const override { return lines_; }
  [[nodiscard]] bool done() const override {
    return rows_emitted_ == layer_.out.h;
  }

  void reset() override {
    lb_.reset();
    rows_emitted_ = 0;
  }

  void set_fault_injector(const fault::FaultInjector* inj,
                          std::uint64_t stream) override {
    lb_.attach_fault(inj, stream);
  }

  bool step(RowFifo& in, RowFifo& out) override {
    if (done()) return false;
    // Prefer emitting (drains the pipeline) over ingesting; honor the
    // output channel's back-pressure (a wedged channel reads full()).
    if (window_ready() && !out.full()) {
      out.push(emit_row());
      ++rows_emitted_;
      return true;
    }
    if (window_ready()) return false;  // blocked on the output stream
    return ingest(in);
  }

 protected:
  /// Next padded row index still to be pushed into the line buffer.
  [[nodiscard]] long long pushed() const { return lb_.next_row(); }

  /// Pushes the next padded row, written in place into the line buffer's
  /// next line: zeros for a synthetic (vertical padding) row, otherwise the
  /// next input row snapped onto the input grid between zero borders.
  bool ingest(RowFifo& in) {
    if (pushed() >= padded_h_) return false;
    const long long padded_row = pushed();
    const bool synthetic =
        padded_row < pad_ || padded_row >= pad_ + layer_.in.h;
    float* dst = lb_.next_line();
    const std::size_t row_floats =
        static_cast<std::size_t>(layer_.in.c) * padded_w_;
    if (synthetic) {
      std::fill(dst, dst + row_floats, 0.0f);
      lb_.commit_row();
      return true;
    }
    if (in.empty()) return false;
    Row r = in.pop();
    if (static_cast<int>(r.data.size()) != layer_.in.c * layer_.in.w) {
      throw std::runtime_error("engine '" + layer_.name +
                               "': unexpected input row width");
    }
    // Snapped once over the whole row, in place, then laid out channel by
    // channel between the zero borders.
    snap_in(mode_, r.data.data(), r.data.data(), r.data.size());
    for (int c = 0; c < layer_.in.c; ++c) {
      float* d = dst + static_cast<std::size_t>(c) * padded_w_;
      const float* src =
          r.data.data() + static_cast<std::size_t>(c) * layer_.in.w;
      std::fill(d, d + pad_, 0.0f);
      std::copy(src, src + layer_.in.w, d + pad_);
      std::fill(d + pad_ + layer_.in.w, d + padded_w_, 0.0f);
    }
    lb_.commit_row();
    return true;
  }

  /// True when the line buffer holds every padded row the next output row
  /// (or row block) needs.
  [[nodiscard]] virtual bool window_ready() const = 0;
  [[nodiscard]] virtual Row emit_row() = 0;

  const nn::Layer layer_;
  const NumericMode mode_;
  const int pad_;
  const int padded_w_;
  const long long padded_h_;
  const int lines_;
  CircularLineBuffer lb_;
  int rows_emitted_ = 0;
};

// --------------------------------------------------------------------------
class ConvDirectEngine final : public RowWindowBase {
 public:
  ConvDirectEngine(const nn::Layer& layer, const nn::ConvWeights& w,
                   NumericMode mode, const LayerConstants& c)
      // Paper §4.2: the conventional line buffer has K + S lines.
      : RowWindowBase(layer, layer.conv().kernel + layer.conv().stride, mode),
        bias_(w.bias),
        direct_(c.direct),
        i8c_(c.int8) {
    const int k = layer.conv().kernel;
    const int kk = layer.in.c * k * k;
    if (mode_.int8()) {
      patch8_.resize(static_cast<std::size_t>(kk) * layer.out.w);
      out8_.resize(static_cast<std::size_t>(layer.out.c) * layer.out.w);
    }
    patch_.resize(static_cast<std::size_t>(kk) * layer.out.w);
    acc_.resize(static_cast<std::size_t>(layer.out.c) * layer.out.w);
  }

 private:
  [[nodiscard]] bool window_ready() const override {
    const int k = layer_.conv().kernel;
    const int s = layer_.conv().stride;
    return pushed() >= static_cast<long long>(rows_emitted_) * s + k;
  }

  [[nodiscard]] Row emit_row() override {
    const auto& cp = layer_.conv();
    const int k = cp.kernel, s = cp.stride;
    const int ow = layer_.out.w;
    const long long top = static_cast<long long>(rows_emitted_) * s;

    // Lower this output row's window into an im2col panel: one row per
    // (channel, ku, kv) tap, one column per output pixel.
    std::size_t pr = 0;
    for (int m = 0; m < layer_.in.c; ++m) {
      for (int u = 0; u < k; ++u) {
        const float* src = lb_.row_ptr(m, top + u);
        for (int v = 0; v < k; ++v, ++pr) {
          float* dst = patch_.data() + pr * ow;
          if (s == 1) {
            std::copy(src + v, src + v + ow, dst);
          } else {
            for (int j = 0; j < ow; ++j) dst[j] = src[j * s + v];
          }
        }
      }
    }

    if (mode_.int8()) {
      // Recover the exact i8 codes of the buffered (grid-snapped) patch —
      // synthetic padding rows hold real 0.0, which quantizes to the input
      // zero-point, exactly the pad code im2col would have used — then run
      // the integer datapath: exact i32 accumulation, requantize-on-
      // writeback epilogue, dequantized onto the output grid.
      const std::size_t np = patch_.size();
      for (std::size_t p = 0; p < np; ++p) {
        patch8_[p] = algo::quantize_act_i8(patch_[p], mode_.in_scale,
                                           mode_.in_zp);
      }
      kernels::QuantParams qp;
      qp.scales = i8c_->requant.data();
      qp.per_channel = true;
      qp.bias = i8c_->bias.data();
      qp.zero_point = mode_.out_zp;
      qp.relu = cp.fused_relu;
      kernels::gemm_i8(i8c_->packed, ow, patch8_.data(), ow, out8_.data(),
                       ow, qp, /*threads=*/0);
      Row r;
      r.data.resize(static_cast<std::size_t>(layer_.out.c) * ow);
      for (std::size_t i = 0; i < r.data.size(); ++i) {
        r.data[i] = algo::dequantize_act_i8(out8_[i], mode_.out_scale,
                                            mode_.out_zp);
      }
      return r;
    }

    // One GEMM per output row; the MAC tree accumulates in double, exactly
    // like the seed's per-pixel loop nest.
    kernels::gemm_f32d(*direct_, ow, patch_.data(), ow, acc_.data(), ow,
                       bias_.empty() ? nullptr : bias_.data(),
                       /*relu=*/false, /*threads=*/0);

    Row r;
    r.data.resize(acc_.size());
    float* dst = r.data.data();
    if (cp.fused_relu) {
      for (std::size_t i = 0; i < acc_.size(); ++i) {
        dst[i] = std::max(static_cast<float>(acc_[i]), 0.0f);
      }
    } else {
      for (std::size_t i = 0; i < acc_.size(); ++i) {
        dst[i] = static_cast<float>(acc_[i]);
      }
    }
    snap_out(mode_, dst, dst, r.data.size());
    return r;
  }

  std::vector<float> bias_;
  std::shared_ptr<const kernels::PackedLhsF64> direct_;
  std::shared_ptr<const Int8ConvConstants> i8c_;
  std::vector<float> patch_;
  std::vector<double> acc_;
  std::vector<std::int8_t> patch8_;
  std::vector<std::int8_t> out8_;
};

// --------------------------------------------------------------------------
/// Tile rows the Winograd engine computes per host step (see
/// kernels::winograd_band_rows): a function of the layer geometry only.
int winograd_band_rows(const nn::Layer& layer, int m) {
  return kernels::winograd_band_rows((layer.out.h + m - 1) / m,
                                     (layer.out.w + m - 1) / m);
}

class WinogradEngine final : public RowWindowBase {
 public:
  // The modeled line buffer holds n rows in flight through the transform
  // plus m streaming in. The host runs a band of B tile rows per GEMM, so it
  // holds (B - 1) * m more: the band's (B - 1) * m + n rows plus m.
  WinogradEngine(const nn::Layer& layer, const nn::ConvWeights& w,
                 NumericMode mode,
                 std::shared_ptr<const kernels::WinogradPlan> plan)
      : RowWindowBase(layer, plan->n + plan->m, mode,
                      (winograd_band_rows(layer, plan->m) - 1) * plan->m +
                          plan->n + plan->m),
        plan_(std::move(plan)),
        bias_(w.bias),
        band_rows_(winograd_band_rows(layer, plan_->m)),
        tiles_h_((layer.out.h + plan_->m - 1) / plan_->m),
        tiles_w_((layer.out.w + plan_->m - 1) / plan_->m),
        band_w_((tiles_w_ - 1) * plan_->m + plan_->n) {
    if (layer.conv().stride != 1) {
      throw std::invalid_argument("WinogradEngine requires stride 1");
    }
    if (layer.conv().kernel != plan_->r) {
      throw std::invalid_argument("WinogradEngine: kernel != r");
    }
    band_.resize(static_cast<std::size_t>(layer.in.c) *
                 ((band_rows_ - 1) * plan_->m + plan_->n) * band_w_);
  }

  void reset() override {
    RowWindowBase::reset();
    block_.clear();
    cursor_ = 0;
  }

 private:
  /// First tile row and tile-row count of the band holding output row
  /// rows_emitted_ (called at band boundaries).
  [[nodiscard]] int band_first() const {
    return rows_emitted_ / (band_rows_ * plan_->m) * band_rows_;
  }
  [[nodiscard]] int band_count() const {
    return std::min(band_rows_, tiles_h_ - band_first());
  }

  [[nodiscard]] bool window_ready() const override {
    if (cursor_ < block_.size()) return true;  // band computed, still emitting
    const long long top = static_cast<long long>(band_first()) * plan_->m;
    // Bottom tiles may hang past the padded edge; the overhang is zero-fill,
    // so only in-range rows are required.
    const long long need = std::min<long long>(
        top + static_cast<long long>(band_count() - 1) * plan_->m + plan_->n,
        padded_h_);
    return pushed() >= need;
  }

  [[nodiscard]] Row emit_row() override {
    if (cursor_ == block_.size()) compute_band();
    return std::move(block_[cursor_++]);
  }

  void compute_band() {
    const int n = plan_->n, m = plan_->m;
    const int rows_b = band_count();
    const long long top = static_cast<long long>(band_first()) * m;
    const int rows_in = (rows_b - 1) * m + n;
    const int rows_out =
        static_cast<int>(std::min<long long>(rows_b * m, layer_.out.h - top));
    block_.assign(static_cast<std::size_t>(rows_out), Row{});
    cursor_ = 0;
    for (auto& row : block_) {
      row.data.assign(static_cast<std::size_t>(layer_.out.c) * layer_.out.w,
                      0.0f);
    }

    // Gather the band's line-buffer rows into a contiguous window (zero
    // beyond the padded extent) and hand every tile of the band to the
    // batched kernel at once.
    const int copy_w = std::min(band_w_, padded_w_);
    for (int c = 0; c < layer_.in.c; ++c) {
      for (int u = 0; u < rows_in; ++u) {
        float* dst =
            band_.data() + (static_cast<std::size_t>(c) * rows_in + u) * band_w_;
        if (top + u >= padded_h_) {
          std::fill(dst, dst + band_w_, 0.0f);
          continue;
        }
        const float* src = lb_.row_ptr(c, top + u);
        std::copy(src, src + copy_w, dst);
        if (copy_w < band_w_) std::fill(dst + copy_w, dst + band_w_, 0.0f);
      }
    }

    out_rows_.assign(static_cast<std::size_t>(rows_out) * layer_.out.c,
                     nullptr);
    for (int a = 0; a < rows_out; ++a) {
      for (int oc = 0; oc < layer_.out.c; ++oc) {
        out_rows_[static_cast<std::size_t>(a) * layer_.out.c + oc] =
            block_[static_cast<std::size_t>(a)].data.data() +
            static_cast<std::size_t>(oc) * layer_.out.w;
      }
    }
    kernels::winograd_band(*plan_, band_.data(), band_w_, rows_b, tiles_w_,
                           out_rows_.data(), rows_out, layer_.out.w,
                           bias_.empty() ? nullptr : bias_.data(),
                           layer_.conv().fused_relu, /*v_frac=*/-1,
                           mode_.out_frac, /*threads=*/0);
  }

  std::shared_ptr<const kernels::WinogradPlan> plan_;
  std::vector<float> bias_;
  const int band_rows_;
  const int tiles_h_;
  const int tiles_w_;
  const int band_w_;
  std::vector<float> band_;
  std::vector<Row> block_;  ///< the computed band's output rows
  std::size_t cursor_ = 0;  ///< next block_ row to emit
  std::vector<float*> out_rows_;  ///< reused across compute_band calls
};

// --------------------------------------------------------------------------
class PoolEngine final : public RowWindowBase {
 public:
  PoolEngine(const nn::Layer& layer, NumericMode mode)
      : RowWindowBase(layer, layer.pool().kernel + layer.pool().stride, mode),
        rows_(static_cast<std::size_t>(layer.pool().kernel)) {}

 private:
  [[nodiscard]] bool window_ready() const override {
    const auto& pp = layer_.pool();
    // Caffe's ceil rounding can leave the last window hanging past the
    // padded bottom edge; it is clipped, so only in-range rows are required.
    const long long need = std::min<long long>(
        static_cast<long long>(rows_emitted_) * pp.stride + pp.kernel,
        padded_h_);
    return pushed() >= need;
  }

  [[nodiscard]] Row emit_row() override {
    const auto& pp = layer_.pool();
    const long long top = static_cast<long long>(rows_emitted_) * pp.stride;
    // Window rows holding real input: padding rows and the ceil overhang
    // are clipped once per output row, columns inside nn::pool_row.
    const int u_lo = static_cast<int>(std::max<long long>(0, pad_ - top));
    const int u_hi = static_cast<int>(
        std::min<long long>(pp.kernel, pad_ + layer_.in.h - top));
    const int n_rows = std::max(u_hi - u_lo, 0);
    const int ow = layer_.out.w;
    Row r;
    r.data.resize(static_cast<std::size_t>(layer_.out.c) * ow);
    for (int c = 0; c < layer_.in.c; ++c) {
      // Buffered rows carry the horizontal padding; skip past it.
      for (int u = 0; u < n_rows; ++u) {
        rows_[static_cast<std::size_t>(u)] =
            lb_.row_ptr(c, top + u_lo + u) + pad_;
      }
      nn::pool_row(pp.method, pp.kernel, pp.stride, pad_, rows_.data(),
                   n_rows, layer_.in.w,
                   r.data.data() + static_cast<std::size_t>(c) * ow, ow);
    }
    snap_out(mode_, r.data.data(), r.data.data(), r.data.size());
    return r;
  }

  std::vector<const float*> rows_;  ///< the window's in-range rows
};

// --------------------------------------------------------------------------
class LrnEngine final : public StreamEngine {
 public:
  LrnEngine(const nn::Layer& layer, NumericMode mode)
      : layer_(layer),
        mode_(mode),
        sq_(static_cast<std::size_t>(layer.in.c) * layer.in.w),
        acc_(static_cast<std::size_t>(layer.in.w)) {}

  [[nodiscard]] const nn::Layer& layer() const override { return layer_; }
  [[nodiscard]] int line_buffer_lines() const override { return 2; }
  [[nodiscard]] bool done() const override {
    return rows_emitted_ == layer_.out.h;
  }
  void reset() override { rows_emitted_ = 0; }

  bool step(RowFifo& in, RowFifo& out) override {
    if (done() || in.empty() || out.full()) return false;
    Row r = in.pop();
    if (r.data.size() != sq_.size()) {
      throw std::runtime_error("engine '" + layer_.name +
                               "': unexpected input row width");
    }
    // Snapped once, in place; the output overwrites the popped row too.
    float* x = r.data.data();
    snap_in(mode_, x, x, r.data.size());
    nn::lrn_row(layer_.lrn(), layer_.in.c, layer_.in.w, x,
                static_cast<std::size_t>(layer_.in.w), sq_.data(),
                acc_.data(), x);
    snap_out(mode_, x, x, r.data.size());
    out.push(std::move(r));
    ++rows_emitted_;
    return true;
  }

 private:
  const nn::Layer layer_;
  const NumericMode mode_;
  int rows_emitted_ = 0;
  std::vector<float> sq_;   ///< nn::lrn_row scratch: the row's squares
  std::vector<float> acc_;  ///< nn::lrn_row scratch: window sums
};

// --------------------------------------------------------------------------
class ReluEngine final : public StreamEngine {
 public:
  ReluEngine(const nn::Layer& layer, NumericMode mode)
      : layer_(layer), mode_(mode) {}

  [[nodiscard]] const nn::Layer& layer() const override { return layer_; }
  [[nodiscard]] int line_buffer_lines() const override { return 1; }
  [[nodiscard]] bool done() const override {
    return rows_emitted_ == layer_.out.h;
  }
  void reset() override { rows_emitted_ = 0; }

  bool step(RowFifo& in, RowFifo& out) override {
    if (done() || in.empty() || out.full()) return false;
    Row r = in.pop();
    for (auto& x : r.data) x = std::max(x, 0.0f);
    snap_out(mode_, r.data.data(), r.data.data(), r.data.size());
    out.push(std::move(r));
    ++rows_emitted_;
    return true;
  }

 private:
  const nn::Layer layer_;
  const NumericMode mode_;
  int rows_emitted_ = 0;
};

}  // namespace

std::shared_ptr<const Int8ConvConstants> make_int8_conv_constants(
    const nn::Layer& layer, const nn::ConvWeights& w,
    const NumericMode& mode) {
  if (!mode.int8()) {
    throw std::invalid_argument("int8 constants need an int8 mode ('" +
                                layer.name + "')");
  }
  const int k = layer.conv().kernel;
  const int rows = layer.in.c * k * k;
  algo::Int8ConvQuant q;
  q.in_scale = mode.in_scale;
  q.in_zp = mode.in_zp;
  q.out_scale = mode.out_scale;
  q.out_zp = mode.out_zp;
  q.per_channel = true;
  q.w_scales.resize(static_cast<std::size_t>(layer.out.c));
  for (int n = 0; n < layer.out.c; ++n) {
    float m = 0.0f;
    const float* wp =
        w.filters.data() + static_cast<std::size_t>(n) * rows;
    for (int j = 0; j < rows; ++j) m = std::max(m, std::abs(wp[j]));
    q.w_scales[static_cast<std::size_t>(n)] = m > 0.0f ? m / 127.0f : 1.0f;
  }
  const std::vector<std::int8_t> wq = algo::quantize_filters_i8(w.filters, q);
  auto consts = std::make_shared<Int8ConvConstants>();
  consts->packed =
      kernels::PackedLhsI8(wq.data(), layer.out.c, rows, rows);
  consts->requant = algo::requant_scales(q, layer.out.c);
  consts->bias = algo::fold_bias_i8(w.bias, q, wq.data(), layer.out.c, rows);
  return consts;
}

std::unique_ptr<StreamEngine> make_engine(const nn::Layer& layer,
                                          const nn::ConvWeights* weights,
                                          NumericMode mode,
                                          const LayerConstants& constants) {
  switch (layer.kind) {
    case nn::LayerKind::kConv: {
      if (!weights) {
        throw std::invalid_argument("conv engine needs weights ('" +
                                    layer.name + "')");
      }
      if (constants.wino) {
        if (mode.int8()) {
          throw std::invalid_argument(
              "int8 mode is conventional-only ('" + layer.name + "')");
        }
        return std::make_unique<WinogradEngine>(layer, *weights, mode,
                                                constants.wino);
      }
      if (mode.int8() ? !constants.int8 : !constants.direct) {
        throw std::logic_error("conv '" + layer.name +
                               "' has no prepacked constants for its datapath");
      }
      return std::make_unique<ConvDirectEngine>(layer, *weights, mode,
                                                constants);
    }
    case nn::LayerKind::kPool:
      return std::make_unique<PoolEngine>(layer, mode);
    case nn::LayerKind::kLrn:
      return std::make_unique<LrnEngine>(layer, mode);
    case nn::LayerKind::kRelu:
      return std::make_unique<ReluEngine>(layer, mode);
    default:
      throw std::invalid_argument("no streaming engine for layer kind '" +
                                  std::string(nn::to_string(layer.kind)) +
                                  "'");
  }
}

}  // namespace hetacc::arch
