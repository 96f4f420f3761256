#pragma once
// Streaming layer engines: row-in/row-out functional models of the hardware
// units the code generator emits. Each engine owns a circular line buffer
// (paper §4.2) and implements one layer kind; chained through RowFifos they
// form the fusion pipeline of Fig. 2.

#include <memory>

#include "arch/fifo.h"
#include "arch/line_buffer.h"
#include "kernels/gemm.h"
#include "kernels/wino_gemm.h"
#include "nn/layer.h"
#include "nn/weights.h"

namespace hetacc::arch {

/// Numeric mode of an engine's datapath. `out_frac < 0` keeps the engine in
/// float mode; otherwise inputs and outputs are quantized to Q(frac) 16-bit
/// grids, modeling the fixed datapath of the generated hardware. With `i8`
/// set the engine instead runs the int8 datapath: activations live on the
/// asymmetric i8 grid (scale, zero-point) below, conv engines compute in
/// exact i8 x i8 -> i32 with requantize-on-writeback, and the frac fields
/// are ignored.
struct NumericMode {
  int in_frac = -1;
  int out_frac = -1;
  bool i8 = false;
  float in_scale = 1.0f;
  std::int32_t in_zp = 0;
  float out_scale = 1.0f;
  std::int32_t out_zp = 0;
  [[nodiscard]] bool fixed() const { return out_frac >= 0 && !i8; }
  [[nodiscard]] bool int8() const { return i8; }
};

/// Per-layer constants of an int8 conv engine, derived once from the float
/// filters (after any fault-protection CRC verification — see
/// arch/pipeline.cpp) and shared across engine instances: the packed i8
/// weight panels, the requantization scales and the folded i32 bias.
struct Int8ConvConstants {
  kernels::PackedLhsI8 packed;
  std::vector<float> requant;     ///< per out-channel writeback scales
  std::vector<std::int32_t> bias; ///< zp-corrected i32 bias
};

/// Derives the int8 constants of a conv layer from its float weights and the
/// activation grids in `mode` (which must have i8 set).
[[nodiscard]] std::shared_ptr<const Int8ConvConstants>
make_int8_conv_constants(const nn::Layer& layer, const nn::ConvWeights& w,
                         const NumericMode& mode);

class StreamEngine {
 public:
  virtual ~StreamEngine() = default;

  /// Performs at most one unit of work (emit one output row, or absorb one
  /// input row). Returns true iff progress was made.
  virtual bool step(RowFifo& in, RowFifo& out) = 0;
  /// True once every output row has been emitted.
  [[nodiscard]] virtual bool done() const = 0;
  /// Frame boundary: clears streaming state (line buffers, row counters) so
  /// the engine can process the next image. Per-layer constants — packed
  /// weight panels, transformed filters — survive the reset; that is the
  /// point (the seed re-derived them per image).
  virtual void reset() = 0;
  [[nodiscard]] virtual const nn::Layer& layer() const = 0;
  /// Line-buffer rows the modeled hardware engine instantiates (for
  /// resource cross-checks). The host engine may buffer more rows so it can
  /// compute several output rows per step.
  [[nodiscard]] virtual int line_buffer_lines() const = 0;
  /// Attaches a fault injector to the engine's internal storage (line
  /// buffer). `stream` identifies the engine as an injection stream. Default
  /// is a no-op: engines without buffered state have nothing to corrupt.
  virtual void set_fault_injector(const fault::FaultInjector* inj,
                                  std::uint64_t stream) {
    (void)inj;
    (void)stream;
  }
};

/// Every constant a conv layer's engine reads, in the form it reads it. A
/// conv layer has the one its datapath runs on; other layers have none.
/// Built once per prepack bundle (see arch/pipeline.h) and shared, never
/// copied, by every engine set and replica that adopts the bundle.
struct LayerConstants {
  /// Winograd: the transforms and the packed filter planes U = G g G^T.
  std::shared_ptr<const kernels::WinogradPlan> wino;
  /// Float direct conv: the filters packed into GEMM panels and widened to
  /// double, the operand gemm_f32d runs each output row on.
  std::shared_ptr<const kernels::PackedLhsF64> direct;
  /// Int8 direct conv.
  std::shared_ptr<const Int8ConvConstants> int8;
};

/// Factory covering all fusable layer kinds. A conv layer runs the Winograd
/// engine when `constants.wino` is set, else the direct engine on
/// `constants.int8` (int8 mode) or `constants.direct`; a conv layer with no
/// constant for its datapath is a std::logic_error. `weights` supplies the
/// conv bias.
[[nodiscard]] std::unique_ptr<StreamEngine> make_engine(
    const nn::Layer& layer, const nn::ConvWeights* weights, NumericMode mode,
    const LayerConstants& constants);

}  // namespace hetacc::arch
