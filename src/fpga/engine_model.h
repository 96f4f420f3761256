#pragma once
// Resource and latency estimation for per-layer hardware engines: the
// `implement(cnt, algo, p)` evaluator of the paper's Algorithm 2. Given a
// layer, an algorithm and a hardware parallelism, it predicts the engine's
// resource vector and its steady-state compute cycles.
//
// Calibration targets the paper's setting: 16-bit fixed datapath at 100 MHz,
// one DSP48E per 16-bit multiplier, line-buffer BRAM with HLS-style
// partitioning, LUT/FF linear in parallelism plus a per-engine base.

#include <memory>
#include <vector>

#include "fpga/device.h"
#include "nn/layer.h"

namespace hetacc::fpga {

enum class ConvAlgo : std::uint8_t {
  kConventional,  ///< direct convolution (paper Eq. 1)
  kWinograd,      ///< minimal filtering F(m x m, r x r) (paper Eq. 3)
  kNone,          ///< non-conv layers (pool / LRN / ReLU)
};

[[nodiscard]] std::string_view to_string(ConvAlgo a);

/// Inverse of to_string: recognizes "conventional", "winograd" and "-".
/// Returns false for anything else (the strategy-CSV parser reports its own
/// typed error with line context).
[[nodiscard]] bool algo_from_string(std::string_view s, ConvAlgo& out);

struct EngineConfig;

/// Algorithm + datapath label for reports and the strategy CSV:
/// to_string(algo), with "-i8" appended for the int8 datapath
/// ("conventional-i8"). 16-bit configs keep the legacy tokens so existing
/// strategy CSVs stay byte-identical.
[[nodiscard]] std::string algo_label(const EngineConfig& cfg);

/// Inverse of algo_label: sets cfg.algo and cfg.int8, leaves the unroll
/// fields untouched. Returns false for unknown tokens.
[[nodiscard]] bool algo_from_label(std::string_view s, EngineConfig& cfg);

/// One point in the per-layer design space explored by Algorithm 2
/// lines 10-11. Parallelism is structured as unroll factors, the product of
/// which is the single "parallelism" number the paper reports (Table 2).
struct EngineConfig {
  ConvAlgo algo = ConvAlgo::kNone;
  int tn = 1;      ///< input-channel unroll
  int tm = 1;      ///< output-channel unroll (conv only)
  int tk = 1;      ///< kernel-tap unroll (conventional conv only)
  int wino_m = 4;  ///< Winograd output tile size (paper fixes F(4x4,3x3))
  /// int8 datapath (conventional conv only): two 8-bit multiplies pack into
  /// one DSP48E and the weight footprint halves; same lane count, same
  /// cycle schedule. Serialized as the "conventional-i8" algorithm name.
  bool int8 = false;

  /// Multiplier lanes issued per cycle; equals the DSP demand for conv
  /// engines. Winograd engines hold an (m+r-1)^2 multiplier array per
  /// (tn, tm) channel pair.
  [[nodiscard]] int parallelism(int kernel = 3) const {
    if (algo == ConvAlgo::kWinograd) {
      const int n = wino_m + kernel - 1;
      return n * n * tn * tm;
    }
    if (algo == ConvAlgo::kConventional) return tn * tm * tk;
    return tn;
  }

  bool operator==(const EngineConfig&) const = default;
};

/// The paper's "ipl": resources and latency of one engine choice.
struct Implementation {
  EngineConfig cfg;
  ResourceVector res;
  long long compute_cycles = 0;  ///< steady-state cycles to produce the layer
  long long fill_cycles = 0;     ///< line-buffer priming before first output
  long long weight_words = 0;    ///< on-chip weight footprint (16-bit words)
  long long mults_performed = 0; ///< scalar multiplies (drives DSP energy)
};

/// Knobs of the calibrated model. Defaults land in the paper-scale resource
/// envelope (Table 1 / Table 2); tests pin invariants, not exact values.
struct EngineModelParams {
  // LUT/FF per DSP-mapped multiplier lane (control, operand muxing).
  double lut_per_mult_conv = 55.0;
  double ff_per_mult_conv = 75.0;
  // Winograd lanes additionally carry the B^T/A^T/on-the-fly G add networks.
  double lut_per_mult_wino = 110.0;
  double ff_per_mult_wino = 130.0;
  // Fixed per-engine control/FSM/AXI cost.
  double base_lut = 5200.0;
  double base_ff = 6800.0;
  double base_lut_simple = 1400.0;  ///< pool/LRN/ReLU engines
  double base_ff_simple = 1800.0;
  // Fraction of peak issue lost to tile edges / loop prologues.
  double compute_efficiency = 0.90;
  // On-chip FIFO words per cycle between fused layers (DATAPACK width).
  int fifo_words_per_cycle = 16;
  // Bank-count caps (BRAM shattering limits an HLS design tolerates).
  int max_line_buffer_banks = 128;
  int max_weight_banks = 64;
  // Candidate-ladder thinning: keep points whose parallelism differs by at
  // least this geometric ratio.
  double ladder_ratio = 1.12;
  // DSPs a LRN lane needs (square, scale, reciprocal-table interpolation).
  int lrn_dsp_per_lane = 3;
  // Offer Winograd candidates at all (disabled for the conventional-only
  // baseline of Alwani et al., which the paper compares against).
  bool enable_winograd = true;
  // Account line-buffer BRAM inside each engine. The tile-based baseline
  // provides inter-layer storage externally (tile buffers), so it turns
  // this off and adds its own buffer cost instead.
  bool include_line_buffer = true;
  // Uniform Winograd output-tile size for generated candidates (paper §2.1
  // fixes F(4x4, r x r); the ablation bench sweeps it).
  int wino_tile_m = 4;
  // Extension beyond the paper: let Algorithm 2 choose the tile size per
  // layer from {2, 4, 6} instead of the uniform wino_tile_m.
  bool explore_wino_tiles = false;
  // Extension beyond the paper: offer int8 twins of every conventional conv
  // candidate. Two int8 multiplies pack into one DSP48E (port chaining), the
  // on-chip weight footprint and the weight DDR traffic halve, and the line
  // buffer stores 8-bit words; feature-map streaming stays on the 16-bit
  // interconnect. Off by default — the paper's datapath is 16-bit fixed.
  bool enable_int8 = false;
  int int8_mults_per_dsp = 2;

  // --- Hardening overheads (the --protect toolflow mode) ---
  // When true every engine carries its fault detectors: a CRC-32 checker on
  // the weight-load path (conv engines), the Winograd filter-transform
  // checksum, and a stage watchdog counter. The optimizer then re-trades
  // choices with the protected resource vectors and latencies.
  bool protect = false;
  // CRC datapath + golden-checksum compare + watchdog FSM, per engine.
  double protect_lut_per_engine = 900.0;
  double protect_ff_per_engine = 600.0;
  // Staging/golden-CRC storage per engine (retry buffer for one burst).
  long long protect_bram_per_engine = 1;
  // Extra transform-checksum add network per Winograd multiplier lane.
  double protect_lut_per_wino_lane = 4.0;
};

class EngineModel {
 public:
  explicit EngineModel(Device dev, EngineModelParams p = {});

  [[nodiscard]] const Device& device() const { return dev_; }
  [[nodiscard]] const EngineModelParams& params() const { return p_; }

  /// Evaluates one (layer, algo, parallelism) choice. Throws
  /// std::invalid_argument if the combination is structurally invalid: a
  /// Winograd engine on a layer winograd_ok() rejects (stride 2 included),
  /// an int8 engine that is not conventional, or a conv algorithm on a
  /// non-conv layer and vice versa.
  [[nodiscard]] Implementation implement(const nn::Layer& layer,
                                         EngineConfig cfg) const;

  /// The candidate configurations Algorithm 2 iterates for a layer: every
  /// applicable algorithm x a descending parallelism ladder derived from the
  /// layer's channel/kernel structure, capped by the device's DSP budget.
  [[nodiscard]] std::vector<EngineConfig> candidates(
      const nn::Layer& layer) const;

  /// The fully evaluated candidate ladder — implement() applied to every
  /// candidates() entry, in order — memoized per layer structure. The DP
  /// optimizer prices the same layer in every [i, j] range containing it;
  /// the memo makes that O(1) after the first evaluation. Thread-safe, and
  /// copies of a model share one cache (the device and params are immutable
  /// after construction, so entries never go stale).
  [[nodiscard]] std::shared_ptr<const std::vector<Implementation>>
  implementations(const nn::Layer& layer) const;

  /// True if the Winograd algorithm can implement this layer (paper §2.1):
  /// a conv layer with stride 1 and a kernel of 2 to 7. The one
  /// applicability rule for Winograd in the code base.
  [[nodiscard]] static bool winograd_ok(const nn::Layer& layer);

  /// Scalar multiplications the given algorithm spends on the layer.
  [[nodiscard]] static long long algo_mults(const nn::Layer& layer,
                                            const EngineConfig& cfg);

 private:
  struct ImplCache;

  [[nodiscard]] Implementation implement_conv(const nn::Layer& layer,
                                              EngineConfig cfg) const;
  [[nodiscard]] Implementation implement_simple(const nn::Layer& layer,
                                                EngineConfig cfg) const;

  Device dev_;
  EngineModelParams p_;
  std::shared_ptr<ImplCache> memo_;  ///< shared across copies
};

/// All divisors of x that are <= cap, ascending. Exposed for tests.
[[nodiscard]] std::vector<int> divisors_up_to(int x, int cap);

}  // namespace hetacc::fpga
