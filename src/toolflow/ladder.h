#pragma once
// Degradation-ladder builder: turns one (network, device) pair into the
// ordered vector of Pareto serving modes the resilient runtime hot-swaps
// between under load (serve/regime.h). The ladder reuses the pieces the
// toolflow already has, instead of inventing new design points:
//
//   rung 0       the --protect re-optimization (hardened engines, CRC DDR
//                bursts — slowest, survives fault bursts without retries)
//   rung `home`  the 16-bit latency-optimal primary strategy
//   deeper       strictly faster points: relaxed-transfer-budget sweeps
//                (sweep_budgets over a geometric grid above the minimal
//                fusion budget), the int8-mixed DSE, and the
//                conventional-i8 twin (every conv on the packed int8
//                datapath — maximum throughput, quantized accuracy)
//
// Candidates are deduplicated by modeled service time and sorted strictly
// decreasing, so descending the ladder always buys throughput. The result
// round-trips through the multi-strategy CSV form (core::ladder_to_csv) the
// way an operator would pre-compute and ship it.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/pipeline.h"
#include "core/dp_optimizer.h"
#include "core/report.h"
#include "core/strategy_io.h"
#include "serve/fleet.h"

namespace hetacc::toolflow {

struct LadderRung {
  std::string label;       ///< "protected", "primary", "budget-2x", ...
  core::Strategy strategy;
  long long service_cycles = 0;  ///< strategy latency under its own pricing
  bool protect = false;    ///< priced/hardened under --protect
  bool int8 = false;       ///< any layer on the int8 datapath
  core::StrategyReport report;
};

struct LadderOptions {
  /// Rung-count cap (>= 2). Trimming keeps the conservative rung, home and
  /// the deepest rung, dropping the least-distinct intermediates first.
  std::size_t max_rungs = 4;
  /// Offer the int8-mixed DSE and the conventional-i8 twin as deep rungs.
  bool include_int8 = true;
  /// Relaxed-transfer-budget multipliers swept for intermediate rungs
  /// (relative to the minimal full-fusion budget the primary uses).
  std::vector<int> budget_multipliers = {2, 4};
  core::OptimizerOptions optimizer;
  int threads = 0;  ///< 0 = inherit optimizer.threads
};

struct ServingLadderPlan {
  std::vector<LadderRung> rungs;  ///< strictly decreasing service_cycles
  std::size_t home = 0;           ///< index of the primary rung
  nn::Network accel_net;          ///< the FPGA-mapped portion all rungs map

  /// Fixed-width rung table for the CLI report (one line per rung).
  [[nodiscard]] std::string table() const;

  /// The ladder in the serving runtime's shape. `layer_count` is the
  /// functional-testbed depth (choices are truncated to it); `modes16` and
  /// `modes_i8` are the calibration's per-layer numeric modes, index-aligned
  /// with testbed layers — each layer serves in the int8 grid exactly when
  /// its chosen engine runs the int8 datapath.
  [[nodiscard]] serve::ServingLadder to_serving_modes(
      std::size_t layer_count,
      const std::vector<arch::NumericMode>& modes16,
      const std::vector<arch::NumericMode>& modes_i8) const;

  /// Round-trip bridges to the multi-strategy CSV form.
  [[nodiscard]] std::vector<core::LadderRungCsv> to_csv_rungs() const;
  [[nodiscard]] static ServingLadderPlan from_csv_rungs(
      std::vector<core::LadderRungCsv> rungs, nn::Network accel_net);
};

/// Builds the ladder for `net` (the full network; the accelerated portion is
/// extracted the way run_toolflow does) on `dev`. Throws InfeasibleError if
/// even the primary strategy does not fit.
[[nodiscard]] ServingLadderPlan build_serving_ladder(
    const nn::Network& net, const fpga::Device& dev,
    const LadderOptions& opt = {});

/// Process-wide memo of build_serving_ladder keyed on (network name + size,
/// device name, options): repeated CLI runs and test fixtures pay the DSE
/// once. The reference stays valid for the process lifetime.
[[nodiscard]] const ServingLadderPlan& cached_serving_ladder(
    const nn::Network& net, const fpga::Device& dev,
    const LadderOptions& opt = {});

/// One model's functional serving testbed: the accelerated portion's leading
/// layers on a capped input (so 10k-request soaks stay fast), deterministic
/// weights, and the cached degradation ladder in the serving runtime's shape
/// — per-rung numeric modes from the testbed calibration, service cycles
/// from the full-strategy pricing. The per-model unit `hetacc --serve`,
/// `--fleet`, and the fleet benches all build; the DSE is paid once per
/// (model, device) through cached_serving_ladder.
struct TestbedLadder {
  nn::Network net;
  nn::WeightStore ws;
  serve::ServingLadder ladder;
};

[[nodiscard]] TestbedLadder build_testbed_ladder(
    const nn::Network& net, const fpga::Device& dev,
    const LadderOptions& opt = {}, std::size_t max_layers = 3,
    int max_hw = 32, std::uint32_t weight_seed = 42);

}  // namespace hetacc::toolflow
