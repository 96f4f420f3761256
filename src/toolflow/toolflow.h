#pragma once
// The automatic tool-flow of paper Fig. 3: Caffe configuration file + FPGA
// specification in, optimized strategy + generated HLS project + report out.
// (The final Vivado bitstream compilation is the one step that requires the
// vendor toolchain; everything up to and including validated HLS source is
// produced here.)

#include "caffe/importer.h"
#include "codegen/generator.h"
#include "core/dp_optimizer.h"
#include "core/report.h"

namespace hetacc::toolflow {

struct ToolflowOptions {
  /// The optimizer's knobs. Its transfer_budget_bytes is the feature-map
  /// transfer budget T; 0 = the network's minimal budget
  /// (minimal_transfer_budget: fully fused if feasible).
  core::OptimizerOptions optimizer;
  codegen::CodegenOptions codegen;
  /// Generate HLS source (requires weights; deterministic weights are
  /// synthesized when none are supplied).
  bool generate_code = true;
  std::uint32_t weight_seed = 42;
  /// Worker threads for the fusion-table DSE *and* the kernel layer used by
  /// functional simulation (kernels::set_num_threads is called with the
  /// resolved value). 0 = inherit optimizer.threads; any other value
  /// overrides it (see OptimizerOptions::threads). Neither the strategy nor
  /// any simulated tensor depends on this knob — parallelism only splits
  /// independent outputs.
  int threads = 0;
  /// The engine model the DSE prices: Winograd on/off, tile sizes, int8
  /// ladders. model.protect hardens the design against transient faults:
  /// per-engine CRC/watchdog logic here and CRC-checked DDR bursts on the
  /// device (Device::protection), so the optimizer re-trades the whole
  /// strategy under the protected resource vectors and transfer latencies.
  fpga::EngineModelParams model;
  /// Use the paper's Algorithm 1 interval DP instead of the prefix DP (same
  /// optimum, validated by tests; much slower on deep nets).
  bool interval_dp = false;
};

struct ToolflowResult {
  nn::Network full_net;    ///< as imported
  nn::Network accel_net;   ///< the FPGA-mapped portion (FC stack dropped)
  core::OptimizeResult optimization;
  core::StrategyReport report;
  codegen::GeneratedDesign design;  ///< empty strings if generate_code=false

  [[nodiscard]] std::string summary() const;
};

/// The smallest transfer budget that still admits a solution: every
/// partition's transfer is at most the unfused total, and one discretization
/// unit of slack per layer covers the per-group round-up in the DP.
[[nodiscard]] long long minimal_transfer_budget(const nn::Network& accel_net,
                                                const fpga::Device& dev,
                                                long long unit_bytes);

/// Runs the flow on prototxt text.
[[nodiscard]] ToolflowResult run_toolflow(std::string_view prototxt,
                                          const fpga::Device& device,
                                          const ToolflowOptions& opt = {});

/// Runs the flow on an already-built network.
[[nodiscard]] ToolflowResult run_toolflow(const nn::Network& net,
                                          const fpga::Device& device,
                                          const ToolflowOptions& opt = {});

}  // namespace hetacc::toolflow
