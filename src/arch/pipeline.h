#pragma once
// Fusion-group pipeline simulator. Two views of the same architecture:
//
//  * run(): functional simulation — rows stream through chained engines and
//    FIFOs exactly as in the generated DATAFLOW design; the result is
//    compared against the reference executor in tests.
//
//  * simulate_schedule(): timing simulation — a row-granular discrete-event
//    simulation of the group's DATAFLOW region that predicts its makespan
//    (pipeline fill + steady state) from per-layer row costs, DDR bandwidth
//    and, optionally, finite FIFO depths. Used to validate the optimizer's
//    analytic latency model and to size the generated STREAM depths.

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "arch/engines.h"
#include "fault/fault.h"
#include "fault/protect.h"
#include "fpga/engine_model.h"
#include "nn/network.h"
#include "nn/reference.h"

namespace hetacc::arch {

/// Per-layer algorithm selection for a pipeline.
struct LayerChoice {
  fpga::ConvAlgo algo = fpga::ConvAlgo::kConventional;
  int wino_m = 4;
  NumericMode mode;  ///< float by default
};

struct PipelineStats {
  std::vector<std::size_t> fifo_max_occupancy;  ///< per inter-layer channel
  long long total_steps = 0;
};

/// Per-layer derived constants — transformed Winograd filter planes, packed
/// GEMM weight panels, int8 quantized constants — index-aligned with the
/// pipeline's layer choices (null where a layer has none). Immutable once
/// built; pipelines hold it by shared_ptr so replicas serving the same
/// (model, strategy, datapath) alias one copy instead of duplicating the
/// dominant memory cost. serve::PrepackCache keys and refcounts these
/// bundles across a fleet.
struct PrepackBundle {
  std::vector<std::shared_ptr<const kernels::WinogradPlan>> wino;
  std::vector<std::shared_ptr<const kernels::PackedLhsF32>> packed;
  std::vector<std::shared_ptr<const Int8ConvConstants>> int8;

  /// Resident bytes of every constant held (panel blocks, transform planes,
  /// requant tables) — what one more private replica copy would cost.
  [[nodiscard]] long long resident_bytes() const;

  /// CRC-32 over every resident constant byte, in the fixed layer-major walk
  /// resident_bytes() uses. serve::PrepackCache records it at insert and
  /// re-checks it on lease, so a bit flip in the shared resident copy is
  /// caught before a spinning-up replica adopts the bundle.
  [[nodiscard]] std::uint32_t content_crc() const;
};

class FusionPipeline {
 public:
  /// `net` must start with an input layer; engines are built for layers
  /// [1, net.size()). `choices` is index-aligned with those layers (empty =
  /// all-conventional float).
  FusionPipeline(const nn::Network& net, const nn::WeightStore& ws,
                 std::vector<LayerChoice> choices = {});

  /// Warm construction: adopts a peer's derived constants instead of
  /// re-deriving them. The caller guarantees `prepack` was derived for an
  /// identical (net, weights, choices) triple — replicas of the same fleet
  /// rung — and only the vector sizes are validated. Spin-up skips the
  /// dominant pack/transform work, and the two pipelines provably alias:
  /// shared_prepack() returns pointer-equal bundles.
  FusionPipeline(const nn::Network& net, const nn::WeightStore& ws,
                 std::vector<LayerChoice> choices,
                 std::shared_ptr<const PrepackBundle> prepack);

  /// Streams one image through the pipeline; returns the final output.
  /// Engines are reset (not rebuilt) between calls, so per-layer constants
  /// — transformed Winograd filters, packed GEMM weight panels — are
  /// derived once in the constructor and reused for every image.
  [[nodiscard]] nn::Tensor run(const nn::Tensor& input);

  /// Streams a batch of images, parallelized across images (`threads`
  /// follows the OptimizerOptions convention: 1 = serial, 0 = all cores,
  /// n = n). Each worker streams its share of the batch through its own
  /// engine set; the cached per-layer constants are shared by all of them,
  /// and results are identical to calling run() per image in order.
  /// stats() is not updated by batch runs.
  [[nodiscard]] std::vector<nn::Tensor> run_batch(
      const std::vector<nn::Tensor>& inputs, int threads = 0) const;

  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t engine_count() const { return engines_.size(); }
  /// Engine for layer i+1. Merge layers (concat / eltwise-add) have no
  /// stream engine — they are computed on whole tensors between streams —
  /// so this throws for them; check has_engine() first on DAG nets.
  [[nodiscard]] const StreamEngine& engine(std::size_t i) const {
    if (!engines_.at(i)) {
      throw std::logic_error("FusionPipeline: merge layers have no engine");
    }
    return *engines_.at(i);
  }
  [[nodiscard]] bool has_engine(std::size_t i) const {
    return engines_.at(i) != nullptr;
  }

  /// Full recovery hook for the serving layer's retry-with-reload path:
  /// rebuilds the engine set and restores golden per-layer constants.
  /// Idempotent — calling it twice leaves the same state as calling it once.
  /// A clean pipeline (no fault plan) keeps its current bundle: re-deriving
  /// from the golden weight store would be value-identical, so skipping it
  /// preserves both the spin-up cost and any aliasing a fleet's prepack
  /// cache established. With a fault plan installed the re-derive is
  /// mandatory — the same deterministic SEUs re-strike fresh resident copies
  /// (and protection recovers them if enabled) — and it lands in a *new*
  /// private bundle, so peers sharing the old one are never invalidated.
  void reset();

  /// The pipeline's derived-constant bundle. Two pipelines built from the
  /// same (model, strategy) alias iff these are pointer-equal. Re-derives
  /// (reset() under a fault plan, install/clear_fault_plan) swap in a fresh
  /// bundle rather than mutating the shared one, so a peer's handle stays
  /// valid for as long as the peer holds it.
  [[nodiscard]] std::shared_ptr<const PrepackBundle> shared_prepack() const {
    return prepack_;
  }

  /// Cooperative cancellation hook: while `token` is non-null, run() /
  /// run_batch() poll it once per fed input row and abandon the stream with
  /// a ServeError(kCancelled) when it reads true. The token is owned by the
  /// caller (the serving runtime flips it when a request's deadline passes
  /// mid-flight); pass nullptr to detach.
  void set_cancel_token(const std::atomic<bool>* token) { cancel_ = token; }

  /// Installs a fault plan (and optionally the hardening config). Resident
  /// weight-panel faults are injected immediately: per-layer constants are
  /// re-derived from bit-flipped filter copies; with protection enabled the
  /// CRC / Winograd-checksum detectors fire here and recover by reloading
  /// the golden copy. FIFO / line-buffer faults are injected while streaming.
  /// With no plan installed (the default) every hook is a null check and the
  /// simulator output is byte-identical to the unhooked design.
  void install_fault_plan(const fault::FaultPlan& plan,
                          const fault::ProtectionConfig& protect = {});
  /// Removes the plan and restores the golden per-layer constants.
  void clear_fault_plan();
  [[nodiscard]] bool fault_plan_installed() const {
    return injector_ != nullptr;
  }
  /// Injection/detection counters accumulated since install (or the last
  /// FaultInjector::reset_stats()).
  [[nodiscard]] fault::FaultStats fault_stats() const;

 private:
  [[nodiscard]] std::vector<std::unique_ptr<StreamEngine>> build_engine_set()
      const;
  /// Dispatches to the chained-FIFO path on chain nets and the graph walk
  /// (per-layer streams + tensor merges) otherwise.
  nn::Tensor run_any(std::vector<std::unique_ptr<StreamEngine>>& engines,
                     const nn::Tensor& input, PipelineStats* stats) const;
  nn::Tensor run_with(std::vector<std::unique_ptr<StreamEngine>>& engines,
                      const nn::Tensor& input, PipelineStats* stats) const;
  nn::Tensor run_dag(std::vector<std::unique_ptr<StreamEngine>>& engines,
                     const nn::Tensor& input, PipelineStats* stats) const;
  nn::Tensor stream_layer(StreamEngine& eng, const nn::Tensor& input,
                          const nn::Shape& out_shape, PipelineStats* stats,
                          std::size_t engine_idx) const;

  void derive_layer_constants();
  [[noreturn]] void report_stall(
      const std::vector<std::unique_ptr<StreamEngine>>& engines,
      const std::vector<RowFifo>& fifos) const;

  nn::Network net_;
  nn::WeightStore ws_;
  std::vector<LayerChoice> choices_;
  /// Per-layer constants shared across engine sets — and, when adopted via
  /// the warm constructor, across whole pipelines.
  std::shared_ptr<const PrepackBundle> prepack_;
  std::vector<std::unique_ptr<StreamEngine>> engines_;
  PipelineStats stats_;
  std::unique_ptr<fault::FaultInjector> injector_;
  fault::ProtectionConfig protect_;
  const std::atomic<bool>* cancel_ = nullptr;
};

/// Result of a fusion group's timing simulation.
struct ScheduleResult {
  bool completed = false;  ///< false = deadlock (FIFO shallower than a burst)
  long long makespan_cycles = 0;        ///< load -> ... -> store completion
  long long first_output_cycle = 0;     ///< pipeline fill observed
  std::vector<long long> layer_finish;  ///< completion time per layer
  std::vector<std::size_t> fifo_max_occupancy;  ///< per channel, DDR ends too
  long long producer_stall_cycles = 0;  ///< time engines waited on full FIFOs
  long long injected_delay_cycles = 0;  ///< cycles added by timing faults
};

/// Simulates fusing `net`'s layers [first, last] with the given
/// implementations at row granularity: an engine pulls input rows into its
/// line buffer and emits output rows (blocks of m rows for Winograd) once
/// its window's rows have arrived and its previous rows are done. DDR feeds
/// the first layer and drains the last at the device bandwidth.
///
/// The layers are wired as a chain in index order: layer k reads layer k-1's
/// output. On DAG ranges (branch arms, merges) that approximates the real
/// wiring.
///
/// `fifo_capacity_rows` bounds every inter-layer channel (the DDR-facing
/// source and sink are not bounded); omitted, the channels are unbounded. An
/// emit that finds its output FIFO full waits for the consumer's pop that
/// makes room for the whole burst, and the wait counts as producer stall.
///
/// `inj` (optional) injects timing faults: kEngineStall freezes an engine
/// for plan.engine_stall_cycles before an emit burst; kFifoDelay delays a
/// pushed row's availability by plan.fifo_delay_cycles. Null = identical to
/// the fault-free simulation.
[[nodiscard]] ScheduleResult simulate_schedule(
    const nn::Network& net, std::size_t first, std::size_t last,
    const std::vector<fpga::Implementation>& impls, const fpga::Device& dev,
    std::size_t fifo_capacity_rows = std::numeric_limits<std::size_t>::max(),
    const fault::FaultInjector* inj = nullptr);

/// Smallest uniform FIFO capacity whose makespan is within `tolerance`
/// (fractional) of the unbounded-channel makespan.
[[nodiscard]] std::size_t minimal_fifo_depth_rows(
    const nn::Network& net, std::size_t first, std::size_t last,
    const std::vector<fpga::Implementation>& impls, const fpga::Device& dev,
    double tolerance = 0.02);

}  // namespace hetacc::arch
