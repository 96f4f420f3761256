#pragma once
// The single source of truth for the analytic cost arithmetic of the paper's
// Algorithm 1/2 pipeline: engine steady-state cycles per algorithm, DDR
// transfer cycles, pipeline-fill cycles, and the group latency combination
// rule. Every subsystem that prices a design point — the optimizer
// (core/), the baselines (baseline/), the simulators (arch/), the HLS
// report (codegen/) and the engine estimator (fpga/engine_model) — must
// call these functions instead of re-deriving the formulas, so that the
// optimizer's predictions and the simulator's counts cannot silently
// disagree.
//
// The functions here are pure integer/double arithmetic with no dependency
// on the layer, device or implementation types (group_timing.h builds the
// typed layer on top). They are inline/constexpr so that hetacc_fpga can
// use them without a library-level dependency cycle.

#include <algorithm>
#include <cmath>

namespace hetacc::cost {

/// ceil(a / b) for non-negative a and positive b.
[[nodiscard]] constexpr long long ceil_div(long long a, long long b) {
  return (a + b - 1) / b;
}

/// Steady-state cycles of a conventional (direct) convolution engine with
/// (tn, tm, tk) unroll over the six-deep loop nest (paper Eq. 1). Unrolls
/// need not divide the dimensions: the last iteration is partially filled
/// (ceil semantics). `out_positions` = out_h * out_w.
[[nodiscard]] constexpr long long conv_cycles_conventional(
    int in_c, int out_c, int kernel, int tn, int tm, int tk,
    long long out_positions) {
  return ceil_div(in_c, tn) * ceil_div(out_c, tm) *
         ceil_div(static_cast<long long>(kernel) * kernel, tk) * out_positions;
}

/// Number of m x m output tiles covering an out_h x out_w feature map
/// (Winograd tiling; edge tiles are padded, not skipped).
[[nodiscard]] constexpr long long winograd_tile_count(int out_h, int out_w,
                                                      int m) {
  return ceil_div(out_h, m) * ceil_div(out_w, m);
}

/// Steady-state cycles of a Winograd engine: one (m+r-1)^2 multiplier array
/// per (tn, tm) channel pair retires one input-tile x output-channel partial
/// product per cycle (paper Eq. 3).
[[nodiscard]] constexpr long long conv_cycles_winograd(int in_c, int out_c,
                                                       int tn, int tm,
                                                       long long tiles) {
  return tiles * ceil_div(in_c, tn) * ceil_div(out_c, tm);
}

/// Scalar multiplications a Winograd evaluation spends: every tile
/// element-wise multiplies an n x n transformed patch per channel pair.
[[nodiscard]] constexpr long long winograd_mults(long long tiles, int n,
                                                 int in_c, int out_c) {
  return tiles * n * n * in_c * out_c;
}

/// Fraction of peak issue lost to tile edges / loop prologues:
/// ceil(cycles / efficiency).
[[nodiscard]] inline long long apply_efficiency(long long cycles,
                                                double efficiency) {
  return static_cast<long long>(
      std::ceil(static_cast<double>(cycles) / efficiency));
}

/// Cycles of a lane-parallel engine (pool / LRN / ReLU, and the uniform
/// baseline's non-conv passes): `work` inner operations over `lanes` lanes
/// at the given issue efficiency.
[[nodiscard]] inline long long lane_cycles(long long work, int lanes,
                                           double efficiency) {
  return static_cast<long long>(std::ceil(
      static_cast<double>(work) / (lanes * efficiency)));
}

/// DDR cycles to move `bytes` at `bytes_per_cycle` peak bandwidth.
[[nodiscard]] inline long long transfer_cycles(long long bytes,
                                               double bytes_per_cycle) {
  return static_cast<long long>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle));
}

/// DDR cycles (fractional) to move one feature-map row of
/// `width` x `channels` elements — the row granularity of the fusion-group
/// timing simulator (arch::simulate_schedule).
[[nodiscard]] inline double row_transfer_cycles(int width, int channels,
                                                int data_bytes,
                                                double bytes_per_cycle) {
  return static_cast<double>(width) * channels * data_bytes / bytes_per_cycle;
}

/// Line-buffer priming cycles: `rows` input rows of `width` x `channels`
/// elements arriving `words_per_cycle` words per cycle.
[[nodiscard]] constexpr long long line_fill_cycles(long long rows, int width,
                                                   int channels,
                                                   int words_per_cycle) {
  return rows * width * ceil_div(channels, words_per_cycle);
}

/// Cycles scaled by a fractional overhead factor (e.g. the tile-based
/// baseline's recompute factor), rounded up.
[[nodiscard]] inline long long scale_cycles(long long cycles, double factor) {
  return static_cast<long long>(
      std::ceil(static_cast<double>(cycles) * factor));
}

/// Number of CRC-protected AXI bursts covering `bytes` (hardened design).
[[nodiscard]] constexpr long long crc_burst_count(long long bytes,
                                                  long long burst_bytes) {
  return bytes > 0 ? ceil_div(bytes, burst_bytes) : 0;
}

/// Extra DDR-path cycles added by per-burst CRC verification: the checker
/// runs at wire speed, so the only cost is the fixed pipeline tail each
/// burst pays before its data is released to the consumer.
[[nodiscard]] constexpr long long crc_check_cycles(
    long long bytes, long long burst_bytes, long long check_cycles_per_burst) {
  return crc_burst_count(bytes, burst_bytes) * check_cycles_per_burst;
}

/// DDR cycles to move `bytes` through the CRC-checked path.
[[nodiscard]] inline long long protected_transfer_cycles(
    long long bytes, double bytes_per_cycle, long long burst_bytes,
    long long check_cycles_per_burst) {
  return transfer_cycles(bytes, bytes_per_cycle) +
         crc_check_cycles(bytes, burst_bytes, check_cycles_per_burst);
}

/// The group latency combination rule (paper Fig. 2(d)): intra-layer
/// pipelining overlaps DDR traffic with computation, so the steady state is
/// bound by the slower of the two, plus the pipeline fill.
[[nodiscard]] constexpr long long group_latency(long long compute_cycles,
                                                long long transfer_cycles,
                                                long long fill_cycles) {
  return std::max(compute_cycles, transfer_cycles) + fill_cycles;
}

/// Wall-clock seconds of `cycles` at the design clock.
[[nodiscard]] double latency_seconds(long long cycles, double frequency_hz);

/// Effective performance = total network ops / end-to-end latency
/// (footnote of paper §7.2). Returns 0 for non-positive latency.
[[nodiscard]] double effective_gops(long long total_ops,
                                    long long latency_cycles,
                                    double frequency_hz);

/// Steady-state images/second when groups pipeline across a batch: bound by
/// the slowest group. Returns 0 for non-positive cycle counts.
[[nodiscard]] double throughput_fps(long long slowest_group_cycles,
                                    double frequency_hz);

}  // namespace hetacc::cost
