// Release-mode performance tripwire, run by the CI release-perf job.
//
// Seven guards, exit 0 = pass, 1 = fail:
//  1. Relative: the blocked im2col+GEMM path must beat the retained scalar
//     seed convolution by >= 2x single-threaded (a debug/-O0 build will not
//     pass; that is the point — the check catches regressions that quietly
//     serialize or deopt the kernel layer).
//  2. SIMD dispatch: the float and int8 kernels (im2col_gemm,
//     winograd_f43_gemm, im2col_gemm_i8) run on the selected stamp and again
//     capped to the base stamp (kernels::simd::ScopedStampCap), and each
//     median per-round ratio selected / base must stay at or below 0.6x.
//     Losing SIMD dispatch reads about 1x and fails; both sides run in this
//     process, so a loaded machine moves them together. Skipped when the
//     selected stamp is base or scalar.
//  3. System time: over the timed rounds of the kernel loop, system CPU
//     time must stay under 5% of user + system time (getrusage). The
//     reading starts after the warm-up passes, so the first-touch page
//     faults of fresh buffers, which the kernel charges as system time,
//     stay out of it. Both counters come from the same process, so the
//     gate holds on any machine; it catches an OS call creeping into the
//     per-dispatch path (a per-call sysfs read of the core count once cost
//     the serving fleet half its CPU). System time is charged in 4 ms
//     ticks, so the loop runs 30 rounds, about 2-4 s of CPU on a 4-vCPU
//     AVX2 VM: a per-call std::thread::hardware_concurrency() in
//     kernels::resolve_threads read 5.8-7.3% there (FAIL in 8 of 8 Release
//     runs) and clean code 0.0%. With 5 rounds (about 0.4 s) the same
//     probe failed only 5 runs in 8.
//  4. Streaming overhead: a one-layer FusionPipeline on AlexNet conv4's
//     geometry (13x13, 384 -> 384, Winograd F(4,3)) must run within 1.5x of
//     algo::winograd_conv_pretransformed on the same input, and within 1.5x
//     of the whole-map kernel (kernels::winograd_conv_f32) run on the
//     pipeline's own pre-built plan. The first reference also packs the
//     plan on every call; the second does exactly the engine's arithmetic,
//     so it isolates what streaming rows through a line buffer costs. All
//     are timed in this process, so the ratios hold on any machine.
//  5. Element-wise engines: one-layer 16-bit FusionPipelines on AlexNet's
//     norm1 (LRN, local_size 5) and pool1 (3x3 stride-2 max pool) geometry,
//     96x55x55, must each run within 3x of nn::lrn_reference and
//     nn::pool_reference on the same input. The pipeline also snaps every
//     element onto the Q16 grid on the way in and out, which the float
//     reference does not.
//  6. Winograd transforms: the same streamed conv4 F(4,3) pipeline must run
//     within 1.35x of algo::conv_im2col (f32) on the same input, as the
//     median over rounds of the per-round time ratio. Gate 4
//     compares two callers of one band kernel, so a slower transform moves
//     both of its sides; the im2col GEMM shares no code with the
//     transforms, so this ratio moves with them.
//  7. 16-bit models: the bit-exact DSP models must each run within a fixed
//     ratio of their float counterparts in the same run (median per-round
//     ratio) — direct_fixed_gemm within 4x of im2col_gemm,
//     winograd_fixed_gemm within 2.5x of winograd_f43_gemm. Ratios, not
//     absolute baselines: both sides run on this machine in this process.
// Repetitions of every compared set are interleaved, because a shared VM's
// speed drifts within seconds; gates 1, 4 and 5 compare the best of each.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include <sys/resource.h>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "arch/pipeline.h"
#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"
#include "kernels/simd.h"
#include "nn/reference.h"

using namespace hetacc;

namespace {

/// Process user and system CPU seconds so far.
struct CpuTimes {
  double user = 0.0, sys = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

/// Wall times of interleaved repetitions: ms[k][i] is function k's time in
/// round i, and each round calls every function once, so speed drift hits
/// all of them alike.
struct Rounds {
  std::vector<std::vector<double>> ms;
  CpuTimes cpu;  ///< process CPU seconds spent in the timed rounds only

  /// Best-of-rounds time of function k.
  [[nodiscard]] double best(std::size_t k) const {
    return *std::min_element(ms[k].begin(), ms[k].end());
  }
  /// Median over rounds of function a's time over function b's in the same
  /// round: a burst of load on the shared VM skews one round's pair, not
  /// the median.
  [[nodiscard]] double ratio(std::size_t a, std::size_t b) const {
    std::vector<double> r;
    for (std::size_t i = 0; i < ms[a].size(); ++i) {
      r.push_back(ms[a][i] / ms[b][i]);
    }
    std::sort(r.begin(), r.end());
    return r[r.size() / 2];
  }
};

Rounds interleaved_rounds(const std::vector<std::function<void()>>& fns,
                          int reps) {
  using clock = std::chrono::steady_clock;
  // Warmup: pages, scratch-arena high water, worker pool. Passes repeat
  // until one opens no new arena block: a block opened for a later
  // function is fresh memory, and the earlier functions' first touches of
  // its pages would otherwise fault inside the timed rounds.
  kernels::ScratchArena& arena = kernels::ScratchArena::tls();
  for (int pass = 0; pass < 4; ++pass) {
    const std::size_t blocks = arena.system_allocations();
    for (const auto& fn : fns) fn();
    if (arena.system_allocations() == blocks) break;
  }
  Rounds r{std::vector<std::vector<double>>(fns.size()), {}};
  const CpuTimes start = cpu_times();
  for (int i = 0; i < reps; ++i) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const auto t0 = clock::now();
      fns[k]();
      const auto t1 = clock::now();
      r.ms[k].push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  const CpuTimes end = cpu_times();
  r.cpu = {end.user - start.user, end.sys - start.sys};
  return r;
}

/// Best-of-`reps` wall time of each function, the repetitions interleaved.
std::vector<double> interleaved_best_ms(
    const std::vector<std::function<void()>>& fns, int reps) {
  const Rounds r = interleaved_rounds(fns, reps);
  std::vector<double> best;
  for (std::size_t k = 0; k < fns.size(); ++k) best.push_back(r.best(k));
  return best;
}

double best_ms(const std::function<void()>& fn, int reps) {
  return interleaved_best_ms({fn}, reps)[0];
}

volatile float g_sink = 0.0f;

/// Timed rounds of the kernel loop (gates 2, 3 and 7); gate 3 needs them
/// long, see the header.
constexpr int kKernelRounds = 30;

/// Gate 2 limit on the median per-round ratio selected stamp / base stamp.
/// On a 4-vCPU AVX-512 VM the three gated ratios read 0.28-0.34x with the
/// AVX-512 stamp (20 Release runs) and 0.37-0.42x with the process capped
/// to AVX2 (12 runs); 0.6x leaves 1.4x headroom above the highest reading
/// and still fails a kernel that loses SIMD dispatch (about 1x).
constexpr double kBaseStampLimit = 0.6;

struct Measurement {
  const char* kernel;
  double ms;
};

}  // namespace

int main() {
  using kernels::simd::Stamp;

  // VGG conv3-class layer: 64x56x56 input, 64 3x3 filters, stride 1, pad 1.
  nn::Tensor in(64, 56, 56);
  nn::FilterBank f(64, 64, 3);
  std::vector<float> bias(64);
  nn::fill_deterministic(in, 1);
  nn::fill_deterministic(f, 2);
  nn::fill_deterministic(bias, 3);
  const algo::WinogradTransform wt = algo::winograd_f4x3();
  const algo::TransformedFilters tf = algo::transform_filters(wt, f);
  constexpr int kDataFrac = 12, kWeightFrac = 14, kOutFrac = 10;

  kernels::set_num_threads(1);  // single-thread comparison: pure kernel win
  const double scalar = best_ms(
      [&] {
        g_sink = nn::conv_reference_scalar(in, f, bias, 1, 1, true).at(0, 0, 0);
      },
      3);

  // int8 datapath on the same geometry; recipe from the observed ranges.
  const algo::Int8ConvQuant i8q = [&] {
    const nn::Tensor ref = algo::conv_im2col(in, f, bias, 1, 1, true);
    float in_mn = 0.0f, in_mx = 0.0f, out_mn = 0.0f, out_mx = 0.0f;
    for (float v : in.vec()) {
      in_mn = std::min(in_mn, v);
      in_mx = std::max(in_mx, v);
    }
    for (float v : ref.vec()) {
      out_mn = std::min(out_mn, v);
      out_mx = std::max(out_mx, v);
    }
    return algo::make_int8_conv_quant(f, in_mn, in_mx, out_mn, out_mx);
  }();

  // Gate 2 times the float and int8 kernels again on the base stamp; the
  // 16-bit models are gated against their float counterparts (gate 7).
  struct Kernel {
    const char* name;
    bool vs_base;  ///< gate 2: timed again on the base stamp
    std::function<void()> fn;
  };
  const std::vector<Kernel> kernels_timed = {
      {"im2col_gemm", true,
       [&] {
         g_sink = algo::conv_im2col(in, f, bias, 1, 1, true).at(0, 0, 0);
       }},
      {"winograd_f43_gemm", true,
       [&] {
         g_sink = algo::winograd_conv_pretransformed(tf, in, bias, 1, true)
                      .at(0, 0, 0);
       }},
      {"direct_fixed_gemm", false,
       [&] {
         g_sink = algo::conv_direct_fixed(in, f, bias, 1, 1, true, kDataFrac,
                                          kWeightFrac, kOutFrac)
                      .at(0, 0, 0);
       }},
      {"winograd_fixed_gemm", false,
       [&] {
         g_sink = algo::winograd_conv_fixed(wt, in, f, bias, 1, true,
                                            kDataFrac, kOutFrac)
                      .at(0, 0, 0);
       }},
      {"im2col_gemm_i8", true, [&] {
         g_sink =
             algo::conv_quant_i8(in, f, bias, 1, 1, true, i8q).at(0, 0, 0);
       }}};
  std::vector<std::function<void()>> kernel_fns;
  for (const Kernel& k : kernels_timed) kernel_fns.push_back(k.fn);
  // Gate 2's base-stamp runs follow, in kernels_timed order; base_run[i] is
  // kernel i's index in the loop (0 = not gated).
  const bool gate2 = kernels::simd::active_stamp() > Stamp::kBase;
  std::vector<std::size_t> base_run(kernels_timed.size(), 0);
  for (std::size_t i = 0; gate2 && i < kernels_timed.size(); ++i) {
    if (!kernels_timed[i].vs_base) continue;
    base_run[i] = kernel_fns.size();
    kernel_fns.push_back([fn = kernels_timed[i].fn] {
      const kernels::simd::ScopedStampCap cap(Stamp::kBase);
      fn();
    });
  }
  const Rounds kernel_rounds = interleaved_rounds(kernel_fns, kKernelRounds);
  std::vector<Measurement> measured;
  for (std::size_t i = 0; i < kernels_timed.size(); ++i) {
    measured.push_back({kernels_timed[i].name, kernel_rounds.best(i)});
  }

  const double loop_user = kernel_rounds.cpu.user;
  const double loop_sys = kernel_rounds.cpu.sys;
  const double sys_frac =
      loop_user + loop_sys > 0.0 ? loop_sys / (loop_user + loop_sys) : 0.0;

  // Streamed Winograd on AlexNet conv4 against the whole-map Winograd calls
  // and the im2col GEMM (outside the system-time loop above, which keeps its
  // own kernel set).
  nn::Network conv4("alexnet-conv4");
  conv4.input({384, 13, 13});
  conv4.conv(384, 3, 1, 1, "conv4");
  const nn::WeightStore conv4_ws = nn::WeightStore::deterministic(conv4, 4);
  const nn::ConvWeights& conv4_w = conv4_ws.conv(1);
  const bool conv4_relu = conv4[1].conv().fused_relu;
  nn::Tensor conv4_in(conv4[0].out);
  nn::fill_deterministic(conv4_in, 5);
  arch::FusionPipeline conv4_pipe(
      conv4, conv4_ws, {arch::LayerChoice{fpga::ConvAlgo::kWinograd, 4, {}}});
  const algo::TransformedFilters conv4_tf =
      algo::transform_filters(wt, conv4_w.filters);
  const kernels::WinogradPlan& conv4_plan =
      *conv4_pipe.shared_prepack()->layers[0].wino;
  nn::Tensor conv4_out(conv4[1].out);
  const Rounds conv4_rounds = interleaved_rounds(
      {[&] { g_sink = conv4_pipe.run(conv4_in).at(0, 0, 0); },
       [&] {
         g_sink = algo::winograd_conv_pretransformed(
                      conv4_tf, conv4_in, conv4_w.bias, 1, conv4_relu)
                      .at(0, 0, 0);
       },
       [&] {
         kernels::winograd_conv_f32(conv4_plan, conv4_in.data(), 13, 13, 1,
                                    conv4_w.bias.data(), conv4_relu,
                                    /*v_frac=*/-1, /*out_frac=*/-1,
                                    conv4_out.data(), 13, 13, /*threads=*/0);
         g_sink = conv4_out.at(0, 0, 0);
       },
       [&] {
         g_sink = algo::conv_im2col(conv4_in, conv4_w.filters, conv4_w.bias, 1,
                                    1, conv4_relu)
                      .at(0, 0, 0);
       }},
      11);
  const double streamed_ms = conv4_rounds.best(0);

  // Element-wise engines on AlexNet's norm1 and pool1 geometry, 16-bit.
  const nn::Shape norm1_shape{96, 55, 55};
  nn::Network norm1("alexnet-norm1");
  norm1.input(norm1_shape);
  norm1.lrn(5, 1e-4f, 0.75f, "norm1");
  nn::Network pool1("alexnet-pool1");
  pool1.input(norm1_shape);
  pool1.max_pool(3, 2, "pool1");
  const arch::NumericMode q16{kDataFrac, kDataFrac};
  arch::FusionPipeline norm1_pipe(
      norm1, nn::WeightStore::deterministic(norm1, 6),
      {arch::LayerChoice{fpga::ConvAlgo::kConventional, 4, q16}});
  arch::FusionPipeline pool1_pipe(
      pool1, nn::WeightStore::deterministic(pool1, 6),
      {arch::LayerChoice{fpga::ConvAlgo::kConventional, 4, q16}});
  nn::Tensor elem_in(norm1_shape);
  nn::fill_deterministic(elem_in, 7);
  const nn::LrnParam& norm1_p = norm1[1].lrn();
  const std::vector<double> elem_ms = interleaved_best_ms(
      {[&] { g_sink = norm1_pipe.run(elem_in).at(0, 0, 0); },
       [&] { g_sink = nn::lrn_reference(elem_in, norm1_p).at(0, 0, 0); },
       [&] { g_sink = pool1_pipe.run(elem_in).at(0, 0, 0); },
       [&] {
         g_sink = nn::pool_reference(elem_in, nn::PoolMethod::kMax, 3, 2, 0)
                      .at(0, 0, 0);
       }},
      7);

  const double blocked = measured[0].ms;
  std::printf("perf_smoke: scalar %.2f ms (1 thread, 64x56x56 * 64 3x3 "
              "filters), stamp %s\n",
              scalar, kernels::simd_stamp());
  for (const Measurement& m : measured) {
    std::printf("perf_smoke:   %-22s %8.2f ms\n", m.kernel, m.ms);
  }
  std::printf("perf_smoke: kernel loop system time %.3f s of %.3f s CPU "
              "(sys_frac %.4f, limit 0.05)\n",
              loop_sys, loop_user + loop_sys, sys_frac);

  bool ok = true;

  const double speedup = scalar / blocked;
  std::printf("perf_smoke: blocked GEMM vs scalar seed — %.2fx\n", speedup);
  // The sweep shows well over 10x in Release; 2x is the regression tripwire
  // with headroom for noisy shared CI runners.
  if (speedup < 2.0) {
    std::printf("perf_smoke: FAIL — blocked GEMM must beat the scalar seed "
                "by at least 2x in Release builds\n");
    ok = false;
  }

  if (gate2) {
    for (std::size_t i = 0; i < kernels_timed.size(); ++i) {
      if (base_run[i] == 0) continue;
      const Kernel& k = kernels_timed[i];
      const double ratio = kernel_rounds.ratio(i, base_run[i]);
      std::printf("perf_smoke: %s on %s %.2f ms vs base stamp %.2f ms — "
                  "median round ratio %.2fx (limit %.2fx)\n",
                  k.name, kernels::simd_stamp(), measured[i].ms,
                  kernel_rounds.best(base_run[i]), ratio, kBaseStampLimit);
      if (ratio > kBaseStampLimit) {
        std::printf("perf_smoke: FAIL — %s must run within %.2fx of its "
                    "base-stamp time (SIMD dispatch lost?)\n",
                    k.name, kBaseStampLimit);
        ok = false;
      }
    }
  } else {
    std::printf("perf_smoke: note — stamp %s selected, gate 2 (selected vs "
                "base stamp) skipped\n",
                kernels::simd_stamp());
  }

  // Printed, not gated: the 16-bit fixed model runs on the f32d GEMM, and
  // int8 and it take about the same time on this layer, so a gate between
  // them would pass or fail on run-to-run noise.
  const double fixed_ms = measured[2].ms;  // direct_fixed_gemm
  const double i8_ms = measured[4].ms;     // im2col_gemm_i8
  std::printf("perf_smoke: int8 vs 16-bit fixed model — %.2fx (not gated)\n",
              fixed_ms / i8_ms);

  const struct {
    const char* reference;
    double ms;
  } stream_refs[] = {{"winograd_conv_pretransformed", conv4_rounds.best(1)},
                     {"winograd_conv_f32 on its plan", conv4_rounds.best(2)}};
  for (const auto& ref : stream_refs) {
    const double ratio = streamed_ms / ref.ms;
    std::printf("perf_smoke: streamed conv4 F(4,3) %.2f ms vs %s %.2f ms — "
                "%.2fx (limit 1.5x)\n",
                streamed_ms, ref.reference, ref.ms, ratio);
    if (ratio > 1.5) {
      std::printf("perf_smoke: FAIL — the streamed Winograd layer must run "
                  "within 1.5x of %s\n",
                  ref.reference);
      ok = false;
    }
  }

  const struct {
    const char* layer;
    double pipe_ms, ref_ms;
  } elem_gates[] = {{"norm1 LRN", elem_ms[0], elem_ms[1]},
                    {"pool1 max pool", elem_ms[2], elem_ms[3]}};
  for (const auto& g : elem_gates) {
    const double ratio = g.pipe_ms / g.ref_ms;
    std::printf("perf_smoke: streamed 16-bit %s %.2f ms vs reference %.2f ms "
                "— %.2fx (limit 3x)\n",
                g.layer, g.pipe_ms, g.ref_ms, ratio);
    if (ratio > 3.0) {
      std::printf("perf_smoke: FAIL — the streamed %s must run within 3x of "
                  "the reference executor\n",
                  g.layer);
      ok = false;
    }
  }

  // Gate 6: the median per-round ratio read 1.01-1.19x on a 4-vCPU AVX2 VM
  // (15 runs); the scalar per-tile transforms the lane transform replaced
  // read 1.28-1.46x there (11 runs). 1.35x leaves 13% headroom above the
  // highest reading.
  {
    const double ratio = conv4_rounds.ratio(0, 3);
    std::printf("perf_smoke: streamed conv4 F(4,3) %.2f ms vs conv_im2col "
                "%.2f ms — median round ratio %.2fx (limit 1.35x)\n",
                streamed_ms, conv4_rounds.best(3), ratio);
    if (ratio > 1.35) {
      std::printf("perf_smoke: FAIL — the streamed Winograd layer must run "
                  "within 1.35x of the im2col GEMM\n");
      ok = false;
    }
  }

  // Gate 7: median per-round ratios; the bounds leave about 1.7x headroom
  // above the readings on a 4-vCPU AVX2 VM (direct 2.05-2.31x, Winograd
  // 1.13-1.39x, 15 runs).
  const struct {
    std::size_t model, reference;
    double limit;
  } fixed_gates[] = {{2, 0, 4.0}, {3, 1, 2.5}};
  for (const auto& g : fixed_gates) {
    const double ratio = kernel_rounds.ratio(g.model, g.reference);
    const char* model = measured[g.model].kernel;
    const char* reference = measured[g.reference].kernel;
    std::printf("perf_smoke: 16-bit %s %.2f ms vs %s %.2f ms — median round "
                "ratio %.2fx (limit %.1fx)\n",
                model, measured[g.model].ms, reference,
                measured[g.reference].ms, ratio, g.limit);
    if (ratio > g.limit) {
      std::printf("perf_smoke: FAIL — %s must run within %.1fx of %s\n",
                  model, g.limit, reference);
      ok = false;
    }
  }

  if (sys_frac > 0.05) {
    std::printf("perf_smoke: FAIL — system time is %.1f%% of the kernel "
                "loop's CPU time (limit 5%%)\n",
                100.0 * sys_frac);
    ok = false;
  }


  std::printf("perf_smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
