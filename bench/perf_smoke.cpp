// Release-mode performance tripwire, run by the CI release-perf job.
//
// Five guards, exit 0 = pass, 1 = fail:
//  1. Relative: the blocked im2col+GEMM path must beat the retained scalar
//     seed convolution by >= 2x single-threaded (a debug/-O0 build will not
//     pass; that is the point — the check catches regressions that quietly
//     serialize or deopt the kernel layer).
//  2. Absolute: each guarded kernel must run within 2x of its committed
//     per-kernel baseline (bench/perf_baseline.json, path baked in via
//     HETACC_PERF_BASELINE). Baselines were measured on a deliberately slow
//     single-core box, so the 2x threshold is generous headroom for CI
//     runner variance while still catching order-of-magnitude regressions
//     (e.g. losing SIMD dispatch or packing reuse).
//  3. System time: over the timed kernel loop, system CPU time must stay
//     under 5% of user + system time (getrusage). Both counters come from
//     the same process, so the gate holds on any machine; it catches an OS
//     call creeping into the per-dispatch path (a per-call sysfs read of
//     the core count once cost the serving fleet half its CPU).
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
//     reference does not. Repetitions of the four are interleaved and the
//     best of each kept, because a shared VM's speed drifts within seconds.
//
// Regenerate the baseline after an intentional perf change:
//   perf_smoke --write-baseline path/to/perf_baseline.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "arch/pipeline.h"
#include "kernels/blocking.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"
#include "nn/reference.h"

using namespace hetacc;

namespace {

/// Best-of-`reps` wall time of each function, the repetitions interleaved
/// (one call of each per round) so speed drift hits all of them alike.
std::vector<double> interleaved_best_ms(
    const std::vector<std::function<void()>>& fns, int reps) {
  using clock = std::chrono::steady_clock;
  // Warmup: pages, scratch-arena high water, worker pool.
  for (const auto& fn : fns) fn();
  std::vector<double> best(fns.size(), 1e30);
  for (int i = 0; i < reps; ++i) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const auto t0 = clock::now();
      fns[k]();
      const auto t1 = clock::now();
      best[k] = std::min(
          best[k], std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return best;
}

double best_ms(const std::function<void()>& fn, int reps) {
  return interleaved_best_ms({fn}, reps)[0];
}

volatile float g_sink = 0.0f;

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

struct Measurement {
  const char* kernel;
  double ms;
};

/// Minimal scan for `"<key>": <number>` in a small flat JSON object.
double json_lookup(const std::string& text, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  double v = -1.0;
  if (std::sscanf(text.c_str() + at + needle.size(), " %lf", &v) != 1) {
    return -1.0;
  }
  return v;
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const char* write_path = nullptr;
  if (argc == 3 && std::strcmp(argv[1], "--write-baseline") == 0) {
    write_path = argv[2];
  }

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

  // Committed per-machine tuning cache (written by autotune_blocking). On a
  // machine with a different cache topology 0 entries apply and dispatch
  // stays on the shipped defaults — either way results are identical, the
  // cache can only change speed.
#ifdef HETACC_TUNING_CACHE
  {
    const int applied = kernels::load_tuning_cache_file(HETACC_TUNING_CACHE);
    std::printf("perf_smoke: tuning cache %s — %d entr%s applied\n",
                HETACC_TUNING_CACHE, applied < 0 ? 0 : applied,
                applied == 1 ? "y" : "ies");
  }
#endif

  kernels::set_num_threads(1);  // single-thread comparison: pure kernel win
  const double scalar = best_ms(
      [&] {
        g_sink = nn::conv_reference_scalar(in, f, bias, 1, 1, true).at(0, 0, 0);
      },
      3);

  const CpuTimes loop_start = cpu_times();
  std::vector<Measurement> measured;
  measured.push_back({"im2col_gemm", best_ms(
      [&] { g_sink = algo::conv_im2col(in, f, bias, 1, 1, true).at(0, 0, 0); },
      5)});
  measured.push_back({"winograd_f43_gemm", best_ms(
      [&] {
        g_sink = algo::winograd_conv_pretransformed(tf, in, bias, 1, true)
                     .at(0, 0, 0);
      },
      5)});
  measured.push_back({"direct_fixed_gemm", best_ms(
      [&] {
        g_sink = algo::conv_direct_fixed(in, f, bias, 1, 1, true, kDataFrac,
                                         kWeightFrac, kOutFrac)
                     .at(0, 0, 0);
      },
      5)});
  measured.push_back({"winograd_fixed_gemm", best_ms(
      [&] {
        g_sink = algo::winograd_conv_fixed(wt, in, f, bias, 1, true, kDataFrac,
                                           kOutFrac)
                     .at(0, 0, 0);
      },
      5)});

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
  measured.push_back({"im2col_gemm_i8", best_ms(
      [&] {
        g_sink = algo::conv_quant_i8(in, f, bias, 1, 1, true, i8q).at(0, 0, 0);
      },
      5)});

  const CpuTimes loop_end = cpu_times();
  const double loop_user = loop_end.user - loop_start.user;
  const double loop_sys = loop_end.sys - loop_start.sys;
  const double sys_frac =
      loop_user + loop_sys > 0.0 ? loop_sys / (loop_user + loop_sys) : 0.0;

  // Streamed vs whole-map Winograd on AlexNet conv4 (outside the system-time
  // loop above, which keeps its own kernel set).
  nn::Network conv4("alexnet-conv4");
  conv4.input({384, 13, 13});
  conv4.conv(384, 3, 1, 1, "conv4");
  const nn::WeightStore conv4_ws = nn::WeightStore::deterministic(conv4, 4);
  const nn::ConvWeights& conv4_w = conv4_ws.conv(1);
  nn::Tensor conv4_in(conv4[0].out);
  nn::fill_deterministic(conv4_in, 5);
  arch::FusionPipeline conv4_pipe(
      conv4, conv4_ws, {arch::LayerChoice{fpga::ConvAlgo::kWinograd, 4, {}}});
  const algo::TransformedFilters conv4_tf =
      algo::transform_filters(wt, conv4_w.filters);
  const double streamed_ms = best_ms(
      [&] { g_sink = conv4_pipe.run(conv4_in).at(0, 0, 0); }, 5);
  const double whole_map_ms = best_ms(
      [&] {
        g_sink = algo::winograd_conv_pretransformed(
                     conv4_tf, conv4_in, conv4_w.bias, 1,
                     conv4[1].conv().fused_relu)
                     .at(0, 0, 0);
      },
      5);
  const kernels::WinogradPlan& conv4_plan =
      *conv4_pipe.shared_prepack()->wino[0];
  nn::Tensor conv4_out(conv4[1].out);
  const double kernel_ms = best_ms(
      [&] {
        kernels::winograd_conv_f32(conv4_plan, conv4_in.data(), 13, 13, 1,
                                   conv4_w.bias.data(),
                                   conv4[1].conv().fused_relu, /*v_frac=*/-1,
                                   /*out_frac=*/-1, conv4_out.data(), 13, 13,
                                   /*threads=*/0);
        g_sink = conv4_out.at(0, 0, 0);
      },
      5);

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
              "filters), SIMD %s\n",
              scalar, kernels::simd_enabled() ? "on" : "off");
  for (const Measurement& m : measured) {
    std::printf("perf_smoke:   %-22s %8.2f ms\n", m.kernel, m.ms);
  }
  std::printf("perf_smoke: kernel loop system time %.3f s of %.3f s CPU "
              "(sys_frac %.4f, limit 0.05)\n",
              loop_sys, loop_user + loop_sys, sys_frac);

  if (write_path) {
    std::FILE* out = std::fopen(write_path, "w");
    if (!out) {
      std::printf("perf_smoke: cannot write %s\n", write_path);
      return 1;
    }
    std::fprintf(out, "{\n");
    for (std::size_t i = 0; i < measured.size(); ++i) {
      std::fprintf(out, "  \"%s\": %.4f%s\n", measured[i].kernel,
                   measured[i].ms, i + 1 < measured.size() ? "," : "");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("perf_smoke: wrote baseline %s\n", write_path);
    return 0;
  }

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
  } stream_refs[] = {{"winograd_conv_pretransformed", whole_map_ms},
                     {"winograd_conv_f32 on its plan", kernel_ms}};
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

  if (sys_frac > 0.05) {
    std::printf("perf_smoke: FAIL — system time is %.1f%% of the kernel "
                "loop's CPU time (limit 5%%)\n",
                100.0 * sys_frac);
    ok = false;
  }

#ifdef HETACC_PERF_BASELINE
  const std::string baseline = read_file(HETACC_PERF_BASELINE);
  if (baseline.empty()) {
    std::printf("perf_smoke: FAIL — baseline %s missing or empty\n",
                HETACC_PERF_BASELINE);
    ok = false;
  } else {
    for (const Measurement& m : measured) {
      const double base = json_lookup(baseline, m.kernel);
      if (base <= 0.0) {
        std::printf("perf_smoke: FAIL — no baseline entry for %s\n", m.kernel);
        ok = false;
        continue;
      }
      const double ratio = m.ms / base;
      std::printf("perf_smoke:   %-22s %.2fx of committed baseline "
                  "(%.2f ms, limit 2x)\n",
                  m.kernel, ratio, base);
      if (ratio > 2.0) {
        std::printf("perf_smoke: FAIL — %s regressed past 2x of its "
                    "committed baseline\n",
                    m.kernel);
        ok = false;
      }
    }
  }
#else
  std::printf("perf_smoke: note — built without HETACC_PERF_BASELINE, "
              "absolute guard skipped\n");
#endif

  std::printf("perf_smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
