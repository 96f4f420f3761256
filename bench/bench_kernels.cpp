// KERN: kernel-layer sweep for §2.1 / DESIGN.md §9 — the retained scalar
// seed implementations vs the blocked/packed SIMD kernel layer, across VGG-
// and AlexNet-shaped 3x3 conv layers and thread counts. Plain chrono harness
// (no google-benchmark) so the binary also runs in CI Release smoke jobs.
// Each timing point is median-of-N after one untimed warmup run (the warmup
// faults in pages, grows the scratch arena to its high-water mark, and spins
// up the worker pool, so the samples measure steady state).
//
// Emits a table and BENCH_kernels.json. Alongside the fresh rows ("rev":
// "pr4") the JSON re-emits the committed pre-SIMD numbers for the two
// headline kernels ("rev": "pr2"), and every fresh row carries
// speedup_vs_pr2 where a matching pr2 row exists — the before/after pair the
// tentpole is judged on. Every fresh row is stamped with the machine it ran
// on (hardware thread count and kernels::machine_topology_key()); the frozen
// pr2 rows carry null stamps, since their machine was not recorded.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "bench_util.h"
#include "kernels/blocking.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"
#include "nn/reference.h"
#include "support/hardware.h"

using namespace hetacc;

namespace {

struct Geometry {
  const char* model;
  int in_c, out_c, hw, k;
  bool wino_only;  // large-tile-batch geometry: Winograd rows only
};

// One conv layer per VGG-E stage plus the widest AlexNet 3x3 layer, plus a
// VGG conv2-class 112x112 plane whose tile rows are twice as wide (28 F(4,3)
// tile columns per strip) — the large-batch stress for the batched Winograd
// transform grids.
constexpr Geometry kGeometries[] = {
    {"vgg_conv3", 64, 64, 56, 3, false},
    {"vgg_conv4", 128, 128, 28, 3, false},
    {"vgg_conv5", 256, 256, 14, 3, false},
    {"alexnet_conv4", 256, 384, 13, 3, false},
    {"vgg_conv2_batch", 64, 64, 112, 3, true},
};

// Committed single-thread/4-thread numbers from the pre-SIMD kernel layer
// (PR 2's BENCH_kernels.json, RelWithDebInfo-independent Release run) for
// the two headline kernels. Frozen here so the before/after comparison
// survives regeneration of the JSON.
struct Pr2Row {
  const char* kernel;
  const char* geometry;
  int threads;
  double ms;
};
constexpr Pr2Row kPr2[] = {
    {"im2col_gemm", "vgg_conv3", 1, 20.7494},
    {"im2col_gemm", "vgg_conv3", 4, 20.4552},
    {"winograd_f43_gemm", "vgg_conv3", 1, 26.9236},
    {"winograd_f43_gemm", "vgg_conv3", 4, 27.8188},
    {"im2col_gemm", "vgg_conv4", 1, 18.9647},
    {"im2col_gemm", "vgg_conv4", 4, 18.8462},
    {"winograd_f43_gemm", "vgg_conv4", 1, 28.3939},
    {"winograd_f43_gemm", "vgg_conv4", 4, 28.9138},
    {"im2col_gemm", "vgg_conv5", 1, 17.9022},
    {"im2col_gemm", "vgg_conv5", 4, 19.1167},
    {"winograd_f43_gemm", "vgg_conv5", 1, 73.8811},
    {"winograd_f43_gemm", "vgg_conv5", 4, 71.8684},
    {"im2col_gemm", "alexnet_conv4", 1, 24.0606},
    {"im2col_gemm", "alexnet_conv4", 4, 26.2560},
    {"winograd_f43_gemm", "alexnet_conv4", 1, 124.8827},
    {"winograd_f43_gemm", "alexnet_conv4", 4, 113.0594},
};

double pr2_ms(const char* kernel, const char* geometry, int threads) {
  for (const Pr2Row& r : kPr2) {
    if (r.threads == threads && r.ms > 0.0 &&
        std::strcmp(r.kernel, kernel) == 0 &&
        std::strcmp(r.geometry, geometry) == 0) {
      return r.ms;
    }
  }
  return 0.0;
}

struct Record {
  std::string kernel;
  Geometry g;
  int threads;
  double ms;
  double speedup;      // vs the matching scalar baseline (1.0 for baselines)
  double speedup_pr2;  // vs the committed pre-SIMD row (0 = no pr2 row)
  const char* rev;
  double speedup_i16 = 0.0;  // int8 rows: vs the i16 path, same threads
};

struct Setup {
  nn::Tensor in;
  nn::FilterBank f;
  std::vector<float> bias;

  explicit Setup(const Geometry& g)
      : in(g.in_c, g.hw, g.hw),
        f(g.out_c, g.in_c, g.k),
        bias(static_cast<std::size_t>(g.out_c)) {
    nn::fill_deterministic(in, 1);
    nn::fill_deterministic(f, 2);
    nn::fill_deterministic(bias, 3);
  }
};

/// One untimed warmup, then median of the collected samples: at least 5,
/// stopping once ~250 ms of samples accumulated (cap 25) — robust against
/// both scheduler spikes (median, not min-skewed distribution tails) and
/// cold-start effects (warmup).
template <typename Fn>
double time_ms(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup (pages, arena high-water, worker pool)
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < 250.0 && samples.size() < 25)) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    samples.push_back(ms);
    total += ms;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2]
               : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

volatile float g_sink = 0.0f;  // defeats whole-call dead-code elimination

void emit(std::vector<Record>& out, const char* kernel, const Geometry& g,
          int threads, double ms, double baseline_ms, double i16_ms = 0.0,
          const char* rev = "pr4") {
  const double p2 = pr2_ms(kernel, g.model, threads);
  Record r{kernel,
           g,
           threads,
           ms,
           baseline_ms > 0.0 ? baseline_ms / ms : 1.0,
           p2 > 0.0 ? p2 / ms : 0.0,
           rev,
           i16_ms > 0.0 ? i16_ms / ms : 0.0};
  std::printf("  %-24s %-16s threads=%d  %9.3f ms  %6.2fx", kernel, g.model,
              threads, ms, r.speedup);
  if (r.speedup_pr2 > 0.0) std::printf("  (%.2fx vs pr2)", r.speedup_pr2);
  if (r.speedup_i16 > 0.0) std::printf("  (%.2fx vs i16)", r.speedup_i16);
  std::printf("\n");
  out.push_back(std::move(r));
}

void write_json(const std::vector<Record>& recs, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("warning: cannot open %s for writing\n", path);
    return;
  }
  const std::string here =
      "\"cores\": " + std::to_string(hardware_threads()) +
      ", \"machine_topology_key\": \"" + kernels::machine_topology_key() +
      "\"";
  const std::string unrecorded =
      "\"cores\": null, \"machine_topology_key\": null";
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    const bool frozen = std::strcmp(r.rev, "pr2") == 0;
    std::fprintf(f,
                 "  {\"kernel\": \"%s\", \"geometry\": \"%s\", \"in_c\": %d, "
                 "\"out_c\": %d, \"hw\": %d, \"k\": %d, \"threads\": %d, "
                 "\"ms\": %.4f, \"speedup_vs_scalar\": %.3f, "
                 "\"speedup_vs_pr2\": %.3f, \"speedup_vs_i16\": %.3f, "
                 "\"rev\": \"%s\", %s}%s\n",
                 r.kernel.c_str(), r.g.model, r.g.in_c, r.g.out_c, r.g.hw,
                 r.g.k, r.threads, r.ms, r.speedup, r.speedup_pr2,
                 r.speedup_i16, r.rev,
                 (frozen ? unrecorded : here).c_str(),
                 i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, recs.size());
}

/// Re-emits the frozen pre-SIMD rows so the JSON is self-contained.
void append_pr2_rows(std::vector<Record>& recs) {
  for (const Pr2Row& p : kPr2) {
    if (p.ms <= 0.0) continue;
    for (const Geometry& g : kGeometries) {
      if (std::strcmp(g.model, p.geometry) == 0) {
        recs.push_back(Record{p.kernel, g, p.threads, p.ms, 1.0, 0.0, "pr2"});
      }
    }
  }
}

}  // namespace

int main() {
  bench::header("KERN", "kernel layer: scalar seed vs blocked/packed paths");

  const int hw_cores = kernels::resolve_threads(0);
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw_cores) ==
      thread_counts.end()) {
    thread_counts.push_back(hw_cores);
  }
  std::printf("hardware threads: %d (%s); SIMD micro-kernels: %s; "
              "sweeping threads {",
              hw_cores, kernels::machine_topology_key().c_str(),
              kernels::simd_enabled() ? "on" : "off (scalar)");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", thread_counts[i]);
  }
  std::printf("}\n\n");

  const algo::WinogradTransform wt = algo::winograd_f4x3();
  constexpr int kDataFrac = 12, kWeightFrac = 14, kOutFrac = 10;

  std::vector<Record> recs;
  for (const Geometry& g : kGeometries) {
    Setup s(g);
    const algo::TransformedFilters tf = algo::transform_filters(wt, s.f);
    std::printf("%s: %dx%dx%d, %d filters %dx%d%s\n", g.model, g.in_c, g.hw,
                g.hw, g.out_c, g.k, g.k,
                g.wino_only ? " (winograd tile-batch stress)" : "");

    // int8 recipe from the observed float ranges (bench-local calibration —
    // one reference run, untimed).
    const auto min_max = [](const nn::Tensor& t, float& mn, float& mx) {
      mn = mx = 0.0f;
      for (float v : t.vec()) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
    };
    const nn::Tensor q_ref = algo::conv_im2col(s.in, s.f, s.bias, 1, 1, true);
    float in_mn, in_mx, out_mn, out_mx;
    min_max(s.in, in_mn, in_mx);
    min_max(q_ref, out_mn, out_mx);
    const algo::Int8ConvQuant i8q =
        algo::make_int8_conv_quant(s.f, in_mn, in_mx, out_mn, out_mx);

    // Scalar seed baselines (single-threaded by construction).
    kernels::set_num_threads(1);
    double direct_ms = 0.0, im2col_sc_ms = 0.0, fixed_sc_ms = 0.0,
           wfix_sc_ms = 0.0, i8_sc_ms = 0.0;
    if (!g.wino_only) {
      direct_ms = time_ms([&] {
        g_sink = nn::conv_reference_scalar(s.in, s.f, s.bias, 1, 1, true)
                     .at(0, 0, 0);
      });
      emit(recs, "direct_scalar", g, 1, direct_ms, 0.0);
      im2col_sc_ms = time_ms([&] {
        g_sink = algo::conv_im2col_scalar(s.in, s.f, s.bias, 1, 1, true)
                     .at(0, 0, 0);
      });
      emit(recs, "im2col_scalar", g, 1, im2col_sc_ms, 0.0);
    }
    const double wino_sc_ms = time_ms([&] {
      g_sink = algo::winograd_conv_pretransformed_scalar(tf, s.in, s.bias, 1,
                                                         true)
                   .at(0, 0, 0);
    });
    emit(recs, "winograd_f43_scalar", g, 1, wino_sc_ms, 0.0);
    if (!g.wino_only) {
      fixed_sc_ms = time_ms([&] {
        g_sink = algo::conv_direct_fixed_scalar(s.in, s.f, s.bias, 1, 1, true,
                                                kDataFrac, kWeightFrac,
                                                kOutFrac)
                     .at(0, 0, 0);
      });
      emit(recs, "direct_fixed_scalar", g, 1, fixed_sc_ms, 0.0);
      wfix_sc_ms = time_ms([&] {
        g_sink = algo::winograd_conv_fixed_scalar(wt, s.in, s.f, s.bias, 1,
                                                  true, kDataFrac, kOutFrac)
                     .at(0, 0, 0);
      });
      emit(recs, "winograd_fixed_scalar", g, 1, wfix_sc_ms, 0.0);
      i8_sc_ms = time_ms([&] {
        g_sink = algo::conv_quant_i8_scalar(s.in, s.f, s.bias, 1, 1, true,
                                            i8q)
                     .at(0, 0, 0);
      });
      emit(recs, "im2col_i8_scalar", g, 1, i8_sc_ms, 0.0, 0.0, "pr7");
    }

    // Kernel-layer paths across thread counts. Speedups are quoted against
    // the scalar implementation of the *same algorithm*; the headline
    // "blocked GEMM vs scalar conv" number is im2col_gemm vs direct_scalar.
    for (int t : thread_counts) {
      kernels::set_num_threads(t);
      if (!g.wino_only) {
        emit(recs, "im2col_gemm", g, t, time_ms([&] {
               g_sink = algo::conv_im2col(s.in, s.f, s.bias, 1, 1, true)
                            .at(0, 0, 0);
             }),
             direct_ms);
      }
      emit(recs, "winograd_f43_gemm", g, t, time_ms([&] {
             g_sink =
                 algo::winograd_conv_pretransformed(tf, s.in, s.bias, 1, true)
                     .at(0, 0, 0);
           }),
           wino_sc_ms);
      // i16 and int8 im2col GEMM run on every geometry (including the
      // tile-batch stress one): the i8-vs-i16 pair is the datapath headline.
      const double i16_ms = time_ms([&] {
        g_sink = algo::conv_direct_fixed(s.in, s.f, s.bias, 1, 1, true,
                                         kDataFrac, kWeightFrac, kOutFrac)
                     .at(0, 0, 0);
      });
      emit(recs, "direct_fixed_gemm", g, t, i16_ms, fixed_sc_ms);
      if (!g.wino_only) {
        emit(recs, "winograd_fixed_gemm", g, t, time_ms([&] {
               g_sink = algo::winograd_conv_fixed(wt, s.in, s.f, s.bias, 1,
                                                  true, kDataFrac, kOutFrac)
                            .at(0, 0, 0);
             }),
             wfix_sc_ms);
      }
      emit(recs, "im2col_gemm_i8", g, t, time_ms([&] {
             g_sink =
                 algo::conv_quant_i8(s.in, s.f, s.bias, 1, 1, true, i8q)
                     .at(0, 0, 0);
           }),
           i8_sc_ms, i16_ms, "pr7");
    }
    kernels::set_num_threads(1);
    std::printf("\n");
  }

  append_pr2_rows(recs);
  write_json(recs, "BENCH_kernels.json");
  bench::note(
      "speedup is vs the same-algorithm scalar seed; im2col_gemm is also the "
      "headline blocked-GEMM-vs-scalar-conv comparison (baseline "
      "direct_scalar). rev=pr2 rows are the committed pre-SIMD kernel layer; "
      "speedup_vs_pr2 on rev=pr4 rows is that tentpole before/after. rev=pr7 "
      "rows are the int8 datapath; speedup_vs_i16 compares im2col_gemm_i8 "
      "against direct_fixed_gemm at the same geometry and thread count.");
  return 0;
}
