// KERN: kernel-layer sweep for §2.1 / DESIGN.md §9 — the retained scalar
// seed implementations vs the blocked/packed SIMD kernel layer, across VGG-
// and AlexNet-shaped 3x3 conv layers and thread counts. Plain chrono harness
// (no google-benchmark) so the binary also runs in CI Release smoke jobs.
// Each timing point is the median of N samples after one untimed warmup run
// (the warmup faults in pages, grows the scratch arena to its high-water
// mark, and spins up the worker pool, so the samples measure steady state);
// every row also records the samples' quartiles, so drift within a run shows
// as spread.
//
// Emits a table and BENCH_kernels.json. Every row is stamped with the
// machine it ran on (hardware thread count and
// kernels::machine_topology_key()) and the SIMD stamp its kernels ran
// (kernels::simd_stamp()). The kernel-layer paths run on the selected stamp
// at every thread count; single-threaded, each path also runs on every lower
// stamp the CPU runs, in alternating rounds with the selected stamp.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/conv_variants.h"
#include "algo/winograd_conv.h"
#include "bench_util.h"
#include "kernels/blocking.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"
#include "kernels/simd.h"
#include "nn/reference.h"
#include "support/hardware.h"

using namespace hetacc;
using kernels::simd::Stamp;

namespace {

struct Geometry {
  const char* model;
  int in_c, out_c, hw, k;
  bool wino_only;  // tile-batch stress: no im2col or fixed/int8 seed rows
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

/// Median and quartiles of one timing point's samples.
struct Timing {
  double ms = 0.0, p25 = 0.0, p75 = 0.0;
  int samples = 0;
};

struct Record {
  std::string kernel;
  const char* stamp;  // kernels::simd_stamp() while the row was timed
  Geometry g;
  int threads;
  Timing t;
  double speedup;          // vs the row's scalar baseline (0 = none)
  double speedup_fixed16;  // int8 rows: vs the 16-bit fixed model, same threads
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

/// Times `fn` on each of `stamps`: one untimed warmup per stamp, then
/// rounds of one call per stamp, at least 5, stopping once the stamps
/// average ~250 ms of samples (cap 25); median and quartiles per stamp.
/// Robust against scheduler spikes (median, not min-skewed distribution
/// tails) and cold-start effects (warmup); alternating the stamps round by
/// round puts the machine's drift on all of them alike.
template <typename Fn>
std::vector<Timing> time_ms(const Fn& fn, const std::vector<Stamp>& stamps) {
  using clock = std::chrono::steady_clock;
  const auto call = [&fn](Stamp st) {
    const kernels::simd::ScopedStampCap cap(st);
    const auto t0 = clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  for (const Stamp st : stamps) call(st);  // pages, arena, worker pool
  std::vector<std::vector<double>> samples(stamps.size());
  double total = 0.0;
  for (int round = 0;
       round < 5 || (total < 250.0 * stamps.size() && round < 25); ++round) {
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      samples[i].push_back(call(stamps[i]));
      total += samples[i].back();
    }
  }
  std::vector<Timing> out;
  for (const std::vector<double>& v : samples) {
    const bench::Quartiles q = bench::quartiles(v);
    out.push_back({q.median, q.p25, q.p75, static_cast<int>(v.size())});
  }
  return out;
}

template <typename Fn>
Timing time_ms(const Fn& fn) {
  return time_ms(fn, {kernels::simd::active_stamp()})[0];
}

volatile float g_sink = 0.0f;  // defeats whole-call dead-code elimination

/// Records one row. `baseline_ms` is the scalar time the row is quoted
/// against (a baseline row passes its own time; 0 = no baseline),
/// `fixed16_ms` the 16-bit fixed model's time an int8 row is compared to,
/// and `stamp` the stamp the row's kernels ran.
void emit(std::vector<Record>& out, const char* kernel, const Geometry& g,
          int threads, const Timing& t, double baseline_ms,
          double fixed16_ms = 0.0, const char* stamp = kernels::simd_stamp()) {
  Record r{kernel,
           stamp,
           g,
           threads,
           t,
           baseline_ms > 0.0 ? baseline_ms / t.ms : 0.0,
           fixed16_ms > 0.0 ? fixed16_ms / t.ms : 0.0};
  std::printf("  %-24s %-16s %-6s threads=%d  %9.3f ms [%.3f, %.3f]  %6.2fx",
              kernel, g.model, r.stamp, threads, t.ms, t.p25, t.p75,
              r.speedup);
  if (r.speedup_fixed16 > 0.0) {
    std::printf("  (%.2fx vs 16-bit fixed)", r.speedup_fixed16);
  }
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
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(f,
                 "  {\"kernel\": \"%s\", \"simd_stamp\": \"%s\", "
                 "\"geometry\": \"%s\", \"in_c\": %d, "
                 "\"out_c\": %d, \"hw\": %d, \"k\": %d, \"threads\": %d, "
                 "\"ms\": %.4f, \"ms_p25\": %.4f, \"ms_p75\": %.4f, "
                 "\"samples\": %d, \"speedup_vs_scalar\": %.3f, "
                 "\"speedup_vs_fixed16\": %.3f, %s}%s\n",
                 r.kernel.c_str(), r.stamp, r.g.model, r.g.in_c, r.g.out_c,
                 r.g.hw, r.g.k, r.threads, r.t.ms, r.t.p25, r.t.p75,
                 r.t.samples, r.speedup, r.speedup_fixed16, here.c_str(),
                 i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, recs.size());
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
  std::printf("hardware threads: %d (%s); SIMD stamp: %s; "
              "sweeping threads {",
              hw_cores, kernels::machine_topology_key().c_str(),
              kernels::simd_stamp());
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

    // Scalar seed baselines (single-threaded by construction). The f32
    // oracle is the baseline of both float algorithms.
    kernels::set_num_threads(1);
    const Timing direct = time_ms([&] {
      g_sink = nn::conv_reference_scalar(s.in, s.f, s.bias, 1, 1, true)
                   .at(0, 0, 0);
    });
    emit(recs, "direct_scalar", g, 1, direct, direct.ms);
    double fixed_sc_ms = 0.0, wfix_sc_ms = 0.0, i8_sc_ms = 0.0;
    if (!g.wino_only) {
      const Timing fixed_sc = time_ms([&] {
        g_sink = algo::conv_direct_fixed_scalar(s.in, s.f, s.bias, 1, 1, true,
                                                kDataFrac, kWeightFrac,
                                                kOutFrac)
                     .at(0, 0, 0);
      });
      fixed_sc_ms = fixed_sc.ms;
      emit(recs, "direct_fixed_scalar", g, 1, fixed_sc, fixed_sc_ms);
      const Timing wfix_sc = time_ms([&] {
        g_sink = algo::winograd_conv_fixed_scalar(wt, s.in, s.f, s.bias, 1,
                                                  true, kDataFrac, kOutFrac)
                     .at(0, 0, 0);
      });
      wfix_sc_ms = wfix_sc.ms;
      emit(recs, "winograd_fixed_scalar", g, 1, wfix_sc, wfix_sc_ms);
      const Timing i8_sc = time_ms([&] {
        g_sink = algo::conv_quant_i8_scalar(s.in, s.f, s.bias, 1, 1, true,
                                            i8q)
                     .at(0, 0, 0);
      });
      i8_sc_ms = i8_sc.ms;
      emit(recs, "im2col_i8_scalar", g, 1, i8_sc, i8_sc_ms);
    }

    // Kernel-layer paths at thread count t on stamps `on`, each row's stamps
    // timed in alternating rounds. Speedups are quoted against the scalar
    // implementation of the same numerics: direct_scalar for the float paths
    // (the headline "blocked GEMM vs scalar conv" number is im2col_gemm vs
    // direct_scalar), the fixed and int8 seeds for theirs.
    const auto paths = [&](int t, const std::vector<Stamp>& on) {
      kernels::set_num_threads(t);
      const auto row = [&](const char* kernel, double baseline_ms,
                           const auto& fn,
                           const std::vector<Timing>* vs_fixed16 = nullptr) {
        const std::vector<Timing> ts = time_ms(fn, on);
        for (std::size_t i = 0; i < ts.size(); ++i) {
          emit(recs, kernel, g, t, ts[i], baseline_ms,
               vs_fixed16 ? (*vs_fixed16)[i].ms : 0.0,
               kernels::simd::stamp_name(on[i]));
        }
        return ts;
      };
      if (!g.wino_only) {
        row("im2col_gemm", direct.ms, [&] {
          g_sink = algo::conv_im2col(s.in, s.f, s.bias, 1, 1, true).at(0, 0, 0);
        });
      }
      row("winograd_f43_gemm", direct.ms, [&] {
        g_sink = algo::winograd_conv_pretransformed(tf, s.in, s.bias, 1, true)
                     .at(0, 0, 0);
      });
      // The 16-bit direct model and int8 im2col GEMM run on every geometry
      // (including the tile-batch stress one): the pair is the datapath
      // headline.
      const std::vector<Timing> fixed16 =
          row("direct_fixed_gemm", fixed_sc_ms, [&] {
            g_sink = algo::conv_direct_fixed(s.in, s.f, s.bias, 1, 1, true,
                                             kDataFrac, kWeightFrac, kOutFrac)
                         .at(0, 0, 0);
          });
      if (!g.wino_only) {
        row("winograd_fixed_gemm", wfix_sc_ms, [&] {
          g_sink = algo::winograd_conv_fixed(wt, s.in, s.f, s.bias, 1, true,
                                             kDataFrac, kOutFrac)
                       .at(0, 0, 0);
        });
      }
      row(
          "im2col_gemm_i8", i8_sc_ms,
          [&] {
            g_sink = algo::conv_quant_i8(s.in, s.f, s.bias, 1, 1, true, i8q)
                         .at(0, 0, 0);
          },
          &fixed16);
    };
    // Single-threaded, the selected stamp alternates with each lower stamp
    // this CPU runs.
    std::vector<Stamp> stamps = {kernels::simd::active_stamp()};
    for (const Stamp st : {Stamp::kAvx2, Stamp::kBase, Stamp::kScalar}) {
      if (st < stamps[0]) stamps.push_back(st);
    }
    for (int t : thread_counts) {
      paths(t, t == 1 ? stamps : std::vector<Stamp>{stamps[0]});
    }
    kernels::set_num_threads(1);
    std::printf("\n");
  }

  write_json(recs, "BENCH_kernels.json");
  bench::note(
      "ms is the median of the samples, ms_p25/ms_p75 their quartiles. "
      "speedup_vs_scalar is vs the scalar seed of the same numerics "
      "(direct_scalar, the f32 oracle, for im2col_gemm and "
      "winograd_f43_gemm; 0 = none measured); im2col_gemm vs direct_scalar "
      "is the headline blocked-GEMM-vs-scalar-conv comparison. "
      "speedup_vs_fixed16 compares im2col_gemm_i8 against direct_fixed_gemm "
      "(the 16-bit fixed model) at the same geometry, thread count and "
      "stamp. simd_stamp is the stamp the row's kernels ran; the scalar "
      "seeds run no stamped kernel, so theirs reads the selected one.");
  return 0;
}
