#include "kernels/autotune.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <vector>

#include "kernels/gemm.h"

namespace hetacc::kernels {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Deterministic operand fill (no libc rand; reproducible across runs).
template <typename T>
void fill_pattern(std::vector<T>& v) {
  std::uint32_t s = 0x9e3779b9u;
  for (auto& x : v) {
    s = s * 1664525u + 1013904223u;
    if constexpr (std::is_floating_point_v<T>) {
      x = static_cast<T>(static_cast<int>(s >> 24) - 128) / T(128);
    } else {
      x = static_cast<T>(static_cast<int>(s >> 24) - 128);
    }
  }
}

/// The measurement workload: one im2col-shaped GEMM per datapath, sized like
/// the mid-network VGG convolutions the benches track (M = out channels,
/// K = in_c * 3 * 3, N = out pixels). Operands are allocated once per tune.
struct Workload {
  int M = 64, N = 56 * 56, K = 64 * 9;
  std::vector<float> af, bf;
  std::vector<double> cf64ab;  // f64 path reuses double operands
  std::vector<std::int8_t> a8, b8;
  std::vector<float> cf;
  std::vector<double> cd;
  std::vector<std::int32_t> c32;
  std::vector<std::int8_t> c8;
  std::vector<float> scales;

  explicit Workload(Datapath dp) {
    const std::size_t mk = static_cast<std::size_t>(M) * K;
    const std::size_t kn = static_cast<std::size_t>(K) * N;
    const std::size_t mn = static_cast<std::size_t>(M) * N;
    switch (dp) {
      case Datapath::kF32:
      case Datapath::kF32d:
        af.resize(mk);
        bf.resize(kn);
        fill_pattern(af);
        fill_pattern(bf);
        if (dp == Datapath::kF32) {
          cf.resize(mn);
        } else {
          cd.resize(mn);
        }
        break;
      case Datapath::kF64:
        cf64ab.resize(mk + kn);
        fill_pattern(cf64ab);
        cd.resize(mn);
        break;
      case Datapath::kI8:
        a8.resize(mk);
        b8.resize(kn);
        fill_pattern(a8);
        fill_pattern(b8);
        c8.resize(mn);
        scales.assign(static_cast<std::size_t>(M), 0.0002f);
        break;
    }
  }

  void run(Datapath dp, int threads) {
    switch (dp) {
      case Datapath::kF32:
        gemm_f32(M, N, K, af.data(), K, bf.data(), N, cf.data(), N, nullptr,
                 false, threads);
        break;
      case Datapath::kF32d:
        gemm_f32d(M, N, K, af.data(), K, bf.data(), N, cd.data(), N, nullptr,
                  false, threads);
        break;
      case Datapath::kF64:
        gemm_f64(M, N, K, cf64ab.data(), K,
                 cf64ab.data() + static_cast<std::size_t>(M) * K, N,
                 cd.data(), N, threads);
        break;
      case Datapath::kI8: {
        QuantParams q;
        q.scales = scales.data();
        q.per_channel = true;
        gemm_i8(M, N, K, a8.data(), K, b8.data(), N, c8.data(), N, q,
                threads);
        break;
      }
    }
  }
};

/// Measures `bp` on the workload: installs it, runs once warm-up-free (the
/// caller warmed the operands), takes the min of `reps` timed runs.
double measure(Datapath dp, const BlockingParams& bp, Workload& w,
               const AutotuneOptions& opts) {
  set_blocking(dp, bp);
  double best = 1e30;
  for (int r = 0; r < std::max(1, opts.reps); ++r) {
    const auto t0 = Clock::now();
    w.run(dp, opts.threads);
    best = std::min(best, ms_since(t0));
  }
  return best;
}

}  // namespace

AutotuneResult autotune_datapath(Datapath dp, const AutotuneOptions& opts) {
  AutotuneResult res;
  res.dp = dp;

  Workload w(dp);
  const auto t0 = Clock::now();

  // Warm-up + defaults baseline.
  const BlockingParams def = default_blocking(dp);
  w.run(dp, opts.threads);
  res.default_ms = measure(dp, def, w, opts);
  res.best = def;
  res.best_ms = res.default_ms;
  res.trials = 1;

  // Candidate axes. KC only moves on the integer datapaths (elsewhere the
  // sanitizer would pin every candidate back to the default anyway).
  const std::vector<int> mcs = {48, 64, 96, 128, 192, 256};
  const std::vector<int> kcs = kc_tunable(dp)
                                   ? std::vector<int>{128, 256, 384, 512}
                                   : std::vector<int>{def.kc};
  const std::vector<int> ncs = {0, 256, 512, 1024};
  const std::vector<int> grains = {0, 4, 8, 32};

  // Coordinate descent from the defaults: sweep one axis at a time, keep the
  // winner, repeat until a full pass improves nothing or the budget is gone.
  bool improved = true;
  while (improved && ms_since(t0) < opts.budget_ms) {
    improved = false;
    for (int axis = 0; axis < 4 && ms_since(t0) < opts.budget_ms; ++axis) {
      const std::vector<int>& vals =
          axis == 0 ? mcs : axis == 1 ? kcs : axis == 2 ? ncs : grains;
      for (int v : vals) {
        if (ms_since(t0) >= opts.budget_ms) break;
        BlockingParams cand = res.best;
        (axis == 0 ? cand.mc
                   : axis == 1 ? cand.kc : axis == 2 ? cand.nc : cand.grain) =
            v;
        if (cand == res.best) continue;
        const double ms = measure(dp, cand, w, opts);
        ++res.trials;
        if (ms < res.best_ms) {
          res.best_ms = ms;
          res.best = cand;
          improved = true;
        }
      }
    }
  }

  set_blocking(dp, res.best);
  return res;
}

std::vector<AutotuneResult> autotune_all(const AutotuneOptions& opts) {
  std::vector<AutotuneResult> out;
  out.reserve(kNumDatapaths);
  for (int i = 0; i < kNumDatapaths; ++i) {
    out.push_back(autotune_datapath(static_cast<Datapath>(i), opts));
  }
  return out;
}

std::string autotune_summary(const AutotuneResult& r) {
  std::ostringstream os;
  os << datapath_name(r.dp) << ": mc=" << r.best.mc << " kc=" << r.best.kc
     << " nc=" << r.best.nc << " grain=" << r.best.grain << "  " << r.best_ms
     << "ms (default " << r.default_ms << "ms, " << r.trials << " trials)";
  return os.str();
}

}  // namespace hetacc::kernels
