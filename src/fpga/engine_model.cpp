#include "fpga/engine_model.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "cost/cost_model.h"

namespace hetacc::fpga {

/// Memoized candidate ladders, keyed by layer structure. Lives behind a
/// shared_ptr so model copies (cheap, common in the baselines) share it.
struct EngineModel::ImplCache {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<const std::vector<Implementation>>>
      entries;
};

EngineModel::EngineModel(Device dev, EngineModelParams p)
    : dev_(std::move(dev)), p_(p), memo_(std::make_shared<ImplCache>()) {}

std::string_view to_string(ConvAlgo a) {
  switch (a) {
    case ConvAlgo::kConventional: return "conventional";
    case ConvAlgo::kWinograd: return "winograd";
    case ConvAlgo::kNone: return "-";
  }
  return "?";
}

bool algo_from_string(std::string_view s, ConvAlgo& out) {
  if (s == "conventional") {
    out = ConvAlgo::kConventional;
  } else if (s == "winograd") {
    out = ConvAlgo::kWinograd;
  } else if (s == "-") {
    out = ConvAlgo::kNone;
  } else {
    return false;
  }
  return true;
}

std::string algo_label(const EngineConfig& cfg) {
  std::string s{to_string(cfg.algo)};
  if (cfg.int8) s += "-i8";
  return s;
}

bool algo_from_label(std::string_view s, EngineConfig& cfg) {
  cfg.int8 = false;
  if (s == "conventional-i8") {
    cfg.algo = ConvAlgo::kConventional;
    cfg.int8 = true;
    return true;
  }
  return algo_from_string(s, cfg.algo);
}

std::vector<int> divisors_up_to(int x, int cap) {
  std::vector<int> out;
  for (int d = 1; d <= x && d <= cap; ++d) {
    if (x % d == 0) out.push_back(d);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

bool EngineModel::winograd_ok(const nn::Layer& layer) {
  if (layer.kind != nn::LayerKind::kConv) return false;
  const auto& p = layer.conv();
  return p.stride == 1 && p.kernel >= 2 && p.kernel <= 7;
}

long long EngineModel::algo_mults(const nn::Layer& layer,
                                  const EngineConfig& cfg) {
  switch (cfg.algo) {
    case ConvAlgo::kConventional:
      return layer.mults();
    case ConvAlgo::kWinograd: {
      const auto& p = layer.conv();
      const int n = cfg.wino_m + p.kernel - 1;
      const long long tiles =
          cost::winograd_tile_count(layer.out.h, layer.out.w, cfg.wino_m);
      return cost::winograd_mults(tiles, n, layer.conv_fan_in(), layer.out.c);
    }
    case ConvAlgo::kNone: {
      if (layer.kind == nn::LayerKind::kLrn) {
        // square + scale per element of the cross-channel window
        return layer.out.elems() * (layer.lrn().local_size + 2);
      }
      return 0;  // pooling / ReLU are multiplier-free
    }
  }
  return 0;
}

Implementation EngineModel::implement(const nn::Layer& layer,
                                      EngineConfig cfg) const {
  if (layer.kind == nn::LayerKind::kConv) {
    if (cfg.algo == ConvAlgo::kNone) {
      throw std::invalid_argument("conv layer needs a conv algorithm");
    }
    return implement_conv(layer, cfg);
  }
  if (cfg.algo != ConvAlgo::kNone) {
    throw std::invalid_argument("non-conv layer cannot use a conv algorithm");
  }
  return implement_simple(layer, cfg);
}

Implementation EngineModel::implement_conv(const nn::Layer& layer,
                                           EngineConfig cfg) const {
  const auto& cp = layer.conv();
  const int K = cp.kernel;
  // Compute/weight fan-in may be annotated (coarsened modules); the physical
  // feature map streamed through the line buffer is always layer.in.
  const int M = layer.conv_fan_in();
  const int Mc = layer.in.c;
  const int N = layer.out.c;
  cfg.tn = std::clamp(cfg.tn, 1, M);
  cfg.tm = std::clamp(cfg.tm, 1, N);
  cfg.tk = std::clamp(cfg.tk, 1, K * K);
  if (cfg.int8 && cfg.algo != ConvAlgo::kConventional) {
    throw std::invalid_argument(
        "int8 engines are conventional-only (layer '" + layer.name + "')");
  }

  Implementation ipl;
  ipl.cfg = cfg;
  ipl.mults_performed = algo_mults(layer, cfg);
  // Weight footprint in 16-bit device words. int8 packs two weights per
  // word (ceil for odd counts); every downstream consumer — DDR weight
  // traffic, CRC check cycles, report bytes — multiplies by
  // dev.data_bytes, so the halving propagates without special cases there.
  const long long weight_count = static_cast<long long>(N) * M * K * K;
  ipl.weight_words =
      cfg.int8 ? cost::ceil_div(weight_count, 2) : weight_count;

  long long line_rows = 0;
  long long cycles = 0;
  if (cfg.algo == ConvAlgo::kWinograd) {
    if (!winograd_ok(layer)) {
      throw std::invalid_argument(
          "winograd requires stride 1 and kernel in [2,7] (layer '" +
          layer.name + "')");
    }
    const int m = cfg.wino_m;
    const int n = m + K - 1;
    // One (m+r-1)^2 multiplier array per (tn, tm) channel pair: each cycle
    // retires one input-tile x output-channel partial product.
    const long long tiles = cost::winograd_tile_count(layer.out.h, layer.out.w, m);
    cycles = cost::conv_cycles_winograd(M, N, cfg.tn, cfg.tm, tiles);
    // n rows active in transform + m rows streaming in (circular buffer).
    line_rows = n + m;
    ipl.res.dsp = static_cast<long long>(n) * n * cfg.tn * cfg.tm;
    ipl.res.lut = static_cast<long long>(
        p_.base_lut + p_.lut_per_mult_wino * ipl.res.dsp);
    ipl.res.ff = static_cast<long long>(
        p_.base_ff + p_.ff_per_mult_wino * ipl.res.dsp);
  } else {
    // Conventional: tn x tm x tk MACs per cycle over the six-deep loop nest.
    cycles = cost::conv_cycles_conventional(
        M, N, K, cfg.tn, cfg.tm, cfg.tk,
        static_cast<long long>(layer.out.h) * layer.out.w);
    line_rows = K + cp.stride;
    // LUT/FF scale with multiplier lanes; DSPs pack int8_mults_per_dsp
    // int8 lanes each (DSP48E port chaining), so the int8 DSP demand is
    // ceil(lanes / pack) while the cycle schedule is unchanged.
    const long long lanes =
        static_cast<long long>(cfg.tn) * cfg.tm * cfg.tk;
    ipl.res.dsp =
        cfg.int8
            ? cost::ceil_div(lanes, std::max(1, p_.int8_mults_per_dsp))
            : lanes;
    ipl.res.lut = static_cast<long long>(
        p_.base_lut + p_.lut_per_mult_conv * static_cast<double>(lanes));
    ipl.res.ff = static_cast<long long>(
        p_.base_ff + p_.ff_per_mult_conv * static_cast<double>(lanes));
  }
  ipl.compute_cycles = cost::apply_efficiency(cycles, p_.compute_efficiency);

  // Circular line buffer (paper §4.2): line_rows rows x W columns x M
  // channels, partitioned into one bank per (row, tn-slice) for port
  // bandwidth.
  const long long lb_words =
      static_cast<long long>(Mc) * line_rows * layer.in.w;
  const int lb_banks = static_cast<int>(std::min<long long>(
      line_rows * cfg.tn, p_.max_line_buffer_banks));
  const int w_banks = static_cast<int>(std::min<long long>(
      static_cast<long long>(cfg.tn) * cfg.tm, p_.max_weight_banks));

  // Two buffering regimes, as in real accelerators:
  //  (a) weight-stationary: the line buffer streams the feature map and the
  //      full kernel set is resident (early layers: big maps, small kernels);
  //  (b) input-stationary: the whole (small) input map is resident and
  //      kernels stream from DDR through a double buffer of tm output
  //      channels (late layers: small maps, massive kernel sets — e.g.
  //      AlexNet conv4's 1.3M weight words exceed the ZC706's BRAM).
  // Either way the kernels cross DDR once per image (paper §5 excludes that
  // traffic from T). The engine takes whichever regime is cheaper.
  // int8 engines buffer 8-bit activations on chip; the weight footprint is
  // already expressed in 16-bit word equivalents (two int8 codes per word),
  // so the weight stores stay at 16-bit word width.
  const int act_bits = cfg.int8 ? 8 : 16;
  const long long lb_bram =
      p_.include_line_buffer ? bram18k_for(lb_words, act_bits, lb_banks) : 0;
  const long long bram_weight_stationary =
      lb_bram + bram18k_for(ipl.weight_words, 16, w_banks);
  const long long fmap_words = layer.in.elems();
  long long wbuf_words =
      2ll * cfg.tm * M * K * K;  // double-buffered output-channel block
  if (cfg.int8) wbuf_words = cost::ceil_div(wbuf_words, 2);
  const long long bram_input_stationary =
      (p_.include_line_buffer ? bram18k_for(fmap_words, act_bits, lb_banks)
                              : 0) +
      bram18k_for(std::min(wbuf_words, ipl.weight_words), 16, w_banks);
  ipl.res.bram18k = std::min(bram_weight_stationary, bram_input_stationary);

  // Priming: the first K (or tile-reach) input rows must arrive before
  // output row 0.
  const int prime_rows =
      cfg.algo == ConvAlgo::kWinograd ? cfg.wino_m + K - 1 : K;
  ipl.fill_cycles = cost::line_fill_cycles(prime_rows, layer.in.w, Mc,
                                           p_.fifo_words_per_cycle);

  if (p_.protect) {
    // Hardened engine: CRC-32 on the weight-load path, transform checksum
    // (Winograd), watchdog counter. Logic is per engine; the weight panels
    // additionally pay the per-burst check tail once, during priming.
    ipl.res.lut += static_cast<long long>(p_.protect_lut_per_engine);
    ipl.res.ff += static_cast<long long>(p_.protect_ff_per_engine);
    ipl.res.bram18k += p_.protect_bram_per_engine;
    if (cfg.algo == ConvAlgo::kWinograd) {
      ipl.res.lut += static_cast<long long>(p_.protect_lut_per_wino_lane *
                                            static_cast<double>(ipl.res.dsp));
    }
    const TransferProtection tp =
        dev_.protection.enabled ? dev_.protection : TransferProtection{};
    ipl.fill_cycles += cost::crc_check_cycles(
        ipl.weight_words * dev_.data_bytes, tp.burst_bytes,
        tp.check_cycles_per_burst);
  }
  return ipl;
}

Implementation EngineModel::implement_simple(const nn::Layer& layer,
                                             EngineConfig cfg) const {
  cfg.tn = std::clamp(cfg.tn, 1, std::max(1, layer.in.c));
  Implementation ipl;
  ipl.cfg = cfg;
  ipl.mults_performed = algo_mults(layer, cfg);

  long long work = 0;       // inner operations to schedule
  long long line_rows = 1;  // buffered input rows
  long long dsp = 0;
  switch (layer.kind) {
    case nn::LayerKind::kPool: {
      const auto& pp = layer.pool();
      work = layer.out.elems() * pp.kernel * pp.kernel;
      line_rows = pp.kernel + pp.stride;
      dsp = 0;  // max/accumulate trees live in LUTs
      break;
    }
    case nn::LayerKind::kLrn: {
      work = layer.out.elems() * layer.lrn().local_size;
      line_rows = 2;  // current + incoming row (window is cross-channel)
      dsp = static_cast<long long>(p_.lrn_dsp_per_lane) * cfg.tn;
      break;
    }
    case nn::LayerKind::kRelu: {
      work = layer.out.elems();
      line_rows = 1;
      dsp = 0;
      break;
    }
    case nn::LayerKind::kEltwiseAdd: {
      // (arms - 1) adds per output element; adder lanes live in LUTs.
      const long long arms =
          std::max<long long>(2, static_cast<long long>(layer.inputs.size()));
      work = layer.out.elems() * (arms - 1);
      line_rows = 1;
      dsp = 0;
      break;
    }
    case nn::LayerKind::kConcat: {
      // Pure stream interleave: one output element forwarded per lane-cycle.
      work = layer.out.elems();
      line_rows = 1;
      dsp = 0;
      break;
    }
    default:
      throw std::invalid_argument("implement_simple: unsupported layer kind '" +
                                  std::string(nn::to_string(layer.kind)) +
                                  "'");
  }
  ipl.compute_cycles = cost::lane_cycles(work, cfg.tn, p_.compute_efficiency);
  ipl.res.dsp = dsp;
  ipl.res.lut = static_cast<long long>(p_.base_lut_simple + 40.0 * cfg.tn);
  ipl.res.ff = static_cast<long long>(p_.base_ff_simple + 55.0 * cfg.tn);
  const long long lb_words =
      static_cast<long long>(layer.in.c) * line_rows * layer.in.w;
  const int banks = static_cast<int>(
      std::min<long long>(line_rows * cfg.tn, p_.max_line_buffer_banks));
  ipl.res.bram18k =
      p_.include_line_buffer ? bram18k_for(lb_words, 16, banks) : 0;
  ipl.fill_cycles = cost::line_fill_cycles(layer.window(), layer.in.w,
                                           layer.in.c,
                                           p_.fifo_words_per_cycle);
  if (p_.protect) {
    // Weight-free engines still carry the stage watchdog + stream parity.
    ipl.res.lut += static_cast<long long>(p_.protect_lut_per_engine * 0.25);
    ipl.res.ff += static_cast<long long>(p_.protect_ff_per_engine * 0.25);
  }
  return ipl;
}

namespace {

struct RatedConfig {
  EngineConfig cfg;
  long long cycles = 0;  ///< steady-state estimate (pre-efficiency)
  long long dsp = 0;
};

/// Keeps the Pareto frontier over (cycles, dsp) — a config is useless if
/// another is at least as fast with no more DSPs (ceil-division waste makes
/// many nominal-parallelism tiers strictly dominated) — then thins the
/// frontier to a geometric ladder in cycles. Ties prefer smaller tn (input
/// unroll multiplies line-buffer banks) and smaller tk.
std::vector<EngineConfig> pareto_ladder(std::vector<RatedConfig> all,
                                        double ratio) {
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.dsp != b.dsp) return a.dsp < b.dsp;
    if (a.cycles != b.cycles) return a.cycles < b.cycles;
    if (a.cfg.tn != b.cfg.tn) return a.cfg.tn < b.cfg.tn;
    return a.cfg.tk < b.cfg.tk;
  });
  std::vector<RatedConfig> front;
  long long best_cycles = std::numeric_limits<long long>::max();
  for (const auto& rc : all) {
    if (rc.cycles < best_cycles) {
      best_cycles = rc.cycles;
      front.push_back(rc);
    }
  }
  // front is ascending in dsp, descending in cycles-from-the-back; thin by
  // cycle ratio starting from the fastest (Alg. 2 iterates max -> min
  // parallelism).
  std::vector<EngineConfig> out;
  double last = 0.0;
  for (auto it = front.rbegin(); it != front.rend(); ++it) {
    if (out.empty() || static_cast<double>(it->cycles) >= last * ratio) {
      out.push_back(it->cfg);
      last = static_cast<double>(it->cycles);
    }
  }
  return out;
}

}  // namespace

std::vector<EngineConfig> EngineModel::candidates(
    const nn::Layer& layer) const {
  const long long dsp_cap = dev_.capacity.dsp;
  std::vector<EngineConfig> out;

  // Unroll factors need not divide the channel counts: the loop nest uses
  // ceil-division (partially filled last iteration), which the cycle model
  // reflects. A dense factor range gives the fine DSP granularity behind the
  // paper's non-power-of-two parallelisms (Table 2).
  auto unrolls = [](int dim) {
    std::vector<int> v;
    for (int i = 1; i <= std::min(dim, 64); ++i) v.push_back(i);
    return v;
  };

  if (layer.kind == nn::LayerKind::kConv) {
    const auto& cp = layer.conv();
    const int K = cp.kernel;
    const int M = layer.conv_fan_in();
    const int N = layer.out.c;
    const auto tns = unrolls(M);
    const auto tms = unrolls(N);
    const long long hw = static_cast<long long>(layer.out.h) * layer.out.w;

    std::vector<RatedConfig> conv;
    for (int tn : tns) {
      for (int tm : tms) {
        for (int tk : {1, K, K * K}) {
          EngineConfig c{ConvAlgo::kConventional, tn, tm, tk, 4};
          if (c.parallelism(K) > dsp_cap) continue;
          const long long cycles =
              cost::conv_cycles_conventional(M, N, K, tn, tm, tk, hw);
          conv.push_back({c, cycles, c.parallelism(K)});
        }
      }
    }
    auto ladder = pareto_ladder(std::move(conv), p_.ladder_ratio);
    out.insert(out.end(), ladder.begin(), ladder.end());

    if (p_.enable_int8) {
      // int8 twins of the conventional ladder. The DSP demand is the packed
      // count, so lane tiers beyond the 16-bit DSP ceiling become reachable;
      // a separate Pareto pass keeps both precisions on offer and lets the
      // fusion DP trade accuracy for resources per layer.
      const int pack = std::max(1, p_.int8_mults_per_dsp);
      std::vector<RatedConfig> conv8;
      for (int tn : tns) {
        for (int tm : tms) {
          for (int tk : {1, K, K * K}) {
            EngineConfig c{ConvAlgo::kConventional, tn, tm, tk, 4, true};
            const long long dsp =
                cost::ceil_div(c.parallelism(K), pack);
            if (dsp > dsp_cap) continue;
            const long long cycles =
                cost::conv_cycles_conventional(M, N, K, tn, tm, tk, hw);
            conv8.push_back({c, cycles, dsp});
          }
        }
      }
      auto l8 = pareto_ladder(std::move(conv8), p_.ladder_ratio);
      out.insert(out.end(), l8.begin(), l8.end());
    }

    if (p_.enable_winograd && winograd_ok(layer)) {
      std::vector<int> tile_sizes{p_.wino_tile_m};
      if (p_.explore_wino_tiles) tile_sizes = {2, 4, 6};
      for (int m : tile_sizes) {
        const long long tiles =
            cost::winograd_tile_count(layer.out.h, layer.out.w, m);
        std::vector<RatedConfig> wino;
        for (int tn : tns) {
          for (int tm : tms) {
            EngineConfig c{ConvAlgo::kWinograd, tn, tm, 1, m};
            if (c.parallelism(K) > dsp_cap) continue;
            const long long cycles =
                cost::conv_cycles_winograd(M, N, tn, tm, tiles);
            wino.push_back({c, cycles, c.parallelism(K)});
          }
        }
        auto wl = pareto_ladder(std::move(wino), p_.ladder_ratio);
        out.insert(out.end(), wl.begin(), wl.end());
      }
    }
  } else if (layer.is_windowed() || layer.kind == nn::LayerKind::kRelu ||
             layer.is_merge()) {
    std::vector<RatedConfig> simple;
    for (int tn : unrolls(layer.in.c)) {
      // Lane count is the throughput for these engines; rate by 1/tn.
      simple.push_back({EngineConfig{ConvAlgo::kNone, tn, 1, 1, 4},
                        cost::ceil_div(layer.in.elems(), tn), tn});
    }
    auto ladder = pareto_ladder(std::move(simple), p_.ladder_ratio);
    out.insert(out.end(), ladder.begin(), ladder.end());
  }
  return out;
}

namespace {

/// Structural identity of a layer for memoization: everything the candidate
/// ladder and the cycle/resource model read. Names are deliberately
/// excluded — identically shaped layers (e.g. VGG's repeated 3x3 convs)
/// share one cache entry.
std::string structural_key(const nn::Layer& l) {
  std::ostringstream os;
  os << static_cast<int>(l.kind) << ':' << l.in.c << 'x' << l.in.h << 'x'
     << l.in.w << ':' << l.out.c << 'x' << l.out.h << 'x' << l.out.w;
  switch (l.kind) {
    case nn::LayerKind::kConv: {
      const auto& p = l.conv();
      os << ":c" << p.kernel << ',' << p.stride << ',' << p.pad;
      if (p.fan_in > 0) os << ",f" << p.fan_in;
      break;
    }
    case nn::LayerKind::kEltwiseAdd:
    case nn::LayerKind::kConcat:
      os << ":m" << l.inputs.size();
      break;
    case nn::LayerKind::kPool: {
      const auto& p = l.pool();
      os << ":p" << static_cast<int>(p.method) << ',' << p.kernel << ','
         << p.stride << ',' << p.pad;
      break;
    }
    case nn::LayerKind::kLrn:
      os << ":l" << l.lrn().local_size;
      break;
    default:
      break;
  }
  return os.str();
}

}  // namespace

std::shared_ptr<const std::vector<Implementation>> EngineModel::implementations(
    const nn::Layer& layer) const {
  const std::string key = structural_key(layer);
  {
    std::lock_guard<std::mutex> lock(memo_->mu);
    auto it = memo_->entries.find(key);
    if (it != memo_->entries.end()) return it->second;
  }
  // Evaluate outside the lock so concurrent workers on distinct layers don't
  // serialize. Two workers racing on the same layer compute identical
  // ladders (implement() is pure in (layer, cfg)); first insert wins.
  auto impls = std::make_shared<std::vector<Implementation>>();
  for (const auto& cfg : candidates(layer)) {
    impls->push_back(implement(layer, cfg));
  }
  std::shared_ptr<const std::vector<Implementation>> result = std::move(impls);
  std::lock_guard<std::mutex> lock(memo_->mu);
  return memo_->entries.emplace(key, std::move(result)).first->second;
}

}  // namespace hetacc::fpga
