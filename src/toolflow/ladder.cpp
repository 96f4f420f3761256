#include "toolflow/ladder.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "quant/calibration.h"
#include "support/error.h"
#include "toolflow/toolflow.h"

namespace hetacc::toolflow {

namespace {

bool any_int8(const core::Strategy& s) {
  for (const auto& g : s.groups) {
    for (const auto& ipl : g.impls) {
      if (ipl.cfg.int8) return true;
    }
  }
  return false;
}

LadderRung make_rung(std::string label, ToolflowResult flow, bool protect) {
  LadderRung r;
  r.label = std::move(label);
  r.service_cycles = flow.optimization.strategy.latency_cycles();
  r.protect = protect;
  r.int8 = any_int8(flow.optimization.strategy);
  r.report = std::move(flow.report);
  r.strategy = std::move(flow.optimization.strategy);
  return r;
}

}  // namespace

ServingLadderPlan build_serving_ladder(const nn::Network& net,
                                       const fpga::Device& dev,
                                       const LadderOptions& opt) {
  ServingLadderPlan plan;
  plan.accel_net = net.accelerated_portion();

  // Every candidate rung is one tool-flow run, a variant of the primary's
  // options:
  //  - protected: --protect re-trades the whole strategy under hardened
  //    pricing (see toolflow.cpp);
  //  - budget-Nx: the feature-map transfer budget relaxed to N times the
  //    minimal one the primary uses, admitting strategies the fused-transfer
  //    constraint excluded, so the frontier descends in latency;
  //  - int8-mixed: free to pick the packed datapath per layer;
  //  - conventional-i8: Winograd withheld, so every conv lands on the int8
  //    conventional engine (the deepest, maximum-throughput,
  //    quantized-accuracy rung).
  ToolflowOptions primary;
  primary.generate_code = false;
  primary.optimizer = opt.optimizer;
  primary.threads = opt.threads;
  std::vector<std::pair<std::string, ToolflowOptions>> variants;
  variants.emplace_back("primary", primary);
  ToolflowOptions v = primary;
  v.model.protect = true;
  variants.emplace_back("protected", v);
  const long long min_budget = minimal_transfer_budget(
      plan.accel_net, dev, opt.optimizer.transfer_unit_bytes);
  for (const int mult : opt.budget_multipliers) {
    if (mult <= 1) continue;
    v = primary;
    v.optimizer.transfer_budget_bytes = min_budget * mult;
    variants.emplace_back("budget-" + std::to_string(mult) + "x", v);
  }
  if (opt.include_int8) {
    v = primary;
    v.model.enable_int8 = true;
    variants.emplace_back("int8-mixed", v);
    v.model.enable_winograd = false;
    variants.emplace_back("conventional-i8", v);
  }

  // An infeasible primary is fatal: there is no ladder without a home rung.
  // An infeasible variant just drops its rung (hardening overhead, say, can
  // push a near-full device over the edge).
  std::vector<LadderRung> cand;
  for (const auto& [label, topt] : variants) {
    try {
      cand.push_back(
          make_rung(label, run_toolflow(net, dev, topt), topt.model.protect));
    } catch (const InfeasibleError&) {
      if (label == "primary") throw;
    }
  }

  // Dedup by modeled service time (primary was inserted first, so it always
  // survives a tie), then order slowest-first: the ladder must be strictly
  // monotone so every descent buys throughput.
  std::vector<LadderRung> rungs;
  for (auto& c : cand) {
    bool dup = false;
    for (const auto& kept : rungs) {
      if (kept.service_cycles == c.service_cycles) dup = true;
    }
    if (!dup) rungs.push_back(std::move(c));
  }
  std::stable_sort(rungs.begin(), rungs.end(),
                   [](const LadderRung& a, const LadderRung& b) {
                     return a.service_cycles > b.service_cycles;
                   });

  const auto find_home = [&rungs] {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      if (rungs[i].label == "primary") return i;
    }
    return std::size_t{0};
  };

  // Trim to the rung cap: the conservative top, home and the deepest rung
  // are load-bearing; drop the least-distinct intermediate first.
  const std::size_t cap = std::max<std::size_t>(opt.max_rungs, 2);
  while (rungs.size() > cap) {
    const std::size_t home = find_home();
    std::size_t victim = rungs.size();
    long long victim_gap = 0;
    for (std::size_t i = 1; i + 1 < rungs.size(); ++i) {
      if (i == home) continue;
      const long long gap =
          rungs[i - 1].service_cycles - rungs[i + 1].service_cycles;
      if (victim == rungs.size() || gap < victim_gap) {
        victim = i;
        victim_gap = gap;
      }
    }
    if (victim == rungs.size()) break;
    rungs.erase(rungs.begin() + static_cast<long>(victim));
  }

  plan.home = find_home();
  plan.rungs = std::move(rungs);
  return plan;
}

const ServingLadderPlan& cached_serving_ladder(const nn::Network& net,
                                               const fpga::Device& dev,
                                               const LadderOptions& opt) {
  static std::mutex mu;
  static std::map<std::string, ServingLadderPlan> cache;
  std::ostringstream key;
  key << net.name() << '|' << net.size() << '|' << net.total_ops() << '|'
      << dev.name << '|' << opt.max_rungs << '|' << opt.include_int8 << '|'
      << opt.optimizer.transfer_budget_bytes;
  for (const int m : opt.budget_multipliers) key << '|' << m;
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key.str());
    if (it != cache.end()) return it->second;
  }
  ServingLadderPlan plan = build_serving_ladder(net, dev, opt);
  std::lock_guard<std::mutex> lock(mu);
  return cache.emplace(key.str(), std::move(plan)).first->second;
}

std::string ServingLadderPlan::table() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const LadderRung& r = rungs[i];
    os << "  rung " << i << "  ";
    os.width(16);
    os.setf(std::ios::left, std::ios::adjustfield);
    os << r.label;
    os.width(0);
    os << r.service_cycles << " cycles/request  " << r.report.latency_ms
       << " ms  " << r.report.throughput_fps << " fps";
    if (i == home) os << "  [home]";
    if (r.protect) os << "  [protect]";
    if (r.int8) os << "  [int8]";
    os << '\n';
  }
  return os.str();
}

serve::ServingLadder ServingLadderPlan::to_serving_modes(
    std::size_t layer_count, const std::vector<arch::NumericMode>& modes16,
    const std::vector<arch::NumericMode>& modes_i8) const {
  serve::ServingLadder l;
  l.home = home;
  for (const LadderRung& r : rungs) {
    serve::ServingMode m;
    m.label = r.label;
    m.service_cycles = r.service_cycles;
    std::size_t k = 0;
    for (const auto& g : r.strategy.groups) {
      for (const auto& ipl : g.impls) {
        arch::LayerChoice ch{ipl.cfg.algo, ipl.cfg.wino_m, {}};
        if (ipl.cfg.int8 && k < modes_i8.size()) {
          ch.mode = modes_i8[k];
        } else if (k < modes16.size()) {
          ch.mode = modes16[k];
        }
        m.choices.push_back(ch);
        ++k;
      }
    }
    m.choices.resize(layer_count);
    l.rungs.push_back(std::move(m));
  }
  return l;
}

std::vector<core::LadderRungCsv> ServingLadderPlan::to_csv_rungs() const {
  std::vector<core::LadderRungCsv> out;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    core::LadderRungCsv c;
    c.strategy = rungs[i].strategy;
    c.service_cycles = rungs[i].service_cycles;
    c.label = rungs[i].label;
    c.home = i == home;
    c.protect = rungs[i].protect;
    c.int8 = rungs[i].int8;
    out.push_back(std::move(c));
  }
  return out;
}

TestbedLadder build_testbed_ladder(const nn::Network& net,
                                   const fpga::Device& dev,
                                   const LadderOptions& opt,
                                   std::size_t max_layers, int max_hw,
                                   std::uint32_t weight_seed) {
  const ServingLadderPlan& plan = cached_serving_ladder(net, dev, opt);

  TestbedLadder tb;
  tb.net = nn::Network(net.name() + "-testbed");
  const nn::Shape in0 = plan.accel_net[0].out;
  tb.net.input({in0.c, std::min(in0.h, max_hw), std::min(in0.w, max_hw)});
  const std::size_t klast =
      std::min<std::size_t>(max_layers, plan.accel_net.size() - 1);
  for (std::size_t i = 1; i <= klast; ++i) tb.net.add(plan.accel_net[i]);
  tb.ws = nn::WeightStore::deterministic(tb.net, weight_seed);

  // Per-rung numeric modes come from a one-probe testbed calibration, so
  // int8 rungs serve in the same asymmetric activation grids --serve uses.
  nn::Tensor cal_in(tb.net[0].out);
  nn::fill_deterministic(cal_in, 7);
  const auto cal = quant::calibrate(tb.net, tb.ws, {cal_in});
  tb.ladder = plan.to_serving_modes(klast, cal.modes(), cal.modes_int8());
  return tb;
}

ServingLadderPlan ServingLadderPlan::from_csv_rungs(
    std::vector<core::LadderRungCsv> rungs, nn::Network accel_net) {
  ServingLadderPlan plan;
  plan.accel_net = std::move(accel_net);
  // Round-tripped plans keep strategies and cycles; the per-rung reports
  // stay empty (the CSV does not carry them and serving never reads them).
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    LadderRung r;
    r.label = std::move(rungs[i].label);
    r.service_cycles = rungs[i].service_cycles;
    r.protect = rungs[i].protect;
    r.int8 = rungs[i].int8;
    r.strategy = std::move(rungs[i].strategy);
    if (rungs[i].home) plan.home = i;
    plan.rungs.push_back(std::move(r));
  }
  return plan;
}

}  // namespace hetacc::toolflow
