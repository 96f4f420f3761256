#include "core/dp_optimizer.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <limits>
#include <thread>

#include "cost/group_timing.h"
#include "nn/graph.h"
#include "support/hardware.h"

namespace hetacc::core {

namespace {
constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

long long to_units(long long bytes, long long unit) {
  return (bytes + unit - 1) / unit;
}
}  // namespace

FusionTable::FusionTable(const nn::Network& net,
                         const fpga::EngineModel& model,
                         const BnbOptions& opt, int threads) {
  if (net.empty()) throw std::invalid_argument("FusionTable: empty network");
  offset_ = (net[0].kind == nn::LayerKind::kInput) ? 1 : 0;
  count_ = net.size() - offset_;
  if (count_ == 0) throw std::invalid_argument("FusionTable: no layers");
  table_.resize(count_ * count_);
  min_t_.resize(count_ * count_, 0);

  // Enumerate the work list up front. Every (i, j) range is an independent
  // Algorithm 2 search writing a distinct preallocated slot, so workers
  // share nothing mutable but the claim cursor (and the engine model's
  // internal memo, which is thread-safe).
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t i = 0; i < count_; ++i) {
    for (std::size_t j = i; j < count_ && j - i < opt.max_group_layers; ++j) {
      cells.emplace_back(i, j);
    }
  }
  ranges_ = static_cast<long long>(cells.size());

  // Returns the BnB nodes visited; the caller owns the accumulation so the
  // serial and parallel paths sum the same (commutative) per-cell counts.
  auto evaluate = [&](std::size_t ci) -> long long {
    const auto [i, j] = cells[ci];
    // Only single-entry/single-exit ranges can fuse: every branch arm of a
    // parallel composition must be co-scheduled inside one group (the arms
    // share the group's single external input), so ranges that cut through
    // a module are marked infeasible without running the BnB. On chains
    // every range passes, keeping the table identical to the chain DP's.
    if (!nn::is_sese_range(net, net_index(i), net_index(j))) {
      table_[cell(i, j)] = std::nullopt;
      min_t_[cell(i, j)] = 0;
      return 0;
    }
    auto r = fuse_group(net, net_index(i), net_index(j), model, opt);
    const long long visited = r ? r->nodes_visited : 0;
    min_t_[cell(i, j)] = cost::min_transfer_bytes(
        net, net_index(i), net_index(j), model.device().data_bytes);
    table_[cell(i, j)] = std::move(r);
    return visited;
  };

  std::size_t nthreads = threads <= 0
      ? hardware_threads()
      : static_cast<std::size_t>(threads);
  nthreads = std::min(nthreads, cells.size());

  if (nthreads <= 1) {
    for (std::size_t ci = 0; ci < cells.size(); ++ci) nodes_ += evaluate(ci);
    return;
  }

  // Warm-up phase: price each distinct layer once, split across workers.
  // Every cell needs the same few per-layer candidate ladders; without this
  // phase the workers race to fill the model's memo and duplicate exactly
  // that work, which is the dominant cost of small tables. The barrier keeps
  // a fast worker from entering the cell loop while a ladder it needs is
  // still being priced (it would recompute it — correct, but wasted).
  // Pricing is pure per layer, so this phase cannot change any result.
  std::atomic<std::size_t> layer_cursor{0};
  std::atomic<std::size_t> cursor{0};
  std::barrier warm(static_cast<std::ptrdiff_t>(nthreads));
  std::vector<long long> node_counts(nthreads, 0);
  std::vector<std::exception_ptr> errors(nthreads);
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (std::size_t w = 0; w < nthreads; ++w) {
    pool.emplace_back([&, w] {
      long long local_nodes = 0;
      bool past_barrier = false;
      try {
        for (std::size_t li = layer_cursor.fetch_add(1); li < count_;
             li = layer_cursor.fetch_add(1)) {
          (void)model.implementations(net[net_index(li)]);
        }
        warm.arrive_and_wait();
        past_barrier = true;
        for (std::size_t ci = cursor.fetch_add(1); ci < cells.size();
             ci = cursor.fetch_add(1)) {
          local_nodes += evaluate(ci);
        }
      } catch (...) {
        errors[w] = std::current_exception();
        if (!past_barrier) warm.arrive_and_drop();
      }
      node_counts[w] = local_nodes;
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const long long c : node_counts) nodes_ += c;
}

std::size_t FusionTable::cell(std::size_t i, std::size_t j) const {
  if (i > j || j >= count_) throw std::out_of_range("FusionTable::cell");
  return i * count_ + j;
}

bool FusionTable::feasible(std::size_t i, std::size_t j) const {
  return table_[cell(i, j)].has_value();
}

long long FusionTable::latency(std::size_t i, std::size_t j) const {
  const auto& r = table_[cell(i, j)];
  return r ? r->group.timing.latency_cycles : kInf;
}

const FusionGroup& FusionTable::group(std::size_t i, std::size_t j) const {
  const auto& r = table_[cell(i, j)];
  if (!r) throw std::logic_error("FusionTable::group on infeasible range");
  return r->group;
}

long long FusionTable::min_transfer(std::size_t i, std::size_t j) const {
  return min_t_[cell(i, j)];
}

namespace {

/// Names the binding constraint of an infeasible run. Every layer that fits
/// on the device alone admits the all-singleton partition, so if no layer is
/// individually infeasible the transfer budget must be what bound — report
/// it against the minimal transfer any partition can achieve (a small DP
/// over the already-built fusion table).
std::string diagnose_infeasible(const nn::Network& net, const FusionTable& ft,
                                const OptimizerOptions& opt) {
  const std::size_t n = ft.count();
  if (n == 0) return "network has no optimizable layers";
  for (std::size_t k = 0; k < n; ++k) {
    if (!ft.feasible(k, k)) {
      const nn::Layer& l = net[ft.net_index(k)];
      if (l.inputs.size() > 1) {
        return "merge layer '" + l.name +
               "' must be fused with its branch arms, but no feasible "
               "single-entry/single-exit group covers the module (raise "
               "max_group_layers or the resource/transfer budgets)";
      }
      return "layer '" + l.name +
             "' has no feasible engine implementation under the device "
             "resource budget";
    }
  }
  std::vector<long long> best(n + 1, kInf);
  best[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (best[i] >= kInf || !ft.feasible(i, j - 1)) continue;
      best[j] = std::min(best[j], best[i] + ft.min_transfer(i, j - 1));
    }
  }
  return "transfer budget " + std::to_string(opt.transfer_budget_bytes) +
         " bytes is below the minimal achievable feature-map transfer (" +
         std::to_string(best[n]) + " bytes)";
}

OptimizeResult assemble(const nn::Network& net,
                        const fpga::EngineModel& model,
                        const OptimizerOptions& opt, const FusionTable& ft,
                        std::vector<std::pair<std::size_t, std::size_t>> cuts,
                        std::chrono::steady_clock::time_point t0) {
  OptimizeResult out;
  out.fusion_ranges_evaluated = ft.ranges_evaluated();
  out.bnb_nodes_visited = ft.nodes_visited();
  if (cuts.empty()) {
    out.infeasible_reason = diagnose_infeasible(net, ft, opt);
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
  }
  std::sort(cuts.begin(), cuts.end());
  for (const auto& [i, j] : cuts) out.strategy.groups.push_back(ft.group(i, j));
  out.feasible = true;
  if (opt.balance) balance_strategy(out.strategy, net, model);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

OptimizeResult optimize(const nn::Network& net, const fpga::EngineModel& model,
                        const OptimizerOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const FusionTable ft(net, model, opt.bnb, opt.threads);
  const std::size_t n = ft.count();
  const long long unit = std::max<long long>(1, opt.transfer_unit_bytes);
  // Budget rounds down, per-group needs round up: the discretization can
  // only make the solver more conservative, never budget-violating.
  const long long budget = opt.transfer_budget_bytes / unit;

  // L[j][t]: best latency covering optimizable layers [0, j) using at most
  // t budget units. Groups are intervals, so DP over the prefix boundary.
  const std::size_t tdim = static_cast<std::size_t>(std::max<long long>(budget, 0)) + 1;
  std::vector<std::vector<long long>> L(n + 1,
                                        std::vector<long long>(tdim, kInf));
  std::vector<std::vector<std::pair<std::size_t, long long>>> mark(
      n + 1, std::vector<std::pair<std::size_t, long long>>(
                 tdim, {SIZE_MAX, -1}));
  for (std::size_t t = 0; t < tdim; ++t) L[0][t] = 0;

  for (std::size_t j = 1; j <= n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {  // group = layers [i, j-1]
      if (!ft.feasible(i, j - 1)) continue;
      const long long need = to_units(ft.min_transfer(i, j - 1), unit);
      const long long lat = ft.latency(i, j - 1);
      for (long long t = need; t < static_cast<long long>(tdim); ++t) {
        const long long prev = L[i][static_cast<std::size_t>(t - need)];
        if (prev >= kInf) continue;
        if (prev + lat < L[j][static_cast<std::size_t>(t)]) {
          L[j][static_cast<std::size_t>(t)] = prev + lat;
          mark[j][static_cast<std::size_t>(t)] = {i, need};
        }
      }
    }
  }

  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  if (budget >= 0 && L[n][tdim - 1] < kInf) {
    std::size_t j = n;
    long long t = budget;
    while (j > 0) {
      const auto [i, need] = mark[j][static_cast<std::size_t>(t)];
      if (i == SIZE_MAX) { cuts.clear(); break; }
      cuts.emplace_back(i, j - 1);
      t -= need;
      j = i;
    }
  }
  return assemble(net, model, opt, ft, std::move(cuts), t0);
}

OptimizeResult optimize_interval(const nn::Network& net,
                                 const fpga::EngineModel& model,
                                 const OptimizerOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const FusionTable ft(net, model, opt.bnb, opt.threads);
  const std::size_t n = ft.count();
  const long long unit = std::max<long long>(1, opt.transfer_unit_bytes);
  const long long T = opt.transfer_budget_bytes / unit;  // floor, see optimize()
  if (T <= 0) {
    return assemble(net, model, opt, ft, {}, t0);
  }
  // Index t means "t + 1 budget units available", so the final answer at
  // t = T - 1 corresponds to the full budget of T units (the paper reads
  // L[0][N-1][T-1] the same way).
  const std::size_t tdim = static_cast<std::size_t>(T);

  // L[i][j][t], k_mark, t_mark — exactly the paper's Algorithm 1, with t
  // interpreted as "strictly fewer than t+1 units available" as in the
  // paper's L[0][N-1][T-1] final read-out.
  auto idx = [&](std::size_t i, std::size_t j, std::size_t t) {
    return (i * n + j) * tdim + t;
  };
  std::vector<long long> L(n * n * tdim, kInf);
  std::vector<std::size_t> k_mark(n * n * tdim, SIZE_MAX);
  std::vector<long long> t_mark(n * n * tdim, -1);

  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t ii = j + 1; ii-- > 0;) {
      const std::size_t i = ii;
      const long long min_t_ij = to_units(ft.min_transfer(i, j), unit);
      for (std::size_t t = 0; t < tdim; ++t) {
        if (static_cast<long long>(t) + 1 < min_t_ij) {
          continue;  // L stays infinite (Alg. 1 lines 4-5)
        }
        long long best = ft.feasible(i, j) ? ft.latency(i, j) : kInf;
        std::size_t kf = j;
        long long tf = static_cast<long long>(t);
        for (std::size_t k = i; k < j; ++k) {  // Alg. 1 line 10
          const long long lhs_need = to_units(ft.min_transfer(i, k), unit);
          const long long rhs_need = to_units(ft.min_transfer(k + 1, j), unit);
          if (static_cast<long long>(t) + 1 < lhs_need + rhs_need) {
            continue;  // Alg. 1 lines 11-12
          }
          for (std::size_t x = 0; x < t; ++x) {  // Alg. 1 line 13
            const long long a = L[idx(i, k, x)];
            if (a >= kInf) continue;
            const long long b = L[idx(k + 1, j, t - 1 - x)];
            if (b >= kInf) continue;
            if (a + b < best) {
              best = a + b;
              kf = k;
              tf = static_cast<long long>(x);
            }
          }
        }
        L[idx(i, j, t)] = best;
        k_mark[idx(i, j, t)] = kf;
        t_mark[idx(i, j, t)] = tf;
      }
    }
  }

  // Reconstruct the fused structure from k_mark / t_mark (Alg. 1 line 22).
  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  if (L[idx(0, n - 1, tdim - 1)] < kInf) {
    struct Frame { std::size_t i, j, t; };
    std::vector<Frame> stack{{0, n - 1, tdim - 1}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const std::size_t k = k_mark[idx(f.i, f.j, f.t)];
      if (k == f.j) {
        cuts.emplace_back(f.i, f.j);
      } else {
        const auto x = static_cast<std::size_t>(t_mark[idx(f.i, f.j, f.t)]);
        stack.push_back({f.i, k, x});
        stack.push_back({k + 1, f.j, f.t - 1 - x});
      }
    }
  }
  return assemble(net, model, opt, ft, std::move(cuts), t0);
}

void balance_strategy(Strategy& s, const nn::Network& net,
                      const fpga::EngineModel& model) {
  for (auto& g : s.groups) {
    const long long stage = g.timing.compute_cycles;
    fpga::ResourceVector others;  // resources of all layers but the current
    for (const auto& ipl : g.impls) others += ipl.res;

    for (std::size_t k = 0; k < g.impls.size(); ++k) {
      const nn::Layer& layer = net[g.first + k];
      others = others - g.impls[k].res;
      const auto buckets = layer_candidate_impls(layer, model);
      const fpga::Implementation* best = &g.impls[k];
      auto cost = [](const fpga::ResourceVector& r) {
        // Lexicographic-ish scalarization: DSPs are the scarce resource the
        // paper reallocates; BRAM next; logic last.
        return static_cast<double>(r.dsp) * 1e6 +
               static_cast<double>(r.bram18k) * 1e3 +
               static_cast<double>(r.lut) * 1e-2 +
               static_cast<double>(r.ff) * 1e-3;
      };
      for (const auto& bucket : buckets) {
        for (const auto& ipl : bucket) {
          if (ipl.compute_cycles > stage) break;  // ascending within bucket
          if (ipl.fill_cycles > g.impls[k].fill_cycles) continue;
          if (!(others + ipl.res).fits_in(model.device().capacity)) continue;
          if (cost(ipl.res) < cost(best->res)) best = &ipl;
        }
      }
      if (best != &g.impls[k]) g.impls[k] = *best;
      others += g.impls[k].res;
    }
    g.timing = evaluate_group_timing(net, g.first, g.last, g.impls,
                                     model.device());
  }
}

}  // namespace hetacc::core
