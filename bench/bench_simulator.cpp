// SIM: architecture-model validation — the optimizer's analytic group
// latency vs the timing simulation for the fusion groups the optimizer
// actually picks, functional-pipeline FIFO occupancy, and the makespan cost
// of shallow FIFOs.

#include <cstdio>

#include "arch/pipeline.h"
#include "bench_util.h"
#include "core/dp_optimizer.h"
#include "nn/model_zoo.h"

using namespace hetacc;

int main() {
  bench::header("SIM", "analytic latency model vs row-level schedule sim");

  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);

  struct Case {
    const char* name;
    nn::Network net;
  };
  const Case cases[] = {
      {"vgg-e-head", nn::vgg_e_head()},
      {"alexnet-accel", nn::alexnet_accel()},
      {"chain6-64ch", nn::conv_chain(6, 64, 56)},
  };

  std::printf("%-16s %-10s %14s %14s %8s\n", "network", "group",
              "analytic(cyc)", "schedule(cyc)", "ratio");
  for (const auto& c : cases) {
    core::OptimizerOptions oo;
    oo.transfer_budget_bytes = 64ll * 1024 * 1024;
    const auto r = core::optimize(c.net, model, oo);
    if (!r.feasible) {
      std::printf("%-16s infeasible\n", c.name);
      continue;
    }
    for (std::size_t gi = 0; gi < r.strategy.groups.size(); ++gi) {
      const auto& g = r.strategy.groups[gi];
      const auto sched =
          arch::simulate_schedule(c.net, g.first, g.last, g.impls, dev);
      std::printf("%-16s [%zu,%zu] %14lld %14lld %8.3f\n", c.name, g.first,
                  g.last, g.timing.latency_cycles, sched.makespan_cycles,
                  static_cast<double>(sched.makespan_cycles) /
                      static_cast<double>(g.timing.latency_cycles));
    }
  }

  // Functional pipeline on a scaled-down heterogeneous group: FIFO depths
  // stay at line-buffer scale (justifying the paper's plain FIFO channels).
  nn::Network small("small-hetero");
  small.input({3, 32, 32});
  small.conv(8, 3, 1, 1, "c1");
  small.conv(8, 3, 1, 1, "c2");
  small.max_pool(2, 2, "p1");
  small.conv(16, 3, 1, 1, "c3");
  const auto ws = nn::WeightStore::deterministic(small, 5);
  std::vector<arch::LayerChoice> ch(4);
  ch[1].algo = fpga::ConvAlgo::kWinograd;
  ch[3].algo = fpga::ConvAlgo::kWinograd;
  arch::FusionPipeline pipe(small, ws, ch);
  nn::Tensor in(small[0].out);
  nn::fill_deterministic(in, 6);
  (void)pipe.run(in);
  std::printf("\nfunctional pipeline FIFO max occupancy (rows): ");
  for (std::size_t i = 0; i < pipe.stats().fifo_max_occupancy.size(); ++i) {
    std::printf("%zu ", pipe.stats().fifo_max_occupancy[i]);
  }
  std::printf("\n(all bounded by a few rows -> plain FIFO channels suffice, "
              "paper §6)\n");

  // Finite FIFOs: how deep must the generated STREAM channels be before
  // backpressure stops costing cycles? F(4x4,3x3) Winograd engines retire 4
  // rows per tile pass, so each channel must hold a whole burst, and shallow
  // ones stall the producer and stretch the makespan.
  {
    const nn::Network chain = nn::conv_chain(3, 8, 32);
    std::vector<fpga::Implementation> impls;
    for (std::size_t i = 1; i < chain.size(); ++i) {
      impls.push_back(
          model.implement(chain[i], {fpga::ConvAlgo::kWinograd, 2, 4, 1, 4}));
    }
    std::printf("\nfinite-FIFO timing (3-conv chain, 8ch 32x32, all F(4,3) "
                "Winograd):\n");
    std::printf("%10s %16s %14s\n", "depth", "makespan (cyc)", "stall (cyc)");
    for (std::size_t cap : {3u, 4u, 6u, 7u, 8u, 16u, 64u}) {
      const auto r = arch::simulate_schedule(chain, 1, chain.size() - 1,
                                             impls, dev, cap);
      if (!r.completed) {
        std::printf("%10zu %16s %14s\n", cap, "deadlock", "-");
        continue;
      }
      std::printf("%10zu %16lld %14lld\n", cap, r.makespan_cycles,
                  r.producer_stall_cycles);
    }
    const std::size_t depth =
        arch::minimal_fifo_depth_rows(chain, 1, chain.size() - 1, impls, dev);
    std::printf("minimal uniform FIFO depth within 2%% of unbounded: %zu "
                "rows (codegen default depth is conservative)\n",
                depth);
  }
  return 0;
}
