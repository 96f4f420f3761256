// FLT: fault-hook overhead for DESIGN.md §9 — the zero-cost-when-absent
// guarantee, measured. The functional pipeline and the event simulator run
// (a) with no fault plan (null-pointer hooks), (b) with a zero-rate plan
// installed (every hook live but never firing) and (c) with an active SEU
// plan, on the same binary. The (b)-vs-(a) delta is the price of shipping
// the instrumentation; the bar is <= 1%. Emits a table and BENCH_fault.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/pipeline.h"
#include "bench_util.h"
#include "fault/fault.h"
#include "fault/protect.h"
#include "nn/model_zoo.h"

using namespace hetacc;

namespace {

struct Record {
  std::string harness;
  std::string config;
  double ms = 0.0;
  double overhead_pct = 0.0;  // vs the matching no-plan baseline
};

// Min-of-k wall time (same discipline as bench_kernels): warm up, then
// repeat until ~500 ms elapsed and keep the fastest run. The dormant-hook
// delta being measured is well under the run-to-run jitter of any single
// rep, so only a deep min-of-k makes the comparison meaningful.
template <typename Fn>
double time_ms(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup: touch code and data before the first timed rep
  double best = 1e30;
  double total = 0.0;
  int reps = 0;
  while (reps < 20 || (total < 500.0 && reps < 2000)) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
    total += ms;
    ++reps;
  }
  return best;
}

volatile float g_sink = 0.0f;
volatile long long g_sink_ll = 0;

void emit(std::vector<Record>& out, const char* harness, const char* config,
          double ms, double baseline_ms) {
  Record r{harness, config, ms,
           baseline_ms > 0.0 ? 100.0 * (ms - baseline_ms) / baseline_ms
                             : 0.0};
  std::printf("  %-12s %-16s %9.3f ms  %+7.3f %%\n", harness, config, ms,
              r.overhead_pct);
  out.push_back(std::move(r));
}

void write_json(const std::vector<Record>& recs, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("warning: cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(f,
                 "  {\"harness\": \"%s\", \"config\": \"%s\", \"ms\": %.4f, "
                 "\"overhead_pct\": %.3f}%s\n",
                 r.harness.c_str(), r.config.c_str(), r.ms, r.overhead_pct,
                 i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, recs.size());
}

}  // namespace

int main() {
  bench::header("FLT", "fault-hook overhead: absent vs dormant vs active");

  std::vector<Record> recs;

  // ---- functional pipeline ------------------------------------------------
  const nn::Network net = nn::tiny_net(16, 48);
  const auto ws = nn::WeightStore::deterministic(net, 5);
  nn::Tensor in(net[0].out);
  nn::fill_deterministic(in, 6);

  arch::FusionPipeline pipe(net, ws);
  const double fn_none =
      time_ms([&] { g_sink = pipe.run(in).at(0, 0, 0); });
  emit(recs, "pipeline", "no-plan", fn_none, 0.0);

  fault::FaultPlan zero;  // all rates zero: hooks live, never fire
  zero.seed = 7;
  pipe.install_fault_plan(zero, fault::ProtectionConfig::all_on());
  const double fn_zero =
      time_ms([&] { g_sink = pipe.run(in).at(0, 0, 0); });
  emit(recs, "pipeline", "zero-rate-plan", fn_zero, fn_none);

  fault::FaultPlan active = zero;
  active.line_buffer_flip_rate = 1e-3;
  active.fifo_corrupt_rate = 1e-3;
  pipe.install_fault_plan(active, fault::ProtectionConfig::all_on());
  const double fn_active =
      time_ms([&] { g_sink = pipe.run(in).at(0, 0, 0); });
  emit(recs, "pipeline", "seu-1e-3", fn_active, fn_none);
  pipe.clear_fault_plan();

  // ---- event-driven timing simulator --------------------------------------
  const fpga::Device dev = fpga::zc706();
  const fpga::EngineModel model(dev);
  std::vector<fpga::Implementation> impls;
  for (std::size_t i = 1; i < net.size(); ++i) {
    impls.push_back(model.implementations(net[i])->front());
  }
  // A single simulation is ~10 us — far below timer resolution — so each
  // timed rep runs a batch of 100.
  constexpr int kSimBatch = 100;
  const double ev_none = time_ms([&] {
    for (int k = 0; k < kSimBatch; ++k) {
      g_sink_ll =
          arch::simulate_schedule(net, 1, net.size() - 1, impls, dev, 16)
              .makespan_cycles;
    }
  });
  emit(recs, "event-sim", "no-injector", ev_none, 0.0);

  const fault::FaultInjector zero_inj{fault::FaultPlan{}};
  const double ev_zero = time_ms([&] {
    for (int k = 0; k < kSimBatch; ++k) {
      g_sink_ll = arch::simulate_schedule(net, 1, net.size() - 1, impls,
                                          dev, 16, &zero_inj)
                      .makespan_cycles;
    }
  });
  emit(recs, "event-sim", "zero-rate-plan", ev_zero, ev_none);

  fault::FaultPlan stall;
  stall.seed = 7;
  stall.engine_stall_rate = 1e-3;
  stall.engine_stall_cycles = 32;
  stall.fifo_delay_rate = 1e-3;
  stall.fifo_delay_cycles = 8;
  const fault::FaultInjector stall_inj(stall);
  const double ev_active = time_ms([&] {
    for (int k = 0; k < kSimBatch; ++k) {
      g_sink_ll = arch::simulate_schedule(net, 1, net.size() - 1, impls,
                                          dev, 16, &stall_inj)
                      .makespan_cycles;
    }
  });
  emit(recs, "event-sim", "stall-1e-3", ev_active, ev_none);

  write_json(recs, "BENCH_fault.json");

  const double worst = std::max(100.0 * (fn_zero - fn_none) / fn_none,
                                100.0 * (ev_zero - ev_none) / ev_none);
  std::printf("\nworst dormant-hook overhead: %+.3f %% (bar: <= 1%%)\n",
              worst);
  bench::note(
      "dormant = plan installed with every rate at zero; the functional "
      "output and simulated makespan are byte-identical to the no-plan runs "
      "(asserted in test_fault), so the delta above is pure hook cost");
  return worst <= 1.0 ? 0 : 1;
}
