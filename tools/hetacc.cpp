// hetacc — command-line front end of the automatic tool-flow (paper Fig. 3):
// Caffe deploy prototxt + FPGA spec in, strategy report + generated HLS
// project out.
//
//   hetacc [--net deploy.prototxt | --model alexnet|vgg-e|vgg16|vgg-e-head
//                                           |inception-mini|resnet-mini]
//          [--device zc706|vc707] [--budget-mb N] [--out DIR] [--summary]
//          [--no-codegen] [--interval-dp] [--explore-tiles]
//          [--conventional-only] [--wino-tile M] [--int8] [--threads N]
//          [--protect] [--fault-campaign] [--fault-seed N]
//          [--serve SPEC] [--serve-deadline N] [--serve-queue N]
//          [--serve-replicas N] [--serve-retries N] [--serve-fault LO:HI|auto]
//          [--serve-ladder N|auto]
//          [--fleet SPEC] [--fleet-models LIST] [--fleet-autoscale]
//          [--fleet-chaos PLAN[:SEED]]
//
// Exit codes (see src/support/error.h): 0 success, 2 parse/validate,
// 3 infeasible, 4 unrecovered fault, 5 serving-runtime failure, 1 internal.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "arch/ddr_trace.h"
#include "arch/pipeline.h"
#include "caffe/importer.h"
#include "core/strategy_io.h"
#include "fault/fault.h"
#include "fault/fleet_fault.h"
#include "fault/protect.h"
#include "nn/graph.h"
#include "nn/model_zoo.h"
#include "quant/calibration.h"
#include "serve/fleet.h"
#include "support/error.h"
#include "toolflow/ladder.h"
#include "toolflow/toolflow.h"

using namespace hetacc;

namespace {

void usage() {
  std::printf(
      "usage: hetacc [options]\n"
      "  --net FILE          Caffe deploy prototxt to map\n"
      "  --model NAME        built-in model: alexnet | vgg-e | vgg16 | "
      "vgg-e-head |\n"
      "                      inception-mini | resnet-mini (default alexnet)\n"
      "  --device NAME       zc706 (default) | vc707\n"
      "  --budget-mb N       feature-map transfer constraint T in MB\n"
      "  --out DIR           write the generated HLS project here\n"
      "  --summary           print the network summary and graph shape\n"
      "                      (layers, edges, branches, merges, SP depth)\n"
      "                      and exit\n"
      "  --no-codegen        stop after the strategy report\n"
      "  --interval-dp       use the paper's Algorithm 1 interval DP\n"
      "  --explore-tiles     per-layer Winograd tile-size exploration\n"
      "  --conventional-only disable Winograd (homogeneous baseline)\n"
      "  --wino-tile M       uniform Winograd tile size (default 4)\n"
      "  --int8              offer int8 engines (two multiplies per DSP,\n"
      "                      halved weight traffic) alongside the 16-bit\n"
      "                      ones; prints the accuracy-vs-cycles trade\n"
      "                      (optimizer delta + functional testbed error)\n"
      "  --threads N         worker threads for the fusion-table DSE and the\n"
      "                      functional-simulation kernels (0 = all cores,\n"
      "                      default 1); strategies and simulated tensors are\n"
      "                      identical for any N\n"
      "  --protect           harden every engine (CRC weight loads, Winograd\n"
      "                      transform checksums, stage watchdogs) and every\n"
      "                      DDR burst (CRC-32 + bounded retry); the optimizer\n"
      "                      re-trades the strategy under the protected costs\n"
      "                      and the delta vs the unprotected design is shown\n"
      "  --fault-campaign    seeded fault-injection sweep instead of codegen:\n"
      "                      DDR burst flips replayed against the strategy's\n"
      "                      timeline (CRC coverage, retry recovery), SEU\n"
      "                      sweeps through the functional pipeline, and a\n"
      "                      watchdog wedge demonstration\n"
      "  --fault-seed N      campaign seed (default 1); same seed, same run\n"
      "  --serve SPEC        resilient serving run instead of codegen: drive\n"
      "                      an arrival trace through the bounded-queue /\n"
      "                      deadline / retry / circuit-breaker runtime over\n"
      "                      the optimized strategy, with the --protect\n"
      "                      re-optimized strategy as the degraded fallback.\n"
      "                      SPEC is a trace CSV path (id,arrival_cycle,\n"
      "                      input_seed) or synth:N[:MEAN[:SEED]] for N\n"
      "                      synthetic requests with mean inter-arrival MEAN\n"
      "                      cycles (default: primary latency / replicas)\n"
      "  --serve-deadline N  per-request deadline in cycles (0 = off;\n"
      "                      default 4x the primary service latency)\n"
      "  --serve-queue N     admission queue bound (default 64)\n"
      "  --serve-replicas N  modeled accelerator replicas (default 2)\n"
      "  --serve-retries N   primary retry budget per request (default 2)\n"
      "  --serve-fault SPEC  fault burst striking the primary: LO:HI cycle\n"
      "                      window, or 'auto' for the middle third of the\n"
      "                      trace (plan seeded by --fault-seed)\n"
      "  --serve-ladder N    serve from an N-rung degradation ladder (or\n"
      "                      'auto') instead of the binary primary/fallback\n"
      "                      pair: --protect rung above the primary, relaxed-\n"
      "                      budget and int8/conventional-i8 rungs below it;\n"
      "                      a load-regime controller descends to faster\n"
      "                      rungs under queue/deadline pressure and climbs\n"
      "                      back with dwell-gated hysteresis. The trace SPEC\n"
      "                      osc:P:K[:BURST[:LULL[:SEED]]] generates P\n"
      "                      square-wave load periods of K requests per\n"
      "                      phase for exercising the controller\n"
      "  --fleet SPEC        multi-tenant fleet simulation instead of\n"
      "                      codegen: N replicas per model sharing one\n"
      "                      prepack cache and one worker pool, dynamic\n"
      "                      batching, weighted-fair (DRR) admission, and a\n"
      "                      degradation ladder per (model, replica). SPEC\n"
      "                      is REPLICAS[:REQUESTS[:SEED]] (default 2:300:1;\n"
      "                      REQUESTS is per tenant, two tenants per model:\n"
      "                      a steady stream and a bursty oscillator).\n"
      "                      Stats are byte-identical for any --threads\n"
      "  --fleet-models LIST comma-separated zoo models the fleet serves\n"
      "                      (default alexnet,vgg-e,inception-mini,\n"
      "                      resnet-mini)\n"
      "  --fleet-autoscale   let per-model replica pools grow and shrink\n"
      "                      under the queue-pressure watermarks (spin-ups\n"
      "                      pay cold or warm cache costs)\n"
      "  --fleet-chaos PLAN[:SEED]\n"
      "                      run the fleet under a seeded fault campaign.\n"
      "                      PLAN is a '+'-joined subset of {wedge, crash,\n"
      "                      slow, corrupt} or 'mix'. Arms health scoring\n"
      "                      (quarantine -> respawn -> probe -> readmit),\n"
      "                      request hedging and the bundle CRC scrubber;\n"
      "                      implies the default --fleet when none is\n"
      "                      given. Exits 4 if any request is lost or a\n"
      "                      replica ends the run unrecovered. Exit codes:\n"
      "                      0 ok, 2 parse/validate, 3 infeasible, 4 fault\n"
      "                      unabsorbed, 5 serve-layer failure\n");
}

/// Parses all of `text` as a base-10 integer of type T. Empty text, trailing
/// characters, a sign on an unsigned type and out-of-range values fail.
template <typename T>
std::optional<T> parse_int(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// One integer field of a colon-separated spec (--serve, --fleet, ...): a
/// malformed field is a typed config error, exit 5.
template <typename T>
T spec_field(const std::string& field, const std::string& spec) {
  if (const auto v = parse_int<T>(field)) return *v;
  throw ServeError(ServeError::Reason::kConfig,
                   "'" + field + "' is not a valid integer in '" + spec + "'");
}

void print_report_line(const char* tag, const core::StrategyReport& r) {
  std::printf(
      "  %-12s latency %8.3f ms  %7.1f GOPS  DSP %5lld  BRAM %5lld  "
      "FF %7lld  LUT %7lld\n",
      tag, r.latency_ms, r.effective_gops, r.peak_resources.dsp,
      r.peak_resources.bram18k, r.peak_resources.ff, r.peak_resources.lut);
}

/// --int8: the accuracy half of the accuracy-vs-cycles trade. The network's
/// leading layers run functionally on a capped input (same testbed
/// discipline as --fault-campaign) through the float, calibrated 16-bit
/// fixed, and calibrated int8 datapaths, and the deviation against the
/// float reference is reported for both.
void print_int8_accuracy(const nn::Network& accel_net,
                         std::uint32_t weight_seed) {
  nn::Network qnet("int8-testbed");
  const nn::Shape in0 = accel_net[0].out;
  qnet.input({in0.c, std::min(in0.h, 56), std::min(in0.w, 56)});
  const std::size_t klast = std::min<std::size_t>(3, accel_net.size() - 1);
  for (std::size_t i = 1; i <= klast; ++i) qnet.add(accel_net[i]);

  const auto ws = nn::WeightStore::deterministic(qnet, weight_seed);
  nn::Tensor in(qnet[0].out);
  nn::fill_deterministic(in, 7);
  const auto cal = quant::calibrate(qnet, ws, {in});

  auto choices_for = [&](const std::vector<arch::NumericMode>& modes) {
    std::vector<arch::LayerChoice> ch(klast);
    for (std::size_t j = 0; j < klast; ++j) ch[j].mode = modes[j];
    return ch;
  };
  arch::FusionPipeline pf(qnet, ws);
  arch::FusionPipeline p16(qnet, ws, choices_for(cal.modes()));
  arch::FusionPipeline p8(qnet, ws, choices_for(cal.modes_int8()));
  const nn::Tensor ref = pf.run(in);
  const nn::Tensor o16 = p16.run(in);
  const nn::Tensor o8 = p8.run(in);

  float ref_abs = 0.0f;
  for (float v : ref.vec()) ref_abs = std::max(ref_abs, std::abs(v));
  const float e16 = ref.max_abs_diff(o16);
  const float e8 = ref.max_abs_diff(o8);
  std::printf("int8 accuracy (functional testbed, %zu layers, input %s):\n",
              klast, qnet[0].out.str().c_str());
  std::printf("  16-bit fixed  L-inf %.4g  (%.3f %% of output range)\n", e16,
              ref_abs > 0 ? 100.0 * e16 / ref_abs : 0.0);
  std::printf("  int8          L-inf %.4g  (%.3f %% of output range)\n\n", e8,
              ref_abs > 0 ? 100.0 * e8 / ref_abs : 0.0);
}

/// --int8: the whole accuracy-vs-cycles trade. The cycles half reruns the
/// flow with the int8 ladders withheld, so the delta is exactly what int8
/// bought; the accuracy half is print_int8_accuracy.
void print_int8_trade(const nn::Network& net, const fpga::Device& dev,
                      toolflow::ToolflowOptions opt,
                      const toolflow::ToolflowResult& with_int8) {
  long long int8_layers = 0, conv_layers = 0;
  for (const auto& g : with_int8.optimization.strategy.groups) {
    for (const auto& ipl : g.impls) {
      if (ipl.cfg.algo == fpga::ConvAlgo::kNone) continue;
      ++conv_layers;
      if (ipl.cfg.int8) ++int8_layers;
    }
  }
  std::printf("int8 trade (vs 16-bit-only DSE): %lld of %lld conv "
              "layers chose int8\n",
              int8_layers, conv_layers);
  opt.model.enable_int8 = false;
  opt.generate_code = false;
  try {
    const auto only16 = toolflow::run_toolflow(net, dev, opt);
    const auto& u = only16.report;
    const auto& p = with_int8.report;
    print_report_line("16-bit only", u);
    print_report_line("with int8", p);
    std::printf("  latency delta %+.2f %%\n\n",
                u.latency_ms > 0
                    ? 100.0 * (p.latency_ms - u.latency_ms) / u.latency_ms
                    : 0.0);
  } catch (const InfeasibleError&) {
    // Nothing fits without int8: there is no cycles delta to show.
  }
  print_int8_accuracy(with_int8.accel_net, opt.weight_seed);
}

/// --protect: run the flow both ways and show what the hardening costs. The
/// protected run is the one whose design/codegen the caller keeps.
toolflow::ToolflowResult run_protected_with_delta(
    const nn::Network& net, const fpga::Device& dev,
    toolflow::ToolflowOptions opt) {
  toolflow::ToolflowOptions base = opt;
  base.model.protect = false;
  base.generate_code = false;
  const auto unprot = toolflow::run_toolflow(net, dev, base);

  opt.model.protect = true;
  auto prot = toolflow::run_toolflow(net, dev, opt);

  const auto& u = unprot.report;
  const auto& p = prot.report;
  std::printf("protection delta (unprotected -> protected):\n");
  print_report_line("unprotected", u);
  print_report_line("protected", p);
  const double lat_pct =
      u.latency_ms > 0 ? 100.0 * (p.latency_ms - u.latency_ms) / u.latency_ms
                       : 0.0;
  std::printf(
      "  overhead     latency %+7.2f %%  DSP %+5lld  BRAM %+5lld  "
      "FF %+7lld  LUT %+7lld\n\n",
      lat_pct, p.peak_resources.dsp - u.peak_resources.dsp,
      p.peak_resources.bram18k - u.peak_resources.bram18k,
      p.peak_resources.ff - u.peak_resources.ff,
      p.peak_resources.lut - u.peak_resources.lut);
  return prot;
}

/// --fault-campaign: measure the detection/recovery layer instead of
/// generating code. Three experiments, all deterministic in --fault-seed:
///  1. DDR burst bit flips replayed against the optimized strategy's DDR
///     timeline, unprotected vs CRC-32 + retry (coverage is computed by
///     running the real CRC over really-corrupted buffers).
///  2. SEU sweeps (line buffer / FIFO / resident weights) through the
///     functional pipeline on a scaled-down testbed of the network's leading
///     layers, reporting output deviation with and without protection.
///  3. A wedged-FIFO deadlock that the DATAFLOW watchdog must catch and
///     attribute to the right stage.
int run_fault_campaign(const nn::Network& net, const fpga::Device& dev,
                       toolflow::ToolflowOptions opt, std::uint64_t seed) {
  // The campaign prices the default DSE, whatever DSE flags were given.
  opt.generate_code = false;
  opt.model = {};
  opt.interval_dp = false;
  const auto flow = toolflow::run_toolflow(net, dev, opt);
  const auto trace =
      arch::trace_strategy(flow.optimization.strategy, flow.accel_net, dev);

  std::printf("fault campaign: '%s' on %s, seed %llu\n",
              flow.full_net.name().c_str(), dev.name.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("DDR timeline: %zu transactions, %.2f MB, %lld cycles\n\n",
              trace.transactions.size(),
              static_cast<double>(trace.total_bytes()) / (1024.0 * 1024.0),
              trace.total_cycles);

  std::printf("[1] DDR burst flips vs CRC-32 + retry (limit %d)\n",
              fault::ProtectionConfig::all_on().retry_limit);
  std::printf(
      "  %-10s %10s %9s %9s %10s %10s %12s %11s\n", "rate", "bursts",
      "injected", "silent", "coverage", "recovered", "unrecovered",
      "retry-cyc");
  for (const double rate : {1e-6, 1e-5, 1e-4, 1e-3}) {
    fault::FaultPlan p;
    p.seed = seed;
    p.ddr_burst_flip_rate = rate;
    const fault::FaultInjector raw(p);
    const auto u = arch::replay_trace_with_faults(trace, dev, raw, {});
    const fault::FaultInjector hard(p);
    const auto h = arch::replay_trace_with_faults(
        trace, dev, hard, fault::ProtectionConfig::all_on());
    std::printf(
        "  %-10.0e %10lld %9lld %9lld %9.1f%% %10lld %12lld %11lld\n", rate,
        h.bursts, h.injected, u.silent, 100.0 * h.coverage(), h.recovered,
        h.unrecovered, h.retry_cycles);
  }

  // Functional testbed: the leading layers re-hosted on a capped input so a
  // full VGG-scale image is not simulated per sweep point. Same layer
  // parameters, same engines, same injection sites.
  nn::Network fnet("fault-testbed");
  const nn::Shape in0 = flow.accel_net[0].out;
  fnet.input({in0.c, std::min(in0.h, 56), std::min(in0.w, 56)});
  const std::size_t klast =
      std::min<std::size_t>(3, flow.accel_net.size() - 1);
  for (std::size_t i = 1; i <= klast; ++i) fnet.add(flow.accel_net[i]);

  const auto ws = nn::WeightStore::deterministic(fnet, opt.weight_seed);
  arch::FusionPipeline pipe(fnet, ws);
  nn::Tensor in(fnet[0].out);
  nn::fill_deterministic(in, static_cast<std::uint32_t>(seed));
  const nn::Tensor golden = pipe.run(in);

  std::printf(
      "\n[2] SEU sweep through the functional pipeline "
      "(%zu layers, input %s)\n",
      klast, fnet[0].out.str().c_str());
  std::printf("  %-10s %9s %14s %14s %9s %10s\n", "rate", "injected",
              "L-inf (raw)", "L-inf (prot)", "detected", "recovered");
  for (const double rate : {1e-5, 1e-4, 1e-3}) {
    fault::FaultPlan p;
    p.seed = seed;
    p.line_buffer_flip_rate = rate;
    p.fifo_corrupt_rate = rate;
    p.weight_panel_flip_rate = rate;

    pipe.install_fault_plan(p);  // detectors off: every flip lands
    const nn::Tensor raw_out = pipe.run(in);
    const auto raw_stats = pipe.fault_stats();

    pipe.install_fault_plan(p, fault::ProtectionConfig::all_on());
    const nn::Tensor hard_out = pipe.run(in);
    const auto hard_stats = pipe.fault_stats();
    pipe.clear_fault_plan();

    std::printf("  %-10.0e %9lld %14.4g %14.4g %9lld %10lld\n", rate,
                raw_stats.total_injected(), golden.max_abs_diff(raw_out),
                golden.max_abs_diff(hard_out), hard_stats.detected,
                hard_stats.recovered);
  }

  std::printf("\n[3] DATAFLOW watchdog on a wedged FIFO\n");
  fault::FaultPlan wedge;
  wedge.seed = seed;
  wedge.wedge_channel = 0;
  wedge.wedge_after_pushes = 4;
  pipe.install_fault_plan(wedge, fault::ProtectionConfig::all_on());
  try {
    (void)pipe.run(in);
    std::printf("  watchdog FAILED: pipeline completed through a wedge\n");
    pipe.clear_fault_plan();
    return 1;
  } catch (const FaultError& e) {
    std::printf("  caught at stage '%s': %s\n", e.stage().c_str(), e.what());
  }
  pipe.clear_fault_plan();
  std::printf("\ncampaign complete (deterministic: rerun with "
              "--fault-seed %llu to reproduce)\n",
              static_cast<unsigned long long>(seed));
  return 0;
}

nn::Network zoo_model(const std::string& name) {
  if (name == "alexnet") return nn::alexnet();
  if (name == "vgg-e") return nn::vgg_e();
  if (name == "vgg16") return nn::vgg16();
  if (name == "vgg-e-head") return nn::vgg_e_head();
  if (name == "inception-mini") return nn::inception_mini();
  if (name == "resnet-mini") return nn::resnet_mini();
  throw ServeError(ServeError::Reason::kConfig,
                   "unknown model '" + name + "'");
}

/// --serve: everything the serving runtime needs from the command line.
struct ServeCliOptions {
  std::string spec;          ///< trace CSV path, synth:..., or osc:...
  long long deadline = -1;   ///< -1 = derive from the primary latency
  std::size_t queue = 64;
  int replicas = 2;
  int retries = 2;
  std::string fault;         ///< "", "auto", or "LO:HI"
  std::string ladder;        ///< "" = binary pair, "auto" or rung count
};

/// --serve: run the resilient serving runtime over the optimized strategy —
/// a one-model, one-tenant, batch-cap-1 FleetServer. The primary mode is
/// the unprotected latency-optimal strategy; the degraded fallback is the
/// --protect re-optimization, round-tripped through its CSV form the way an
/// operator would pre-compute and ship it. The functional work behind every
/// request is the network's leading layers on a capped input (same testbed
/// discipline as --fault-campaign) so a 10k request soak stays fast;
/// service *times* come from the cost layer's full-strategy latencies.
int run_serve(const nn::Network& net, const fpga::Device& dev,
              toolflow::ToolflowOptions opt, const ServeCliOptions& so,
              std::uint64_t fault_seed) {
  // The trace defaults below divide by the replica count.
  if (so.replicas < 1) {
    throw ServeError(ServeError::Reason::kConfig,
                     "--serve-replicas must be >= 1, got " +
                         std::to_string(so.replicas));
  }
  // Serving runs the default DSE, whatever DSE flags were given.
  opt.generate_code = false;
  opt.model = {};
  opt.interval_dp = false;
  const auto primary_flow = toolflow::run_toolflow(net, dev, opt);

  // Functional testbed: leading layers on a capped input (the request
  // payloads), aligned with the strategies' per-layer choices.
  nn::Network snet("serve-testbed");
  const nn::Shape in0 = primary_flow.accel_net[0].out;
  snet.input({in0.c, std::min(in0.h, 32), std::min(in0.w, 32)});
  const std::size_t klast =
      std::min<std::size_t>(3, primary_flow.accel_net.size() - 1);
  for (std::size_t i = 1; i <= klast; ++i) snet.add(primary_flow.accel_net[i]);
  const auto choices_of = [klast](const core::Strategy& s) {
    std::vector<arch::LayerChoice> ch;
    for (const auto& g : s.groups) {
      for (const auto& ipl : g.impls) {
        ch.push_back({ipl.cfg.algo, ipl.cfg.wino_m, {}});
      }
    }
    ch.resize(klast);
    return ch;
  };
  const auto ws = nn::WeightStore::deterministic(snet, opt.weight_seed);

  // The degradation ladder (--serve-ladder) or the binary [fallback,
  // primary] pair. The ladder is round-tripped through its multi-strategy
  // CSV form the way an operator would pre-compute and ship it; per-rung
  // numeric modes come from the testbed calibration (int8 rungs serve in
  // the asymmetric int8 activation grids).
  serve::ServingLadder ladder;
  toolflow::ServingLadderPlan plan;
  const bool use_ladder = !so.ladder.empty();
  if (use_ladder) {
    toolflow::LadderOptions lopt;
    lopt.optimizer = opt.optimizer;
    lopt.threads = opt.threads;
    if (so.ladder != "auto") {
      const auto n = parse_int<long long>(so.ladder);
      if (!n || *n < 2) {
        throw ServeError(ServeError::Reason::kConfig,
                         "--serve-ladder wants a rung count >= 2 or 'auto', "
                         "got '" + so.ladder + "'");
      }
      lopt.max_rungs = static_cast<std::size_t>(*n);
    }
    const auto& built = toolflow::cached_serving_ladder(net, dev, lopt);
    plan = toolflow::ServingLadderPlan::from_csv_rungs(
        core::ladder_from_csv(
            core::ladder_to_csv(built.to_csv_rungs(), built.accel_net),
            built.accel_net, dev),
        built.accel_net);

    nn::Tensor cal_in(snet[0].out);
    nn::fill_deterministic(cal_in, 7);
    const auto cal = quant::calibrate(snet, ws, {cal_in});
    ladder = plan.to_serving_modes(klast, cal.modes(), cal.modes_int8());
  } else {
    toolflow::ToolflowOptions fopt = opt;
    fopt.model.protect = true;
    const auto fb_flow = toolflow::run_toolflow(net, dev, fopt);
    fpga::Device pdev = dev;
    pdev.protection.enabled = true;
    const core::Strategy fb_strategy = core::strategy_from_csv(
        core::strategy_to_csv(fb_flow.optimization.strategy,
                              fb_flow.accel_net),
        fb_flow.accel_net, pdev);

    serve::ServingMode primary;
    primary.label = "primary";
    primary.choices = choices_of(primary_flow.optimization.strategy);
    primary.service_cycles =
        primary_flow.optimization.strategy.latency_cycles();
    serve::ServingMode fallback;
    fallback.label = "fallback";
    fallback.choices = choices_of(fb_strategy);
    fallback.service_cycles = fb_strategy.latency_cycles();
    ladder.rungs = {std::move(fallback), std::move(primary)};
    ladder.home = 1;
  }
  const long long primary_cycles =
      ladder.rungs[ladder.home].service_cycles;

  serve::TenantConfig tenant;
  tenant.name = primary_flow.full_net.name();
  tenant.queue_capacity = so.queue;
  tenant.deadline_cycles =
      so.deadline >= 0 ? so.deadline : 4 * primary_cycles;
  tenant.batch_cap = 1;
  tenant.batch_age_cycles = 0;
  serve::FleetConfig cfg;
  cfg.threads = opt.threads;
  cfg.health.enabled = false;
  cfg.retry.max_retries = so.retries;
  cfg.retry.backoff_base_cycles = std::max<long long>(primary_cycles / 8, 1);
  cfg.retry.backoff_cap_cycles = 4 * cfg.retry.backoff_base_cycles;
  cfg.breaker.cooldown_cycles = 2 * primary_cycles;

  // The trace: synthetic (synth:N[:MEAN[:SEED]]), square-wave oscillating
  // load (osc:P:K[:BURST[:LULL[:SEED]]]), or a CSV file.
  serve::ArrivalTrace trace;
  if (so.spec.rfind("synth:", 0) == 0) {
    std::istringstream is(so.spec.substr(6));
    std::string f;
    std::size_t n = 0;
    long long mean =
        std::max<long long>(3 * primary_cycles / so.replicas, 1);
    std::uint64_t seed = 1;
    if (std::getline(is, f, ':')) n = spec_field<std::size_t>(f, so.spec);
    if (std::getline(is, f, ':')) mean = spec_field<long long>(f, so.spec);
    if (std::getline(is, f, ':')) seed = spec_field<std::uint64_t>(f, so.spec);
    if (n == 0) {
      throw ServeError(ServeError::Reason::kConfig,
                       "synth trace needs a request count: " + so.spec);
    }
    trace = serve::ArrivalTrace::synthetic(n, mean, seed, /*surge=*/2.0);
  } else if (so.spec.rfind("osc:", 0) == 0) {
    std::istringstream is(so.spec.substr(4));
    std::string f;
    std::size_t periods = 0, per_phase = 0;
    // Defaults: bursts arrive at twice the replicas' drain rate (sustained
    // pressure), lulls at a quarter of it (sustained calm).
    long long burst =
        std::max<long long>(primary_cycles / (2 * so.replicas), 1);
    long long lull =
        std::max<long long>(4 * primary_cycles / so.replicas, 1);
    std::uint64_t seed = 1;
    if (std::getline(is, f, ':')) periods = spec_field<std::size_t>(f, so.spec);
    if (std::getline(is, f, ':')) {
      per_phase = spec_field<std::size_t>(f, so.spec);
    }
    if (std::getline(is, f, ':')) burst = spec_field<long long>(f, so.spec);
    if (std::getline(is, f, ':')) lull = spec_field<long long>(f, so.spec);
    if (std::getline(is, f, ':')) seed = spec_field<std::uint64_t>(f, so.spec);
    if (periods == 0 || per_phase == 0) {
      throw ServeError(ServeError::Reason::kConfig,
                       "osc trace needs periods and per-phase counts: " +
                           so.spec);
    }
    trace =
        serve::ArrivalTrace::oscillating(periods, per_phase, burst, lull,
                                         seed);
  } else {
    std::ifstream f(so.spec);
    if (!f) {
      throw ServeError(ServeError::Reason::kConfig,
                       "cannot open trace file '" + so.spec + "'");
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    trace = serve::ArrivalTrace::from_csv(buf.str());
  }

  if (!so.fault.empty()) {
    if (so.fault == "auto") {
      const long long span = trace.last_arrival();
      trace.burst.from_cycle = span / 3;
      trace.burst.until_cycle = 2 * span / 3;
    } else {
      const auto colon = so.fault.find(':');
      if (colon == std::string::npos) {
        throw ServeError(ServeError::Reason::kConfig,
                         "--serve-fault wants LO:HI or auto, got '" +
                             so.fault + "'");
      }
      trace.burst.from_cycle =
          spec_field<long long>(so.fault.substr(0, colon), so.fault);
      trace.burst.until_cycle =
          spec_field<long long>(so.fault.substr(colon + 1), so.fault);
    }
    // A wedged FIFO: deterministic hard failure on every struck run, the
    // worst case the watchdog + retry + breaker chain must absorb.
    trace.burst.plan.seed = fault_seed;
    trace.burst.plan.wedge_channel = 0;
    trace.burst.plan.wedge_after_pushes = 4;
  }

  std::printf("serving '%s' on %s: %zu requests, %d replica(s), queue %zu, "
              "deadline %lld cycles\n",
              primary_flow.full_net.name().c_str(), dev.name.c_str(),
              trace.requests.size(), so.replicas, tenant.queue_capacity,
              tenant.deadline_cycles);
  if (use_ladder) {
    // Rung table with per-rung accuracy: every rung's functional testbed
    // output against the float reference, so the table shows exactly what
    // descending to an int8 rung costs (satisfying the deepest-throughput
    // rung is conventional-i8's quantized datapath).
    arch::FusionPipeline ref_pipe(snet, ws);
    nn::Tensor probe(snet[0].out);
    nn::fill_deterministic(probe, 7);
    const nn::Tensor ref = ref_pipe.run(probe);
    float ref_abs = 0.0f;
    for (float v : ref.vec()) ref_abs = std::max(ref_abs, std::abs(v));
    std::printf("degradation ladder (%zu rungs, CSV round-trip, "
                "%zu-layer testbed):\n",
                ladder.rungs.size(), klast);
    for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
      const auto& m = ladder.rungs[i];
      arch::FusionPipeline p(snet, ws, m.choices);
      const float err = ref.max_abs_diff(p.run(probe));
      std::printf("  rung %zu  %-16s %12lld cycles/request  "
                  "L-inf %.4g (%.3f%% of range)%s\n",
                  i, m.label.c_str(), m.service_cycles, err,
                  ref_abs > 0 ? 100.0 * err / ref_abs : 0.0,
                  i == ladder.home ? "  [home]" : "");
    }
  } else {
    std::printf("  primary   %lld cycles/request (%zu-layer testbed)\n",
                ladder.rungs[1].service_cycles, klast);
    std::printf("  fallback  %lld cycles/request (protected re-optimization, "
                "CSV round-trip)\n",
                ladder.rungs[0].service_cycles);
  }
  if (trace.burst.active()) {
    std::printf("  fault burst [%lld, %lld) cycles, seed %llu\n",
                trace.burst.from_cycle, trace.burst.until_cycle,
                static_cast<unsigned long long>(fault_seed));
  }

  std::vector<serve::FleetModel> models;
  models.push_back({tenant.name, snet, ws, std::move(ladder), so.replicas});
  serve::FleetServer server(std::move(models), {tenant}, cfg);
  const serve::FleetStats stats = server.run({trace});

  std::printf("\nserver stats:\n%s", stats.summary().c_str());
  if (!server.breaker_logs()[0].empty()) {
    std::printf("breaker transitions:\n");
    for (const auto& t : server.breaker_logs()[0]) {
      std::printf("  cycle %10lld  %s -> %s\n", t.cycle,
                  std::string(serve::to_string(t.from)).c_str(),
                  std::string(serve::to_string(t.to)).c_str());
    }
  }
  for (std::size_t r = 0; r < server.rung_logs()[0].size(); ++r) {
    const auto& log = server.rung_logs()[0][r];
    if (log.empty()) continue;
    std::printf("rung transitions replica %zu:\n", r);
    for (const auto& t : log) {
      std::printf("  cycle %10lld  r%d -> r%d  (%s)\n", t.cycle, t.from,
                  t.to, std::string(serve::to_string(t.reason)).c_str());
    }
  }
  std::printf("json: %s\n", stats.to_json().c_str());

  const serve::TenantStats& ts = stats.tenants[0];
  if (!stats.accounted()) {
    throw Error(ErrorCategory::kServe,
                "request accounting mismatch: " +
                    std::to_string(ts.submitted) + " submitted but only " +
                    std::to_string(ts.rejected_queue_full + ts.shed_deadline +
                                   ts.completed + ts.failed) +
                    " accounted for");
  }
  if (ts.failed > 0) {
    throw Error(ErrorCategory::kServe,
                std::to_string(ts.failed) +
                    " request(s) failed on a degraded rung");
  }
  return 0;
}

/// --fleet: everything the fleet simulator needs from the command line.
struct FleetCliOptions {
  std::string spec;   ///< REPLICAS[:REQUESTS[:SEED]]
  std::string chaos;  ///< --fleet-chaos PLAN[:SEED]; empty = no chaos
  std::string models = "alexnet,vgg-e,inception-mini,resnet-mini";
  bool autoscale = false;
};

/// --fleet: multi-tenant fleet simulation over the shared-cache / dynamic-
/// batching / weighted-fair runtime (serve/fleet.h). Each named model gets
/// its own testbed + degradation ladder (the DSE is paid once per model via
/// the process-wide memo) and two tenants: a steady stream near the pool's
/// drain rate and an oscillating bursty neighbor the fair-share admission
/// must contain.
int run_fleet(const fpga::Device& dev, const toolflow::ToolflowOptions& opt,
              const FleetCliOptions& fo) {
  int replicas = 2;
  std::size_t requests = 300;
  std::uint64_t seed = 1;
  {
    std::istringstream is(fo.spec);
    std::string f;
    if (std::getline(is, f, ':') && !f.empty()) {
      replicas = spec_field<int>(f, fo.spec);
    }
    if (std::getline(is, f, ':') && !f.empty()) {
      requests = spec_field<std::size_t>(f, fo.spec);
    }
    if (std::getline(is, f, ':') && !f.empty()) {
      seed = spec_field<std::uint64_t>(f, fo.spec);
    }
  }
  if (replicas < 1 || requests == 0) {
    throw ServeError(ServeError::Reason::kConfig,
                     "--fleet wants REPLICAS[:REQUESTS[:SEED]] with replicas "
                     ">= 1 and requests >= 1, got '" +
                         fo.spec + "'");
  }

  toolflow::LadderOptions lopt;
  lopt.optimizer = opt.optimizer;
  lopt.threads = opt.threads;
  std::vector<serve::FleetModel> models;
  {
    std::istringstream is(fo.models);
    std::string name;
    while (std::getline(is, name, ',')) {
      if (name.empty()) continue;
      auto tb = toolflow::build_testbed_ladder(zoo_model(name), dev, lopt);
      models.push_back({name, std::move(tb.net), std::move(tb.ws),
                        std::move(tb.ladder), replicas});
    }
  }
  if (models.empty()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "--fleet-models wants a comma-separated model list");
  }

  serve::FleetConfig cfg;
  cfg.threads = opt.threads;
  std::vector<serve::TenantConfig> tenants;
  std::vector<serve::ArrivalTrace> traces;
  long long max_service = 1;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& lad = models[m].ladder;
    const long long svc = lad.rungs[lad.home].service_cycles;
    max_service = std::max(max_service, svc);

    serve::TenantConfig steady;
    steady.name = models[m].name + "/steady";
    steady.model = m;
    steady.weight = 2;
    steady.queue_capacity = 32;
    steady.deadline_cycles = 12 * svc;
    steady.batch_cap = 8;
    steady.batch_age_cycles = svc;
    serve::TenantConfig bursty = steady;
    bursty.name = models[m].name + "/bursty";
    bursty.weight = 1;
    tenants.push_back(std::move(steady));
    traces.push_back(serve::ArrivalTrace::synthetic(
        requests, std::max<long long>(3 * svc / (2 * replicas), 1),
        seed + 2 * m, /*surge=*/2.0));
    tenants.push_back(std::move(bursty));
    const std::size_t periods = std::max<std::size_t>(requests / 50, 2);
    const std::size_t per_phase =
        std::max<std::size_t>(requests / (2 * periods), 1);
    traces.push_back(serve::ArrivalTrace::oscillating(
        periods, per_phase, std::max<long long>(svc / (2 * replicas), 1),
        std::max<long long>(6 * svc / replicas, 1), seed + 2 * m + 1));
  }
  if (fo.autoscale) {
    cfg.autoscale.enabled = true;
    cfg.autoscale.min_replicas = 1;
    cfg.autoscale.max_replicas = replicas + 2;
    cfg.autoscale.up_queue_frac = 0.15;
    cfg.autoscale.down_queue_frac = 0.05;
    cfg.autoscale.dwell_cycles = 2 * max_service;
    cfg.autoscale.spinup_cold_cycles = max_service;
    cfg.autoscale.spinup_warm_cycles =
        std::max<long long>(max_service / 8, 1);
  }

  // --fleet-chaos: build the seeded fault campaign, arm hedging (the
  // tail-rescue path the bench measures), and scale the respawn ledger to
  // the fleet's service times so quarantine downtime is visible but finite.
  fault::FleetFaultPlan plan;
  std::uint64_t chaos_seed = seed;
  if (!fo.chaos.empty()) {
    std::string spec = fo.chaos;
    if (const auto pos = spec.find(':'); pos != std::string::npos) {
      chaos_seed = spec_field<std::uint64_t>(spec.substr(pos + 1), fo.chaos);
      spec = spec.substr(0, pos);
    }
    plan = fault::make_fleet_campaign(spec, chaos_seed, models.size(),
                                      replicas, max_service);
    cfg.hedge.enabled = true;
    cfg.hedge.delay_cycles = std::max<long long>(max_service / 4, 1);
    if (!fo.autoscale) {
      cfg.autoscale.spinup_cold_cycles = max_service;
      cfg.autoscale.spinup_warm_cycles =
          std::max<long long>(max_service / 8, 1);
    }
  }

  std::printf("fleet: %zu model(s) x %d replica(s), %zu tenants, ~%zu "
              "requests/tenant, threads %d%s%s\n",
              models.size(), replicas, tenants.size(), requests, cfg.threads,
              fo.autoscale ? ", autoscale on" : "",
              fo.chaos.empty() ? "" : ", chaos on");
  for (const auto& m : models) {
    std::printf("  %-16s %zu rungs, home %zu: %lld cycles/request\n",
                m.name.c_str(), m.ladder.rungs.size(), m.ladder.home,
                m.ladder.rungs[m.ladder.home].service_cycles);
  }

  if (!plan.empty()) {
    std::printf("chaos plan '%s' (seed %llu): %zu strike(s)\n",
                fo.chaos.c_str(),
                static_cast<unsigned long long>(chaos_seed),
                plan.events.size());
    for (const auto& e : plan.events) {
      std::printf("  %s\n", e.describe().c_str());
    }
  }

  serve::FleetServer fleet(std::move(models), std::move(tenants), cfg);
  const serve::FleetStats stats = fleet.run(traces, plan);

  std::printf("\nfleet stats:\n%s", stats.summary().c_str());
  if (!fleet.scale_log().empty()) {
    std::printf("scale events:\n");
    for (const auto& e : fleet.scale_log()) {
      std::printf("  cycle %10lld  %-16s %s -> %d replica(s)\n", e.cycle,
                  fleet.models()[e.model].name.c_str(),
                  e.up ? "(scale-up)" : "(scale-down)", e.replicas_after);
    }
  }
  for (std::size_t m = 0; m < fleet.rung_logs().size(); ++m) {
    for (std::size_t r = 0; r < fleet.rung_logs()[m].size(); ++r) {
      const auto& log = fleet.rung_logs()[m][r];
      if (log.empty()) continue;
      std::printf("rung transitions %s replica %zu:\n",
                  fleet.models()[m].name.c_str(), r);
      for (const auto& t : log) {
        std::printf("  cycle %10lld  r%d -> r%d  (%s)\n", t.cycle, t.from,
                    t.to, std::string(serve::to_string(t.reason)).c_str());
      }
    }
  }
  if (!fleet.health_log().empty()) {
    std::printf("fault timeline:\n");
    for (const auto& e : fleet.health_log()) {
      std::printf("  cycle %10lld  %-16s replica %3d  (%s)\n", e.cycle,
                  fleet.models()[e.model].name.c_str(), e.replica,
                  std::string(serve::to_string(e.kind)).c_str());
    }
  }
  std::printf("fleet json: %s\n", stats.to_json().c_str());

  if (!fo.chaos.empty()) {
    // Chaos verdict: every submitted request must land in exactly one
    // terminal bin and every struck replica must be healthy again. Either
    // failure is the fault-campaign exit (4), naming the domain it died in.
    long long lost = 0;
    for (const auto& t : stats.tenants) {
      lost += t.submitted - t.rejected_queue_full - t.shed_deadline -
              t.completed - t.failed;
    }
    if (lost > 0 || stats.unrecovered_replicas > 0) {
      std::string where = "fleet";
      long long unit = -1;
      for (auto it = fleet.health_log().rbegin();
           it != fleet.health_log().rend(); ++it) {
        if (it->replica >= 0) {
          where = fleet.models()[it->model].name + " replica " +
                  std::to_string(it->replica) + " @ cycle " +
                  std::to_string(it->cycle);
          unit = it->replica;
          break;
        }
      }
      throw FaultError("chaos plan '" + fo.chaos + "' left " +
                           std::to_string(lost) + " request(s) lost and " +
                           std::to_string(stats.unrecovered_replicas) +
                           " replica(s) unrecovered (last fault-domain "
                           "event: " + where + ")",
                       where, unit);
    }
    std::printf("chaos campaign absorbed: 0 lost, %lld quarantine(s), "
                "%lld readmit(s), %lld hedge win(s), %lld scrub(s)\n",
                stats.quarantines, stats.readmits, stats.hedge_wins,
                stats.bundles_scrubbed);
  }

  if (!stats.accounted()) {
    throw Error(ErrorCategory::kServe, "fleet request accounting mismatch");
  }
  long long failed = 0;
  for (const auto& t : stats.tenants) failed += t.failed;
  if (failed > 0) {
    throw Error(ErrorCategory::kServe,
                std::to_string(failed) +
                    " request(s) failed on a degraded rung");
  }
  return 0;
}

int run_cli(int argc, char** argv) {
  std::string net_path, model_name = "alexnet", out_dir;
  fpga::Device dev = fpga::zc706();
  toolflow::ToolflowOptions opt;
  bool summary_only = false;
  bool fault_campaign = false;
  std::uint64_t fault_seed = 1;
  ServeCliOptions serve_opts;
  FleetCliOptions fleet_opts;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::printf("%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed number exits 2 like a missing value.
    auto number = [&]<typename T>(const char* flag, T& out) {
      const char* text = next(flag);
      const auto v = parse_int<T>(text);
      if (!v) {
        std::printf("%s wants %s integer, got '%s'\n", flag,
                    std::is_unsigned_v<T> ? "a non-negative" : "an", text);
        std::exit(2);
      }
      out = *v;
    };
    if (!std::strcmp(argv[i], "--net")) {
      net_path = next("--net");
    } else if (!std::strcmp(argv[i], "--model")) {
      model_name = next("--model");
    } else if (!std::strcmp(argv[i], "--device")) {
      const std::string d = next("--device");
      if (d == "vc707") dev = fpga::vc707();
      else if (d == "zc706") dev = fpga::zc706();
      else { std::printf("unknown device '%s'\n", d.c_str()); return 2; }
    } else if (!std::strcmp(argv[i], "--budget-mb")) {
      long long mb = 0;
      number("--budget-mb", mb);
      constexpr long long kMaxMb = std::numeric_limits<long long>::max() >> 20;
      if (mb < 0 || mb > kMaxMb) {
        std::printf("--budget-mb wants 0..%lld, got %lld\n", kMaxMb, mb);
        return 2;
      }
      opt.optimizer.transfer_budget_bytes = mb * 1024 * 1024;
    } else if (!std::strcmp(argv[i], "--out")) {
      out_dir = next("--out");
    } else if (!std::strcmp(argv[i], "--no-codegen")) {
      opt.generate_code = false;
    } else if (!std::strcmp(argv[i], "--summary")) {
      summary_only = true;
    } else if (!std::strcmp(argv[i], "--interval-dp")) {
      opt.interval_dp = true;
    } else if (!std::strcmp(argv[i], "--explore-tiles")) {
      opt.model.explore_wino_tiles = true;
    } else if (!std::strcmp(argv[i], "--conventional-only")) {
      opt.model.enable_winograd = false;
    } else if (!std::strcmp(argv[i], "--wino-tile")) {
      number("--wino-tile", opt.model.wino_tile_m);
      if (opt.model.wino_tile_m < 1) {
        std::printf("--wino-tile wants a tile size >= 1, got %d\n",
                    opt.model.wino_tile_m);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--int8")) {
      opt.model.enable_int8 = true;
    } else if (!std::strcmp(argv[i], "--threads")) {
      number("--threads", opt.threads);
      opt.optimizer.threads = opt.threads;
    } else if (!std::strcmp(argv[i], "--protect")) {
      opt.model.protect = true;
    } else if (!std::strcmp(argv[i], "--fault-campaign")) {
      fault_campaign = true;
    } else if (!std::strcmp(argv[i], "--fault-seed")) {
      number("--fault-seed", fault_seed);
    } else if (!std::strcmp(argv[i], "--serve")) {
      serve_opts.spec = next("--serve");
    } else if (!std::strcmp(argv[i], "--serve-deadline")) {
      number("--serve-deadline", serve_opts.deadline);
    } else if (!std::strcmp(argv[i], "--serve-queue")) {
      number("--serve-queue", serve_opts.queue);
    } else if (!std::strcmp(argv[i], "--serve-replicas")) {
      number("--serve-replicas", serve_opts.replicas);
    } else if (!std::strcmp(argv[i], "--serve-retries")) {
      number("--serve-retries", serve_opts.retries);
    } else if (!std::strcmp(argv[i], "--serve-ladder")) {
      serve_opts.ladder = next("--serve-ladder");
    } else if (!std::strcmp(argv[i], "--serve-fault")) {
      serve_opts.fault = next("--serve-fault");
    } else if (!std::strcmp(argv[i], "--fleet")) {
      fleet_opts.spec = next("--fleet");
    } else if (!std::strcmp(argv[i], "--fleet-chaos")) {
      fleet_opts.chaos = next("--fleet-chaos");
    } else if (!std::strcmp(argv[i], "--fleet-models")) {
      fleet_opts.models = next("--fleet-models");
    } else if (!std::strcmp(argv[i], "--fleet-autoscale")) {
      fleet_opts.autoscale = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage();
      return 0;
    } else {
      std::printf("unknown option '%s'\n\n", argv[i]);
      usage();
      return 2;
    }
  }

  // --fleet brings its own model list; the single-model selection below
  // does not apply. --fleet-chaos alone implies the default fleet.
  if (!fleet_opts.spec.empty() || !fleet_opts.chaos.empty()) {
    if (fleet_opts.spec.empty()) fleet_opts.spec = "2:300:1";
    std::printf("target: %s (%s), %.1f GB/s DDR, %lld DSP48E, %lld "
                "BRAM18K\n\n",
                dev.name.c_str(), dev.chip.c_str(),
                dev.bandwidth_bytes_per_s / 1e9, dev.capacity.dsp,
                dev.capacity.bram18k);
    return run_fleet(dev, opt, fleet_opts);
  }

  nn::Network net;
  if (!net_path.empty()) {
    net = caffe::import_prototxt_file(net_path);
  } else if (model_name == "alexnet") {
    net = nn::alexnet();
  } else if (model_name == "vgg-e") {
    net = nn::vgg_e();
  } else if (model_name == "vgg16") {
    net = nn::vgg16();
  } else if (model_name == "vgg-e-head") {
    net = nn::vgg_e_head();
  } else if (model_name == "inception-mini") {
    net = nn::inception_mini();
  } else if (model_name == "resnet-mini") {
    net = nn::resnet_mini();
  } else {
    std::printf("unknown model '%s'\n", model_name.c_str());
    return 2;
  }
  std::printf("%s", net.summary().c_str());
  std::printf("%s\n", nn::graph_shape_line(net).c_str());
  if (summary_only) return 0;
  std::printf("target: %s (%s), %.1f GB/s DDR, %lld DSP48E, %lld BRAM18K\n\n",
              dev.name.c_str(), dev.chip.c_str(),
              dev.bandwidth_bytes_per_s / 1e9, dev.capacity.dsp,
              dev.capacity.bram18k);

  if (fault_campaign) return run_fault_campaign(net, dev, opt, fault_seed);
  if (!serve_opts.spec.empty()) {
    return run_serve(net, dev, opt, serve_opts, fault_seed);
  }

  // The tool-flow uses the fast prefix DP; --interval-dp swaps in the
  // paper's Algorithm 1 (same result, validated by tests).
  const toolflow::ToolflowResult result =
      opt.model.protect ? run_protected_with_delta(net, dev, opt)
                        : toolflow::run_toolflow(net, dev, opt);
  if (opt.model.enable_int8) print_int8_trade(net, dev, opt, result);

  std::printf("%s\n", result.summary().c_str());
  std::printf("%s",
              result.optimization.strategy.describe(result.accel_net)
                  .c_str());
  if (opt.generate_code && !out_dir.empty() && result.accel_net.is_chain()) {
    codegen::write_design(result.design, out_dir);
    std::printf("\nHLS project written to %s/\n", out_dir.c_str());
  } else if (opt.generate_code && !out_dir.empty()) {
    std::printf("\ncodegen skipped: HLS emission supports chain nets only\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure funnels through the typed hierarchy: one categorized line
  // on stderr and a category-specific exit code, so scripts can distinguish
  // "your prototxt is malformed" (2) from "this network cannot fit" (3)
  // from "the injected fault was not absorbed" (4).
  try {
    return run_cli(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "hetacc: %s error: %s\n",
                 std::string(to_string(e.category())).c_str(), e.what());
    return e.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hetacc: internal error: %s\n", e.what());
    return 1;
  }
}
