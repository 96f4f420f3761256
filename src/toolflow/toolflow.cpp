#include "toolflow/toolflow.h"

#include <sstream>

#include "kernels/parallel.h"
#include "support/error.h"

namespace hetacc::toolflow {

ToolflowResult run_toolflow(std::string_view prototxt,
                            const fpga::Device& device,
                            const ToolflowOptions& opt) {
  return run_toolflow(caffe::import_prototxt(prototxt), device, opt);
}

long long minimal_transfer_budget(const nn::Network& accel_net,
                                  const fpga::Device& dev,
                                  long long unit_bytes) {
  return accel_net.unfused_feature_transfer_bytes(dev.data_bytes) +
         static_cast<long long>(accel_net.size()) * unit_bytes;
}

ToolflowResult run_toolflow(const nn::Network& net,
                            const fpga::Device& device,
                            const ToolflowOptions& opt) {
  ToolflowResult r;
  r.full_net = net;
  r.accel_net = net.accelerated_portion();

  // model.protect hardens both accounting layers at once: per-engine CRC /
  // watchdog resources in the engine model and CRC-checked burst tails on
  // every DDR transfer priced by the cost layer. The optimizer re-trades the
  // whole strategy under these costs rather than patching one up post hoc.
  fpga::Device dev = device;
  if (opt.model.protect) dev.protection.enabled = true;
  const fpga::EngineModel model(dev, opt.model);
  core::OptimizerOptions oo = opt.optimizer;
  if (opt.threads != 0) oo.threads = opt.threads;
  // One knob governs every worker pool: the fusion-table DSE and the
  // functional-simulation kernel layer share the same thread count.
  kernels::set_num_threads(oo.threads);
  if (oo.transfer_budget_bytes <= 0) {
    oo.transfer_budget_bytes =
        minimal_transfer_budget(r.accel_net, dev, oo.transfer_unit_bytes);
  }
  r.optimization = opt.interval_dp
                       ? core::optimize_interval(r.accel_net, model, oo)
                       : core::optimize(r.accel_net, model, oo);
  if (!r.optimization.feasible) {
    throw InfeasibleError("toolflow: " + r.optimization.infeasible_reason);
  }
  r.report = core::make_report(r.optimization.strategy, r.accel_net, dev);

  // HLS code generation still emits the chained-DATAFLOW template only;
  // branchy nets are optimized and simulated but not yet emitted.
  if (opt.generate_code && r.accel_net.is_chain()) {
    const auto ws =
        nn::WeightStore::deterministic(r.accel_net, opt.weight_seed);
    r.design = codegen::generate_design(r.accel_net, r.optimization.strategy,
                                        ws, opt.codegen);
  }
  return r;
}

std::string ToolflowResult::summary() const {
  std::ostringstream os;
  os << "tool-flow summary for '" << full_net.name() << "'\n";
  os << "  accelerated layers: " << accel_net.size() - 1 << " ("
     << accel_net.total_ops() / 1e9 << " GOP)\n";
  os << "  fusion groups: " << optimization.strategy.groups.size() << "\n";
  os << "  latency: " << report.latency_ms << " ms  ("
     << report.effective_gops << " effective GOPS)\n";
  os << "  feature-map transfer: "
     << static_cast<double>(report.feature_transfer_bytes) / (1024.0 * 1024.0)
     << " MB\n";
  os << "  peak resources: " << report.peak_resources.str() << "\n";
  os << "  power: " << report.power.total() << " W, energy efficiency "
     << report.energy_efficiency_gops_per_w << " GOPS/W\n";
  os << "  optimizer wall time: " << optimization.wall_seconds << " s\n";
  return os.str();
}

}  // namespace hetacc::toolflow
