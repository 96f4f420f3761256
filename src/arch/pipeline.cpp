#include "arch/pipeline.h"

#include <algorithm>

#include "fault/crc32.h"
#include "kernels/parallel.h"
#include "support/error.h"

namespace hetacc::arch {

namespace {

/// Folds every resident panel block of a packed operand into `crc`, in
/// (K-block, M-block) order.
template <typename Packed>
std::uint32_t crc_packed(const Packed& pk, std::uint32_t crc) {
  for (int pb = 0; pb < pk.pblocks(); ++pb) {
    for (int ib = 0; ib < pk.iblocks(); ++ib) {
      const auto& blk = pk.block(pb, ib);
      crc = fault::crc32(blk.data(), blk.size() * sizeof(blk[0]), crc);
    }
  }
  return crc;
}

/// CRC-32 over a Winograd plan's packed filter planes, plane by plane.
std::uint32_t crc_wino_planes(const kernels::WinogradPlan& p,
                              std::uint32_t crc) {
  for (const auto& plane : p.planes) crc = crc_packed(plane, crc);
  return crc;
}

}  // namespace

long long PrepackBundle::resident_bytes() const {
  long long total = 0;
  for (const auto& p : wino) {
    if (p) total += p->footprint_bytes();
  }
  for (const auto& p : packed) {
    if (p) total += p->footprint_bytes();
  }
  for (const auto& p : int8) {
    if (!p) continue;
    total += p->packed.footprint_bytes();
    total += static_cast<long long>(p->requant.size() * sizeof(float));
    total += static_cast<long long>(p->bias.size() * sizeof(std::int32_t));
  }
  return total;
}

std::uint32_t PrepackBundle::content_crc() const {
  std::uint32_t crc = 0u;
  const auto fold = [&crc](const void* data, std::size_t bytes) {
    crc = fault::crc32(data, bytes, crc);
  };
  for (const auto& p : wino) {
    if (!p) continue;
    fold(p->bt.data(), p->bt.size() * sizeof(double));
    fold(p->at.data(), p->at.size() * sizeof(double));
    crc = crc_wino_planes(*p, crc);
  }
  for (const auto& p : packed) {
    if (p) crc = crc_packed(*p, crc);
  }
  for (const auto& p : int8) {
    if (!p) continue;
    crc = crc_packed(p->packed, crc);
    fold(p->requant.data(), p->requant.size() * sizeof(float));
    fold(p->bias.data(), p->bias.size() * sizeof(std::int32_t));
    fold(&p->pad_value, sizeof(p->pad_value));
  }
  return crc;
}

FusionPipeline::FusionPipeline(const nn::Network& net,
                               const nn::WeightStore& ws,
                               std::vector<LayerChoice> choices)
    : net_(net), ws_(ws), choices_(std::move(choices)) {
  if (net_.empty() || net_[0].kind != nn::LayerKind::kInput) {
    throw std::invalid_argument("FusionPipeline: net must start with input");
  }
  const std::size_t layer_count = net_.size() - 1;
  if (choices_.empty()) choices_.resize(layer_count);
  if (choices_.size() != layer_count) {
    throw std::invalid_argument("FusionPipeline: choices size mismatch");
  }
  derive_layer_constants();
  engines_ = build_engine_set();
}

FusionPipeline::FusionPipeline(const nn::Network& net,
                               const nn::WeightStore& ws,
                               std::vector<LayerChoice> choices,
                               std::shared_ptr<const PrepackBundle> prepack)
    : net_(net), ws_(ws), choices_(std::move(choices)),
      prepack_(std::move(prepack)) {
  if (net_.empty() || net_[0].kind != nn::LayerKind::kInput) {
    throw std::invalid_argument("FusionPipeline: net must start with input");
  }
  const std::size_t layer_count = net_.size() - 1;
  if (choices_.empty()) choices_.resize(layer_count);
  if (choices_.size() != layer_count) {
    throw std::invalid_argument("FusionPipeline: choices size mismatch");
  }
  if (!prepack_ || prepack_->wino.size() != layer_count ||
      prepack_->packed.size() != layer_count ||
      prepack_->int8.size() != layer_count) {
    throw std::invalid_argument(
        "FusionPipeline: adopted prepack bundle does not match layer count");
  }
  engines_ = build_engine_set();
}

void FusionPipeline::derive_layer_constants() {
  // Derive per-layer constants once: transformed Winograd filter planes (the
  // seed re-transformed the filters for every image) and packed GEMM weight
  // panels.
  //
  // With a fault plan installed, the resident filter copy each constant is
  // derived from may take bit flips (modeled SEUs on the on-chip weight
  // store). The hardened design holds a CRC-32 of every panel computed at
  // load time; on mismatch it reloads the golden copy from DDR — the
  // "retry-with-reload" path — so protected runs derive from clean weights
  // and count the event as detected + recovered.
  //
  // The constants land in a *fresh* bundle assigned at the end: bundles are
  // immutable once published, so a fleet peer that adopted the previous one
  // (shared_prepack()) keeps a valid, un-struck copy for as long as it holds
  // the pointer.
  const std::size_t layer_count = net_.size() - 1;
  PrepackBundle b;
  b.wino.assign(layer_count, nullptr);
  b.packed.assign(layer_count, nullptr);
  b.int8.assign(layer_count, nullptr);
  // Weight-store SEUs hit one word per panel of this many floats.
  constexpr std::size_t kPanelFloats = 512;
  for (std::size_t i = 0; i + 1 < net_.size(); ++i) {
    const nn::Layer& l = net_[i + 1];
    if (l.kind != nn::LayerKind::kConv) continue;
    const nn::ConvWeights& w = ws_.conv(i + 1);
    const std::size_t n_words = static_cast<std::size_t>(w.filters.size());
    const nn::FilterBank* filters = &w.filters;
    nn::FilterBank resident;
    if (injector_ && injector_->plan().weight_panel_flip_rate > 0.0) {
      resident = w.filters;
      bool hit = false;
      for (std::size_t p = 0; p * kPanelFloats < n_words; ++p) {
        const std::size_t lo = p * kPanelFloats;
        const std::size_t len = std::min(kPanelFloats, n_words - lo);
        hit |= injector_->maybe_corrupt_row(
            fault::FaultSite::kWeightPanel, static_cast<std::uint64_t>(i),
            static_cast<std::uint64_t>(p), resident.data() + lo, len);
      }
      if (hit && protect_.enabled && protect_.crc_weights &&
          fault::crc32_f32(resident.data(), n_words) !=
              fault::crc32_f32(w.filters.data(), n_words)) {
        // CRC mismatch against the load-time checksum: reload golden.
        injector_->count_detected();
        injector_->count_recovered();
      } else if (hit) {
        filters = &resident;  // silent corruption: derive from flipped copy
      }
    }
    if (choices_[i].algo == fpga::ConvAlgo::kWinograd) {
      const algo::WinogradTransform t =
          algo::winograd(choices_[i].wino_m, l.conv().kernel);
      auto plan = std::make_shared<kernels::WinogradPlan>(
          algo::winograd_plan(t, *filters));
      if (filters != &w.filters && protect_.enabled &&
          protect_.wino_checksum) {
        // Checksum-verified filter transform: the transform unit checks its
        // output against the column checksum stored with the golden plan.
        auto golden = algo::winograd_plan(t, w.filters);
        if (crc_wino_planes(*plan, 0u) != crc_wino_planes(golden, 0u)) {
          injector_->count_detected();
          injector_->count_recovered();
          *plan = std::move(golden);  // re-transform from the clean filters
        }
      }
      b.wino[i] = std::move(plan);
    } else if (choices_[i].algo == fpga::ConvAlgo::kConventional) {
      if (choices_[i].mode.int8()) {
        // Int8 panels are derived from the (CRC-verified or golden) float
        // filters the same way the f32 panels are, so the protection path
        // above covers them too — a detected weight-panel SEU reloads the
        // golden copy before quantization, never silently bypassing CRC.
        if (filters == &w.filters) {
          b.int8[i] = make_int8_conv_constants(l, w, choices_[i].mode);
        } else {
          nn::ConvWeights resident_w{*filters, w.bias};
          b.int8[i] =
              make_int8_conv_constants(l, resident_w, choices_[i].mode);
        }
      } else {
        const int kk = l.in.c * l.conv().kernel * l.conv().kernel;
        b.packed[i] = std::make_shared<const kernels::PackedLhsF32>(
            filters->data(), l.out.c, kk, kk);
      }
    }
  }
  prepack_ = std::make_shared<const PrepackBundle>(std::move(b));
}

void FusionPipeline::install_fault_plan(const fault::FaultPlan& plan,
                                        const fault::ProtectionConfig& protect) {
  injector_ = std::make_unique<fault::FaultInjector>(plan);
  protect_ = protect;
  derive_layer_constants();
  engines_ = build_engine_set();
}

void FusionPipeline::clear_fault_plan() {
  injector_.reset();
  protect_ = fault::ProtectionConfig{};
  derive_layer_constants();
  engines_ = build_engine_set();
}

void FusionPipeline::reset() {
  // Clean pipelines keep their (possibly shared) bundle: a re-derive from
  // the golden weight store would be value-identical, so skipping it makes
  // reset() cheap and keeps fleet peers pointer-aliased. Under a fault plan
  // the re-derive is the whole point — the deterministic SEUs re-strike
  // fresh resident copies — and it publishes a new private bundle, leaving
  // any peer's adopted copy untouched.
  if (injector_) derive_layer_constants();
  engines_ = build_engine_set();
}

fault::FaultStats FusionPipeline::fault_stats() const {
  return injector_ ? injector_->stats() : fault::FaultStats{};
}

std::vector<std::unique_ptr<StreamEngine>> FusionPipeline::build_engine_set()
    const {
  std::vector<std::unique_ptr<StreamEngine>> engines;
  for (std::size_t i = 0; i + 1 < net_.size(); ++i) {
    const nn::Layer& l = net_[i + 1];
    if (l.is_merge()) {
      // Merge layers run on whole tensors between streams (run_dag); the
      // engine slot stays null to keep choices_/engines_ index-aligned.
      engines.push_back(nullptr);
      continue;
    }
    const nn::ConvWeights* w =
        (l.kind == nn::LayerKind::kConv) ? &ws_.conv(i + 1) : nullptr;
    std::optional<algo::WinogradTransform> t;
    if (l.kind == nn::LayerKind::kConv &&
        choices_[i].algo == fpga::ConvAlgo::kWinogradStride2) {
      throw std::invalid_argument(
          "FusionPipeline: no streaming engine for the stride-2 Winograd "
          "decomposition yet (use algo::winograd_conv_stride2 directly)");
    }
    if (l.kind == nn::LayerKind::kConv &&
        choices_[i].algo == fpga::ConvAlgo::kWinograd) {
      t = algo::winograd(choices_[i].wino_m, l.conv().kernel);
    }
    engines.push_back(make_engine(l, w, t, choices_[i].mode, prepack_->wino[i],
                                  prepack_->packed[i], prepack_->int8[i]));
  }
  return engines;
}

nn::Tensor FusionPipeline::run(const nn::Tensor& input) {
  return run_any(engines_, input, &stats_);
}

nn::Tensor FusionPipeline::run_any(
    std::vector<std::unique_ptr<StreamEngine>>& engines,
    const nn::Tensor& input, PipelineStats* stats) const {
  return net_.is_chain() ? run_with(engines, input, stats)
                         : run_dag(engines, input, stats);
}

std::vector<nn::Tensor> FusionPipeline::run_batch(
    const std::vector<nn::Tensor>& inputs, int threads) const {
  std::vector<nn::Tensor> outs(inputs.size());
  if (inputs.empty()) return outs;
  const int want = std::min<int>(kernels::resolve_threads(
                                     threads == 0 ? kernels::num_threads()
                                                  : threads),
                                 static_cast<int>(inputs.size()));
  const std::size_t per =
      (inputs.size() + static_cast<std::size_t>(std::max(want, 1)) - 1) /
      static_cast<std::size_t>(std::max(want, 1));
  // One engine set per claimed range (engines are stateful); the per-layer
  // constants in the prepack bundle are shared by all of them.
  kernels::parallel_for_ranges(
      inputs.size(), per, threads, [&](std::size_t lo, std::size_t hi) {
        auto engines = build_engine_set();
        for (std::size_t i = lo; i < hi; ++i) {
          outs[i] = run_any(engines, inputs[i], nullptr);
        }
      });
  return outs;
}

nn::Tensor FusionPipeline::run_with(
    std::vector<std::unique_ptr<StreamEngine>>& engines,
    const nn::Tensor& input, PipelineStats* stats) const {
  // Fresh engine state per image (the hardware resets its line-buffer
  // counters between frames); layer constants survive the reset.
  for (auto& e : engines) e->reset();
  if (input.shape() != net_[0].out) {
    throw std::invalid_argument("FusionPipeline::run: input shape " +
                                input.shape().str() + " != " +
                                net_[0].out.str());
  }
  const std::size_t n = engines.size();
  std::vector<RowFifo> fifos(n + 1);
  if (injector_) {
    // Channel i feeds engine i; channel n is the store stream. Engines use
    // their layer index as the line-buffer injection stream.
    for (std::size_t i = 0; i <= n; ++i) {
      fifos[i].attach_fault(injector_.get(), static_cast<std::uint64_t>(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      engines[i]->set_fault_injector(injector_.get(),
                                     static_cast<std::uint64_t>(i));
    }
  }
  if (stats) *stats = PipelineStats{};

  const nn::Shape out_shape = net_[net_.size() - 1].out;
  nn::Tensor out(out_shape);
  int out_rows = 0;
  int fed_rows = 0;

  // Feed one input row, then let every engine advance as far as it can —
  // this keeps FIFO occupancy near the hardware steady state instead of
  // buffering whole feature maps. The feeder honors the channel's
  // back-pressure (full() is also how a wedged channel presents), so a
  // stalled input stream surfaces through the watchdog, not as overflow.
  while (out_rows < out_shape.h) {
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
      throw ServeError(ServeError::Reason::kCancelled,
                       "pipeline run cancelled after emitting " +
                           std::to_string(out_rows) + "/" +
                           std::to_string(out_shape.h) + " output rows");
    }
    const bool can_feed = fed_rows < input.shape().h && !fifos[0].full();
    if (can_feed) {
      Row r;
      r.data.resize(static_cast<std::size_t>(input.shape().c) *
                    input.shape().w);
      for (int c = 0; c < input.shape().c; ++c) {
        for (int w = 0; w < input.shape().w; ++w) {
          r.data[static_cast<std::size_t>(c) * input.shape().w + w] =
              input.at(c, fed_rows, w);
        }
      }
      fifos[0].push(std::move(r));
      ++fed_rows;
    }

    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t i = 0; i < n; ++i) {
        while (engines[i]->step(fifos[i], fifos[i + 1])) {
          progressed = true;
          if (stats) ++stats->total_steps;
        }
      }
      // Drain finished output rows.
      while (!fifos[n].empty()) {
        const Row r = fifos[n].pop();
        if (out_rows >= out_shape.h) {
          throw std::runtime_error("pipeline produced too many rows");
        }
        for (int c = 0; c < out_shape.c; ++c) {
          for (int w = 0; w < out_shape.w; ++w) {
            out.at(c, out_rows, w) =
                r.data[static_cast<std::size_t>(c) * out_shape.w + w];
          }
        }
        ++out_rows;
        progressed = true;
      }
    }
    if (!can_feed && out_rows < out_shape.h && !progressed) {
      // One more sweep is attempted by the loop; if nothing moves and the
      // feeder cannot either (input exhausted, or the input channel is
      // refusing traffic), the pipeline is deadlocked.
      bool anything = false;
      for (std::size_t i = 0; i < n && !anything; ++i) {
        anything = engines[i]->step(fifos[i], fifos[i + 1]);
      }
      if (!anything && fifos[n].empty()) {
        report_stall(engines, fifos);
      }
    }
  }

  if (stats) {
    stats->fifo_max_occupancy.clear();
    for (const auto& f : fifos) {
      stats->fifo_max_occupancy.push_back(f.max_occupancy());
    }
  }
  return out;
}

nn::Tensor FusionPipeline::run_dag(
    std::vector<std::unique_ptr<StreamEngine>>& engines,
    const nn::Tensor& input, PipelineStats* stats) const {
  // Graph walk: each single-input layer streams row-by-row through its
  // engine with a private FIFO pair (same feed/sweep/drain discipline as the
  // chained path); merge layers gather their producers' whole feature maps
  // and combine them between streams, which is how the generated design
  // stages branch arms through DDR today.
  for (auto& e : engines) {
    if (e) e->reset();
  }
  if (input.shape() != net_[0].out) {
    throw std::invalid_argument("FusionPipeline::run: input shape " +
                                input.shape().str() + " != " +
                                net_[0].out.str());
  }
  if (stats) {
    *stats = PipelineStats{};
    stats->fifo_max_occupancy.assign(net_.size(), 0);
  }
  std::vector<nn::Tensor> outs;
  outs.reserve(net_.size());
  outs.push_back(input);
  for (std::size_t i = 1; i < net_.size(); ++i) {
    const nn::Layer& l = net_[i];
    if (l.is_merge()) {
      std::vector<const nn::Tensor*> ins;
      ins.reserve(l.inputs.size());
      for (std::size_t u : l.inputs) ins.push_back(&outs[u]);
      outs.push_back(l.kind == nn::LayerKind::kConcat
                         ? nn::concat_reference(ins)
                         : nn::eltwise_add_reference(ins));
      continue;
    }
    outs.push_back(stream_layer(*engines[i - 1], outs[l.inputs.front()],
                                l.out, stats, i - 1));
  }
  return std::move(outs.back());
}

nn::Tensor FusionPipeline::stream_layer(StreamEngine& eng,
                                        const nn::Tensor& input,
                                        const nn::Shape& out_shape,
                                        PipelineStats* stats,
                                        std::size_t engine_idx) const {
  RowFifo in_fifo;
  RowFifo out_fifo;
  if (injector_) {
    // Same stream ids as the chained path: channel i feeds engine i, and the
    // engine uses its layer index as the line-buffer injection stream.
    in_fifo.attach_fault(injector_.get(),
                         static_cast<std::uint64_t>(engine_idx));
    out_fifo.attach_fault(injector_.get(),
                          static_cast<std::uint64_t>(engine_idx + 1));
    eng.set_fault_injector(injector_.get(),
                           static_cast<std::uint64_t>(engine_idx));
  }
  nn::Tensor out(out_shape);
  int out_rows = 0;
  int fed_rows = 0;
  while (out_rows < out_shape.h) {
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
      throw ServeError(ServeError::Reason::kCancelled,
                       "pipeline run cancelled in stage '" +
                           eng.layer().name + "' after emitting " +
                           std::to_string(out_rows) + "/" +
                           std::to_string(out_shape.h) + " output rows");
    }
    const bool can_feed = fed_rows < input.shape().h && !in_fifo.full();
    if (can_feed) {
      Row r;
      r.data.resize(static_cast<std::size_t>(input.shape().c) *
                    input.shape().w);
      for (int c = 0; c < input.shape().c; ++c) {
        for (int w = 0; w < input.shape().w; ++w) {
          r.data[static_cast<std::size_t>(c) * input.shape().w + w] =
              input.at(c, fed_rows, w);
        }
      }
      in_fifo.push(std::move(r));
      ++fed_rows;
    }

    bool progressed = true;
    while (progressed) {
      progressed = false;
      while (eng.step(in_fifo, out_fifo)) {
        progressed = true;
        if (stats) ++stats->total_steps;
      }
      while (!out_fifo.empty()) {
        const Row r = out_fifo.pop();
        if (out_rows >= out_shape.h) {
          throw std::runtime_error("pipeline produced too many rows");
        }
        for (int c = 0; c < out_shape.c; ++c) {
          for (int w = 0; w < out_shape.w; ++w) {
            out.at(c, out_rows, w) =
                r.data[static_cast<std::size_t>(c) * out_shape.w + w];
          }
        }
        ++out_rows;
        progressed = true;
      }
    }
    if (!can_feed && out_rows < out_shape.h && !progressed) {
      if (!eng.step(in_fifo, out_fifo) && out_fifo.empty()) {
        if (in_fifo.wedged() || out_fifo.wedged()) {
          const std::size_t ch = in_fifo.wedged() ? engine_idx : engine_idx + 1;
          if (injector_) {
            const RowFifo& f = in_fifo.wedged() ? in_fifo : out_fifo;
            injector_->count_unrecovered(
                fault::FaultSite::kFifoPush, static_cast<std::uint64_t>(ch),
                static_cast<std::uint64_t>(f.total_pushed()), 0);
          }
          throw FaultError(
              "pipeline watchdog: FIFO channel " + std::to_string(ch) +
                  " feeding stage '" + eng.layer().name + "' wedged",
              eng.layer().name, static_cast<long long>(ch));
        }
        throw FaultError("pipeline watchdog: stage '" + eng.layer().name +
                             "' starved (input exhausted)",
                         eng.layer().name,
                         static_cast<long long>(engine_idx));
      }
    }
  }
  if (stats) {
    auto& occ = stats->fifo_max_occupancy;
    occ[engine_idx] = std::max(occ[engine_idx], in_fifo.max_occupancy());
    occ[engine_idx + 1] =
        std::max(occ[engine_idx + 1], out_fifo.max_occupancy());
  }
  return out;
}

void FusionPipeline::report_stall(
    const std::vector<std::unique_ptr<StreamEngine>>& engines,
    const std::vector<RowFifo>& fifos) const {
  // The DATAFLOW watchdog: no engine made progress, no input remains, and
  // the store stream is empty. Diagnose which stage wedged instead of
  // hanging (the hardware's watchdog timer raises an interrupt with the
  // stalled stream's id; here the "interrupt" is a structured FaultError).
  const std::size_t n = engines.size();
  for (std::size_t i = 0; i < fifos.size(); ++i) {
    if (!fifos[i].wedged()) continue;
    const std::string stage =
        i < n ? engines[i]->layer().name : std::string("store");
    if (injector_) {
      injector_->count_unrecovered(fault::FaultSite::kFifoPush,
                                   static_cast<std::uint64_t>(i),
                                   static_cast<std::uint64_t>(
                                       fifos[i].total_pushed()),
                                   0);
    }
    throw FaultError("pipeline watchdog: FIFO channel " + std::to_string(i) +
                         " feeding stage '" + stage +
                         "' wedged after " +
                         std::to_string(fifos[i].total_pushed()) + " pushes",
                     stage, static_cast<long long>(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!engines[i]->done()) {
      throw FaultError(
          "pipeline watchdog: stage '" + engines[i]->layer().name +
              "' starved (in fifo " + (fifos[i].empty() ? "empty" : "ready") +
              ", out fifo " + (fifos[i + 1].full() ? "full" : "ready") + ")",
          engines[i]->layer().name, static_cast<long long>(i));
    }
  }
  throw FaultError("pipeline watchdog: stalled with all engines done", "");
}

}  // namespace hetacc::arch
