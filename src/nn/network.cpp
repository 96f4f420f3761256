#include "nn/network.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "support/error.h"

namespace hetacc::nn {

namespace {

/// Parameter validation at build time: degenerate values that parse fine but
/// would later divide the cost model by zero (stride 0), produce empty
/// windows (pad >= kernel means an all-padding window column) or zero-sized
/// tensors. Thrown as ValidationError so the CLI maps them to exit code 2;
/// the *geometry* checks (kernel vs padded input) stay in
/// infer_output_shape as std::invalid_argument.
void validate_params(const Layer& layer) {
  const auto reject = [&](const std::string& what) {
    throw ValidationError(what, "layer '" + layer.name + "'");
  };
  switch (layer.kind) {
    case LayerKind::kInput: {
      const Shape s = std::get<InputParam>(layer.param).shape;
      if (s.c <= 0 || s.h <= 0 || s.w <= 0) {
        reject("input shape " + s.str() + " has a non-positive dimension");
      }
      break;
    }
    case LayerKind::kConv: {
      const auto& p = std::get<ConvParam>(layer.param);
      if (p.out_channels <= 0) reject("conv needs num_output > 0");
      if (p.kernel <= 0) reject("conv needs kernel > 0");
      if (p.stride <= 0) reject("conv needs stride > 0");
      if (p.pad < 0) reject("conv pad must be >= 0");
      if (p.pad >= p.kernel) {
        reject("conv pad " + std::to_string(p.pad) + " >= kernel " +
               std::to_string(p.kernel) + " (all-padding window columns)");
      }
      if (p.fan_in < 0) reject("conv fan_in must be >= 0");
      break;
    }
    case LayerKind::kPool: {
      const auto& p = std::get<PoolParam>(layer.param);
      if (p.kernel <= 0) reject("pool needs kernel > 0");
      if (p.stride <= 0) reject("pool needs stride > 0");
      if (p.pad < 0) reject("pool pad must be >= 0");
      if (p.pad >= p.kernel) {
        reject("pool pad " + std::to_string(p.pad) + " >= kernel " +
               std::to_string(p.kernel));
      }
      break;
    }
    case LayerKind::kLrn: {
      const auto& p = std::get<LrnParam>(layer.param);
      if (p.local_size <= 0) reject("lrn needs local_size > 0");
      break;
    }
    case LayerKind::kFullyConnected: {
      if (std::get<FcParam>(layer.param).out_features <= 0) {
        reject("fc needs num_output > 0");
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace

Layer& Network::add(Layer layer) {
  if (layers_.empty() || layer.kind == LayerKind::kInput) {
    return add_from(std::move(layer), {});
  }
  return add_from(std::move(layer), {layers_.size() - 1});
}

Layer& Network::add_from(Layer layer, std::vector<std::size_t> from) {
  validate_params(layer);
  if (layers_.empty()) {
    if (layer.kind != LayerKind::kInput) {
      throw std::invalid_argument("first layer must be an input layer");
    }
    if (!from.empty()) {
      throw std::invalid_argument("input layer takes no inputs");
    }
    layer.in = std::get<InputParam>(layer.param).shape;
    layer.out = layer.in;
    layer.inputs.clear();
    layers_.push_back(std::move(layer));
    return layers_.back();
  }
  if (layer.kind == LayerKind::kInput) {
    throw std::invalid_argument("input layer must be first");
  }
  if (from.empty()) {
    throw std::invalid_argument("layer '" + layer.name + "' needs an input");
  }
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i] >= layers_.size()) {
      throw std::out_of_range("layer '" + layer.name +
                              "' references a producer that does not exist");
    }
    for (std::size_t j = i + 1; j < from.size(); ++j) {
      if (from[i] == from[j]) {
        throw std::invalid_argument("layer '" + layer.name +
                                    "' lists the same producer twice");
      }
    }
  }
  std::vector<Shape> ins;
  ins.reserve(from.size());
  for (std::size_t u : from) ins.push_back(layers_[u].out);
  layer.out = infer_output_shape(layer, ins);
  layer.in = layer.is_merge() ? layer.out : ins.front();
  layer.inputs = std::move(from);
  layers_.push_back(std::move(layer));
  return layers_.back();
}

Layer& Network::input(Shape s, std::string name) {
  return add(
      Layer{LayerKind::kInput, std::move(name), InputParam{s}, {}, {}, {}});
}

Layer& Network::conv(int out_channels, int kernel, int stride, int pad,
                     std::string name, bool fused_relu) {
  return add(Layer{LayerKind::kConv, std::move(name),
                   ConvParam{out_channels, kernel, stride, pad, fused_relu},
                   {},
                   {},
                   {}});
}

Layer& Network::max_pool(int kernel, int stride, std::string name, int pad) {
  return add(Layer{LayerKind::kPool, std::move(name),
                   PoolParam{PoolMethod::kMax, kernel, stride, pad},
                   {},
                   {},
                   {}});
}

Layer& Network::avg_pool(int kernel, int stride, std::string name, int pad) {
  return add(Layer{LayerKind::kPool, std::move(name),
                   PoolParam{PoolMethod::kAverage, kernel, stride, pad},
                   {},
                   {},
                   {}});
}

Layer& Network::lrn(int local_size, float alpha, float beta,
                    std::string name) {
  return add(Layer{LayerKind::kLrn, std::move(name),
                   LrnParam{local_size, alpha, beta, 1.0f},
                   {},
                   {},
                   {}});
}

Layer& Network::relu(std::string name) {
  return add(
      Layer{LayerKind::kRelu, std::move(name), ReluParam{}, {}, {}, {}});
}

Layer& Network::fc(int out_features, std::string name, bool fused_relu) {
  return add(Layer{LayerKind::kFullyConnected, std::move(name),
                   FcParam{out_features, fused_relu},
                   {},
                   {},
                   {}});
}

Layer& Network::softmax(std::string name) {
  return add(
      Layer{LayerKind::kSoftmax, std::move(name), SoftmaxParam{}, {}, {}, {}});
}

std::size_t Network::conv_from(std::size_t from, int out_channels, int kernel,
                               int stride, int pad, std::string name,
                               bool fused_relu) {
  add_from(Layer{LayerKind::kConv, std::move(name),
                 ConvParam{out_channels, kernel, stride, pad, fused_relu},
                 {},
                 {},
                 {}},
           {from});
  return layers_.size() - 1;
}

std::size_t Network::max_pool_from(std::size_t from, int kernel, int stride,
                                   std::string name, int pad) {
  add_from(Layer{LayerKind::kPool, std::move(name),
                 PoolParam{PoolMethod::kMax, kernel, stride, pad},
                 {},
                 {},
                 {}},
           {from});
  return layers_.size() - 1;
}

std::size_t Network::avg_pool_from(std::size_t from, int kernel, int stride,
                                   std::string name, int pad) {
  add_from(Layer{LayerKind::kPool, std::move(name),
                 PoolParam{PoolMethod::kAverage, kernel, stride, pad},
                 {},
                 {},
                 {}},
           {from});
  return layers_.size() - 1;
}

std::size_t Network::relu_from(std::size_t from, std::string name) {
  add_from(Layer{LayerKind::kRelu, std::move(name), ReluParam{}, {}, {}, {}},
           {from});
  return layers_.size() - 1;
}

std::size_t Network::concat(std::vector<std::size_t> from, std::string name) {
  add_from(
      Layer{LayerKind::kConcat, std::move(name), ConcatParam{}, {}, {}, {}},
      std::move(from));
  return layers_.size() - 1;
}

std::size_t Network::eltwise_add(std::vector<std::size_t> from,
                                 std::string name) {
  add_from(Layer{LayerKind::kEltwiseAdd, std::move(name), EltwiseParam{}, {},
                 {}, {}},
           std::move(from));
  return layers_.size() - 1;
}

std::optional<std::size_t> Network::find(std::string_view name) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return i;
  }
  return std::nullopt;
}

bool Network::is_chain() const {
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    if (layers_[i].inputs.size() != 1 || layers_[i].inputs[0] != i - 1) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> Network::consumers(std::size_t i) const {
  std::vector<std::size_t> out;
  for (std::size_t j = i + 1; j < layers_.size(); ++j) {
    if (std::find(layers_[j].inputs.begin(), layers_[j].inputs.end(), i) !=
        layers_[j].inputs.end()) {
      out.push_back(j);
    }
  }
  return out;
}

Network Network::slice(std::size_t first, std::size_t last,
                       std::string name) const {
  if (first > last || last >= layers_.size()) {
    throw std::out_of_range("Network::slice range invalid");
  }
  Network out(std::move(name));
  std::vector<std::size_t> map(layers_.size(), static_cast<std::size_t>(-1));
  std::size_t begin = first;
  if (layers_[first].kind == LayerKind::kInput) {
    out.add(layers_[first]);
    map[first] = 0;
    begin = first + 1;
  } else {
    // The range must read a single external producer, which the synthetic
    // input layer stands in for.
    std::size_t ext = static_cast<std::size_t>(-1);
    for (std::size_t i = first; i <= last; ++i) {
      for (std::size_t u : layers_[i].inputs) {
        if (u >= first) continue;
        if (ext != static_cast<std::size_t>(-1) && ext != u) {
          throw std::invalid_argument(
              "Network::slice: range reads more than one external producer");
        }
        ext = u;
      }
    }
    out.input(layers_[first].in, "data");
  }
  for (std::size_t i = begin; i <= last; ++i) {
    Layer l = layers_[i];
    std::vector<std::size_t> from;
    from.reserve(l.inputs.size());
    for (std::size_t u : l.inputs) {
      from.push_back(map[u] == static_cast<std::size_t>(-1) ? 0 : map[u]);
    }
    l.inputs.clear();
    out.add_from(std::move(l), std::move(from));
    map[i] = out.size() - 1;
  }
  return out;
}

Network Network::accelerated_portion() const {
  Network out(name_ + "-accel");
  std::vector<std::size_t> map(layers_.size(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    if (l.kind == LayerKind::kFullyConnected ||
        l.kind == LayerKind::kSoftmax) {
      break;  // paper §7.3 omits the trailing FC stack
    }
    if (l.kind == LayerKind::kRelu && l.inputs.size() == 1) {
      // Fold into the producing conv if it has no other consumer (§7.2);
      // a conv tapped by a skip edge must keep its pre-ReLU output.
      const std::size_t p = l.inputs[0];
      if (map[p] != static_cast<std::size_t>(-1) &&
          out.layers_[map[p]].kind == LayerKind::kConv &&
          consumers(p).size() == 1) {
        std::get<ConvParam>(out.layers_[map[p]].param).fused_relu = true;
        map[i] = map[p];
        continue;
      }
    }
    std::vector<std::size_t> from;
    from.reserve(l.inputs.size());
    bool producers_present = true;
    for (std::size_t u : l.inputs) {
      if (map[u] == static_cast<std::size_t>(-1)) {
        producers_present = false;
        break;
      }
      from.push_back(map[u]);
    }
    if (!producers_present) break;
    Layer copy = l;
    copy.inputs.clear();
    out.add_from(std::move(copy), std::move(from));
    map[i] = out.size() - 1;
  }
  return out;
}

Network Network::coarsen(std::size_t first, std::size_t last,
                         std::string module_name) const {
  if (first == 0 || first > last || last >= layers_.size()) {
    throw std::out_of_range("Network::coarsen range invalid");
  }
  // The module must be a single-entry/single-exit composition: exactly one
  // external producer feeds it, and only layer `last` is read from outside.
  // A chain segment is the degenerate case; an Inception/ResNet module is a
  // parallel composition collapsed to one pseudo-layer.
  std::size_t ext = static_cast<std::size_t>(-1);
  for (std::size_t i = first; i <= last; ++i) {
    for (std::size_t u : layers_[i].inputs) {
      if (u >= first) continue;
      if (ext != static_cast<std::size_t>(-1) && ext != u) {
        throw std::invalid_argument("coarsen: module is not single-entry");
      }
      ext = u;
    }
  }
  for (std::size_t i = first; i < last; ++i) {
    for (std::size_t c : consumers(i)) {
      if (c > last) {
        throw std::invalid_argument("coarsen: module is not single-exit");
      }
    }
  }
  // Synthesize a conv layer with matching shapes. Stride/kernel are chosen
  // so the output shape is exact; op count is annotated via channel fan-in.
  const Shape in = layers_[ext].out;
  const Shape target = layers_[last].out;
  if (in.h % target.h != 0 || in.w % target.w != 0 || in.h / target.h != in.w / target.w) {
    throw std::invalid_argument("coarsen: module shapes not stride-expressible");
  }
  const int stride = in.h / target.h;
  std::int64_t module_mults = 0;
  for (std::size_t i = first; i <= last; ++i) module_mults += layers_[i].mults();
  const std::int64_t denom =
      static_cast<std::int64_t>(stride) * stride * target.elems();
  int fan_in = 0;
  if (module_mults > 0 && denom > 0) {
    fan_in = static_cast<int>(
        std::max<std::int64_t>(1, (module_mults + denom - 1) / denom));
  }
  Network out(name_);
  std::vector<std::size_t> map(layers_.size(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < first; ++i) {
    Layer copy = layers_[i];
    std::vector<std::size_t> from;
    from.reserve(copy.inputs.size());
    for (std::size_t u : copy.inputs) from.push_back(map[u]);
    copy.inputs.clear();
    out.add_from(std::move(copy), std::move(from));
    map[i] = out.size() - 1;
  }
  Layer pseudo{LayerKind::kConv, std::move(module_name),
               ConvParam{target.c, stride, stride, 0, true, fan_in},
               {},
               {},
               {}};
  out.add_from(std::move(pseudo), {map[ext]});
  const std::size_t pseudo_idx = out.size() - 1;
  for (std::size_t i = first; i <= last; ++i) map[i] = pseudo_idx;
  for (std::size_t i = last + 1; i < layers_.size(); ++i) {
    Layer copy = layers_[i];
    std::vector<std::size_t> from;
    from.reserve(copy.inputs.size());
    for (std::size_t u : copy.inputs) from.push_back(map[u]);
    copy.inputs.clear();
    out.add_from(std::move(copy), std::move(from));
    map[i] = out.size() - 1;
  }
  return out;
}

std::int64_t Network::total_ops() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.ops();
  return total;
}

std::int64_t Network::unfused_feature_transfer_bytes(int bytes_per_elem) const {
  // Every edge moves its producer's output once per consumer; every sink
  // layer's output is written back. On a chain this is exactly "input of
  // every layer + output of the last".
  std::int64_t total = 0;
  std::vector<char> has_consumer(layers_.size(), 0);
  for (const auto& l : layers_) {
    for (std::size_t u : l.inputs) {
      total += layers_[u].out.bytes(bytes_per_elem);
      has_consumer[u] = 1;
    }
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (!has_consumer[i]) total += layers_[i].out.bytes(bytes_per_elem);
  }
  return total;
}

void Network::infer_shapes() {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer& l = layers_[i];
    if (l.kind == LayerKind::kInput) {
      l.in = std::get<InputParam>(l.param).shape;
      l.out = l.in;
      continue;
    }
    std::vector<Shape> ins;
    ins.reserve(l.inputs.size());
    for (std::size_t u : l.inputs) {
      if (u >= i) {
        throw std::invalid_argument("layer '" + l.name +
                                    "' has a forward-pointing edge");
      }
      ins.push_back(layers_[u].out);
    }
    l.out = infer_output_shape(l, ins);
    l.in = l.is_merge() ? l.out : ins.front();
  }
}

std::string Network::summary() const {
  std::ostringstream os;
  os << "Network '" << name_ << "' (" << layers_.size() << " layers, "
     << total_ops() / 1.0e9 << " GOP)\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    os << "  [" << i << "] " << to_string(l.kind) << " '" << l.name << "' "
       << l.in.str() << " -> " << l.out.str();
    if (l.kind == LayerKind::kConv) {
      const auto& p = l.conv();
      os << "  k=" << p.kernel << " s=" << p.stride << " p=" << p.pad;
    }
    // Annotate only non-chain edges so chain summaries stay byte-identical.
    if (l.kind != LayerKind::kInput &&
        !(l.inputs.size() == 1 && l.inputs[0] == i - 1)) {
      os << "  <- ";
      for (std::size_t k = 0; k < l.inputs.size(); ++k) {
        if (k) os << ",";
        os << layers_[l.inputs[k]].name;
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace hetacc::nn
