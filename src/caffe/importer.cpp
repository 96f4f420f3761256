#include "caffe/importer.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "nn/model_zoo.h"
#include "support/error.h"

namespace hetacc::caffe {

namespace {

/// Checked double -> int conversion for dimension/parameter fields. The
/// blind static_cast this replaces was undefined behavior for the
/// overflowing literals a fuzzer (or a corrupted deploy file) produces.
int checked_dim(const Value& v, const char* what) {
  const double* d = std::get_if<double>(&v);
  if (!d) {
    throw ParseError(std::string("caffe import: ") + what +
                     " must be numeric");
  }
  if (!(std::floor(*d) == *d) || !(*d >= -2147483648.0) ||
      !(*d <= 2147483647.0)) {
    throw ParseError(std::string("caffe import: ") + what + " value " +
                     std::to_string(*d) + " is not a valid integer");
  }
  return static_cast<int>(*d);
}

/// Message::integer (already range-checked) narrowed to int.
int checked_int(const Message& p, const std::string& key, long long fallback,
                const char* what) {
  const long long v = p.integer(key, fallback);
  if (v < -2147483648ll || v > 2147483647ll) {
    throw ParseError(std::string("caffe import: ") + what + " field '" + key +
                     "' value " + std::to_string(v) + " overflows");
  }
  return static_cast<int>(v);
}

nn::Shape input_shape_of(const Message& root) {
  // Classic header: input: "data" + 4x input_dim (N, C, H, W).
  if (root.count("input_dim") == 4) {
    const auto& dims = root.all("input_dim");
    return nn::Shape{checked_dim(dims[1], "input_dim"),
                     checked_dim(dims[2], "input_dim"),
                     checked_dim(dims[3], "input_dim")};
  }
  // input_shape { dim: ... } header.
  if (const Message* is = root.child("input_shape")) {
    const auto& dims = is->all("dim");
    if (dims.size() == 4) {
      return nn::Shape{checked_dim(dims[1], "input_shape.dim"),
                       checked_dim(dims[2], "input_shape.dim"),
                       checked_dim(dims[3], "input_shape.dim")};
    }
  }
  // Modern style: layer { type: "Input" input_param { shape { dim ... } } }.
  for (const char* key : {"layer", "layers"}) {
    for (const Message* l : root.children(key)) {
      if (l->str("type") != "Input") continue;
      const Message* ip = l->child("input_param");
      const Message* shape = ip ? ip->child("shape") : nullptr;
      if (!shape) continue;
      const auto& dims = shape->all("dim");
      if (dims.size() != 4) {
        throw ParseError("caffe import: Input layer needs 4 dims");
      }
      return nn::Shape{checked_dim(dims[1], "input_param.shape.dim"),
                       checked_dim(dims[2], "input_param.shape.dim"),
                       checked_dim(dims[3], "input_param.shape.dim")};
    }
  }
  throw ParseError("caffe import: no input shape found");
}

int kernel_of(const Message& p, const char* what) {
  const int k = checked_int(p, "kernel_size", 0, what);
  if (k <= 0) {
    throw ParseError(std::string("caffe import: ") + what +
                     " without kernel_size");
  }
  return k;
}

}  // namespace

namespace {

/// A layer block lifted out of the parse tree: type, name, blob edges and
/// the source line for error reporting.
struct RawLayer {
  const Message* msg = nullptr;
  std::string type;
  std::string name;
  std::vector<std::string> bottoms;
  std::vector<std::string> tops;
  int line = 0;
};

std::vector<std::string> blob_list(const Message& m, const std::string& key,
                                   const std::string& layer_name, int line) {
  std::vector<std::string> out;
  if (!m.has(key)) return out;
  for (const Value& v : m.all(key)) {
    const std::string* s = std::get_if<std::string>(&v);
    if (!s) {
      throw ParseError("caffe import: " + key + " of layer '" + layer_name +
                           "' must be a quoted blob name",
                       line);
    }
    out.push_back(*s);
  }
  return out;
}

}  // namespace

nn::Network import_prototxt(std::string_view text) {
  const Message root = parse_prototxt(text);
  nn::Network net(root.str("name", "caffe-net"));
  net.input(input_shape_of(root));

  std::vector<const Message*> layers = root.children("layer");
  if (layers.empty()) layers = root.children("layers");

  // Pass 1: lift every layer block and record the full set of top names, so
  // an unresolved bottom can be diagnosed precisely: produced later in the
  // file (a cycle under declaration order) vs. never produced (dangling).
  std::vector<RawLayer> raw;
  raw.reserve(layers.size());
  std::map<std::string, int> top_decl_line;
  for (const Message* l : layers) {
    RawLayer r;
    r.msg = l;
    r.type = l->str("type");
    r.name = l->str("name", r.type);
    r.line = l->line();
    r.bottoms = blob_list(*l, "bottom", r.name, r.line);
    r.tops = blob_list(*l, "top", r.name, r.line);
    for (const std::string& t : r.tops) {
      top_decl_line.emplace(t, r.line);
    }
    raw.push_back(std::move(r));
  }

  // Blob name -> producing layer index in `net`. Caffe's implicit input blob
  // is always available; modern Input layers rebind their top to it.
  std::map<std::string, std::size_t> blob;
  blob["data"] = 0;

  auto resolve = [&](const RawLayer& r,
                     const std::string& b) -> std::size_t {
    auto it = blob.find(b);
    if (it != blob.end()) return it->second;
    auto later = top_decl_line.find(b);
    if (later != top_decl_line.end()) {
      throw ParseError("caffe import: bottom '" + b + "' of layer '" +
                           r.name + "' is produced later (line " +
                           std::to_string(later->second) +
                           ") — layers must be declared in topological "
                           "order (cyclic graph?)",
                       r.line);
    }
    throw ParseError("caffe import: dangling bottom '" + b + "' of layer '" +
                         r.name + "' (no earlier layer produces it)",
                     r.line);
  };

  // Binds layer `idx` as the producer of r's top blobs. A top may legally
  // rebind an existing blob only in-place (top appears among the bottoms);
  // two independent producers of one blob are a graph error.
  auto bind_tops = [&](const RawLayer& r, std::size_t idx) {
    for (const std::string& t : r.tops) {
      const bool in_place =
          std::find(r.bottoms.begin(), r.bottoms.end(), t) != r.bottoms.end();
      if (!in_place && blob.contains(t)) {
        throw ParseError("caffe import: duplicate top '" + t + "' (layer '" +
                             r.name + "' redefines a blob it does not "
                             "consume in-place)",
                         r.line);
      }
      blob[t] = idx;
    }
  };

  for (const RawLayer& r : raw) {
    if (r.type == "Input" || r.type == "Data") {
      // Shape header handled above; the top blob aliases the net input.
      bind_tops(r, 0);
      continue;
    }
    // Producer indices: explicit bottoms when present, otherwise the
    // previous layer (classic chain deploy files omit bottom/top).
    std::vector<std::size_t> ins;
    ins.reserve(std::max<std::size_t>(r.bottoms.size(), 1));
    for (const std::string& b : r.bottoms) ins.push_back(resolve(r, b));
    if (ins.empty()) ins.push_back(net.size() - 1);

    if (r.type == "Dropout") {  // inference no-op: alias top to bottom
      if (ins.size() != 1) {
        throw ParseError("caffe import: Dropout '" + r.name +
                             "' takes exactly one bottom",
                         r.line);
      }
      bind_tops(r, ins.front());
      continue;
    }

    const bool is_merge_type = r.type == "Concat" || r.type == "Eltwise";
    if (!is_merge_type && ins.size() != 1) {
      throw ParseError("caffe import: layer '" + r.name + "' of type '" +
                           r.type + "' takes exactly one bottom, got " +
                           std::to_string(ins.size()),
                       r.line);
    }
    if (r.tops.size() > 1) {
      throw ParseError("caffe import: layer '" + r.name +
                           "' has multiple tops (unsupported)",
                       r.line);
    }

    if (r.type == "Convolution") {
      const Message* p = r.msg->child("convolution_param");
      if (!p) {
        throw ParseError("caffe import: conv '" + r.name +
                             "' without convolution_param",
                         r.line);
      }
      const std::size_t idx =
          net.conv_from(ins.front(),
                        checked_int(*p, "num_output", 0, "Convolution"),
                        kernel_of(*p, "Convolution"),
                        checked_int(*p, "stride", 1, "Convolution"),
                        checked_int(*p, "pad", 0, "Convolution"), r.name,
                        /*fused_relu=*/false);
      bind_tops(r, idx);
    } else if (r.type == "ReLU") {
      // In-place ReLU folds into the producing conv (paper §7.2); "in
      // place" means top == bottom, or a classic chain file with neither.
      const std::size_t p = ins.front();
      const bool in_place = r.tops.empty() || r.tops == r.bottoms;
      if (in_place && net[p].kind == nn::LayerKind::kConv) {
        std::get<nn::ConvParam>(net[p].param).fused_relu = true;
        bind_tops(r, p);
      } else {
        const std::size_t idx = net.relu_from(p, r.name);
        bind_tops(r, idx);
      }
    } else if (r.type == "Pooling") {
      const Message* p = r.msg->child("pooling_param");
      if (!p) {
        throw ParseError("caffe import: pool '" + r.name +
                             "' without pooling_param",
                         r.line);
      }
      const std::string method = p->str("pool", "MAX");
      const int k = kernel_of(*p, "Pooling");
      const int stride = checked_int(*p, "stride", 1, "Pooling");
      const int pad = checked_int(*p, "pad", 0, "Pooling");
      std::size_t idx = 0;
      if (method == "MAX") {
        idx = net.max_pool_from(ins.front(), k, stride, r.name, pad);
      } else if (method == "AVE") {
        idx = net.avg_pool_from(ins.front(), k, stride, r.name, pad);
      } else {
        throw ParseError("caffe import: pool method '" + method +
                             "' unsupported",
                         r.line);
      }
      bind_tops(r, idx);
    } else if (r.type == "LRN") {
      const Message* p = r.msg->child("lrn_param");
      nn::LrnParam lp;
      lp.local_size = p ? checked_int(*p, "local_size", 5, "LRN") : 5;
      lp.alpha = p ? static_cast<float>(p->number("alpha", 1e-4)) : 1e-4f;
      lp.beta = p ? static_cast<float>(p->number("beta", 0.75)) : 0.75f;
      net.add_from(nn::Layer{nn::LayerKind::kLrn, r.name, lp, {}, {}, {}},
                   {ins.front()});
      bind_tops(r, net.size() - 1);
    } else if (r.type == "InnerProduct") {
      const Message* p = r.msg->child("inner_product_param");
      if (!p) {
        throw ParseError("caffe import: fc '" + r.name +
                             "' without inner_product_param",
                         r.line);
      }
      nn::FcParam fp;
      fp.out_features = checked_int(*p, "num_output", 0, "InnerProduct");
      net.add_from(
          nn::Layer{nn::LayerKind::kFullyConnected, r.name, fp, {}, {}, {}},
          {ins.front()});
      bind_tops(r, net.size() - 1);
    } else if (r.type == "Softmax" || r.type == "SoftmaxWithLoss") {
      net.add_from(nn::Layer{nn::LayerKind::kSoftmax, r.name,
                             nn::SoftmaxParam{}, {}, {}, {}},
                   {ins.front()});
      bind_tops(r, net.size() - 1);
    } else if (r.type == "Concat") {
      if (const Message* p = r.msg->child("concat_param")) {
        const int axis = checked_int(*p, "axis", 1, "Concat");
        if (axis != 1) {
          throw ParseError("caffe import: Concat '" + r.name +
                               "' axis " + std::to_string(axis) +
                               " unsupported (only channel concat)",
                           r.line);
        }
      }
      if (ins.size() < 2) {
        throw ParseError("caffe import: Concat '" + r.name +
                             "' needs >= 2 bottoms",
                         r.line);
      }
      bind_tops(r, net.concat(ins, r.name));
    } else if (r.type == "Eltwise") {
      if (const Message* p = r.msg->child("eltwise_param")) {
        const std::string op = p->str("operation", "SUM");
        if (op != "SUM") {
          throw ParseError("caffe import: Eltwise '" + r.name +
                               "' operation " + op +
                               " unsupported (only SUM)",
                           r.line);
        }
      }
      if (ins.size() < 2) {
        throw ParseError("caffe import: Eltwise '" + r.name +
                             "' needs >= 2 bottoms",
                         r.line);
      }
      bind_tops(r, net.eltwise_add(ins, r.name));
    } else {
      throw ParseError("caffe import: unsupported layer type '" + r.type +
                           "' (layer '" + r.name + "')",
                       r.line);
    }
  }
  return net;
}

nn::Network import_prototxt_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open prototxt file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return import_prototxt(ss.str());
}

std::string export_prototxt(const nn::Network& net) {
  std::ostringstream os;
  os << "name: \"" << net.name() << "\"\n";
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& l = net[i];
    if (l.kind == nn::LayerKind::kInput) {
      os << "input: \"data\"\n";
      os << "input_dim: 1\ninput_dim: " << l.out.c << "\ninput_dim: "
         << l.out.h << "\ninput_dim: " << l.out.w << "\n";
      continue;
    }
    os << "layer {\n  name: \"" << l.name << "\"\n";
    for (std::size_t u : l.inputs) {
      os << "  bottom: \""
         << (net[u].kind == nn::LayerKind::kInput ? std::string("data")
                                                  : net[u].name)
         << "\"\n";
    }
    os << "  top: \"" << l.name << "\"\n";
    switch (l.kind) {
      case nn::LayerKind::kConv: {
        const auto& p = l.conv();
        os << "  type: \"Convolution\"\n  convolution_param {\n"
           << "    num_output: " << p.out_channels << "\n    kernel_size: "
           << p.kernel << "\n    stride: " << p.stride << "\n    pad: "
           << p.pad << "\n  }\n";
        break;
      }
      case nn::LayerKind::kPool: {
        const auto& p = l.pool();
        os << "  type: \"Pooling\"\n  pooling_param {\n    pool: "
           << (p.method == nn::PoolMethod::kMax ? "MAX" : "AVE")
           << "\n    kernel_size: " << p.kernel << "\n    stride: "
           << p.stride << "\n";
        if (p.pad) os << "    pad: " << p.pad << "\n";
        os << "  }\n";
        break;
      }
      case nn::LayerKind::kLrn: {
        const auto& p = l.lrn();
        os << "  type: \"LRN\"\n  lrn_param {\n    local_size: "
           << p.local_size << "\n    alpha: " << p.alpha << "\n    beta: "
           << p.beta << "\n  }\n";
        break;
      }
      case nn::LayerKind::kRelu:
        os << "  type: \"ReLU\"\n";
        break;
      case nn::LayerKind::kFullyConnected:
        os << "  type: \"InnerProduct\"\n  inner_product_param {\n"
           << "    num_output: " << l.fc().out_features << "\n  }\n";
        break;
      case nn::LayerKind::kSoftmax:
        os << "  type: \"Softmax\"\n";
        break;
      case nn::LayerKind::kConcat:
        os << "  type: \"Concat\"\n  concat_param {\n    axis: 1\n  }\n";
        break;
      case nn::LayerKind::kEltwiseAdd:
        os << "  type: \"Eltwise\"\n  eltwise_param {\n"
           << "    operation: SUM\n  }\n";
        break;
      case nn::LayerKind::kInput:
        break;
    }
    os << "}\n";
    // Emit the folded ReLU as an explicit in-place layer so round-trips
    // preserve activation semantics.
    if (l.kind == nn::LayerKind::kConv && l.conv().fused_relu) {
      os << "layer {\n  name: \"" << l.name << "_relu\"\n  type: \"ReLU\"\n"
         << "  bottom: \"" << l.name << "\"\n  top: \"" << l.name
         << "\"\n}\n";
    }
  }
  return os.str();
}

std::string alexnet_prototxt() {
  return export_prototxt(nn::alexnet());
}

std::string vgg_e_prototxt() {
  return export_prototxt(nn::vgg_e());
}

}  // namespace hetacc::caffe
