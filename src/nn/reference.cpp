#include "nn/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"

namespace hetacc::nn {

Tensor conv_reference(const Tensor& in, const FilterBank& f,
                      const std::vector<float>& bias, int stride, int pad,
                      bool fused_relu) {
  const Shape is = in.shape();
  if (is.c != f.in_channels()) {
    throw std::invalid_argument("conv_reference: channel mismatch");
  }
  const int k = f.kernel();
  const int oh = (is.h + 2 * pad - k) / stride + 1;
  const int ow = (is.w + 2 * pad - k) / stride + 1;
  Tensor out(f.out_channels(), oh, ow);
  const int cols = oh * ow;
  const int rows = is.c * k * k;
  kernels::ScratchArena& arena = kernels::ScratchArena::tls();
  kernels::ScratchArena::Scope scope(arena);
  float* mat = arena.alloc<float>(static_cast<std::size_t>(rows) * cols);
  kernels::im2col_f32(in.data(), is.c, is.h, is.w, k, stride, pad, oh, ow, mat,
                      /*threads=*/0);
  kernels::gemm_f32(f.out_channels(), cols, rows, f.data(), rows, mat, cols,
                    out.data(), cols, bias.empty() ? nullptr : bias.data(),
                    fused_relu, /*threads=*/0);
  return out;
}

Tensor conv_reference_scalar(const Tensor& in, const FilterBank& f,
                             const std::vector<float>& bias, int stride,
                             int pad, bool fused_relu) {
  const Shape is = in.shape();
  if (is.c != f.in_channels()) {
    throw std::invalid_argument("conv_reference: channel mismatch");
  }
  const int k = f.kernel();
  const int oh = (is.h + 2 * pad - k) / stride + 1;
  const int ow = (is.w + 2 * pad - k) / stride + 1;
  Tensor out(f.out_channels(), oh, ow);
  for (int n = 0; n < f.out_channels(); ++n) {
    const float b = bias.empty() ? 0.0f : bias[n];
    for (int i = 0; i < oh; ++i) {
      for (int j = 0; j < ow; ++j) {
        float acc = b;
        for (int m = 0; m < is.c; ++m) {
          for (int u = 0; u < k; ++u) {
            const int h = i * stride + u - pad;
            if (h < 0 || h >= is.h) continue;
            for (int v = 0; v < k; ++v) {
              const int w = j * stride + v - pad;
              if (w < 0 || w >= is.w) continue;
              acc += in.at(m, h, w) * f.at(n, m, u, v);
            }
          }
        }
        out.at(n, i, j) = fused_relu ? std::max(acc, 0.0f) : acc;
      }
    }
  }
  return out;
}

void pool_row(PoolMethod method, int kernel, int stride, int pad,
              const float* const* rows, int n_rows, int in_w, float* out,
              int out_w) {
  for (int j = 0; j < out_w; ++j) {
    const int w0 = j * stride - pad;
    const int lo = std::max(w0, 0);
    const int hi = std::min(w0 + kernel, in_w);
    if (method == PoolMethod::kMax) {
      float best = -std::numeric_limits<float>::infinity();
      for (int u = 0; u < n_rows; ++u) {
        for (int w = lo; w < hi; ++w) best = std::max(best, rows[u][w]);
      }
      out[j] = best;
    } else {
      float sum = 0.0f;
      for (int u = 0; u < n_rows; ++u) {
        for (int w = lo; w < hi; ++w) sum += rows[u][w];
      }
      const int count = n_rows * std::max(hi - lo, 0);
      out[j] = count ? sum / static_cast<float>(count) : 0.0f;
    }
  }
}

void lrn_row(const LrnParam& p, int channels, int w, const float* x,
             std::size_t stride, float* sq, float* acc, float* out) {
  for (int c = 0; c < channels; ++c) {
    const float* xc = x + static_cast<std::size_t>(c) * stride;
    float* sc = sq + static_cast<std::size_t>(c) * w;
    for (int i = 0; i < w; ++i) sc[i] = xc[i] * xc[i];
  }
  const int half = p.local_size / 2;
  const float scale = p.alpha / static_cast<float>(p.local_size);
  for (int c = 0; c < channels; ++c) {
    const int lo = std::max(0, c - half);
    const int hi = std::min(channels - 1, c + half);
    std::fill(acc, acc + w, 0.0f);
    for (int cc = lo; cc <= hi; ++cc) {
      const float* sc = sq + static_cast<std::size_t>(cc) * w;
      for (int i = 0; i < w; ++i) acc[i] += sc[i];
    }
    const float* xc = x + static_cast<std::size_t>(c) * stride;
    float* oc = out + static_cast<std::size_t>(c) * stride;
    for (int i = 0; i < w; ++i) {
      oc[i] = xc[i] / std::pow(p.k + scale * acc[i], p.beta);
    }
  }
}

Tensor pool_reference(const Tensor& in, PoolMethod method, int kernel,
                      int stride, int pad) {
  const Shape is = in.shape();
  Layer tmp{LayerKind::kPool, "tmp", PoolParam{method, kernel, stride, pad},
            is, {}, {}};
  const Shape os = infer_output_shape(tmp, is);
  Tensor out(os.c, os.h, os.w);
  std::vector<const float*> rows(static_cast<std::size_t>(kernel));
  for (int c = 0; c < is.c; ++c) {
    for (int i = 0; i < os.h; ++i) {
      const int h0 = i * stride - pad;
      const int lo = std::max(h0, 0);
      const int hi = std::min(h0 + kernel, is.h);
      for (int h = lo; h < hi; ++h) rows[h - lo] = in.row_ptr(c, h);
      pool_row(method, kernel, stride, pad, rows.data(), std::max(hi - lo, 0),
               is.w, out.row_ptr(c, i), os.w);
    }
  }
  return out;
}

Tensor lrn_reference(const Tensor& in, const LrnParam& p) {
  const Shape s = in.shape();
  Tensor out(s.c, s.h, s.w);
  std::vector<float> sq(static_cast<std::size_t>(s.c) * s.w);
  std::vector<float> acc(static_cast<std::size_t>(s.w));
  const std::size_t plane = static_cast<std::size_t>(s.h) * s.w;
  for (int h = 0; h < s.h; ++h) {
    const std::size_t off = static_cast<std::size_t>(h) * s.w;
    lrn_row(p, s.c, s.w, in.data() + off, plane, sq.data(), acc.data(),
            out.data() + off);
  }
  return out;
}

Tensor relu_reference(const Tensor& in) {
  Tensor out = in;
  for (auto& x : out.vec()) x = std::max(x, 0.0f);
  return out;
}

Tensor fc_reference(const Tensor& in, const FcWeights& w, bool fused_relu) {
  const auto in_elems = static_cast<std::size_t>(in.size());
  const auto out_features = w.bias.size();
  if (w.matrix.size() != out_features * in_elems) {
    throw std::invalid_argument("fc_reference: weight size mismatch");
  }
  Tensor out(static_cast<int>(out_features), 1, 1);
  // Parallel across output features in chunked claims (one feature is a
  // short dot product, so per-index cursor traffic would dominate); each
  // feature's accumulation chain is untouched, so results are bit-identical
  // for any thread count and any grain.
  kernels::parallel_for(out_features, 8, 0, [&](std::size_t o) {
    float acc = w.bias[o];
    const float* row = w.matrix.data() + o * in_elems;
    const float* x = in.data();
    for (std::size_t i = 0; i < in_elems; ++i) acc += row[i] * x[i];
    out.data()[o] = fused_relu ? std::max(acc, 0.0f) : acc;
  });
  return out;
}

Tensor softmax_reference(const Tensor& in) {
  Tensor out = in;
  float mx = -std::numeric_limits<float>::infinity();
  for (float x : in.vec()) mx = std::max(mx, x);
  float sum = 0.0f;
  for (auto& x : out.vec()) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (auto& x : out.vec()) x /= sum;
  return out;
}

Tensor concat_reference(const std::vector<const Tensor*>& ins) {
  if (ins.size() < 2) {
    throw std::invalid_argument("concat_reference: needs >= 2 inputs");
  }
  const Shape first = ins.front()->shape();
  int channels = 0;
  for (const Tensor* t : ins) {
    const Shape s = t->shape();
    if (s.h != first.h || s.w != first.w) {
      throw std::invalid_argument("concat_reference: spatial dim mismatch");
    }
    channels += s.c;
  }
  Tensor out(channels, first.h, first.w);
  float* dst = out.data();
  for (const Tensor* t : ins) {
    std::copy(t->data(), t->data() + t->size(), dst);
    dst += t->size();
  }
  return out;
}

Tensor eltwise_add_reference(const std::vector<const Tensor*>& ins) {
  if (ins.size() < 2) {
    throw std::invalid_argument("eltwise_add_reference: needs >= 2 inputs");
  }
  Tensor out = *ins.front();
  for (std::size_t k = 1; k < ins.size(); ++k) {
    if (ins[k]->shape() != out.shape()) {
      throw std::invalid_argument("eltwise_add_reference: shape mismatch");
    }
    const float* src = ins[k]->data();
    float* dst = out.data();
    for (std::size_t i = 0; i < static_cast<std::size_t>(out.size()); ++i) {
      dst[i] += src[i];
    }
  }
  return out;
}

Tensor run_layer(const Layer& layer, std::size_t layer_index,
                 const WeightStore& ws, const Tensor& input) {
  switch (layer.kind) {
    case LayerKind::kInput:
      return input;
    case LayerKind::kConv: {
      const auto& p = layer.conv();
      const auto& w = ws.conv(layer_index);
      return conv_reference(input, w.filters, w.bias, p.stride, p.pad,
                            p.fused_relu);
    }
    case LayerKind::kPool: {
      const auto& p = layer.pool();
      return pool_reference(input, p.method, p.kernel, p.stride, p.pad);
    }
    case LayerKind::kLrn:
      return lrn_reference(input, layer.lrn());
    case LayerKind::kRelu:
      return relu_reference(input);
    case LayerKind::kFullyConnected:
      return fc_reference(input, ws.fc(layer_index), layer.fc().fused_relu);
    case LayerKind::kSoftmax:
      return softmax_reference(input);
    case LayerKind::kEltwiseAdd:
    case LayerKind::kConcat:
      throw std::invalid_argument("run_layer: merge layer '" + layer.name +
                                  "' needs the multi-input overload");
  }
  throw std::logic_error("run_layer: unknown kind");
}

Tensor run_layer(const Layer& layer, std::size_t layer_index,
                 const WeightStore& ws,
                 const std::vector<const Tensor*>& inputs) {
  switch (layer.kind) {
    case LayerKind::kConcat:
      return concat_reference(inputs);
    case LayerKind::kEltwiseAdd:
      return eltwise_add_reference(inputs);
    default:
      if (inputs.size() != 1) {
        throw std::invalid_argument("run_layer: layer '" + layer.name +
                                    "' takes exactly one input");
      }
      return run_layer(layer, layer_index, ws, *inputs.front());
  }
}

Tensor run_network(const Network& net, const WeightStore& ws,
                   const Tensor& input) {
  if (net.is_chain()) {
    Tensor cur = input;
    for (std::size_t i = 0; i < net.size(); ++i) {
      cur = run_layer(net[i], i, ws, cur);
    }
    return cur;
  }
  std::vector<Tensor> outs = run_network_all(net, ws, input);
  return outs.empty() ? input : std::move(outs.back());
}

std::vector<Tensor> run_network_all(const Network& net, const WeightStore& ws,
                                    const Tensor& input) {
  std::vector<Tensor> outs;
  outs.reserve(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Layer& l = net[i];
    if (i == 0) {
      outs.push_back(run_layer(l, i, ws, input));
      continue;
    }
    std::vector<const Tensor*> ins;
    ins.reserve(l.inputs.size());
    for (std::size_t u : l.inputs) ins.push_back(&outs[u]);
    outs.push_back(run_layer(l, i, ws, ins));
  }
  return outs;
}

}  // namespace hetacc::nn
