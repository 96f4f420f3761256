#include "algo/conv_variants.h"

#include <algorithm>
#include <cmath>

#include "fixed/fixed16.h"
#include "kernels/arena.h"
#include "kernels/gemm.h"
#include "kernels/parallel.h"

namespace hetacc::algo {

std::vector<float> im2col(const nn::Tensor& in, int kernel, int stride,
                          int pad, int out_h, int out_w) {
  const nn::Shape s = in.shape();
  const std::size_t rows =
      static_cast<std::size_t>(s.c) * kernel * kernel;
  const std::size_t cols = static_cast<std::size_t>(out_h) * out_w;
  std::vector<float> mat(rows * cols);
  kernels::im2col_f32(in.data(), s.c, s.h, s.w, kernel, stride, pad, out_h,
                      out_w, mat.data());
  return mat;
}

nn::Tensor conv_im2col(const nn::Tensor& in, const nn::FilterBank& filters,
                       const std::vector<float>& bias, int stride, int pad,
                       bool fused_relu) {
  const nn::Shape s = in.shape();
  const int k = filters.kernel();
  const int oh = (s.h + 2 * pad - k) / stride + 1;
  const int ow = (s.w + 2 * pad - k) / stride + 1;
  const int cols = oh * ow;
  const int rows = s.c * k * k;

  // The patch matrix is transient: it lives in the scratch arena so repeated
  // convolutions reuse one warm allocation instead of churning the heap.
  kernels::ScratchArena& arena = kernels::ScratchArena::tls();
  kernels::ScratchArena::Scope scope(arena);
  float* mat = arena.alloc<float>(static_cast<std::size_t>(rows) * cols);
  kernels::im2col_f32(in.data(), s.c, s.h, s.w, k, stride, pad, oh, ow, mat,
                      /*threads=*/0);

  nn::Tensor out(filters.out_channels(), oh, ow);
  kernels::gemm_f32(filters.out_channels(), cols, rows, filters.data(), rows,
                    mat, cols, out.data(), cols,
                    bias.empty() ? nullptr : bias.data(), fused_relu,
                    /*threads=*/0);
  return out;
}

nn::Tensor conv_direct_fixed(const nn::Tensor& in,
                             const nn::FilterBank& filters,
                             const std::vector<float>& bias, int stride,
                             int pad, bool fused_relu, int data_frac,
                             int weight_frac, int out_frac) {
  const nn::Shape s = in.shape();
  const int k = filters.kernel();
  const int oh = (s.h + 2 * pad - k) / stride + 1;
  const int ow = (s.w + 2 * pad - k) / stride + 1;
  const int cols = oh * ow;
  const int rows = s.c * k * k;
  kernels::require_exact_q16_depth(rows, "conv_direct_fixed");
  nn::Tensor out(filters.out_channels(), oh, ow);

  // Quantize operands up front (this is what the DDR/BRAM contents are),
  // held as floats on the Q grid. Quantization is elementwise, so the index
  // space chunks freely.
  kernels::ScratchArena& arena = kernels::ScratchArena::tls();
  kernels::ScratchArena::Scope scope(arena);
  float* inq = arena.alloc<float>(static_cast<std::size_t>(in.size()));
  kernels::parallel_for(static_cast<std::size_t>(in.size()), 4096, 0,
                        [&](std::size_t i) {
                          inq[i] = fixed::quantize_to_float(in.data()[i],
                                                            data_frac);
                        });
  float* wq = arena.alloc<float>(static_cast<std::size_t>(filters.size()));
  kernels::parallel_for(
      static_cast<std::size_t>(filters.size()), 4096, 0, [&](std::size_t i) {
        wq[i] = fixed::quantize_to_float(filters.data()[i], weight_frac);
      });

  float* mat = arena.alloc<float>(static_cast<std::size_t>(rows) * cols);
  kernels::im2col_f32(inq, s.c, s.h, s.w, k, stride, pad, oh, ow, mat,
                      /*threads=*/0);
  // acc = the int64 MAC sum times 2^-(data_frac + weight_frac), exactly.
  double* acc = arena.alloc<double>(
      static_cast<std::size_t>(filters.out_channels()) * cols);
  kernels::gemm_f32d(filters.out_channels(), cols, rows, wq, rows, mat, cols,
                     acc, cols, /*bias=*/nullptr, /*relu=*/false,
                     /*threads=*/0);

  kernels::parallel_for(
      static_cast<std::size_t>(filters.out_channels()), [&](std::size_t n) {
        const float b = bias.empty() ? 0.0f : bias[n];
        const double* arow = acc + n * cols;
        float* dst = out.data() + n * cols;
        for (int j = 0; j < cols; ++j) {
          float val = static_cast<float>(arow[j]) + b;
          if (fused_relu) val = std::max(val, 0.0f);
          dst[j] = fixed::quantize_to_float(val, out_frac);
        }
      });
  return out;
}

nn::Tensor conv_quant_i8(const nn::Tensor& in, const nn::FilterBank& filters,
                         const std::vector<float>& bias, int stride, int pad,
                         bool fused_relu, const Int8ConvQuant& q) {
  const nn::Shape s = in.shape();
  const int k = filters.kernel();
  const int oh = (s.h + 2 * pad - k) / stride + 1;
  const int ow = (s.w + 2 * pad - k) / stride + 1;
  const int cols = oh * ow;
  const int rows = s.c * k * k;
  const int out_c = filters.out_channels();

  // Constants of the layer (weights, folded bias, requant scales). The
  // streaming engines derive these once per layer; here they are derived per
  // call — this variant's job is numerics, the engines own amortization.
  const std::vector<std::int8_t> wq = quantize_filters_i8(filters, q);
  const std::vector<std::int32_t> bq = fold_bias_i8(bias, q, wq.data(),
                                                    out_c, rows);
  const std::vector<float> rs = requant_scales(q, out_c);
  const std::int8_t pad_value = quantize_act_i8(0.0f, q.in_scale, q.in_zp);

  kernels::ScratchArena& arena = kernels::ScratchArena::tls();
  kernels::ScratchArena::Scope scope(arena);
  std::int8_t* inq =
      arena.alloc<std::int8_t>(static_cast<std::size_t>(in.size()));
  kernels::parallel_for(static_cast<std::size_t>(in.size()), 4096, 0,
                        [&](std::size_t i) {
                          inq[i] = quantize_act_i8(in.data()[i], q.in_scale,
                                                   q.in_zp);
                        });

  std::int8_t* mat =
      arena.alloc<std::int8_t>(static_cast<std::size_t>(rows) * cols);
  kernels::im2col_i8(inq, s.c, s.h, s.w, k, stride, pad, oh, ow, mat,
                     pad_value, /*threads=*/0);

  std::int8_t* outq =
      arena.alloc<std::int8_t>(static_cast<std::size_t>(out_c) * cols);
  kernels::QuantParams qp;
  qp.scales = rs.data();
  qp.per_channel = true;
  qp.bias = bq.data();
  qp.zero_point = q.out_zp;
  qp.relu = fused_relu;
  kernels::gemm_i8(out_c, cols, rows, wq.data(), rows, mat, cols, outq, cols,
                   qp, /*threads=*/0);

  nn::Tensor out(out_c, oh, ow);
  kernels::parallel_for(
      static_cast<std::size_t>(out_c) * cols, 4096, 0, [&](std::size_t i) {
        out.data()[i] = dequantize_act_i8(outq[i], q.out_scale, q.out_zp);
      });
  return out;
}

nn::Tensor conv_quant_i8_scalar(const nn::Tensor& in,
                                const nn::FilterBank& filters,
                                const std::vector<float>& bias, int stride,
                                int pad, bool fused_relu,
                                const Int8ConvQuant& q) {
  const nn::Shape s = in.shape();
  const int k = filters.kernel();
  const int oh = (s.h + 2 * pad - k) / stride + 1;
  const int ow = (s.w + 2 * pad - k) / stride + 1;
  const int rows = s.c * k * k;
  const int out_c = filters.out_channels();

  const std::vector<std::int8_t> wq = quantize_filters_i8(filters, q);
  const std::vector<std::int32_t> bq = fold_bias_i8(bias, q, wq.data(),
                                                    out_c, rows);
  const std::vector<float> rs = requant_scales(q, out_c);
  const std::int8_t pad_value = quantize_act_i8(0.0f, q.in_scale, q.in_zp);

  std::vector<std::int8_t> inq(static_cast<std::size_t>(in.size()));
  for (std::size_t i = 0; i < inq.size(); ++i) {
    inq[i] = quantize_act_i8(in.data()[i], q.in_scale, q.in_zp);
  }
  const auto in_at = [&](int c, int h, int w) -> std::int32_t {
    if (h < 0 || h >= s.h || w < 0 || w >= s.w) return pad_value;
    return inq[(static_cast<std::size_t>(c) * s.h + h) * s.w + w];
  };

  nn::Tensor out(out_c, oh, ow);
  for (int n = 0; n < out_c; ++n) {
    const std::int8_t* w = wq.data() + static_cast<std::size_t>(n) * rows;
    for (int i = 0; i < oh; ++i) {
      for (int j = 0; j < ow; ++j) {
        std::int32_t acc = bq[static_cast<std::size_t>(n)];
        std::size_t r = 0;
        for (int c = 0; c < s.c; ++c) {
          for (int u = 0; u < k; ++u) {
            for (int v = 0; v < k; ++v, ++r) {
              acc += static_cast<std::int32_t>(w[r]) *
                     in_at(c, i * stride + u - pad, j * stride + v - pad);
            }
          }
        }
        const std::int8_t oq = kernels::requantize_i32(
            acc, rs[static_cast<std::size_t>(n)], q.out_zp, fused_relu);
        out.at(n, i, j) = dequantize_act_i8(oq, q.out_scale, q.out_zp);
      }
    }
  }
  return out;
}

nn::Tensor conv_direct_fixed_scalar(const nn::Tensor& in,
                                    const nn::FilterBank& filters,
                                    const std::vector<float>& bias, int stride,
                                    int pad, bool fused_relu, int data_frac,
                                    int weight_frac, int out_frac) {
  using fixed::Fixed16;
  const nn::Shape s = in.shape();
  const int k = filters.kernel();
  const int oh = (s.h + 2 * pad - k) / stride + 1;
  const int ow = (s.w + 2 * pad - k) / stride + 1;
  nn::Tensor out(filters.out_channels(), oh, ow);

  std::vector<std::int16_t> inq(static_cast<std::size_t>(in.size()));
  for (std::size_t i = 0; i < inq.size(); ++i) {
    inq[i] = Fixed16::quantize(in.data()[i], data_frac);
  }
  std::vector<std::int16_t> wq(static_cast<std::size_t>(filters.size()));
  for (std::size_t i = 0; i < wq.size(); ++i) {
    wq[i] = Fixed16::quantize(filters.data()[i], weight_frac);
  }

  const auto in_at = [&](int c, int h, int w) -> std::int32_t {
    if (h < 0 || h >= s.h || w < 0 || w >= s.w) return 0;
    return inq[(static_cast<std::size_t>(c) * s.h + h) * s.w + w];
  };

  const double scale = std::ldexp(1.0, -(data_frac + weight_frac));
  for (int n = 0; n < filters.out_channels(); ++n) {
    const float b = bias.empty() ? 0.0f : bias[n];
    for (int i = 0; i < oh; ++i) {
      for (int j = 0; j < ow; ++j) {
        std::int64_t acc = 0;
        for (int c = 0; c < s.c; ++c) {
          for (int u = 0; u < k; ++u) {
            for (int v = 0; v < k; ++v) {
              const std::int32_t x = in_at(c, i * stride + u - pad,
                                           j * stride + v - pad);
              const std::int32_t w =
                  wq[((static_cast<std::size_t>(n) * s.c + c) * k + u) * k + v];
              acc += x * w;
            }
          }
        }
        float val = static_cast<float>(static_cast<double>(acc) * scale) + b;
        if (fused_relu) val = std::max(val, 0.0f);
        out.at(n, i, j) = fixed::quantize_to_float(val, out_frac);
      }
    }
  }
  return out;
}

}  // namespace hetacc::algo
