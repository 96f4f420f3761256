#pragma once
// 2-D nested Winograd convolution F(m x m, r x r) over whole feature maps
// (paper §2.1): input split into (m+r-1)^2 tiles stepping by m, transform-
// domain channel accumulation, one inverse transform per output tile.

#include "algo/winograd_transform.h"
#include "kernels/wino_gemm.h"
#include "nn/tensor.h"

namespace hetacc::algo {

/// Filters pre-transformed into the Winograd domain: U[n][m] is an n() x n()
/// matrix per (output, input) channel pair. FPGA flows do this offline; we
/// expose it so tests can check it is computed once, not per tile.
struct TransformedFilters {
  WinogradTransform t;
  int out_channels = 0;
  int in_channels = 0;
  std::vector<Matrix> u;  ///< [out * in_channels + in]

  [[nodiscard]] const Matrix& at(int out, int in) const {
    return u.at(static_cast<std::size_t>(out) * in_channels + in);
  }
};

[[nodiscard]] TransformedFilters transform_filters(const WinogradTransform& t,
                                                   const nn::FilterBank& f);

/// The batched transform-domain GEMM plan of a layer (kernels/wino_gemm.h):
/// each filter pair is transformed (G g G^T) straight into the n^2 packed
/// (out_c x in_c) GEMM planes, with no per-pair Matrix and no row-major
/// plane copy. Every element is bit-identical to the same element of
/// transform_filters(t, f). Built once per layer; the plan is shared across
/// images and engine instances.
[[nodiscard]] kernels::WinogradPlan winograd_plan(const WinogradTransform& t,
                                                  const nn::FilterBank& f);

/// Float Winograd convolution, stride 1 (the algorithm's applicability
/// condition, paper §2.1). `pad` is the conv zero padding.
[[nodiscard]] nn::Tensor winograd_conv(const WinogradTransform& t,
                                       const nn::Tensor& in,
                                       const nn::FilterBank& filters,
                                       const std::vector<float>& bias, int pad,
                                       bool fused_relu);

/// Same but with pre-transformed filters (how an accelerator would run it).
[[nodiscard]] nn::Tensor winograd_conv_pretransformed(
    const TransformedFilters& tf, const nn::Tensor& in,
    const std::vector<float>& bias, int pad, bool fused_relu);

/// 16-bit datapath model: the element-wise multiplier inputs (transformed
/// data and transformed filters) are quantized to 16 bits before the DSP
/// multiply, accumulation is wide, output re-quantized to Q(out_frac).
/// This mirrors a DSP48E-based Winograd PE. Runs on the float band kernel
/// with the plan and V snapped to their Q formats, where the f64 GEMM is
/// exact (kernels::kExactQ16MaxDepth; more input channels than that throw
/// std::invalid_argument).
[[nodiscard]] nn::Tensor winograd_conv_fixed(const WinogradTransform& t,
                                             const nn::Tensor& in,
                                             const nn::FilterBank& filters,
                                             const std::vector<float>& bias,
                                             int pad, bool fused_relu,
                                             int data_frac, int out_frac);

/// Seed per-tile scalar implementation; winograd_conv_fixed is bit-exact
/// against it for any thread count (tested in test_kernels).
[[nodiscard]] nn::Tensor winograd_conv_fixed_scalar(
    const WinogradTransform& t, const nn::Tensor& in,
    const nn::FilterBank& filters, const std::vector<float>& bias, int pad,
    bool fused_relu, int data_frac, int out_frac);

/// Total scalar multiplications Winograd F(mxm,rxr) spends on a conv layer
/// of the given geometry (edge tiles padded to full tiles, as on the FPGA).
[[nodiscard]] long long winograd_layer_mults(const WinogradTransform& t,
                                             int in_channels, int out_channels,
                                             int out_h, int out_w);

}  // namespace hetacc::algo
