#pragma once
// Alternative convolution implementations: im2col+GEMM (the "matrix
// multiplication" structure transformation of paper §1) and the 16-bit
// fixed-point direct convolution used by the conventional PE model.
//
// The hot paths run on the blocked kernels in src/kernels/ and honor the
// kernel-layer thread default (kernels::set_num_threads); the retained
// `*_scalar` variants are the seed implementations, kept as the bit-exactness
// oracles of the fixed-point and int8 paths and as the bench baseline.

#include "algo/int8_quant.h"
#include "nn/tensor.h"

namespace hetacc::algo {

/// im2col lowering: returns the patch matrix with one column per output
/// pixel and one row per (channel, ku, kv) tap.
[[nodiscard]] std::vector<float> im2col(const nn::Tensor& in, int kernel,
                                        int stride, int pad, int out_h,
                                        int out_w);

/// Convolution as GEMM over the im2col matrix. Runs on the cache-blocked
/// packed GEMM; compared against the direct reference in tests.
[[nodiscard]] nn::Tensor conv_im2col(const nn::Tensor& in,
                                     const nn::FilterBank& filters,
                                     const std::vector<float>& bias,
                                     int stride, int pad, bool fused_relu);

/// Direct convolution on a 16-bit fixed datapath: inputs/weights quantized
/// to Q(data_frac)/Q(weight_frac), 32-bit products, wide accumulation,
/// output re-quantized to Q(out_frac). Models a DSP48E MAC tree. Runs as
/// im2col + gemm_f32d on operands snapped to their Q formats, where every
/// product and partial sum is exact in double (kernels::kExactQ16MaxDepth;
/// a deeper in_c * k * k throws std::invalid_argument) — bit-exact with the
/// scalar seed for any thread count.
[[nodiscard]] nn::Tensor conv_direct_fixed(const nn::Tensor& in,
                                           const nn::FilterBank& filters,
                                           const std::vector<float>& bias,
                                           int stride, int pad,
                                           bool fused_relu, int data_frac,
                                           int weight_frac, int out_frac);

/// Seed scalar implementation of conv_direct_fixed (golden bit-exactness
/// reference / bench baseline).
[[nodiscard]] nn::Tensor conv_direct_fixed_scalar(
    const nn::Tensor& in, const nn::FilterBank& filters,
    const std::vector<float>& bias, int stride, int pad, bool fused_relu,
    int data_frac, int weight_frac, int out_frac);

/// Convolution on the int8 datapath: input quantized to the asymmetric i8
/// activation grid of `q`, weights to per-channel symmetric i8, exact i32
/// accumulation via im2col + gemm_i8, requantize-on-writeback to i8 output
/// codes (bias and fused ReLU folded into the epilogue), then dequantized
/// back to a float tensor on the output grid. Bit-exact for any thread count
/// and ISA stamp (see kernels/gemm.h).
[[nodiscard]] nn::Tensor conv_quant_i8(const nn::Tensor& in,
                                       const nn::FilterBank& filters,
                                       const std::vector<float>& bias,
                                       int stride, int pad, bool fused_relu,
                                       const Int8ConvQuant& q);

/// Scalar golden reference of conv_quant_i8: naive loop nest over i8 codes
/// with the same requantize_i32 epilogue — must match bit-for-bit.
[[nodiscard]] nn::Tensor conv_quant_i8_scalar(const nn::Tensor& in,
                                              const nn::FilterBank& filters,
                                              const std::vector<float>& bias,
                                              int stride, int pad,
                                              bool fused_relu,
                                              const Int8ConvQuant& q);

}  // namespace hetacc::algo
