#pragma once
// Reference (golden) executor: straightforward float implementations of all
// layer types. Every accelerated path in the repository is validated against
// this executor.

#include "nn/network.h"
#include "nn/tensor.h"
#include "nn/weights.h"

namespace hetacc::nn {

/// Runs a single layer. `layer_index` selects the weights in `ws`.
[[nodiscard]] Tensor run_layer(const Layer& layer, std::size_t layer_index,
                               const WeightStore& ws, const Tensor& input);

/// Multi-input form: runs a layer on its producer outputs in edge order.
/// Required for the merge kinds (concat / eltwise-add); single-input layers
/// delegate to the overload above.
[[nodiscard]] Tensor run_layer(const Layer& layer, std::size_t layer_index,
                               const WeightStore& ws,
                               const std::vector<const Tensor*>& inputs);

/// Runs the whole network and returns the final output.
[[nodiscard]] Tensor run_network(const Network& net, const WeightStore& ws,
                                 const Tensor& input);

/// Runs the network and returns the output of every layer (index-aligned
/// with the network; entry 0 is the input tensor itself).
[[nodiscard]] std::vector<Tensor> run_network_all(const Network& net,
                                                  const WeightStore& ws,
                                                  const Tensor& input);

// Individual kernels, exposed for targeted tests -------------------------
// conv_reference runs on the blocked im2col+GEMM kernel layer; the retained
// seed loop nest (conv_reference_scalar) stays as the golden baseline for
// equivalence tests and benches.
[[nodiscard]] Tensor conv_reference(const Tensor& in, const FilterBank& f,
                                    const std::vector<float>& bias, int stride,
                                    int pad, bool fused_relu);
[[nodiscard]] Tensor conv_reference_scalar(const Tensor& in,
                                           const FilterBank& f,
                                           const std::vector<float>& bias,
                                           int stride, int pad,
                                           bool fused_relu);
[[nodiscard]] Tensor pool_reference(const Tensor& in, PoolMethod method,
                                    int kernel, int stride, int pad);
[[nodiscard]] Tensor lrn_reference(const Tensor& in, const LrnParam& p);
[[nodiscard]] Tensor relu_reference(const Tensor& in);
[[nodiscard]] Tensor fc_reference(const Tensor& in, const FcWeights& w,
                                  bool fused_relu);
[[nodiscard]] Tensor softmax_reference(const Tensor& in);
[[nodiscard]] Tensor concat_reference(const std::vector<const Tensor*>& ins);
[[nodiscard]] Tensor eltwise_add_reference(
    const std::vector<const Tensor*>& ins);

// Row kernels shared with the streaming engines (arch/engines.cpp), so the
// reference and the pipeline compute every pooled and normalized element by
// the same float operations in the same order.

/// One output row of one channel of a pooling layer. `rows` are the
/// window's `n_rows` in-range input rows (rows in the padding or past
/// Caffe's ceil overhang left out), each `in_w` unpadded floats. Output
/// column j pools input columns [j * stride - pad, j * stride - pad +
/// kernel) clipped to [0, in_w), rows outer; an average divides by the
/// in-range tap count.
void pool_row(PoolMethod method, int kernel, int stride, int pad,
              const float* const* rows, int n_rows, int in_w, float* out,
              int out_w);

/// Local response normalization of one image row. `x` holds `channels`
/// rows of `w` floats, `stride` floats apart, and `out` is laid out the same
/// way (it may be `x`). `sq` (channels * w floats) and `acc` (w floats) are
/// scratch. Each
/// element is squared once, and its window sum adds the squares in
/// ascending channel order.
void lrn_row(const LrnParam& p, int channels, int w, const float* x,
             std::size_t stride, float* sq, float* acc, float* out);

}  // namespace hetacc::nn
