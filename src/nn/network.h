#pragma once
// Network container + builder. Layers are stored in topological order with
// backward-pointing edges (Layer::inputs), so the container represents a
// series-parallel DAG: plain chains (every layer feeds the next), Inception
// modules (branch + channel concat) and ResNet blocks (branch + eltwise
// add). GoogLeNet-style module graphs can still be coarsened into a single
// pseudo-layer (paper §7.1) via `coarsen`, which now collapses a parallel
// composition; the chain case is the degenerate form.

#include <optional>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace hetacc::nn {

class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Appends a layer consuming the previous layer (chain edge). Shapes are
  /// inferred immediately so callers can chain builder calls and read
  /// `back().out`.
  Layer& add(Layer layer);

  /// Appends a layer consuming the given producer layers. All indices must
  /// refer to existing layers (< size()), which keeps the layer vector a
  /// valid topological order by construction. Merge kinds take >= 2 inputs;
  /// every other non-input kind takes exactly 1.
  Layer& add_from(Layer layer, std::vector<std::size_t> from);

  // Chain builder helpers --------------------------------------------------
  Layer& input(Shape s, std::string name = "data");
  Layer& conv(int out_channels, int kernel, int stride, int pad,
              std::string name, bool fused_relu = true);
  Layer& max_pool(int kernel, int stride, std::string name, int pad = 0);
  Layer& avg_pool(int kernel, int stride, std::string name, int pad = 0);
  Layer& lrn(int local_size, float alpha, float beta, std::string name);
  Layer& relu(std::string name);
  Layer& fc(int out_features, std::string name, bool fused_relu = true);
  Layer& softmax(std::string name = "prob");

  // Graph builder helpers: explicit producer(s), return the new layer's
  // index for later edge references.
  std::size_t conv_from(std::size_t from, int out_channels, int kernel,
                        int stride, int pad, std::string name,
                        bool fused_relu = true);
  std::size_t max_pool_from(std::size_t from, int kernel, int stride,
                            std::string name, int pad = 0);
  std::size_t avg_pool_from(std::size_t from, int kernel, int stride,
                            std::string name, int pad = 0);
  std::size_t relu_from(std::size_t from, std::string name);
  std::size_t concat(std::vector<std::size_t> from, std::string name);
  std::size_t eltwise_add(std::vector<std::size_t> from, std::string name);

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] bool empty() const { return layers_.empty(); }
  [[nodiscard]] const Layer& operator[](std::size_t i) const {
    return layers_.at(i);
  }
  [[nodiscard]] Layer& operator[](std::size_t i) { return layers_.at(i); }
  [[nodiscard]] auto begin() const { return layers_.begin(); }
  [[nodiscard]] auto end() const { return layers_.end(); }
  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }

  [[nodiscard]] std::optional<std::size_t> find(std::string_view name) const;

  /// True when every layer i > 0 consumes exactly layer i-1 — the linear
  /// world the paper's chain DP was written for.
  [[nodiscard]] bool is_chain() const;

  /// Indices of the layers consuming layer i's output, ascending.
  [[nodiscard]] std::vector<std::size_t> consumers(std::size_t i) const;

  /// Sub-network consisting of layers [first, last] (inclusive), preceded by
  /// a synthetic input layer matching the range's single external input.
  /// This is how experiment harnesses carve out "the first five
  /// convolutional layers and two pooling layers" of VGG (paper §7.2).
  /// Throws std::invalid_argument if the range reads more than one external
  /// producer (not single-entry).
  [[nodiscard]] Network slice(std::size_t first, std::size_t last,
                              std::string name) const;

  /// Network with only the layers the FPGA accelerator processes: the paper
  /// omits trailing FC/softmax layers (§7.3) and folds standalone ReLU into
  /// the preceding convolution when that conv has no other consumer (§7.2).
  [[nodiscard]] Network accelerated_portion() const;

  /// Replaces layers [first, last] by a single conv pseudo-layer with the
  /// same input/output shapes — the "treat every module as a single layer"
  /// coarsening of §7.1. The range must be single-entry/single-exit (a
  /// series or parallel composition); its op count is carried by the pseudo
  /// layer via the ConvParam::fan_in annotation. Chains are the degenerate
  /// case. Throws std::out_of_range on a bad range, std::invalid_argument on
  /// non-SESE or non-stride-expressible modules.
  [[nodiscard]] Network coarsen(std::size_t first, std::size_t last,
                                std::string module_name) const;

  [[nodiscard]] std::int64_t total_ops() const;
  /// Total feature-map bytes moved if every layer spills to DDR: each edge
  /// transfers its producer's output once per consumer, plus the outputs of
  /// all sink layers, at `bytes_per_elem` width. On chains this reduces to
  /// the input of every layer + the output of the last.
  [[nodiscard]] std::int64_t unfused_feature_transfer_bytes(
      int bytes_per_elem = 2) const;

  /// Re-runs shape inference along the edges; throws on inconsistency.
  void infer_shapes();

  [[nodiscard]] std::string summary() const;

 private:
  std::string name_ = "net";
  std::vector<Layer> layers_;
};

}  // namespace hetacc::nn
