// Sequential network container.
//
// Owns the layer stack, chains forward/backward, and exposes the per-layer
// views the Q-CapsNets framework needs: the list of weighted layers (the
// paper's quantization granularity — e.g. L1/L2/L3 for ShallowCaps,
// L1/B2..B5/L6 for DeepCaps) and activation/parameter statistics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace qcaps::nn {

/// The classification head shared by every predict path (fp32 and integer):
/// argmax per row of a [B, Ncls] capsule-length matrix. With `scores`, the
/// winning length of each row is written out (serving reports it as the
/// prediction confidence).
std::vector<int> classify_lengths(const tensor::Tensor& lengths,
                                  std::vector<float>* scores = nullptr);

class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Construct and append a layer; returns a reference to it.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Indices of layers with trainable parameters, in forward order. This is
  /// the layer indexing used throughout the quantization framework ("layer l"
  /// in Eq. 6 and Algorithms 2-3).
  std::vector<std::size_t> weighted_layers();

  /// Final output, shape [B, Ncls, D]. The first forward pins the process's
  /// heap thresholds (common::retain_heap), so back-to-back forwards reuse
  /// the buffers the previous one freed. Pinning at the first forward rather
  /// than at construction leaves the allocations made while loading a model
  /// under glibc's defaults: pinned from construction, qbench's
  /// deep_search_1t peaked 1.9 MB higher (55.4 against 53.5 MB).
  tensor::Tensor forward(const tensor::Tensor& x, Phase phase);
  /// Backpropagate from the loss gradient; accumulates parameter grads.
  void backward(const tensor::Tensor& grad_out);

  std::vector<tensor::Tensor*> params();
  std::vector<tensor::Tensor*> grads();
  /// Non-trainable buffers (batch-norm running stats) — persisted with the
  /// parameters, skipped by the optimizer.
  std::vector<tensor::Tensor*> state();
  std::int64_t param_count();

  /// Remove every quantization hook (restores exact FP32 behaviour).
  void clear_quantization();

  /// Predicted class = argmax over capsule lengths of a [B, Ncls, D] output.
  static std::vector<int> predict(const tensor::Tensor& output);

  /// Inference-phase forward over a [B, ...] input batch followed by the
  /// argmax-of-length classification; one call serves the whole batch. With
  /// `scores`, the winning capsule length of each sample is written out
  /// (the serving layer reports it as the prediction confidence). The result
  /// is bit-identical to running each sample through a batch-1 forward.
  std::vector<int> predict_batch(const tensor::Tensor& images,
                                 std::vector<float>* scores = nullptr);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace qcaps::nn
