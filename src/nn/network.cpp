#include "nn/network.hpp"

#include "common/error.hpp"
#include "common/heap.hpp"
#include "nn/caps_ops.hpp"
#include "tensor/ops.hpp"

namespace qcaps::nn {

std::vector<std::size_t> Network::weighted_layers() {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    if (layers_[i]->has_weights()) out.push_back(i);
  return out;
}

tensor::Tensor Network::forward(const tensor::Tensor& x, Phase phase) {
  QCAPS_CHECK_MSG(!layers_.empty(), "forward on an empty network");
  common::retain_heap();
  tensor::Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur, phase);
  return cur;
}

void Network::backward(const tensor::Tensor& grad_out) {
  tensor::Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
}

std::vector<tensor::Tensor*> Network::params() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    const auto p = layer->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<tensor::Tensor*> Network::grads() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    const auto g = layer->grads();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

std::vector<tensor::Tensor*> Network::state() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    const auto s = layer->state();
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

std::int64_t Network::param_count() {
  std::int64_t n = 0;
  for (auto& layer : layers_) n += layer->param_count();
  return n;
}

void Network::clear_quantization() {
  for (auto& layer : layers_) layer->quant().clear();
}

std::vector<int> classify_lengths(const tensor::Tensor& lengths,
                                  std::vector<float>* scores) {
  QCAPS_CHECK_MSG(lengths.ndim() == 2,
                  "classify_lengths expects a [B, Ncls] length matrix");
  const auto idx = tensor::argmax_rows(lengths);
  std::vector<int> labels;
  labels.reserve(idx.size());
  if (scores) {
    scores->clear();
    scores->reserve(idx.size());
  }
  const std::int64_t ncls = lengths.dim(1);
  for (std::size_t b = 0; b < idx.size(); ++b) {
    labels.push_back(static_cast<int>(idx[b]));
    if (scores)
      scores->push_back(
          lengths[static_cast<std::int64_t>(b) * ncls + idx[b]]);
  }
  return labels;
}

std::vector<int> Network::predict_batch(const tensor::Tensor& images,
                                        std::vector<float>* scores) {
  const tensor::Tensor output = forward(images, Phase::kEval);
  QCAPS_CHECK_MSG(output.ndim() == 3, "predict_batch expects a [B, Ncls, D] "
                                      "network output");
  return classify_lengths(caps_lengths(output), scores);
}

std::vector<int> Network::predict(const tensor::Tensor& output) {
  QCAPS_CHECK_MSG(output.ndim() == 3, "predict expects [B, Ncls, D]");
  return classify_lengths(caps_lengths(output));
}

}  // namespace qcaps::nn
