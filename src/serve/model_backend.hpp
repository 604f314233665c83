// Model backends — what an inference worker actually runs a batch through.
//
// A backend wraps one deployable model behind a uniform batched-classify
// interface. Workers never share a backend instance: layers cache per-forward
// state, so the pool gives every worker thread its own replica via clone().
//
//   * NetworkBackend    — FP32 nn::Network (ShallowCaps, DeepCaps, or any
//                         network whose output is [B, Ncls, D]). Replicas are
//                         produced by a user-supplied replicator so the
//                         backend stays architecture-agnostic.
//   * QuantizedBackend  — an integer-only deployment on the quantized-graph
//                         executor: any network the graph compiler supports
//                         (ShallowCaps AND DeepCaps) serves int8/int16
//                         through the same backend. A value type: replicas
//                         are plain copies, and each carries the packed
//                         qgemm weight caches so no request ever re-packs
//                         weights.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "qengine/qgraph.hpp"
#include "serve/request_queue.hpp"

namespace qcaps::serve {

class ModelBackend {
 public:
  virtual ~ModelBackend() = default;

  virtual const std::string& name() const = 0;

  /// Classify a stacked [B, C, H, W] batch; returns one prediction per row.
  virtual std::vector<Prediction> predict_batch(
      const tensor::Tensor& images) = 0;

  /// Independent replica for another worker thread.
  virtual std::unique_ptr<ModelBackend> clone() const = 0;

  /// Requant-saturation snapshot, when the backend runs fixed-point compute
  /// (QuantizedBackend); empty for FP32 backends. Replica copies of one
  /// quantized backend share one counter block, so any replica reports the
  /// whole pool's counts.
  virtual std::vector<qengine::NodeSaturation> saturation() const {
    return {};
  }
};

/// FP32 network backend. The replicator returns a fresh network carrying the
/// trained parameters (e.g. models::replicate_shallow_caps bound to the
/// trained net); the backend calls it once per worker replica.
class NetworkBackend final : public ModelBackend {
 public:
  using Replicator = std::function<std::unique_ptr<nn::Network>()>;

  NetworkBackend(std::string name, Replicator replicator);

  const std::string& name() const override { return name_; }
  std::vector<Prediction> predict_batch(const tensor::Tensor& images) override;
  std::unique_ptr<ModelBackend> clone() const override;

 private:
  std::string name_;
  Replicator replicator_;
  std::unique_ptr<nn::Network> net_;
};

/// Integer-only backend (the Q-CapsNets deployment target): compiles the
/// trained network + calibrated spec into a quantized-graph executor, so one
/// backend class serves every supported model family.
class QuantizedBackend final : public ModelBackend {
 public:
  /// `net` is any trained network the quantized-graph compiler supports
  /// (ShallowCaps, DeepCaps); `spec` the calibrated quantization spec.
  QuantizedBackend(std::string name, nn::Network& net,
                   const core::NetworkQuantSpec& spec);

  /// Wrap an already-compiled executor (QuantizedGraph::compile, or a .qcg
  /// from io::load_graph).
  QuantizedBackend(std::string name, qengine::QuantizedGraph model);

  const std::string& name() const override { return name_; }
  std::vector<Prediction> predict_batch(const tensor::Tensor& images) override;
  std::unique_ptr<ModelBackend> clone() const override;
  std::vector<qengine::NodeSaturation> saturation() const override {
    return model_.saturation();
  }
  double saturation_rate() const { return model_.saturation_rate(); }

 private:
  std::string name_;
  qengine::QuantizedGraph model_;
};

}  // namespace qcaps::serve
