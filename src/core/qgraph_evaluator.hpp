// QGraphEvaluator — the integer deployment path as the search's accuracy
// oracle.
//
// The fake-quant Evaluator re-installs float quantizer hooks and re-snaps
// every weight on every forward, and always classifies the full evaluation
// subset; the search makes dozens to hundreds of evaluations per scheme, so
// this dominates Algorithm 1's wall-clock. The QGraphEvaluator instead
// compiles each candidate NetworkQuantSpec ONCE into a qengine::QuantizedGraph
// (saturation scan off — that is a serving guardrail) and classifies through
// the packed integer kernels:
//
//   * early exit     — evaluate_bounded() stops as soon as enough samples
//                      have failed that the accuracy floor is unreachable;
//                      a deep-below-the-cliff Step 1 probe costs a couple of
//                      batches instead of the whole subset. The returned
//                      upper bound keeps the search verdict exact.
//   * weight reuse   — candidates that share a per-layer weight spec reuse
//                      the quantized + packed weight tensors through one
//                      QGraphWeightCache (Algorithm 2 perturbs one layer
//                      suffix at a time, so reuse rates are high);
//   * memoization    — full-evaluation results are cached keyed by the
//                      calibrated spec, so configs Algorithm 1 revisits cost
//                      nothing (truncated results are never memoized);
//   * batching       — the subset runs in large batches; optionally through
//                      a serve::InferenceServer worker pool so evaluation
//                      parallelism comes from the serving tier;
//   * tier fallback  — the compiled graph only beats fake-quant while the
//                      packed int8/int16 qgemm tier engages. Candidates it
//                      cannot serve delegate to the fake-quant base path
//                      (with the same early exit):
//                        - non-round-to-nearest schemes (the packed requant
//                          is RTN — the deployment scheme; TRN/SR integer
//                          execution is exact but scalar, and SR's
//                          per-requant noise also diverges from the paper's
//                          fake-quant SR semantics),
//                        - wordlengths past the int16 storage tier or whose
//                          per-layer reduction depth overflows the int32
//                          accumulator (Step 1's widest probes),
//                        - partially-quantized specs (no integer graph).
//
// The subset is the SAME first eval_samples images nn::evaluate uses, so a
// QGraphEvaluator differs from the fake-quant Evaluator only by integer-vs-
// fake-quant arithmetic (test_qgraph locks that drift to ~0.1 accuracy).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/evaluator.hpp"
#include "qengine/qgraph.hpp"

namespace qcaps::serve {
class InferenceServer;
}

namespace qcaps::core {

struct QGraphEvalConfig {
  /// Worker threads when evaluating through the serving tier; <= 1 runs
  /// direct chunked predict_batch calls on the calling thread.
  int workers = 0;
  /// Images per forward (direct path) / per coalesced batch (served path).
  std::int64_t eval_batch = 64;
};

class QGraphEvaluator : public Evaluator {
 public:
  QGraphEvaluator(nn::Network& net, const data::Dataset& test_set,
                  std::int64_t eval_samples = -1, std::int64_t batch_size = 64,
                  QGraphEvalConfig cfg = {});
  ~QGraphEvaluator() override;

  float evaluate(const NetworkQuantSpec& spec) override;
  float evaluate_bounded(const NetworkQuantSpec& spec,
                         float acc_floor) override;

  // Cache observability (the smoke artifact reports these).
  std::int64_t memo_hits() const { return memo_hits_; }
  std::int64_t graphs_compiled() const { return graphs_compiled_; }
  std::int64_t fake_quant_fallbacks() const { return fake_quant_fallbacks_; }
  std::int64_t truncated_evals() const { return truncated_evals_; }
  const qengine::QGraphWeightCache& weight_cache() const { return wcache_; }

 private:
  /// True when every layer of the calibrated spec stays inside the packed
  /// int8/int16 qgemm tier (storage AND int32 accumulation range).
  bool packed_tier_ok(const NetworkQuantSpec& calibrated) const;

  /// Shared evaluation driver; `acc_floor <= 0` disables the early exit.
  float evaluate_impl(const NetworkQuantSpec& spec, float acc_floor);

  /// Chunked classification with the provable-miss early exit. The chunk
  /// oracle returns the number of correct predictions in [lo, hi).
  /// Sets *truncated and returns the exact accuracy or its upper bound.
  template <typename ChunkFn>
  float bounded_accuracy(float acc_floor, ChunkFn&& correct_in,
                         bool* truncated) const;

  float evaluate_served(qengine::QuantizedGraph graph);

  QGraphEvalConfig cfg_;
  qengine::QGraphWeightCache wcache_;
  std::unordered_map<std::string, float> memo_;
  std::unique_ptr<serve::InferenceServer> server_;  ///< lazy; workers > 1
  std::int64_t served_models_ = 0;  ///< unique model names for the server
  std::int64_t memo_hits_ = 0;
  std::int64_t graphs_compiled_ = 0;
  std::int64_t fake_quant_fallbacks_ = 0;
  std::int64_t truncated_evals_ = 0;
};

}  // namespace qcaps::core
