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
//   * cut reuse      — a layer's integer output depends only on the input
//                      chunk and the specs of the layers up to it. Per
//                      chunk, the outputs of weighted layers 1…L−2 are kept
//                      for the two most recently used candidates, each keyed
//                      by the scheme, the quantize toggles and the
//                      calibrated widths of layers 0…l. A chunk resumes from
//                      the deepest cut whose key matches and runs only the
//                      layers after it: Algorithm 2's suffix trials keep the
//                      layers before start_l, Algorithm 3's routing trials
//                      every layer before the one they lower. Two
//                      candidates, because Step 3A's start_l = 1 trial
//                      matches no stored cut and must not evict the spec
//                      the later start layers resume from. The cache holds
//                      at most 2 x (bytes of the stored cuts per image) x
//                      (subset size); chunks of truncated evaluations are
//                      kept too;
//   * memoization    — full-evaluation results are cached keyed by the
//                      calibrated spec, so configs Algorithm 1 revisits cost
//                      nothing (truncated results are never memoized);
//   * batching       — the subset runs in chunks of eval_batch images;
//   * tier fallback  — the compiled graph only beats fake-quant while the
//                      packed int8/int16 qgemm tier engages. Candidates it
//                      cannot serve delegate to the fake-quant base path
//                      (with the same early exit):
//                        - non-round-to-nearest schemes (the executor
//                          requantizes RTN only — the deployment scheme;
//                          SR's per-requant noise would also diverge from
//                          the paper's fake-quant SR semantics),
//                        - wordlengths past the int16 storage tier or whose
//                          per-layer reduction depth overflows the int32
//                          accumulator (Step 1's widest probes),
//                        - partially-quantized specs (no integer graph).
//                      Memo hits and fallbacks leave the cut cache alone.
//
// The subset is the SAME first eval_samples images nn::evaluate uses, so a
// QGraphEvaluator differs from the fake-quant Evaluator only by integer-vs-
// fake-quant arithmetic (test_qgraph locks that drift to ~0.1 accuracy).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaluator.hpp"
#include "qengine/qgraph.hpp"

namespace qcaps::core {

struct QGraphEvalConfig {
  /// Images per forward: the chunk of the early exit and of cut reuse.
  std::int64_t eval_batch = 64;
};

class QGraphEvaluator : public Evaluator {
 public:
  QGraphEvaluator(nn::Network& net, const data::Dataset& test_set,
                  std::int64_t eval_samples = -1, std::int64_t batch_size = 64,
                  QGraphEvalConfig cfg = {});

  float evaluate(const NetworkQuantSpec& spec) override;
  float evaluate_bounded(const NetworkQuantSpec& spec,
                         float acc_floor) override;

  // Cache observability (the smoke artifact reports these).
  std::int64_t memo_hits() const { return memo_hits_; }
  std::int64_t graphs_compiled() const { return graphs_compiled_; }
  std::int64_t fake_quant_fallbacks() const { return fake_quant_fallbacks_; }
  std::int64_t truncated_evals() const { return truncated_evals_; }
  /// Chunk forwards that resumed from a cached layer cut.
  std::int64_t cut_resumes() const { return cut_resumes_; }
  const qengine::QGraphWeightCache& weight_cache() const { return wcache_; }

 private:
  /// One candidate's cached layer outputs. keys[l] is what fixes layer l's
  /// output; chunks[c][l] is that output on chunk c, null for layers that
  /// are not stored. chunks[c] is empty for chunks the candidate never ran.
  struct CutEntry {
    std::vector<std::string> keys;
    std::vector<std::vector<std::shared_ptr<const qengine::QActivation>>>
        chunks;
  };

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

  /// Predictions for images [lo, hi), one chunk of the subset, under
  /// `graph`; stores the chunk's cuts into `cur`. `base`, when not null, is
  /// the cached candidate whose keys match cur's through layer `depth`: a
  /// chunk it ran resumes after that layer.
  std::vector<int> classify_chunk(const qengine::QuantizedGraph& graph,
                                  const CutEntry* base, std::size_t depth,
                                  CutEntry& cur, std::int64_t lo,
                                  std::int64_t hi);

  QGraphEvalConfig cfg_;
  qengine::QGraphWeightCache wcache_;
  std::unordered_map<std::string, float> memo_;
  std::vector<CutEntry> cuts_;  ///< most recently used first, at most two
  std::int64_t memo_hits_ = 0;
  std::int64_t graphs_compiled_ = 0;
  std::int64_t fake_quant_fallbacks_ = 0;
  std::int64_t truncated_evals_ = 0;
  std::int64_t cut_resumes_ = 0;
};

}  // namespace qcaps::core
