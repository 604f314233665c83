// Search tracing and accuracy-vs-memory Pareto analysis.
//
// A SearchTrace observes an EvaluatorBase: every real evaluation Algorithm
// 1/2/3 makes lands here as a SearchPoint carrying the executed (calibrated)
// spec, its accuracy, its Eq.-6 memory footprints and an hwmodel energy
// estimate. The driver serializes the trace — points, Pareto front and run
// metadata — to the JSON artifact the search smoke job uploads
// (schema documented in docs/search.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/memory_model.hpp"
#include "core/quant_spec.hpp"

namespace qcaps::core {

/// One evaluated quantization point.
struct SearchPoint {
  NetworkQuantSpec spec;  ///< as executed (integer bits calibrated)
  float accuracy = 0.0f;
  std::int64_t weight_bits = 0;      ///< Eq. 6 weight memory
  std::int64_t activation_bits = 0;  ///< per-sample activation memory
  double energy_pj = 0.0;            ///< hwmodel per-inference estimate
  /// True when an evaluate_bounded early exit stopped the evaluation:
  /// `accuracy` is then a provable upper bound, not the measured value.
  bool truncated = false;
};

/// hwmodel energy roll-up of one inference under `spec`: per layer, MACs at
/// the operand wordlength max(weight, activation) plus the squash/softmax
/// datapath activations at their own fractional widths.
double spec_energy_pj(const MemoryModel& mem, const NetworkQuantSpec& spec);

/// Indices of the non-dominated points (maximize accuracy, minimize weight
/// memory), ordered by increasing weight_bits. Equal-footprint ties keep the
/// most accurate point only.
std::vector<std::size_t> pareto_front(const std::vector<SearchPoint>& points);

/// Records every evaluation an EvaluatorBase makes. Attach before running
/// the framework; points accumulate across schemes.
class SearchTrace {
 public:
  /// Install this trace as `eval`'s observer. The evaluator (and its
  /// MemoryModel) must outlive the trace's attachment.
  void attach(EvaluatorBase& eval);

  void record(const MemoryModel& mem, const NetworkQuantSpec& spec,
              float accuracy, bool truncated = false);

  const std::vector<SearchPoint>& points() const { return points_; }
  std::vector<std::size_t> pareto_indices() const {
    return pareto_front(points_);
  }
  void clear() { points_.clear(); }

 private:
  std::vector<SearchPoint> points_;
};

/// Run metadata serialized alongside the points.
struct TraceJsonMeta {
  std::string model;    ///< e.g. "shallow_caps"
  std::string backend;  ///< "fake_quant" or "qgraph"
  float acc_fp32 = 0.0f;
  float acc_target = 0.0f;
  float selected_accuracy = 0.0f;
  std::string selected_scheme;
  double wall_seconds = 0.0;
  std::int64_t evaluations = 0;
  std::int64_t memo_hits = 0;
  /// Chunk forwards that resumed from a cached layer cut (qgraph backend).
  std::int64_t cut_resumes = 0;
  std::vector<std::string> layer_names;
};

/// Serialize trace + metadata to the committed Pareto-front JSON schema
/// (schema_version 1; see docs/search.md).
std::string trace_to_json(const SearchTrace& trace, const TraceJsonMeta& meta);

}  // namespace qcaps::core
