// The Q-CapsNets framework driver — paper Algorithm 1 / Fig. 8 — plus the
// rounding-scheme selection rule of Sec. III-B.
//
// Given a trained CapsNet, an accuracy tolerance and a weight-memory budget,
// the driver runs, per rounding scheme:
//   Step 1   layer-uniform quantization of weights + activations
//            (binary search, consuming 5% of the tolerance)
//   Step 2   memory-requirements fulfillment on the weights (Eq. 6)
//   Path A   (budget met with accuracy margin)
//     Step 3A layer-wise quantization of activations (Algorithm 2)
//     Step 4A dynamic-routing quantization (Algorithm 3) -> model_satisfied
//   Path B   (budget and tolerance incompatible)
//     Step 3B uniform + layer-wise weight quantization -> model_accuracy,
//             returned alongside the Step-2 model_memory
//
// The accuracy oracle is pluggable (EvaluatorBase): the classic fake-quant
// path, or the integer qgraph deployment path (QGraphEvaluator) that the
// search runs at deployment fidelity — see docs/search.md.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/quant_spec.hpp"
#include "core/search.hpp"
#include "data/dataset.hpp"

namespace qcaps::core {

class SearchTrace;

struct FrameworkConfig {
  /// accTOL: tolerated relative accuracy loss (e.g. 0.002 = 0.2%).
  double acc_tolerance = 0.002;
  /// Weight-memory budget in bits.
  std::int64_t memory_budget_bits = 0;
  /// Rounding schemes to explore (the paper's "library").
  std::vector<fixed::RoundingScheme> schemes = fixed::all_schemes();
  /// Per-evaluation test subset (<= 0: full test set).
  std::int64_t eval_samples = -1;
  std::int64_t batch_size = 64;
  /// Initial fractional width (wordlength Qinit = 1 + init_frac = 32).
  int init_frac = 31;
  int min_frac = 0;
  bool verbose = true;

  /// Accuracy oracle: the fake-quant nn::Network reference path, or the
  /// compiled integer QuantizedGraph path (memoized, packed-weight reuse).
  enum class Backend { kFakeQuant, kQGraph };
  Backend backend = Backend::kFakeQuant;

  /// Optional: record every evaluation (spec, accuracy, memory, energy)
  /// into this trace — the Pareto-front artifact. Not owned.
  SearchTrace* trace = nullptr;
};

enum class ExitPath { kSatisfied, kFallback };  // Path A / Path B

/// One quantized model with its bookkeeping.
struct QuantizedModel {
  NetworkQuantSpec spec;
  float accuracy = 0.0f;
  std::int64_t weight_bits = 0;
  std::int64_t activation_bits = 0;
  double weight_reduction = 0.0;
  double activation_reduction = 0.0;
  /// False when the search that produced this model could not reach its
  /// accuracy floor (the spec/accuracy describe the best attempt, which
  /// does NOT honor the tolerance).
  bool feasible = true;
};

/// Outcome of Algorithm 1 for one rounding scheme.
struct SchemeResult {
  fixed::RoundingScheme scheme = fixed::RoundingScheme::kTruncation;
  ExitPath path = ExitPath::kSatisfied;
  int step1_frac = 0;                        ///< Q found by Step 1
  bool step1_feasible = true;                ///< Step 1 reached its floor
  std::optional<QuantizedModel> satisfied;   ///< Path A output
  QuantizedModel memory_model;               ///< Step-2 model_memory
  std::optional<QuantizedModel> accuracy_model;  ///< Path B output
};

struct FrameworkResult {
  float acc_fp32 = 0.0f;
  float acc_target = 0.0f;
  std::vector<SchemeResult> per_scheme;

  // Selection per Sec. III-B.
  ExitPath path = ExitPath::kSatisfied;
  fixed::RoundingScheme selected_scheme = fixed::RoundingScheme::kTruncation;
  std::optional<QuantizedModel> model_satisfied;  ///< Path A winner
  std::optional<QuantizedModel> model_memory;     ///< Path B winners
  std::optional<QuantizedModel> model_accuracy;

  /// True when a selected model honors the accuracy tolerance: Path A
  /// always, Path B only if some scheme's accuracy_model reached the
  /// target. When false, only model_memory (budget-driven, accuracy
  /// best-effort) is returned.
  bool feasible = true;

  std::int64_t total_evaluations = 0;
};

/// Run the framework on a trained network with the configured backend. The
/// network is left with hooks cleared; re-apply a result spec with
/// apply_spec() to use the model.
FrameworkResult run_qcapsnets(nn::Network& net, const data::Dataset& test_set,
                              const FrameworkConfig& cfg);

/// Run the framework against an externally-constructed evaluator (any
/// EvaluatorBase — a QGraphEvaluator with custom settings, a scripted fake
/// in tests). `cfg.backend` is ignored on this overload.
FrameworkResult run_qcapsnets(EvaluatorBase& eval, const FrameworkConfig& cfg);

/// Human-readable summary (per-layer bit tables in the style of Fig. 11).
std::string report(const FrameworkResult& result, const MemoryModel& memory);

}  // namespace qcaps::core
