#include "core/framework.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/pareto.hpp"
#include "core/qgraph_evaluator.hpp"

namespace qcaps::core {

namespace {

QuantizedModel make_model(const MemoryModel& mem, NetworkQuantSpec spec,
                          float accuracy, bool feasible = true) {
  QuantizedModel m;
  m.weight_bits = mem.weight_bits(spec);
  m.activation_bits = mem.activation_bits(spec);
  m.weight_reduction = mem.weight_reduction(spec);
  m.activation_reduction = mem.activation_reduction(spec);
  m.spec = std::move(spec);
  m.accuracy = accuracy;
  m.feasible = feasible;
  return m;
}

SchemeResult run_scheme(EvaluatorBase& eval, fixed::RoundingScheme scheme,
                        float acc_fp32, const FrameworkConfig& cfg) {
  const MemoryModel& mem = eval.memory();
  const std::size_t L = mem.num_layers();
  const float acc_target =
      acc_fp32 * static_cast<float>(1.0 - cfg.acc_tolerance);
  SchemeResult result;
  result.scheme = scheme;

  // ---- Step 1: layer-uniform quantization of weights + activations -------
  const float acc_step1 =
      acc_fp32 * static_cast<float>(1.0 - cfg.acc_tolerance * 0.05);
  NetworkQuantSpec base =
      NetworkQuantSpec::uniform(L, cfg.init_frac, scheme);
  const UniformSearchResult step1 = binary_search_uniform(
      eval, base, Target::kWeightsAndActivations, cfg.init_frac,
      std::max(cfg.min_frac, 1), acc_step1);
  result.step1_frac = step1.frac_bits;
  result.step1_feasible = step1.feasible;
  if (cfg.verbose) {
    QCAPS_INFO << "  [" << fixed::scheme_name(scheme) << "] step 1: uniform Q="
               << step1.frac_bits << " frac bits (acc " << step1.accuracy
               << (step1.feasible ? ")" : ", INFEASIBLE)");
  }

  // ---- Step 2: memory-requirements fulfillment (Eq. 6) -------------------
  NetworkQuantSpec spec_mm = step1.spec;
  {
    std::vector<int> wordlengths;
    try {
      wordlengths = solve_memory_fulfillment(mem, cfg.memory_budget_bits);
    } catch (const qcaps::Error&) {
      // Budget below the 1-bit floor: fall back to the minimum assignment.
      wordlengths.assign(L, 1);
    }
    for (std::size_t l = 0; l < L; ++l) {
      spec_mm.layers[l].qw_frac =
          std::max(0, wordlengths[l] - spec_mm.layers[l].qw_int);
    }
  }
  const float acc_mm = eval.evaluate(spec_mm);
  result.memory_model = make_model(mem, spec_mm, acc_mm);
  if (cfg.verbose) {
    QCAPS_INFO << "  [" << fixed::scheme_name(scheme)
               << "] step 2: model_memory acc " << acc_mm << " (target "
               << acc_target << ")";
  }

  if (acc_mm > acc_target) {
    // ---- Path A: Steps 3A + 4A -------------------------------------------
    result.path = ExitPath::kSatisfied;
    const float acc_min_3a =
        acc_target + 0.5f * (acc_mm - acc_target);  // Algorithm 1, line 14
    LayerWiseResult lw = layer_wise_quantization(
        eval, spec_mm, Target::kActivations, acc_min_3a, cfg.min_frac);
    NetworkQuantSpec spec = std::move(lw.spec);
    float acc = lw.accuracy;
    for (std::size_t l = 0; l < L; ++l) {
      if (!mem.layers()[l].has_routing) continue;
      const DrQuantResult dr = dr_quantization(
          eval, spec, l, spec.layers[l].qa_frac, acc_target, cfg.min_frac);
      if (!dr.feasible) {
        // Even QDR = Qa misses the floor on this layer (evaluation noise or
        // a routing-sensitive model): keep the pre-DR spec, whose routing
        // arrays inherit the activation format.
        if (cfg.verbose) {
          QCAPS_INFO << "  [" << fixed::scheme_name(scheme) << "] step 4A: "
                     << mem.layers()[l].name
                     << " DR search infeasible — routing keeps Qa";
        }
        continue;
      }
      spec = dr.spec;
      acc = dr.accuracy;
      if (cfg.verbose) {
        QCAPS_INFO << "  [" << fixed::scheme_name(scheme) << "] step 4A: "
                   << mem.layers()[l].name << " QDR=" << dr.qdr_frac
                   << " frac bits (acc " << acc << ")";
      }
    }
    result.satisfied =
        make_model(mem, std::move(spec), acc, /*feasible=*/lw.feasible);
  } else {
    // ---- Path B: Step 3B ---------------------------------------------------
    result.path = ExitPath::kFallback;
    const UniformSearchResult uni = binary_search_uniform(
        eval, step1.spec, Target::kWeights, step1.frac_bits, cfg.min_frac,
        acc_target);
    const LayerWiseResult lw = layer_wise_quantization(
        eval, uni.spec, Target::kWeights, acc_target, cfg.min_frac);
    // An infeasible uniform search means no weight-only quantization meets
    // the tolerance: keep the best attempt for reporting, but mark it so
    // the scheme selection cannot present it as honoring the target.
    result.accuracy_model = make_model(mem, lw.spec, lw.accuracy,
                                       uni.feasible && lw.feasible);
  }
  return result;
}

int scheme_rank(fixed::RoundingScheme s) { return fixed::scheme_complexity_rank(s); }

}  // namespace

FrameworkResult run_qcapsnets(EvaluatorBase& eval, const FrameworkConfig& cfg) {
  QCAPS_CHECK_MSG(!cfg.schemes.empty(), "rounding-scheme library is empty");
  QCAPS_CHECK_MSG(cfg.memory_budget_bits > 0, "memory budget must be positive");
  if (cfg.trace != nullptr) cfg.trace->attach(eval);
  const std::int64_t evals_before = eval.num_evaluations();

  FrameworkResult result;
  result.acc_fp32 = eval.evaluate_fp32();
  result.acc_target =
      result.acc_fp32 * static_cast<float>(1.0 - cfg.acc_tolerance);
  if (cfg.verbose) {
    QCAPS_INFO << "Q-CapsNets: accFP32 " << result.acc_fp32 << ", target "
               << result.acc_target << ", budget "
               << cfg.memory_budget_bits / 1e6 << " Mbit";
  }

  for (const auto scheme : cfg.schemes)
    result.per_scheme.push_back(
        run_scheme(eval, scheme, result.acc_fp32, cfg));
  result.total_evaluations = eval.num_evaluations() - evals_before;

  // ---- Rounding-scheme selection (Sec. III-B) -----------------------------
  std::vector<const SchemeResult*> path_a;
  for (const auto& sr : result.per_scheme)
    if (sr.path == ExitPath::kSatisfied && sr.satisfied->feasible)
      path_a.push_back(&sr);

  if (!path_a.empty()) {
    // A.1 discard Path B; A.2 lowest memory; A.3 fewest activation bits;
    // A.4 simplest rounding scheme.
    const SchemeResult* best = path_a.front();
    for (const auto* sr : path_a) {
      const auto& a = sr->satisfied.value();
      const auto& b = best->satisfied.value();
      if (std::tie(a.weight_bits, a.activation_bits) <
              std::tie(b.weight_bits, b.activation_bits) ||
          (a.weight_bits == b.weight_bits &&
           a.activation_bits == b.activation_bits &&
           scheme_rank(sr->scheme) < scheme_rank(best->scheme))) {
        best = sr;
      }
    }
    result.path = ExitPath::kSatisfied;
    result.selected_scheme = best->scheme;
    result.model_satisfied = best->satisfied;
    result.model_memory = best->memory_model;
    result.feasible = true;
  } else {
    // B.1 highest-accuracy model_memory; B.2 lowest-memory FEASIBLE
    // model_accuracy; B.3 ties broken by scheme simplicity. Infeasible
    // accuracy models (their search never reached the target) stay in
    // per_scheme for inspection but are never selected.
    result.path = ExitPath::kFallback;
    const SchemeResult* best_mem = &result.per_scheme.front();
    const SchemeResult* best_acc = nullptr;
    for (const auto& sr : result.per_scheme) {
      if (sr.memory_model.accuracy > best_mem->memory_model.accuracy ||
          (sr.memory_model.accuracy == best_mem->memory_model.accuracy &&
           scheme_rank(sr.scheme) < scheme_rank(best_mem->scheme))) {
        best_mem = &sr;
      }
      if (!sr.accuracy_model || !sr.accuracy_model->feasible) continue;
      if (best_acc == nullptr ||
          sr.accuracy_model->weight_bits <
              best_acc->accuracy_model->weight_bits ||
          (sr.accuracy_model->weight_bits ==
               best_acc->accuracy_model->weight_bits &&
           scheme_rank(sr.scheme) < scheme_rank(best_acc->scheme))) {
        best_acc = &sr;
      }
    }
    result.model_memory = best_mem->memory_model;
    if (best_acc != nullptr) {
      result.selected_scheme = best_acc->scheme;
      result.model_accuracy = best_acc->accuracy_model;
      result.feasible = true;
    } else {
      result.selected_scheme = best_mem->scheme;
      result.feasible = false;
      QCAPS_WARN << "Q-CapsNets: no scheme reached the accuracy target — "
                    "only the budget-driven model_memory is returned";
    }
  }
  if (cfg.trace != nullptr) eval.set_observer({});
  return result;
}

FrameworkResult run_qcapsnets(nn::Network& net, const data::Dataset& test_set,
                              const FrameworkConfig& cfg) {
  FrameworkResult result;
  if (cfg.backend == FrameworkConfig::Backend::kQGraph) {
    QGraphEvalConfig qcfg;
    qcfg.eval_batch = cfg.batch_size;
    QGraphEvaluator eval(net, test_set, cfg.eval_samples, cfg.batch_size,
                         qcfg);
    result = run_qcapsnets(eval, cfg);
  } else {
    Evaluator eval(net, test_set, cfg.eval_samples, cfg.batch_size);
    result = run_qcapsnets(eval, cfg);
  }
  net.clear_quantization();
  return result;
}

namespace {
void print_model(std::ostringstream& os, const MemoryModel& mem,
                 const std::string& tag, const QuantizedModel& m) {
  os << "  " << tag << ": acc=" << std::fixed << std::setprecision(2)
     << m.accuracy * 100.0f << "%  W-mem x" << std::setprecision(2)
     << m.weight_reduction << "  A-mem x" << m.activation_reduction << "  ["
     << fixed::scheme_name(m.spec.scheme) << "]"
     << (m.feasible ? "" : "  (INFEASIBLE — target not reached)") << "\n";
  os << "      layer              Qw  Qa  Qdr\n";
  for (std::size_t l = 0; l < m.spec.layers.size(); ++l) {
    const auto& ls = m.spec.layers[l];
    os << "      " << std::left << std::setw(18) << mem.layers()[l].name
       << std::right << std::setw(4) << ls.qw_frac << std::setw(4)
       << ls.qa_frac;
    if (mem.layers()[l].has_routing)
      os << std::setw(5) << (ls.qdr_frac >= 0 ? ls.qdr_frac : ls.qa_frac);
    os << "\n";
  }
}
}  // namespace

std::string report(const FrameworkResult& result, const MemoryModel& memory) {
  std::ostringstream os;
  os << "Q-CapsNets result — accFP32=" << std::fixed << std::setprecision(2)
     << result.acc_fp32 * 100.0f << "%  target=" << result.acc_target * 100.0f
     << "%  path=" << (result.path == ExitPath::kSatisfied ? "A" : "B")
     << "  selected=" << fixed::scheme_name(result.selected_scheme)
     << (result.feasible ? "" : "  [INFEASIBLE]")
     << "  evals=" << result.total_evaluations << "\n";
  if (result.model_satisfied)
    print_model(os, memory, "model_satisfied", *result.model_satisfied);
  if (result.model_memory)
    print_model(os, memory, "model_memory   ", *result.model_memory);
  if (result.model_accuracy)
    print_model(os, memory, "model_accuracy ", *result.model_accuracy);
  return os.str();
}

}  // namespace qcaps::core
