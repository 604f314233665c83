// deep_search_1t: Algorithm 1 (core::run_qcapsnets) over a fresh
// core::QGraphEvaluator, round-to-nearest, on a seeded test subset with a
// fixed accuracy tolerance and weight-memory budget. The search repeats
// until the run's time is up; every repetition must select the same model.
#include <algorithm>
#include <numeric>
#include <random>

#include "bench.hpp"
#include "core/framework.hpp"
#include "core/qgraph_evaluator.hpp"
#include "qengine/qgraph.hpp"

namespace qbench {

namespace {

constexpr std::int64_t kSubset = 64;
constexpr std::int64_t kEvalBatch = 16;  // four chunks: room for early exits
constexpr double kTolerance = 0.03;    // accTOL: 3% relative accuracy loss
constexpr double kBudgetFrac = 0.25;   // weight budget: 1/4 of fp32 bits

/// Forwards to the search's evaluator and times each call.
class TimedEvaluator final : public core::EvaluatorBase {
 public:
  TimedEvaluator(core::QGraphEvaluator& inner, Tracer& tr)
      : inner_(inner), tr_(tr) {}

  float evaluate(const core::NetworkQuantSpec& spec) override {
    return timed([&] { return inner_.evaluate(spec); });
  }
  float evaluate_bounded(const core::NetworkQuantSpec& spec,
                         float acc_floor) override {
    return timed([&] { return inner_.evaluate_bounded(spec, acc_floor); });
  }
  float evaluate_fp32() override {
    Tracer::Scope s(tr_, "core.evaluate_fp32");
    const auto t0 = Clock::now();
    const float acc = inner_.evaluate_fp32();
    fp32_ms = ms_between(t0, Clock::now());
    evals_ = inner_.num_evaluations();
    return acc;
  }
  void calibrate_spec(core::NetworkQuantSpec& spec) const override {
    inner_.calibrate_spec(spec);
  }
  const core::MemoryModel& memory() const override { return inner_.memory(); }

  double fp32_ms = 0;
  std::vector<double> eval_ms;  ///< real evaluations (memo replays excluded)

 private:
  template <typename Fn>
  float timed(Fn&& fn) {
    Tracer::Scope s(tr_, "core.evaluate");
    const std::int64_t before = inner_.num_evaluations();
    const auto t0 = Clock::now();
    const float acc = fn();
    const double ms = ms_between(t0, Clock::now());
    evals_ = inner_.num_evaluations();
    if (evals_ > before) eval_ms.push_back(ms);
    return acc;
  }

  core::QGraphEvaluator& inner_;
  Tracer& tr_;
};

const core::QuantizedModel& selected(const core::FrameworkResult& res) {
  if (res.model_satisfied) return *res.model_satisfied;
  if (res.model_accuracy) return *res.model_accuracy;
  return *res.model_memory;
}

}  // namespace

void run_search(const Args& a) {
  Report r;
  Tracer tr(!a.trace.empty());
  // One fixed subset; the seed orders the images within each evaluation
  // chunk. Which images the subset holds moves the search's path, and which
  // chunk an image falls in moves its early exits (README: "Search
  // inputs"), so neither depends on the seed.
  const data::Dataset pool = seeded_images(kSubset, 0, 3);
  std::vector<std::int64_t> order(kSubset);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 shuffle(a.seed);
  for (std::int64_t lo = 0; lo < kSubset; lo += kEvalBatch)
    std::shuffle(order.begin() + lo, order.begin() + lo + kEvalBatch, shuffle);
  data::Dataset subset = pool;
  subset.images = pool.batch(order);
  for (std::size_t i = 0; i < order.size(); ++i)
    subset.labels[i] = pool.labels[static_cast<std::size_t>(order[i])];
  auto net = load_fp32(a.checkpoint);

  // Weight bits recomputed here from per-layer parameter counts.
  std::vector<std::int64_t> layer_params;
  for (const std::size_t l : net->weighted_layers()) {
    std::int64_t n = 0;
    for (const auto* p : net->layer(l).params()) n += p->numel();
    layer_params.push_back(n);
  }
  std::int64_t fp32_bits = 0;
  for (const auto n : layer_params) fp32_bits += 32 * n;

  core::FrameworkConfig fcfg;
  fcfg.acc_tolerance = kTolerance;
  fcfg.memory_budget_bits =
      static_cast<std::int64_t>(kBudgetFrac * static_cast<double>(fp32_bits));
  fcfg.schemes = {qcaps::fixed::RoundingScheme::kRoundToNearest};
  fcfg.eval_samples = kSubset;
  fcfg.batch_size = kEvalBatch;
  fcfg.verbose = false;
  core::QGraphEvalConfig qcfg;
  qcfg.eval_batch = kEvalBatch;

  std::vector<double> setup_s, search_ms, fp32_ms, eval_ms;
  std::optional<core::FrameworkResult> first;
  bool same_model = true;
  std::int64_t evals = 0, compiles = 0, memo = 0, fallbacks = 0, exits = 0;
  std::uint64_t wcache = 0;
  const auto start = Clock::now();
  do {
    Tracer::Scope s(tr, "core.search_round");
    const auto t0 = Clock::now();
    std::unique_ptr<core::QGraphEvaluator> eval;
    {
      Tracer::Scope c(tr, "core.calibrate");
      eval = std::make_unique<core::QGraphEvaluator>(*net, subset, kSubset,
                                                     kEvalBatch, qcfg);
    }
    const auto t1 = Clock::now();
    TimedEvaluator timed(*eval, tr);
    core::FrameworkResult res;
    {
      Tracer::Scope c(tr, "core.run_qcapsnets");
      res = core::run_qcapsnets(timed, fcfg);
    }
    const auto t2 = Clock::now();
    setup_s.push_back(ms_between(t0, t1) / 1e3);
    search_ms.push_back(ms_between(t1, t2));
    fp32_ms.push_back(timed.fp32_ms);
    eval_ms.insert(eval_ms.end(), timed.eval_ms.begin(), timed.eval_ms.end());
    evals = res.total_evaluations;
    compiles = eval->graphs_compiled();
    memo = eval->memo_hits();
    fallbacks = eval->fake_quant_fallbacks();
    exits = eval->truncated_evals();
    wcache = eval->weight_cache().hits();
    if (!first) {
      first = res;
    } else {
      same_model = same_model &&
                   selected(res).spec.to_string() ==
                       selected(*first).spec.to_string() &&
                   selected(res).accuracy == selected(*first).accuracy;
    }
  } while (ms_between(start, Clock::now()) < a.seconds * 1e3);
  r.attempted = static_cast<std::int64_t>(search_ms.size());
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("setup_s", median(setup_s));
  r.set("search_ms", median(search_ms));
  r.set("fp32_ms", median(fp32_ms));

  const core::FrameworkResult& res = *first;
  const core::QuantizedModel& m = selected(res);
  r.check("every search selected the same model", same_model);
  r.check("the selected model is feasible", res.feasible && m.feasible);

  // A freshly compiled graph (no weight cache, no memo, no early exit) on
  // the whole subset gives exactly the reported accuracy.
  core::NetworkQuantSpec spec = m.spec;
  core::Evaluator calibration(*net, subset, kSubset, kEvalBatch);
  calibration.calibrate_spec(spec);
  const auto g = qcaps::qengine::QuantizedGraph::compile(*net, spec);
  const float acc = accuracy(
      subset, [&](const tensor::Tensor& x) { return g.predict_batch(x); });
  r.check("fresh compiled graph reproduces the reported accuracy",
          acc == m.accuracy);
  r.check("the selected accuracy meets the target", acc >= res.acc_target);

  std::int64_t bits = 0;
  for (std::size_t l = 0; l < layer_params.size(); ++l)
    bits += layer_params[l] * m.spec.layers[l].weight_wordlength();
  r.check("recomputed weight bits equal the reported bits",
          bits == m.weight_bits);
  if (res.path == core::ExitPath::kSatisfied)
    r.check("the Path-A model fits the memory budget",
            bits <= fcfg.memory_budget_bits);
  r.set("w_mem_x", static_cast<double>(fp32_bits) / static_cast<double>(bits));
  r.set("search.path_a", res.path == core::ExitPath::kSatisfied ? 1 : 0);
  r.set("search.accuracy", m.accuracy);
  r.set("search.acc_fp32", res.acc_fp32);
  r.set("search.acc_target", res.acc_target);

  r.set("core.evals", static_cast<double>(evals));
  r.set("core.compiles", static_cast<double>(compiles));
  r.set("core.memo_hits", static_cast<double>(memo));
  r.set("core.fallbacks", static_cast<double>(fallbacks));
  r.set("core.early_exits", static_cast<double>(exits));
  r.set("core.wcache_hits", static_cast<double>(wcache));
  r.set("core.eval_ms", median(eval_ms));
  r.set("core.calibrate_ms", median(setup_s) * 1e3);
  if (tr.enabled()) probe_layers(a, *net, kEvalBatch, tr, r);
  tr.write(a.trace);
  r.print();
}

}  // namespace qbench
