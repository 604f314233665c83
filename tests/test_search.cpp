// Tests for the Algorithm 1 search primitives (binary search, Algorithm 2,
// Algorithm 3) — against a scripted accuracy oracle for the algorithmic
// invariants, and against a small trained CapsNet for the end-to-end
// behaviour (fake-quant and qgraph evaluators).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "core/pareto.hpp"
#include "core/qgraph_evaluator.hpp"
#include "core/search.hpp"
#include "data/synth.hpp"
#include "models/shallow_caps.hpp"
#include "nn/trainer.hpp"

namespace qcaps::core {
namespace {

// ---------------------------------------------------------------------------
// Scripted oracle: the Algorithm 1/2/3 invariants don't need a trained
// network, just a deterministic accuracy function over specs.
class ScriptedEvaluator : public EvaluatorBase {
 public:
  using Oracle = std::function<float(const NetworkQuantSpec&)>;
  explicit ScriptedEvaluator(Oracle oracle, std::size_t num_layers = 3)
      : oracle_(std::move(oracle)) {
    std::vector<LayerSizes> layers(num_layers);
    for (std::size_t i = 0; i < num_layers; ++i) {
      // Append rather than "L" + to_string(i): GCC 12 -Wrestrict false
      // positive (PR105651) at -O3.
      std::string name("L");
      name += std::to_string(i);
      layers[i].name = std::move(name);
      layers[i].params = 1000 >> i;  // decreasing, like real CapsNets aren't —
      layers[i].activations = 256;   // sizes only matter for trace tests
      layers[i].macs = 10000;
    }
    mem_ = MemoryModel::from_layers(std::move(layers));
  }

  float evaluate(const NetworkQuantSpec& spec) override {
    return record(spec, oracle_(spec));
  }
  float evaluate_fp32() override {
    ++evals_;
    return 1.0f;
  }
  void calibrate_spec(NetworkQuantSpec&) const override {}
  const MemoryModel& memory() const override { return mem_; }

 private:
  Oracle oracle_;
  MemoryModel mem_;
};

int min_qa_frac(const NetworkQuantSpec& spec) {
  int m = 64;
  for (const auto& l : spec.layers) m = std::min(m, l.qa_frac);
  return m;
}

// Regression lock for the get_frac/set_frac clobber: with divergent qw/qa
// bases (exactly what Step 2 produces), a kWeightsAndActivations reduction
// must decrement each field from its own value, preserving the offsets.
TEST(ScriptedSearch, LayerWisePreservesDivergentBases) {
  auto base = NetworkQuantSpec::uniform(3, 0, fixed::RoundingScheme::kTruncation);
  const int qw[] = {12, 10, 8};
  const int qa[] = {6, 5, 4};
  for (int i = 0; i < 3; ++i) {
    base.layers[i].qw_frac = qw[i];
    base.layers[i].qa_frac = qa[i];
  }
  ScriptedEvaluator eval(
      [](const NetworkQuantSpec& s) { return min_qa_frac(s) >= 3 ? 1.0f : 0.0f; });
  const auto res = layer_wise_quantization(
      eval, base, Target::kWeightsAndActivations, 0.9f);
  EXPECT_TRUE(res.feasible);
  for (int i = 0; i < 3; ++i) {
    // The qw − qa offset survives every accepted reduction. Before the fix,
    // one shared value was written into both fields.
    EXPECT_EQ(res.spec.layers[i].qw_frac - res.spec.layers[i].qa_frac,
              qw[i] - qa[i])
        << "layer " << i;
  }
  EXPECT_EQ(res.spec.layers[0].qa_frac, qa[0]);  // first layer untouched
  EXPECT_GE(min_qa_frac(res.spec), 3);           // floor honored
}

TEST(ScriptedSearch, BinarySearchFindsExactThreshold) {
  // accuracy = frac/31: the minimum width meeting floor 0.5 is 16.
  ScriptedEvaluator eval([](const NetworkQuantSpec& s) {
    return static_cast<float>(s.layers[0].qa_frac) / 31.0f;
  });
  const auto base =
      NetworkQuantSpec::uniform(3, 31, fixed::RoundingScheme::kTruncation);
  const auto res = binary_search_uniform(
      eval, base, Target::kWeightsAndActivations, 31, 1, 0.5f);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.frac_bits, 16);
  EXPECT_GE(res.accuracy, 0.5f);
  // Binary search, not a linear scan: O(log2(31)) evaluations.
  EXPECT_LE(eval.num_evaluations(), 7);
}

TEST(ScriptedSearch, BinarySearchInfeasibleIsFlagged) {
  ScriptedEvaluator eval([](const NetworkQuantSpec&) { return 0.1f; });
  const auto base =
      NetworkQuantSpec::uniform(3, 15, fixed::RoundingScheme::kTruncation);
  const auto res = binary_search_uniform(
      eval, base, Target::kWeightsAndActivations, 15, 1, 0.9f);
  EXPECT_FALSE(res.feasible);
  // The result still describes the best (= widest) attempt.
  EXPECT_EQ(res.frac_bits, 15);
  EXPECT_FLOAT_EQ(res.accuracy, 0.1f);
}

TEST(ScriptedSearch, LayerWiseInfeasibleBaseIsFlagged) {
  ScriptedEvaluator eval([](const NetworkQuantSpec&) { return 0.2f; });
  const auto base =
      NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kTruncation);
  const auto res = layer_wise_quantization(eval, base, Target::kActivations, 0.9f);
  EXPECT_FALSE(res.feasible);
}

TEST(ScriptedSearch, DrQuantStopsOneAboveTheCliff) {
  // Routing survives down to QDR = 4; Algorithm 3 must land exactly there.
  ScriptedEvaluator eval([](const NetworkQuantSpec& s) {
    const int q = s.layers[2].qdr_frac;
    return (q < 0 || q >= 4) ? 1.0f : 0.0f;
  });
  const auto base =
      NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kTruncation);
  const auto res = dr_quantization(eval, base, 2, 8, 0.9f);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.qdr_frac, 4);
}

TEST(ScriptedSearch, DrQuantInfeasibleInitIsFlagged) {
  // Quantizing routing at all already violates the floor — the caller must
  // be told so it can keep the pre-DR spec (the old code shipped the
  // below-target point as if it were fine).
  ScriptedEvaluator eval([](const NetworkQuantSpec& s) {
    return s.layers[2].qdr_frac >= 0 ? 0.0f : 1.0f;
  });
  const auto base =
      NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kTruncation);
  const auto res = dr_quantization(eval, base, 2, 8, 0.9f);
  EXPECT_FALSE(res.feasible);
}

TEST(ScriptedSearch, TraceRecordsEveryEvaluationAndParetoIsClean) {
  ScriptedEvaluator eval([](const NetworkQuantSpec& s) {
    return static_cast<float>(s.layers[0].qa_frac) / 31.0f;
  });
  SearchTrace trace;
  trace.attach(eval);
  const auto base =
      NetworkQuantSpec::uniform(3, 31, fixed::RoundingScheme::kTruncation);
  binary_search_uniform(eval, base, Target::kWeightsAndActivations, 31, 1, 0.5f);
  EXPECT_EQ(static_cast<std::int64_t>(trace.points().size()),
            eval.num_evaluations());
  for (const auto& p : trace.points()) {
    EXPECT_GT(p.weight_bits, 0);
    EXPECT_GT(p.energy_pj, 0.0);
  }
  // Pareto front: strictly increasing memory AND strictly increasing
  // accuracy (dominated and duplicate points removed).
  const auto front = trace.pareto_indices();
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(trace.points()[front[i]].weight_bits,
              trace.points()[front[i - 1]].weight_bits);
    EXPECT_GT(trace.points()[front[i]].accuracy,
              trace.points()[front[i - 1]].accuracy);
  }
  eval.set_observer({});
}

/// Shared trained model: training happens once per test binary.
class SearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthConfig dcfg;
    dcfg.train_size = 600;
    dcfg.test_size = 128;
    split_ = new data::DataSplit(data::make_digits_split(dcfg));
    auto mcfg = models::ShallowCapsConfig::experiment();
    mcfg.conv_channels = 16;
    mcfg.primary_types = 2;
    common::Rng rng(21);
    net_ = models::build_shallow_caps(mcfg, rng).release();
    nn::TrainConfig tcfg;
    tcfg.epochs = 6;
    tcfg.verbose = false;
    nn::train(*net_, split_->train, split_->test, tcfg);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete split_;
    net_ = nullptr;
    split_ = nullptr;
  }

  void SetUp() override {
    eval_ = std::make_unique<Evaluator>(*net_, split_->test, 128);
    acc_fp32_ = eval_->evaluate_fp32();
    ASSERT_GT(acc_fp32_, 0.8f) << "fixture model failed to train";
  }

  static data::DataSplit* split_;
  static nn::Network* net_;
  std::unique_ptr<Evaluator> eval_;
  float acc_fp32_ = 0.0f;
};

data::DataSplit* SearchTest::split_ = nullptr;
nn::Network* SearchTest::net_ = nullptr;

TEST_F(SearchTest, EvaluatorFp32MatchesDirectEvaluate) {
  const float direct = nn::evaluate(*net_, split_->test, 64, 128);
  EXPECT_FLOAT_EQ(acc_fp32_, direct);
}

TEST_F(SearchTest, EvaluatorCountsEvaluations) {
  const auto before = eval_->num_evaluations();
  eval_->evaluate(NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest));
  EXPECT_EQ(eval_->num_evaluations(), before + 1);
}

TEST_F(SearchTest, HighPrecisionQuantizationIsAccuracyNeutral) {
  const float acc = eval_->evaluate(
      NetworkQuantSpec::uniform(3, 20, fixed::RoundingScheme::kRoundToNearest));
  EXPECT_NEAR(acc, acc_fp32_, 0.01f);
}

TEST_F(SearchTest, OneBitQuantizationDestroysAccuracy) {
  const float acc = eval_->evaluate(
      NetworkQuantSpec::uniform(3, 0, fixed::RoundingScheme::kRoundToNearest));
  EXPECT_LT(acc, 0.6f);
}

TEST_F(SearchTest, CalibrationAssignsSaneIntegerBits) {
  auto spec = NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest);
  eval_->calibrate_spec(spec);
  for (const auto& l : spec.layers) {
    EXPECT_GE(l.qa_int, 1);
    EXPECT_LE(l.qa_int, 8);
    EXPECT_GE(l.qw_int, 1);  // 1 integer bit unless trained weights exceed ±1
    EXPECT_LE(l.qw_int, 8);
    EXPECT_GE(l.qdr_int, l.qa_int);
  }
}

TEST_F(SearchTest, BinarySearchFindsSatisfyingWidth) {
  const float floor = acc_fp32_ * 0.999f;
  const auto base = NetworkQuantSpec::uniform(3, 31, fixed::RoundingScheme::kRoundToNearest);
  const auto res = binary_search_uniform(*eval_, base,
                                         Target::kWeightsAndActivations, 31, 1,
                                         floor);
  EXPECT_GE(res.accuracy, floor);
  EXPECT_LT(res.frac_bits, 31);  // must actually compress
  EXPECT_GE(res.frac_bits, 1);
  // All layers set uniformly.
  for (const auto& l : res.spec.layers) {
    EXPECT_EQ(l.qw_frac, res.frac_bits);
    EXPECT_EQ(l.qa_frac, res.frac_bits);
  }
}

TEST_F(SearchTest, BinarySearchResultIsMinimalOrNearMinimal) {
  // One fractional bit fewer than the found width must violate the floor —
  // up to SR-free monotonic noise; we verify with the same deterministic
  // scheme the search used.
  const float floor = acc_fp32_ * 0.999f;
  const auto base = NetworkQuantSpec::uniform(3, 31, fixed::RoundingScheme::kRoundToNearest);
  const auto res = binary_search_uniform(*eval_, base,
                                         Target::kWeightsAndActivations, 31, 1,
                                         floor);
  if (res.frac_bits > 1) {
    auto below = res.spec;
    for (auto& l : below.layers) {
      l.qw_frac = res.frac_bits - 1;
      l.qa_frac = res.frac_bits - 1;
    }
    EXPECT_LT(eval_->evaluate(below), floor);
  }
}

TEST_F(SearchTest, BinarySearchWeightsOnlyLeavesActivationsUntouched) {
  auto base = NetworkQuantSpec::uniform(3, 12, fixed::RoundingScheme::kRoundToNearest);
  const auto res = binary_search_uniform(*eval_, base, Target::kWeights, 12, 1,
                                         acc_fp32_ * 0.99f);
  for (const auto& l : res.spec.layers) EXPECT_EQ(l.qa_frac, 12);
}

TEST_F(SearchTest, LayerWiseNeverTouchesFirstLayer) {
  const auto base = NetworkQuantSpec::uniform(3, 10, fixed::RoundingScheme::kRoundToNearest);
  const auto res = layer_wise_quantization(*eval_, base, Target::kActivations,
                                           acc_fp32_ * 0.98f);
  EXPECT_EQ(res.spec.layers[0].qa_frac, 10);  // Algorithm 2 starts at l = 1
}

TEST_F(SearchTest, LayerWiseProducesMonotoneDeeperReduction) {
  // Later layers see strictly more reduction rounds, so widths must be
  // non-increasing from layer 1 onward.
  const auto base = NetworkQuantSpec::uniform(3, 10, fixed::RoundingScheme::kRoundToNearest);
  const auto res = layer_wise_quantization(*eval_, base, Target::kActivations,
                                           acc_fp32_ * 0.98f);
  EXPECT_GE(res.spec.layers[1].qa_frac, res.spec.layers[2].qa_frac);
  EXPECT_GE(res.accuracy, acc_fp32_ * 0.98f);
}

TEST_F(SearchTest, LayerWiseOnWeightsRespectsFloor) {
  const auto base = NetworkQuantSpec::uniform(3, 10, fixed::RoundingScheme::kRoundToNearest);
  const auto res = layer_wise_quantization(*eval_, base, Target::kWeights,
                                           acc_fp32_ * 0.99f);
  EXPECT_GE(res.accuracy, acc_fp32_ * 0.99f);
  // Weights reduced below the start for at least one deep layer.
  EXPECT_LE(res.spec.layers[2].qw_frac, 10);
}

TEST_F(SearchTest, DrQuantReducesBelowActivationWidth) {
  // The paper's central claim: QDR < Qa with bounded accuracy loss.
  auto base = NetworkQuantSpec::uniform(3, 10, fixed::RoundingScheme::kRoundToNearest);
  base.layers[2].qa_frac = 8;
  const auto res = dr_quantization(*eval_, base, 2, 8, acc_fp32_ * 0.98f);
  EXPECT_LE(res.qdr_frac, 8);
  EXPECT_GE(res.accuracy, acc_fp32_ * 0.98f);
  EXPECT_EQ(res.spec.layers[2].qdr_frac, res.qdr_frac);
}

TEST_F(SearchTest, DrQuantRejectsNonexistentLayer) {
  const auto base = NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest);
  EXPECT_THROW(dr_quantization(*eval_, base, 7, 8, 0.5f), qcaps::Error);
}

// ---------------------------------------------------------------------------
// Calibration probing (satellite: the probe used to read the FIRST 64 images,
// so a class-sorted dataset calibrated on one class only).

// Two datasets holding the same 128 images — 64 real digits and 64 all-black
// frames — in opposite block orders. The strided probe picks the even indices
// of both halves either way, i.e. the SAME multiset of images, so calibration
// must agree exactly. The old first-64 probe saw only zeros in one layout and
// only digits in the other.
TEST_F(SearchTest, CalibrationIsOrderIndependentOnSortedData) {
  const std::int64_t half = 64;
  std::vector<std::int64_t> idx(half);
  std::iota(idx.begin(), idx.end(), 0);
  const tensor::Tensor real = split_->test.batch(idx);
  const tensor::Tensor dark = tensor::Tensor::zeros(real.shape());

  const auto stacked = [&](const tensor::Tensor& first,
                           const tensor::Tensor& second, bool real_is_first) {
    data::Dataset ds;
    ds.name = "calib-order";
    ds.num_classes = split_->test.num_classes;
    tensor::Shape shape = real.shape();
    shape[0] = 2 * half;
    ds.images = tensor::Tensor::zeros(shape);
    std::copy_n(first.data(), first.numel(), ds.images.data());
    std::copy_n(second.data(), second.numel(),
                ds.images.data() + first.numel());
    for (std::int64_t i = 0; i < 2 * half; ++i) {
      const bool is_real = (i < half) == real_is_first;
      const std::int64_t real_idx = real_is_first ? i : i - half;
      ds.labels.push_back(
          is_real ? split_->test.labels[static_cast<std::size_t>(real_idx)]
                  : 0);
    }
    return ds;
  };
  const data::Dataset real_first = stacked(real, dark, /*real_is_first=*/true);
  const data::Dataset dark_first = stacked(dark, real, /*real_is_first=*/false);

  Evaluator ev_real_first(*net_, real_first, 128);
  Evaluator ev_dark_first(*net_, dark_first, 128);
  auto spec_a = NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest);
  auto spec_b = spec_a;
  ev_real_first.calibrate_spec(spec_a);
  ev_dark_first.calibrate_spec(spec_b);

  int max_qa_int = 0;
  for (std::size_t i = 0; i < spec_a.layers.size(); ++i) {
    EXPECT_EQ(spec_a.layers[i].qa_int, spec_b.layers[i].qa_int) << "layer " << i;
    EXPECT_EQ(spec_a.layers[i].qdr_int, spec_b.layers[i].qdr_int) << "layer " << i;
    max_qa_int = std::max(max_qa_int, spec_a.layers[i].qa_int);
  }
  // Guard against both probes degenerating to the all-black frames.
  EXPECT_GE(max_qa_int, 2);
}

// ---------------------------------------------------------------------------
// QGraphEvaluator: the integer deployment path as the search oracle.

TEST_F(SearchTest, QGraphAgreesWithFakeQuantOnRtn) {
  QGraphEvaluator q(*net_, split_->test, 128);
  const auto spec =
      NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest);
  const float fake = eval_->evaluate(spec);
  const float graph = q.evaluate(spec);
  // The candidate must actually have run on the compiled integer graph —
  // otherwise this test silently compares fake-quant with itself.
  ASSERT_EQ(q.graphs_compiled(), 1);
  ASSERT_EQ(q.fake_quant_fallbacks(), 0);
  EXPECT_NEAR(graph, fake, 0.10f);
}

TEST_F(SearchTest, QGraphMemoizesRepeatedSpecs) {
  QGraphEvaluator q(*net_, split_->test, 128);
  const auto spec =
      NetworkQuantSpec::uniform(3, 7, fixed::RoundingScheme::kRoundToNearest);
  const float first = q.evaluate(spec);
  const float second = q.evaluate(spec);
  EXPECT_FLOAT_EQ(first, second);
  EXPECT_EQ(q.memo_hits(), 1);
  EXPECT_EQ(q.graphs_compiled(), 1);
  // Memoized replays are not new evaluations and must not re-notify.
  EXPECT_EQ(q.num_evaluations(), 1);
}

TEST_F(SearchTest, QGraphReusesPackedWeightsAcrossCandidates) {
  QGraphEvaluator q(*net_, split_->test, 128);
  auto spec =
      NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest);
  q.evaluate(spec);
  // Same per-layer weight specs, different activation widths: Algorithm 2's
  // shape. Every weight tensor should come out of the cache.
  for (auto& l : spec.layers) l.qa_frac = 7;
  q.evaluate(spec);
  EXPECT_EQ(q.graphs_compiled(), 2);
  EXPECT_GT(q.weight_cache().hits(), 0u);
}

TEST_F(SearchTest, QGraphRoutesUnservableSpecsToFakeQuant) {
  QGraphEvaluator q(*net_, split_->test, 128);
  // Non-RTN: the packed requant implements round-to-nearest only.
  q.evaluate(NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kTruncation));
  EXPECT_EQ(q.fake_quant_fallbacks(), 1);
  // Step 1's widest probes overflow the packed tier's int32 accumulator.
  q.evaluate(
      NetworkQuantSpec::uniform(3, 20, fixed::RoundingScheme::kRoundToNearest));
  EXPECT_EQ(q.fake_quant_fallbacks(), 2);
  EXPECT_EQ(q.graphs_compiled(), 0);
}

TEST_F(SearchTest, QGraphServedMatchesDirect) {
  QGraphEvalConfig served_cfg;
  served_cfg.workers = 2;
  QGraphEvaluator direct(*net_, split_->test, 128);
  QGraphEvaluator served(*net_, split_->test, 128, 64, served_cfg);
  const auto spec =
      NetworkQuantSpec::uniform(3, 8, fixed::RoundingScheme::kRoundToNearest);
  EXPECT_FLOAT_EQ(served.evaluate(spec), direct.evaluate(spec));
}

TEST_F(SearchTest, QGraphBoundedTruncatesHopelessCandidates) {
  QGraphEvaluator q(*net_, split_->test, 128);
  const auto spec =
      NetworkQuantSpec::uniform(3, 0, fixed::RoundingScheme::kRoundToNearest);
  bool saw_truncated = false;
  float observed = 0.0f;
  q.set_observer([&](const NetworkQuantSpec&, float acc, bool truncated) {
    saw_truncated = truncated;
    observed = acc;
  });
  const float bound = q.evaluate_bounded(spec, /*acc_floor=*/0.95f);
  EXPECT_LT(bound, 0.95f);  // the verdict the search needs is exact
  EXPECT_EQ(q.truncated_evals(), 1);
  EXPECT_TRUE(saw_truncated);
  EXPECT_FLOAT_EQ(observed, bound);

  // Truncated results are upper bounds and must not be memoized: the full
  // evaluation re-runs and can only come in at or below the bound.
  q.set_observer({});
  const float full = q.evaluate(spec);
  EXPECT_EQ(q.memo_hits(), 0);
  EXPECT_EQ(q.num_evaluations(), 2);
  EXPECT_LE(full, bound);
}

}  // namespace
}  // namespace qcaps::core
