// Perturbation robustness suite: how much accuracy do the fixed-point
// deployments lose — beyond their FP32 reference — when the inputs are
// perturbed? Runs both model families (ShallowCaps and DeepCaps) against a
// grid of deterministic perturbations (pixel shift, gaussian noise,
// contrast; src/data/perturb.hpp) at int8-tier and int16-tier wordlengths,
// and reports accuracy plus degradation vs each model's own clean run.
//
// The interesting column is the *extra* drop of the quantized model over
// FP32 under the same perturbation: noise and contrast push activations
// toward the fixed-point rails, so narrow formats degrade faster than the
// clean-accuracy gap suggests (watch the requant-saturation counters in
// docs/robustness.md for the serving-time view of the same effect).
//
// Usage: perturbation_suite [--test-size=256] [--epochs=3] [--skip-deepcaps]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/evaluator.hpp"
#include "data/perturb.hpp"
#include "data/synth.hpp"
#include "models/model_cache.hpp"
#include "qengine/qgraph.hpp"

namespace {

using qcaps::tensor::Tensor;

struct Perturbation {
  std::string name;
  std::function<Tensor(const Tensor&)> apply;
};

std::vector<Perturbation> make_perturbations() {
  using namespace qcaps;
  return {
      {"clean", [](const Tensor& b) { return b; }},
      {"shift +2px", [](const Tensor& b) { return data::shift_batch(b, 2, 0); }},
      {"noise s=0.08",
       [](const Tensor& b) {
         common::Rng rng(911);  // fixed seed: fp32/int8/int16 see one input
         return data::gaussian_noise_batch(b, 0.08f, rng);
       }},
      {"contrast 0.6",
       [](const Tensor& b) { return data::adjust_contrast_batch(b, 0.6f); }},
  };
}

/// Accuracy of `predict` over the test set, perturbed by `apply`, in
/// bounded batches (bit-exact per sample regardless of chunking).
double accuracy(const qcaps::data::Dataset& test,
                const std::function<Tensor(const Tensor&)>& apply,
                const std::function<std::vector<int>(const Tensor&)>& predict) {
  int correct = 0;
  std::int64_t total = 0;
  for (std::int64_t b0 = 0; b0 < test.size(); b0 += 64) {
    std::vector<std::int64_t> idx;
    for (std::int64_t i = b0; i < std::min(test.size(), b0 + 64); ++i)
      idx.push_back(i);
    const std::vector<int> pred = predict(apply(test.batch(idx)));
    for (std::size_t i = 0; i < pred.size(); ++i)
      if (pred[i] == test.labels[idx[i]]) ++correct;
    total += static_cast<std::int64_t>(pred.size());
  }
  return 100.0 * correct / static_cast<double>(total);
}

/// One model family's sweep: FP32 vs int8-tier vs int16-tier under every
/// perturbation, each column's degradation measured from its own clean row.
void run_family(
    const std::string& family, const qcaps::data::Dataset& test,
    const std::function<std::vector<int>(const Tensor&)>& fp32,
    const std::function<std::vector<int>(const Tensor&)>& int8_pred,
    const std::function<std::vector<int>(const Tensor&)>& int16_pred) {
  std::printf("\n=== %s ===\n", family.c_str());
  std::printf("%-14s %10s %10s %10s %9s %9s %9s\n", "perturbation", "fp32",
              "int8", "int16", "d-fp32", "d-int8", "d-int16");
  double clean_fp32 = 0.0, clean_i8 = 0.0, clean_i16 = 0.0;
  for (const auto& p : make_perturbations()) {
    const double a_fp32 = accuracy(test, p.apply, fp32);
    const double a_i8 = accuracy(test, p.apply, int8_pred);
    const double a_i16 = accuracy(test, p.apply, int16_pred);
    if (p.name == "clean") {
      clean_fp32 = a_fp32;
      clean_i8 = a_i8;
      clean_i16 = a_i16;
    }
    std::printf("%-14s %9.2f%% %9.2f%% %9.2f%% %8.2f%% %8.2f%% %8.2f%%\n",
                p.name.c_str(), a_fp32, a_i8, a_i16, a_fp32 - clean_fp32,
                a_i8 - clean_i8, a_i16 - clean_i16);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qcaps;
  const common::CliArgs args(argc, argv);

  data::SynthConfig dcfg;
  dcfg.train_size = 2000;
  dcfg.test_size = static_cast<std::int64_t>(args.get_double("test-size", 256));
  const data::DataSplit split = data::make_digits_split(dcfg);

  nn::TrainConfig tcfg;
  tcfg.epochs = static_cast<int>(args.get_double("epochs", 3));
  tcfg.augment = data::AugmentPolicy::mnist();
  auto shallow = models::get_trained_shallow_caps(split, "digits", tcfg);

  // Int8-tier (Q1.6) and int16-tier (Q1.12) uniform specs, calibrated on
  // the clean test set — the same calibration a deployment would ship with,
  // so perturbed inputs genuinely stress the chosen integer ranges.
  core::Evaluator calib(*shallow.net, split.test, 384);
  core::NetworkQuantSpec s8 = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  core::NetworkQuantSpec s16 = core::NetworkQuantSpec::uniform(
      3, 12, fixed::RoundingScheme::kRoundToNearest);
  calib.calibrate_spec(s8);
  calib.calibrate_spec(s16);
  const auto q8 = qengine::QuantizedGraph::compile(*shallow.net, s8);
  const auto q16 = qengine::QuantizedGraph::compile(*shallow.net, s16);
  run_family(
      "ShallowCaps", split.test,
      [&](const Tensor& b) { return shallow.net->predict_batch(b); },
      [&](const Tensor& b) { return q8.predict_batch(b); },
      [&](const Tensor& b) { return q16.predict_batch(b); });

  if (args.get_bool("skip-deepcaps", false)) return 0;

  nn::TrainConfig dtcfg;
  dtcfg.epochs = tcfg.epochs;
  auto deep = models::get_trained_deep_caps(split, "digits", dtcfg);
  core::Evaluator dcalib(*deep.net, split.test, 384);
  core::NetworkQuantSpec d8 = core::NetworkQuantSpec::uniform(
      6, 6, fixed::RoundingScheme::kRoundToNearest);
  core::NetworkQuantSpec d16 = core::NetworkQuantSpec::uniform(
      6, 12, fixed::RoundingScheme::kRoundToNearest);
  dcalib.calibrate_spec(d8);
  dcalib.calibrate_spec(d16);
  const auto dq8 = qengine::QuantizedGraph::compile(*deep.net, d8);
  const auto dq16 = qengine::QuantizedGraph::compile(*deep.net, d16);
  run_family(
      "DeepCaps", split.test,
      [&](const Tensor& b) { return deep.net->predict_batch(b); },
      [&](const Tensor& b) { return dq8.predict_batch(b); },
      [&](const Tensor& b) { return dq16.predict_batch(b); });
  return 0;
}
