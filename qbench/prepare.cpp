// Untimed modes: remake the pinned checkpoint, export the int8 `.qcg`, and
// dump the int8 class-capsule output of a sample (run by run.py with every
// kernel dispatch forced to its scalar tier, as the offline check's oracle).
#include <fstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "data/synth.hpp"
#include "io/model_serializer.hpp"
#include "models/deep_caps.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "qengine/qgraph.hpp"

namespace qbench {

void run_train(const Args& a) {
  qcaps::data::SynthConfig dcfg;
  dcfg.train_size = Recipe::kTrainSize;
  dcfg.test_size = Recipe::kTestSize;
  dcfg.seed = Recipe::kDataSeed;
  const qcaps::data::DataSplit split = qcaps::data::make_cifar_split(dcfg);
  qcaps::common::Rng rng(Recipe::kInitSeed);
  auto net = qcaps::models::build_deep_caps(
      qcaps::models::DeepCapsConfig::experiment(32, 3), rng);
  qcaps::nn::TrainConfig tcfg;
  tcfg.epochs = Recipe::kEpochs;
  tcfg.augment = qcaps::data::AugmentPolicy::cifar10();
  tcfg.verbose = false;
  const auto res = qcaps::nn::train(*net, split.train, split.test, tcfg);
  qcaps::nn::save_params(*net, a.out);
  Report r;
  r.attempted = 1;
  r.set("fp32_acc", res.test_accuracy);
  r.print();
}

void run_prepare(const Args& a) {
  auto net = load_fp32(a.checkpoint);
  const core::NetworkQuantSpec spec = int8_spec(*net);
  const auto g = qcaps::qengine::QuantizedGraph::compile(*net, spec);
  qcaps::io::SaveOptions opts;
  opts.in_channels = 3;
  opts.in_h = 32;
  opts.in_w = 32;
  qcaps::io::save_graph(g, a.qcg, opts);

  // The fake-quant reference accuracy the offline check compares the int8
  // graph against, on the pinned test set.
  const data::Dataset pinned = pinned_test_set();
  core::Evaluator fake_quant(*net, pinned);
  Report r;
  r.attempted = 1;
  r.set("fake_quant_acc", fake_quant.evaluate(spec));
  const auto names = core::spec_layer_names(*net);
  for (std::size_t l = 0; l < spec.layers.size(); ++l) {
    const auto& s = spec.layers[l];
    r.set("spec." + names[l] + ".qw", s.qw_int * 100 + s.qw_frac);
    r.set("spec." + names[l] + ".qa", s.qa_int * 100 + s.qa_frac);
    r.set("spec." + names[l] + ".qdr", s.qdr_int * 100 + s.qdr_frac);
  }
  r.print();
}

/// Raw class-capsule output of the first `kScoreSample` offline images.
constexpr std::int64_t kScoreSample = 32;

std::vector<std::int64_t> int8_raw_scores(const std::string& qcg,
                                          std::uint64_t seed) {
  const auto g = qcaps::io::load_graph(qcg);
  const data::Dataset images = seeded_images(kScoreSample, seed, 1);
  return g.forward(rows(images, 0, kScoreSample)).raw;
}

void run_scores(const Args& a) {
  const auto raw = int8_raw_scores(a.qcg, a.seed);
  std::ofstream out(a.out);
  for (const auto v : raw) out << v << '\n';
  QCAPS_CHECK_MSG(out.good(), "cannot write " << a.out);
  Report r;
  r.attempted = 1;
  r.set("values", static_cast<double>(raw.size()));
  r.print();
}

}  // namespace qbench
