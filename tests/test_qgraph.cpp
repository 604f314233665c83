// Tests for the generic quantized-graph executor (qengine/qgraph):
//
//  * golden lock — the compiled ShallowCaps graph must reproduce the
//    pre-refactor hand-rolled implementation raw-for-raw (the legacy forward
//    is kept verbatim below as the oracle), across specs and qgemm tiers;
//  * batch-norm folding — folded conv weights/bias must match the unfused
//    FP32 conv + eval-mode BN reference;
//  * the new integer ops (channel squash, saturating residual add);
//  * DeepCaps compilation structure and network-scale validation: integer
//    forward tracks the FP32 model, batched == sequential bit-exact, and the
//    deployment's accuracy matches the fake-quantized evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "data/synth.hpp"
#include "models/deep_caps.hpp"
#include "models/model_cache.hpp"
#include "models/shallow_caps.hpp"
#include "nn/batch_norm.hpp"
#include "nn/caps_ops.hpp"
#include "nn/conv2d_layer.hpp"
#include "nn/fc_caps.hpp"
#include "nn/primary_caps.hpp"
#include "nn/trainer.hpp"
#include "io/model_serializer.hpp"
#include "qengine/qgraph.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::qengine {
namespace {

// ---- the pre-refactor ShallowCaps deployment, verbatim ----------------------
//
// The hand-rolled three-layer deployment exactly as it existed before the
// quantized-graph refactor (PR 5). Kept as the raw-for-raw oracle: the graph
// executor must reproduce every rescale point and traversal order of this
// code.
class LegacyShallowCaps {
 public:
  LegacyShallowCaps(nn::Network& net, const core::NetworkQuantSpec& spec) {
    const auto widx = net.weighted_layers();
    QCAPS_CHECK_MSG(widx.size() == 3 && spec.layers.size() == 3,
                    "the legacy deployment expects the 3-layer ShallowCaps");
    auto* conv = dynamic_cast<nn::Conv2dLayer*>(&net.layer(widx[0]));
    auto* primary = dynamic_cast<nn::PrimaryCapsLayer*>(&net.layer(widx[1]));
    auto* digit = dynamic_cast<nn::FCCapsLayer*>(&net.layer(widx[2]));
    QCAPS_CHECK_MSG(conv != nullptr && primary != nullptr && digit != nullptr,
                    "network layout is not ShallowCaps");
    const auto& l1 = spec.layers[0];
    const auto& l2 = spec.layers[1];
    const auto& l3 = spec.layers[2];
    const auto scheme = spec.scheme;

    act1_ = fixed::FixedFormat(l1.qa_int, l1.qa_frac);
    input_fmt_ = act1_;
    w1_ = QTensor::from_float(conv->master_weight(),
                              fixed::FixedFormat(l1.qw_int, l1.qw_frac),
                              scheme);
    b1_ = QTensor::from_float(conv->master_bias(),
                              fixed::FixedFormat(l1.qw_int, l1.qw_frac),
                              scheme);
    w1_cache_ = make_operand_cache(w1_);
    stride1_ = conv->stride();
    pad1_ = conv->pad();

    act2_ = fixed::FixedFormat(l2.qa_int, l2.qa_frac);
    w2_ = QTensor::from_float(primary->master_weight(),
                              fixed::FixedFormat(l2.qw_int, l2.qw_frac),
                              scheme);
    b2_ = QTensor::from_float(primary->master_bias(),
                              fixed::FixedFormat(l2.qw_int, l2.qw_frac),
                              scheme);
    w2_cache_ = make_operand_cache(w2_);
    stride2_ = primary->stride();
    caps_types_ = primary->caps_types();
    caps_dim_ = primary->caps_dim();

    act3_ = fixed::FixedFormat(l3.qa_int, l3.qa_frac);
    dr3_ = fixed::FixedFormat(l3.qdr_int,
                              l3.qdr_frac >= 0 ? l3.qdr_frac : l3.qa_frac);
    w3_ = QTensor::from_float(digit->master_weight(),
                              fixed::FixedFormat(l3.qw_int, l3.qw_frac),
                              scheme);
    w3_cache_ = make_operand_cache(w3_);
    num_in_ = digit->num_in();
    dim_in_ = digit->dim_in();
    iterations_ = digit->iterations();
  }

  QTensor forward(const tensor::Tensor& images) const {
    QCAPS_CHECK_MSG(images.ndim() == 4, "expected [B, C, H, W] images");
    const std::int64_t b = images.dim(0);

    const QActivation x0(QTensor::from_float(images, input_fmt_));
    QActivation x1 = conv2d(x0, w1_, b1_, stride1_, pad1_, act1_, &w1_cache_);
    relu(x1);

    const fixed::FixedFormat pre_squash(8, std::min(20, act2_.qf + 8));
    const QTensor s2 =
        conv2d(x1, w2_, b2_, stride2_, 0, pre_squash, &w2_cache_).widen();
    const std::int64_t oh = s2.dim(2), ow = s2.dim(3);
    const std::int64_t plane = oh * ow;
    QTensor caps({b, caps_types_ * plane, caps_dim_}, pre_squash);
    for (std::int64_t bi = 0; bi < b; ++bi)
      for (std::int64_t t = 0; t < caps_types_; ++t)
        for (std::int64_t dd = 0; dd < caps_dim_; ++dd)
          for (std::int64_t p = 0; p < plane; ++p)
            caps.raw[static_cast<std::size_t>(
                ((bi * caps_types_ + t) * plane + p) * caps_dim_ + dd)] =
                s2.raw[static_cast<std::size_t>(
                    ((bi * caps_types_ * caps_dim_) + t * caps_dim_ + dd) *
                        plane +
                    p)];
    const QActivation u = squash_last(QActivation(caps), act2_);

    QCAPS_CHECK(u.dim(1) == num_in_ && u.dim(2) == dim_in_);
    const QActivation votes = vote_transform(u, w3_, act3_, &w3_cache_);
    return dynamic_routing(votes, iterations_, act3_, dr3_).widen();
  }

  std::int64_t weight_bits() const {
    return w1_.numel() * w1_.fmt.wordlength() +
           b1_.numel() * b1_.fmt.wordlength() +
           w2_.numel() * w2_.fmt.wordlength() +
           b2_.numel() * b2_.fmt.wordlength() +
           w3_.numel() * w3_.fmt.wordlength();
  }

 private:
  QTensor w1_, b1_;
  QGemmOperandCache w1_cache_;
  std::int64_t stride1_, pad1_;
  fixed::FixedFormat act1_;
  QTensor w2_, b2_;
  QGemmOperandCache w2_cache_;
  std::int64_t stride2_;
  std::int64_t caps_types_, caps_dim_;
  fixed::FixedFormat act2_;
  QTensor w3_;
  QGemmOperandCache w3_cache_;
  std::int64_t num_in_, dim_in_;
  int iterations_;
  fixed::FixedFormat act3_, dr3_;
  fixed::FixedFormat input_fmt_;
};

// ---- golden lock ------------------------------------------------------------

TEST(QGraphGoldenLock, ShallowCapsBitIdenticalToPreRefactorForward) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(51);
  auto net = models::build_shallow_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({3, 1, 28, 28}, rng, 0.0f, 1.0f);

  // Uncalibrated narrow spec (int8 tier), wide spec (int16 tier), and a
  // spec with an explicit QDR width — every configuration the serving stack
  // constructs.
  core::NetworkQuantSpec narrow = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  core::NetworkQuantSpec wide = core::NetworkQuantSpec::uniform(
      3, 10, fixed::RoundingScheme::kRoundToNearest);
  core::NetworkQuantSpec qdr = narrow;
  qdr.layers[2].qdr_frac = 4;
  qdr.layers[2].qdr_int = 3;
  for (const auto& spec : {narrow, wide, qdr}) {
    const LegacyShallowCaps legacy(*net, spec);
    const QuantizedGraph rewired = QuantizedGraph::compile(*net, spec);
    const QTensor want = legacy.forward(images);
    const QTensor got = rewired.forward(images);
    ASSERT_EQ(got.shape, want.shape);
    ASSERT_TRUE(got.fmt == want.fmt);
    for (std::size_t i = 0; i < got.raw.size(); ++i)
      ASSERT_EQ(got.raw[i], want.raw[i]) << "flat " << i;
    EXPECT_EQ(rewired.weight_bits(), legacy.weight_bits());
  }
}

TEST(QGraphGoldenLock, CompiledShallowCapsOpSequence) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(52);
  auto net = models::build_shallow_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph g = QuantizedGraph::compile(*net, spec);
  const auto& ops = g.ops();
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].kind, QOpKind::kConv2d);
  EXPECT_EQ(ops[1].kind, QOpKind::kRelu);
  EXPECT_EQ(ops[2].kind, QOpKind::kPrimaryCaps);
  EXPECT_EQ(ops[3].kind, QOpKind::kVoteTransform);
  EXPECT_EQ(ops[4].kind, QOpKind::kDynamicRouting);
}

// ---- batch-norm folding -----------------------------------------------------

TEST(QGraphBnFolding, FoldedConvMatchesUnfusedFp32Reference) {
  common::Rng rng(53);
  const std::int64_t f = 6, c = 4, k = 3;
  const tensor::Tensor w = tensor::Tensor::randn({f, c, k, k}, rng, 0.0f, 0.4f);
  const tensor::Tensor b = tensor::Tensor::randn({f}, rng, 0.0f, 0.2f);
  nn::BatchNorm2d bn(f);
  for (std::int64_t i = 0; i < f; ++i) {
    bn.gamma()[i] = rng.uniform(0.5f, 1.5f);
    bn.beta()[i] = rng.normal(0.0f, 0.3f);
    bn.running_mean()[i] = rng.normal(0.0f, 0.5f);
    bn.running_var()[i] = rng.uniform(0.25f, 2.0f);
  }
  const tensor::Tensor x =
      tensor::Tensor::randn({2, c, 8, 8}, rng, 0.0f, 0.7f);

  const tensor::Tensor ref =
      bn.forward(tensor::conv2d_forward(x, w, b, 1, 1), /*training=*/false);
  const FoldedConv folded = fold_batch_norm(w, b, bn);
  const tensor::Tensor got =
      tensor::conv2d_forward(x, folded.weight, folded.bias, 1, 1);
  ASSERT_TRUE(got.same_shape(ref));
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got[i], ref[i], 1e-4f) << "flat " << i;
}

TEST(QGraphBnFolding, EmptyBiasTreatedAsZero) {
  common::Rng rng(54);
  const std::int64_t f = 3, c = 2, k = 3;
  const tensor::Tensor w = tensor::Tensor::randn({f, c, k, k}, rng);
  nn::BatchNorm2d bn(f);
  for (std::int64_t i = 0; i < f; ++i) {
    bn.running_mean()[i] = rng.normal(0.0f, 0.5f);
    bn.running_var()[i] = rng.uniform(0.5f, 1.5f);
  }
  const tensor::Tensor x = tensor::Tensor::randn({1, c, 6, 6}, rng);
  const tensor::Tensor ref = bn.forward(
      tensor::conv2d_forward(x, w, tensor::Tensor(), 1, 1), false);
  const FoldedConv folded = fold_batch_norm(w, tensor::Tensor(), bn);
  const tensor::Tensor got =
      tensor::conv2d_forward(x, folded.weight, folded.bias, 1, 1);
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got[i], ref[i], 1e-4f) << "flat " << i;
}

// ---- new integer ops --------------------------------------------------------

TEST(QGraphOps, SquashChannelsMatchesFloatReferenceWithinPrecision) {
  common::Rng rng(55);
  const fixed::FixedFormat fmt(3, 10);
  const fixed::Quantizer q(fmt, fixed::RoundingScheme::kRoundToNearest);
  const tensor::Tensor s =
      q.quantized(tensor::Tensor::randn({2, 3 * 4, 5, 5}, rng, 0.0f, 0.6f));
  const QTensor got =
      testutil::squash_channels(QTensor::from_float(s, fmt), 4, fmt);
  const tensor::Tensor ref = nn::squash_channels(s, 4);
  const tensor::Tensor gotf = got.to_float();
  ASSERT_TRUE(ref.same_shape(gotf));
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_NEAR(gotf[i], ref[i], 8.0f * static_cast<float>(fmt.precision()))
        << "flat " << i;
}

TEST(QGraphOps, ResidualAddIsExactOnGridAndSaturates) {
  const fixed::FixedFormat fmt(2, 6);
  QTensor a({4}, fmt), b({4}, fmt);
  a.raw = {10, -20, fmt.raw_max(), fmt.raw_min()};
  b.raw = {5, -7, 50, -50};
  const QTensor out = residual_add(QActivation(a), QActivation(b)).widen();
  EXPECT_EQ(out.raw[0], 15);
  EXPECT_EQ(out.raw[1], -27);
  EXPECT_EQ(out.raw[2], fmt.raw_max());  // clipped at the top of the range
  EXPECT_EQ(out.raw[3], fmt.raw_min());  // clipped at the bottom

  QTensor c({4}, fixed::FixedFormat(3, 6));
  EXPECT_THROW(residual_add(QActivation(a), QActivation(c)), qcaps::Error);
}

// ---- DeepCaps compilation and execution -------------------------------------

TEST(QGraphDeepCaps, CompiledOpSequenceCoversEveryBlock) {
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(56);
  auto net = models::build_deep_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      6, 8, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph g = QuantizedGraph::compile(*net, spec);
  const auto& ops = g.ops();
  // conv + relu, 4 blocks x (3 conv-caps + skip + residual), flatten,
  // votes + routing.
  ASSERT_EQ(ops.size(), 2u + 4u * 5u + 1u + 2u);
  EXPECT_EQ(ops[0].kind, QOpKind::kConv2d);
  EXPECT_EQ(ops[1].kind, QOpKind::kRelu);
  for (int blk = 0; blk < 4; ++blk) {
    const std::size_t base = 2 + static_cast<std::size_t>(blk) * 5;
    EXPECT_EQ(ops[base + 0].kind, QOpKind::kConvCaps);
    EXPECT_EQ(ops[base + 1].kind, QOpKind::kConvCaps);
    EXPECT_EQ(ops[base + 2].kind, QOpKind::kConvCaps);
    EXPECT_EQ(ops[base + 3].kind,
              blk == 3 ? QOpKind::kConvCaps3d : QOpKind::kConvCaps);
    EXPECT_EQ(ops[base + 4].kind, QOpKind::kResidualAdd);
    // The skip consumes conv1's output; the residual joins conv3 and skip.
    EXPECT_EQ(ops[base + 3].input, static_cast<int>(base));
    EXPECT_EQ(ops[base + 4].input, static_cast<int>(base + 2));
    EXPECT_EQ(ops[base + 4].input2, static_cast<int>(base + 3));
  }
  EXPECT_EQ(ops[22].kind, QOpKind::kFlatten);
  EXPECT_EQ(ops[23].kind, QOpKind::kVoteTransform);
  EXPECT_EQ(ops[24].kind, QOpKind::kDynamicRouting);
  EXPECT_GT(g.weight_bits(), 0);
}

TEST(QGraphDeepCaps, RejectsSpecNotCoveringEveryUnit) {
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(57);
  auto net = models::build_deep_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      3, 8, fixed::RoundingScheme::kRoundToNearest);
  EXPECT_THROW(QuantizedGraph::compile(*net, spec), qcaps::Error);
}

TEST(QGraphDeepCaps, BatchedForwardMatchesSequentialBitExact) {
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(58);
  auto net = models::build_deep_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      6, 8, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph qmodel = QuantizedGraph::compile(*net, spec);
  const std::int64_t b = 3;
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);
  const QTensor batched = qmodel.forward(images);
  for (std::int64_t i = 0; i < b; ++i) {
    tensor::Tensor one({1, 1, 28, 28});
    std::memcpy(one.data(), images.data() + i * 28 * 28,
                sizeof(float) * 28 * 28);
    const QTensor single = qmodel.forward(one);
    const std::int64_t per = single.numel();
    for (std::int64_t j = 0; j < per; ++j)
      ASSERT_EQ(batched.raw[static_cast<std::size_t>(i * per + j)],
                single.raw[static_cast<std::size_t>(j)])
          << "sample " << i << " elem " << j;
  }
}

// ---- network-scale validation on a trained DeepCaps -------------------------

class TrainedDeepCapsGraphTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthConfig dcfg;
    dcfg.train_size = 600;
    dcfg.test_size = 128;
    split_ = new data::DataSplit(data::make_digits_split(dcfg));
    nn::TrainConfig tcfg;
    tcfg.epochs = 3;
    tcfg.verbose = false;
    // Cached in qcaps_model_cache/ (CI persists it across runs).
    trained_ = new models::TrainedModel(
        models::get_trained_deep_caps(*split_, "qgraph-digits", tcfg));
  }

  static void TearDownTestSuite() {
    delete trained_;
    delete split_;
    trained_ = nullptr;
    split_ = nullptr;
  }

  static data::DataSplit* split_;
  static models::TrainedModel* trained_;
};

data::DataSplit* TrainedDeepCapsGraphTest::split_ = nullptr;
models::TrainedModel* TrainedDeepCapsGraphTest::trained_ = nullptr;

TEST_F(TrainedDeepCapsGraphTest, IntegerEngineMatchesFakeQuantAccuracy) {
  nn::Network& net = *trained_->net;
  core::Evaluator eval(net, split_->test, 128);
  const float acc_fp32 = eval.evaluate_fp32();
  ASSERT_GT(acc_fp32, 0.6f);

  auto spec = core::NetworkQuantSpec::uniform(
      6, 8, fixed::RoundingScheme::kRoundToNearest);
  eval.calibrate_spec(spec);
  const float acc_fake = eval.evaluate(spec);

  const QuantizedGraph deployed = QuantizedGraph::compile(net, spec);
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < split_->test.size(); ++i) idx.push_back(i);
  const auto pred = deployed.predict_batch(split_->test.batch(idx));
  int correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == split_->test.labels[i]) ++correct;
  const float acc_int =
      static_cast<float>(correct) / static_cast<float>(pred.size());
  // BN folding and integer accumulation-order differences add to the usual
  // fake-quant vs integer drift, but the decisions must track closely.
  EXPECT_NEAR(acc_int, acc_fake, 0.10f)
      << "fake-quant " << acc_fake << " vs integer " << acc_int;
  EXPECT_GT(acc_int, acc_fp32 - 0.15f);
}

TEST_F(TrainedDeepCapsGraphTest, ForwardTracksFp32CapsuleLengths) {
  nn::Network& net = *trained_->net;
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < 16; ++i) idx.push_back(i);
  const tensor::Tensor batch = split_->test.batch(idx);
  net.clear_quantization();
  const tensor::Tensor caps_fp = net.forward(batch, nn::Phase::kEval);
  const tensor::Tensor len_fp = tensor::l2_norm_last(caps_fp, 0.0f);

  auto spec = core::NetworkQuantSpec::uniform(
      6, 8, fixed::RoundingScheme::kRoundToNearest);
  core::Evaluator eval(net, split_->test, 128);
  eval.calibrate_spec(spec);
  const QuantizedGraph deployed = QuantizedGraph::compile(net, spec);
  const tensor::Tensor len_q = lengths(deployed.forward(batch));
  ASSERT_TRUE(len_q.same_shape(len_fp));

  double mean_drift = 0.0;
  for (std::int64_t i = 0; i < len_q.numel(); ++i)
    mean_drift += std::fabs(static_cast<double>(len_q[i]) - len_fp[i]);
  mean_drift /= static_cast<double>(len_q.numel());
  EXPECT_LT(mean_drift, 0.10) << "mean capsule-length drift vs fp32";

  const auto cls_fp = tensor::argmax_rows(len_fp);
  const auto cls_q = tensor::argmax_rows(len_q);
  int agree = 0;
  for (std::size_t i = 0; i < cls_fp.size(); ++i)
    if (cls_fp[i] == cls_q[i]) ++agree;
  EXPECT_GE(agree, 13) << "of 16 cached inputs";
}

// ---- ranged runs --------------------------------------------------------------

// Chained run_layers() calls reproduce forward()'s class capsules raw for raw:
// one layer at a time, and from every layer boundary to the end on the
// caller's kept copy of that boundary's value.
void expect_ranges_match_forward(const QuantizedGraph& g,
                                 const tensor::Tensor& images) {
  const QTensor want = g.forward(images);
  const std::size_t n = g.num_layers();
  const auto expect_same = [&](const QActivation& got, const std::string& what) {
    const QTensor t = got.widen();
    ASSERT_EQ(t.shape, want.shape) << what;
    ASSERT_TRUE(t.fmt == want.fmt) << what;
    for (std::size_t i = 0; i < t.raw.size(); ++i)
      ASSERT_EQ(t.raw[i], want.raw[i]) << what << ", flat " << i;
  };
  std::vector<QActivation> entry{
      QActivation::from_float(images, g.input_format())};
  for (std::size_t l = 0; l < n; ++l)
    entry.push_back(g.run_layers(entry.back(), l, l + 1));
  expect_same(entry.back(), "layer by layer");
  for (std::size_t l = 0; l < n; ++l)
    expect_same(g.run_layers(entry[l], l, n),
                "layers " + std::to_string(l) + "..");
}

TEST(QGraphRanges, ShallowCapsChainedRunsMatchForward) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(67);
  auto net = models::build_shallow_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({3, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (const int frac : {6, 10}) {
    const QuantizedGraph g = QuantizedGraph::compile(
        *net, core::NetworkQuantSpec::uniform(
                  3, frac, fixed::RoundingScheme::kRoundToNearest));
    // The ReLU fused into L1's conv ends L1; one range per spec entry.
    ASSERT_EQ(g.num_layers(), 3u);
    expect_ranges_match_forward(g, images);
  }
}

TEST_F(TrainedDeepCapsGraphTest, ChainedRunsMatchForward) {
  nn::Network& net = *trained_->net;
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < 16; ++i) idx.push_back(i);
  const tensor::Tensor batch = split_->test.batch(idx);
  core::Evaluator eval(net, split_->test, 128);
  for (const int frac : {6, 12}) {
    auto spec = core::NetworkQuantSpec::uniform(
        6, frac, fixed::RoundingScheme::kRoundToNearest);
    eval.calibrate_spec(spec);
    const QuantizedGraph g = QuantizedGraph::compile(net, spec);
    ASSERT_EQ(g.num_layers(), 6u);
    expect_ranges_match_forward(g, batch);
  }
}

TEST(QGraphRanges, OpListGraphIsOneLayerAndBadRangesThrow) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(68);
  auto net = models::build_shallow_caps(cfg, rng);
  const QuantizedGraph g = QuantizedGraph::compile(
      *net, core::NetworkQuantSpec::uniform(
                3, 6, fixed::RoundingScheme::kRoundToNearest));
  const QuantizedGraph twin =
      QuantizedGraph::from_ops(g.ops(), g.input_format());
  EXPECT_EQ(twin.num_layers(), 1u);
  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
  expect_ranges_match_forward(twin, images);
  const QActivation x = QActivation::from_float(images, g.input_format());
  EXPECT_THROW(g.run_layers(x, 1, 1), qcaps::Error);
  EXPECT_THROW(g.run_layers(x, 0, 4), qcaps::Error);
  EXPECT_THROW(QuantizedGraph().run_layers(x, 0, 1), qcaps::Error);
}

// ---- graph-level fusion -----------------------------------------------------

// The unfused twin of a compiled graph: round-tripping through from_ops
// clears every fusion annotation by contract.
QuantizedGraph unfused_twin(const QuantizedGraph& g) {
  std::vector<QuantizedOp> ops = g.ops();
  return QuantizedGraph::from_ops(std::move(ops), g.input_format());
}

TEST(QGraphFusion, CompileFoldsRelu) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(62);
  auto net = models::build_shallow_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph g = QuantizedGraph::compile(*net, spec);
  ASSERT_TRUE(g.fused());
  // conv -> relu with one consumer and matching formats must fold.
  ASSERT_EQ(g.ops()[0].kind, QOpKind::kConv2d);
  ASSERT_EQ(g.ops()[1].kind, QOpKind::kRelu);
  EXPECT_TRUE(g.ops()[0].fused_relu);
  EXPECT_TRUE(g.ops()[1].fused_away);
  // The annotations never survive an ops() round trip (serialization path).
  const QuantizedGraph twin = unfused_twin(g);
  EXPECT_FALSE(twin.fused());
  for (const auto& op : twin.ops()) {
    EXPECT_FALSE(op.fused_relu);
    EXPECT_FALSE(op.fused_away);
  }
}

TEST(QGraphFusion, ShallowCapsFusedBitIdenticalToUnfusedAcrossTiers) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(64);
  auto net = models::build_shallow_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({3, 1, 28, 28}, rng, 0.0f, 1.0f);
  // frac 6 keeps weights inside int8 (the VNNI/avx qgemm tier); frac 10
  // pushes them into int16 — both fused paths must agree with the twin.
  for (const int frac : {6, 10}) {
    const auto spec = core::NetworkQuantSpec::uniform(
        3, frac, fixed::RoundingScheme::kRoundToNearest);
    const QuantizedGraph fused = QuantizedGraph::compile(*net, spec);
    ASSERT_TRUE(fused.fused());
    const QuantizedGraph plain = unfused_twin(fused);
    const QTensor want = plain.forward(images);
    const QTensor got = fused.forward(images);
    ASSERT_EQ(got.shape, want.shape);
    ASSERT_TRUE(got.fmt == want.fmt);
    for (std::size_t i = 0; i < got.raw.size(); ++i)
      ASSERT_EQ(got.raw[i], want.raw[i]) << "frac " << frac << " flat " << i;
  }
}

TEST(QGraphFusion, DeepCapsFusedBitIdenticalToUnfusedAcrossTiers) {
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(65);
  auto net = models::build_deep_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (const int frac : {4, 8, 12}) {
    const auto spec = core::NetworkQuantSpec::uniform(
        6, frac, fixed::RoundingScheme::kRoundToNearest);
    const QuantizedGraph fused = QuantizedGraph::compile(*net, spec);
    ASSERT_TRUE(fused.fused());
    const QuantizedGraph plain = unfused_twin(fused);
    // The ConvCaps3d skip (block 3) carries its grouped vote operand with
    // the node, fused or not.
    int grouped = 0;
    for (const QuantizedGraph* g : {&fused, &plain})
      for (const auto& op : g->ops())
        if (op.kind == QOpKind::kConvCaps3d) {
          EXPECT_NE(op.grouped_cache, nullptr);
          ++grouped;
        }
    EXPECT_EQ(grouped, 2);
    const QTensor want = plain.forward(images);
    const QTensor got = fused.forward(images);
    ASSERT_EQ(got.shape, want.shape);
    ASSERT_TRUE(got.fmt == want.fmt);
    for (std::size_t i = 0; i < got.raw.size(); ++i)
      ASSERT_EQ(got.raw[i], want.raw[i]) << "frac " << frac << " flat " << i;
  }
}

TEST(QGraphFusion, SaturationCountersStayCoherentUnderFusion) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(66);
  auto net = models::build_shallow_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
  // 4-bit wordlength forces constant clamping (same setup as the plain
  // saturation test below).
  const auto narrow = core::NetworkQuantSpec::uniform(
      3, 3, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph fused = QuantizedGraph::compile(*net, narrow);
  ASSERT_TRUE(fused.fused() && fused.ops()[0].fused_relu);
  const QuantizedGraph plain = unfused_twin(fused);
  fused.forward(images);
  plain.forward(images);
  const auto nf = fused.saturation();
  const auto np = plain.saturation();
  ASSERT_EQ(nf.size(), np.size());
  for (std::size_t i = 0; i < nf.size(); ++i) {
    // Node identity (names, kinds, order) is untouched by fusion.
    EXPECT_EQ(nf[i].source, np[i].source);
    EXPECT_EQ(nf[i].kind, np[i].kind);
    EXPECT_EQ(nf[i].total, np[i].total);
  }
  // The fused conv counts only high-rail hits: its raised lower clamp now
  // produces legitimate relu zeros, which the unfused conv counted as
  // low-rail saturation. Never more than the unfused count.
  EXPECT_LE(nf[0].saturated, np[0].saturated);
  // The elided relu stays an uncounted layout node.
  EXPECT_EQ(nf[1].kind, QOpKind::kRelu);
  EXPECT_EQ(nf[1].total, 0u);
  EXPECT_EQ(nf[1].saturated, 0u);
}

// ---- activation containers ---------------------------------------------------

TEST(QGraphStorage, EightBitGraphsHoldEveryValueInOneByte) {
  // At 8-bit activations (Q1.7) the input and every node's value sit in a
  // 1-byte container (forward() holds each value in value_storage()'s
  // container, and checks it), while the outputs stay bit-identical to the
  // unfused from_ops twin at every dispatch level. The BN-folded DeepCaps
  // weights outgrow int8, so its convs also feed int8 rows to the int16
  // tier.
  const auto check = [](const QuantizedGraph& g,
                        const tensor::Tensor& images) {
    EXPECT_EQ(storage_for(g.input_format()), Storage::kInt8);
    for (const Storage st : g.value_storage()) EXPECT_EQ(st, Storage::kInt8);
    const QuantizedGraph plain = unfused_twin(g);
    QTensor want;
    testutil::for_each_isa([&](common::Isa) {
      const QTensor ref = plain.forward(images);
      if (want.raw.empty()) want = ref;  // the scalar level runs first
      EXPECT_EQ(ref.raw, want.raw);
      const QTensor got = g.forward(images);
      EXPECT_EQ(got.fmt, want.fmt);
      EXPECT_EQ(got.shape, want.shape);
      EXPECT_EQ(got.raw, want.raw);
    });
  };
  common::Rng rng(75);
  const auto shallow = models::build_shallow_caps(
      models::ShallowCapsConfig::experiment(), rng);
  check(QuantizedGraph::compile(
            *shallow, core::NetworkQuantSpec::uniform(
                          3, 7, fixed::RoundingScheme::kRoundToNearest)),
        tensor::Tensor::uniform({3, 1, 28, 28}, rng, 0.0f, 1.0f));
  const auto deep =
      models::build_deep_caps(models::DeepCapsConfig::experiment(28, 1), rng);
  check(QuantizedGraph::compile(
            *deep, core::NetworkQuantSpec::uniform(
                       6, 7, fixed::RoundingScheme::kRoundToNearest)),
        tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f));
}

TEST(QGraphStorage, WideActivationsTakeInt16AndInt64Containers) {
  // Q1.11 activations hold int16 values and Q6.12 ones int64 (the exact
  // kernel tier); both match the unfused twin.
  common::Rng rng(76);
  const auto net = models::build_shallow_caps(
      models::ShallowCapsConfig::experiment(), rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (const auto& [qi, qf, want_storage] :
       {std::tuple{1, 11, Storage::kInt16}, std::tuple{6, 12, Storage::kInt64}}) {
    auto spec = core::NetworkQuantSpec::uniform(
        3, qf, fixed::RoundingScheme::kRoundToNearest);
    for (auto& l : spec.layers) l.qa_int = qi;
    const QuantizedGraph g = QuantizedGraph::compile(*net, spec);
    for (const Storage st : g.value_storage()) EXPECT_EQ(st, want_storage);
    EXPECT_EQ(g.forward(images).raw, unfused_twin(g).forward(images).raw);
  }
}

// ---- standalone kRescale nodes ---------------------------------------------

// Widen the out_fmt of op `idx` to `wide` and insert a kRescale node right
// after it converting back to the original format, rewiring every downstream
// consumer onto the rescale. compile() never emits a kRescale (one spec entry
// gives a whole unit one activation format), but the .qcg format keeps the
// kind, so a loaded artifact may carry one.
std::vector<QuantizedOp> with_rescale_after(std::vector<QuantizedOp> ops,
                                            int idx,
                                            fixed::FixedFormat wide) {
  QuantizedOp r;
  r.kind = QOpKind::kRescale;
  r.input = idx;
  r.source = ops[static_cast<std::size_t>(idx)].source + "/width-restore";
  r.out_fmt = ops[static_cast<std::size_t>(idx)].out_fmt;
  ops[static_cast<std::size_t>(idx)].out_fmt = wide;
  for (std::size_t i = static_cast<std::size_t>(idx) + 1; i < ops.size();
       ++i) {
    const auto fix = [&](int& v) {
      if (v > idx)
        ++v;
      else if (v == idx)
        v = idx + 1;
    };
    fix(ops[i].input);
    fix(ops[i].input2);
  }
  ops.insert(ops.begin() + idx + 1, std::move(r));
  return ops;
}

TEST(QGraphRescale, NodeRunsStandaloneAndRoundTripsThroughQcg) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(73);
  auto net = models::build_shallow_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph g = QuantizedGraph::compile(*net, spec);
  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
  // The conv narrowed to {3,4}, then restored to {3,6} by an upshifting
  // rescale node that the relu, no longer the conv's consumer, reads.
  const fixed::FixedFormat narrow{3, 4};
  const std::vector<QuantizedOp> ops =
      with_rescale_after(g.ops(), 0, narrow);
  ASSERT_EQ(ops[1].kind, QOpKind::kRescale);

  // The node's output is rescale() of its producer's.
  const QuantizedGraph conv_only =
      QuantizedGraph::from_ops({ops[0]}, g.input_format());
  const QuantizedGraph conv_rescale =
      QuantizedGraph::from_ops({ops[0], ops[1]}, g.input_format());
  const QTensor produced = conv_only.forward(images);
  ASSERT_EQ(produced.fmt, narrow);
  const QTensor want = rescale(QActivation(produced), ops[1].out_fmt).widen();
  const QTensor got = conv_rescale.forward(images);
  EXPECT_EQ(got.fmt, ops[1].out_fmt);
  EXPECT_EQ(got.shape, want.shape);
  EXPECT_EQ(got.raw, want.raw);
  // It counts saturation over every value it produces.
  const auto sat = conv_rescale.saturation();
  ASSERT_EQ(sat[1].kind, QOpKind::kRescale);
  EXPECT_EQ(sat[1].total, static_cast<std::uint64_t>(got.numel()));

  // The whole graph survives a .qcg round trip bit-exact; fusion leaves the
  // rescale alone on both sides.
  QuantizedGraph full = QuantizedGraph::from_ops(ops, g.input_format());
  full.fuse();
  EXPECT_FALSE(full.ops()[0].fused_relu);
  EXPECT_FALSE(full.ops()[1].fused_away);
  const std::string path = ::testing::TempDir() + "qgraph_rescale.qcg";
  io::save_graph(full, path);
  const QuantizedGraph loaded = io::load_graph(path);
  ASSERT_EQ(loaded.ops().size(), ops.size());
  EXPECT_EQ(loaded.ops()[1].kind, QOpKind::kRescale);
  EXPECT_EQ(loaded.ops()[1].out_fmt, ops[1].out_fmt);
  const QTensor a = full.forward(images);
  const QTensor b = loaded.forward(images);
  EXPECT_EQ(a.fmt, b.fmt);
  EXPECT_EQ(a.raw, b.raw);
}

// ---- requant-saturation counters -------------------------------------------

TEST(QGraphSaturation, NarrowFormatsCountRailHitsAndCopiesShareCounters) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(61);
  auto net = models::build_shallow_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);

  // 4-bit wordlength (Q1.3): conv outputs and unit-length capsules clamp
  // against raw_max constantly, so counters must be nonzero after one
  // forward; per-node entries mirror the op list.
  const auto narrow = core::NetworkQuantSpec::uniform(
      3, 3, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph g = QuantizedGraph::compile(*net, narrow);
  EXPECT_EQ(g.saturation_rate(), 0.0);  // nothing observed yet
  const QTensor y = g.forward(images);
  const auto nodes = g.saturation();
  ASSERT_EQ(nodes.size(), g.ops().size());
  // The counts are exact: the last node's are the returned value's rail
  // hits, counted here over its int64 widening.
  std::uint64_t rail_hits = 0;
  for (const std::int64_t v : y.raw)
    rail_hits += v <= y.fmt.raw_min() || v >= y.fmt.raw_max() ? 1 : 0;
  EXPECT_EQ(nodes.back().saturated, rail_hits);
  EXPECT_EQ(nodes.back().total, y.raw.size());
  std::uint64_t saturated = 0;
  for (const auto& n : nodes) saturated += n.saturated;
  EXPECT_GT(saturated, 0u);
  EXPECT_GT(g.saturation_rate(), 0.0);
  // Layout-only nodes are never counted.
  for (const auto& n : nodes) {
    if (n.kind == QOpKind::kRelu || n.kind == QOpKind::kFlatten) {
      EXPECT_EQ(n.total, 0u);
    }
  }

  // Copies (the serving pool's replicas) share one counter block: a forward
  // on the copy is visible through the original, and rates agree.
  const QuantizedGraph replica = g;  // NOLINT(performance-unnecessary-copy)
  const double before = g.saturation_rate();
  replica.forward(images);
  const auto after = g.saturation();
  std::uint64_t total_after = 0;
  for (const auto& n : after) total_after += n.total;
  std::uint64_t total_before = 0;
  for (const auto& n : nodes) total_before += n.total;
  EXPECT_EQ(total_after, 2 * total_before);
  EXPECT_DOUBLE_EQ(g.saturation_rate(), before);  // same input, same rate
  EXPECT_DOUBLE_EQ(replica.saturation_rate(), g.saturation_rate());
}

}  // namespace
}  // namespace qcaps::qengine
