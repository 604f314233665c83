// Tests for dynamic routing-by-agreement on the j-major votes layout
// [R, Nout, Nin, D]: algorithmic properties, the
// quantization points of paper Fig. 9, and full unrolled gradients.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/routing.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::nn {
namespace {

tensor::Tensor route(const tensor::Tensor& votes, int iters,
                     DynamicRouting* routing = nullptr, bool tape = false) {
  DynamicRouting local;
  DynamicRouting& r = routing != nullptr ? *routing : local;
  return r.forward(votes, iters, tape, RoutingQuantPoints{});
}

TEST(Routing, OutputShape) {
  common::Rng rng(1);
  const tensor::Tensor votes = tensor::Tensor::randn({3, 4, 6, 5}, rng);
  const tensor::Tensor v = route(votes, 3);
  EXPECT_EQ(v.shape(), (tensor::Shape{3, 4, 5}));
}

TEST(Routing, SingleIterationIsUniformAverageThenSquash) {
  // With one iteration, b = 0, so c = 1/Nout everywhere and
  // s_j = (1/Nout) Σ_i û_ij.
  common::Rng rng(2);
  const std::int64_t nin = 5, nout = 3, d = 4;
  const tensor::Tensor votes = tensor::Tensor::randn({1, nout, nin, d}, rng);
  const tensor::Tensor v = route(votes, 1);
  for (std::int64_t j = 0; j < nout; ++j) {
    tensor::Tensor s({1, d});
    for (std::int64_t i = 0; i < nin; ++i)
      for (std::int64_t k = 0; k < d; ++k)
        s[k] += votes.at({0, j, i, k}) / static_cast<float>(nout);
    // squash s and compare: v = s * n / (1 + n^2).
    float nsq = 0.0f;
    for (std::int64_t k = 0; k < d; ++k) nsq += s[k] * s[k];
    const float gain = std::sqrt(nsq) / (1.0f + nsq);
    for (std::int64_t k = 0; k < d; ++k)
      EXPECT_NEAR((v.at({0, j, k})), gain * s[k], 1e-5f);
  }
}

TEST(Routing, CouplingsFormDistributionOverOutputs) {
  common::Rng rng(3);
  const tensor::Tensor votes = tensor::Tensor::randn({2, 5, 7, 3}, rng);
  DynamicRouting r;
  r.forward(votes, 3, false, RoutingQuantPoints{});
  const tensor::Tensor& c = r.last_coupling();
  ASSERT_EQ(c.shape(), (tensor::Shape{2, 7, 5}));
  for (std::int64_t row = 0; row < 2 * 7; ++row) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 5; ++j) sum += c[row * 5 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Routing, AgreementConcentratesCouplings) {
  // Input capsule 0's votes strongly agree with output 0 and are orthogonal
  // to the others: after 3 iterations its coupling to output 0 must exceed
  // the uniform 1/Nout level.
  const std::int64_t nin = 4, nout = 3, d = 4;
  tensor::Tensor votes({1, nout, nin, d});
  common::Rng rng(4);
  for (std::int64_t i = 0; i < nin; ++i)
    for (std::int64_t j = 0; j < nout; ++j)
      for (std::int64_t k = 0; k < d; ++k)
        votes.at({0, j, i, k}) = rng.normal(0.0f, 0.05f);
  // All capsules vote [2,0,0,0] for output 0 -> strong mutual agreement.
  for (std::int64_t i = 0; i < nin; ++i) votes.at({0, 0, i, 0}) = 2.0f;
  DynamicRouting r;
  r.forward(votes, 3, false, RoutingQuantPoints{});
  const tensor::Tensor& c = r.last_coupling();
  for (std::int64_t i = 0; i < nin; ++i)
    EXPECT_GT((c.at({0, i, 0})), 1.0f / static_cast<float>(nout) + 0.05f);
}

TEST(Routing, MoreIterationsSharpenAgreement) {
  const std::int64_t nin = 6, nout = 2, d = 3;
  tensor::Tensor votes({1, nout, nin, d});
  common::Rng rng(5);
  for (std::int64_t i = 0; i < nin; ++i) {
    for (std::int64_t k = 0; k < d; ++k) {
      votes.at({0, 0, i, k}) = 1.0f + rng.normal(0.0f, 0.1f);  // aligned
      votes.at({0, 1, i, k}) = rng.normal(0.0f, 1.0f);         // scattered
    }
  }
  DynamicRouting r1, r3;
  r1.forward(votes, 1, false, RoutingQuantPoints{});
  r3.forward(votes, 3, false, RoutingQuantPoints{});
  const float c1 = r1.last_coupling().at({0, 0, 0});
  const float c3 = r3.last_coupling().at({0, 0, 0});
  EXPECT_GT(c3, c1);
}

TEST(Routing, OutputCapsuleNormsBelowOne) {
  common::Rng rng(6);
  const tensor::Tensor votes = tensor::Tensor::randn({4, 5, 8, 6}, rng, 0.0f, 2.0f);
  const tensor::Tensor v = route(votes, 3);
  const tensor::Tensor norms = tensor::l2_norm_last(v, 0.0f);
  for (std::int64_t i = 0; i < norms.numel(); ++i) EXPECT_LT(norms[i], 1.0f);
}

TEST(Routing, RejectsBadInputs) {
  DynamicRouting r;
  EXPECT_THROW(r.forward(tensor::Tensor({2, 3, 4}), 3, false,
                         RoutingQuantPoints{}),
               qcaps::Error);
  EXPECT_THROW(r.forward(tensor::Tensor({1, 2, 3, 4}), 0, false,
                         RoutingQuantPoints{}),
               qcaps::Error);
  EXPECT_THROW(r.backward(tensor::Tensor({1, 3, 4})), qcaps::Error);
}

TEST(Routing, TransposedNoTapePathLocksToTapePathOnEveryTier) {
  // The no-tape forward runs the whole iteration loop on transposed
  // ([Nout, Nin]) logits/couplings — softmax_rows_t plus unit-stride slab
  // kernels — while keep_tape stays row-major for backward. On the scalar
  // tier the two are the same arithmetic in the same order, so v and
  // last_coupling must match bit for bit; the vector tiers share the
  // pointwise exp but reduce the row-major softmax in vector order, so
  // there the paths are locked to softmax tolerance.
  common::Rng rng(11);
  // nin = 37 exercises the avx2/avx512 softmax_rows_t tails; iterations = 3
  // routes every kernel (iteration_fused twice, weighted_sum_squash once).
  const tensor::Tensor votes = tensor::Tensor::randn({3, 5, 37, 8}, rng);
  testutil::for_each_isa([&](common::Isa level) {
    DynamicRouting taped, plain;
    const tensor::Tensor vt = taped.forward(votes, 3, true, RoutingQuantPoints{});
    const tensor::Tensor vn = plain.forward(votes, 3, false, RoutingQuantPoints{});
    ASSERT_EQ(vt.shape(), vn.shape());
    const tensor::Tensor& ct = taped.last_coupling();
    const tensor::Tensor& cn = plain.last_coupling();
    ASSERT_EQ(ct.shape(), cn.shape());
    if (level == common::Isa::kScalar) {
      for (std::int64_t i = 0; i < vt.numel(); ++i)
        ASSERT_EQ(vt[i], vn[i]) << "v flat " << i;
      for (std::int64_t i = 0; i < ct.numel(); ++i)
        ASSERT_EQ(ct[i], cn[i]) << "c flat " << i;
    } else {
      for (std::int64_t i = 0; i < vt.numel(); ++i)
        ASSERT_NEAR(vt[i], vn[i], 2e-5f) << "v flat " << i;
      for (std::int64_t i = 0; i < ct.numel(); ++i)
        ASSERT_NEAR(ct[i], cn[i], 2e-5f) << "c flat " << i;
    }
  });
}

class RoutingGrad : public ::testing::TestWithParam<int> {};

TEST_P(RoutingGrad, UnrolledBackwardMatchesFiniteDifference) {
  const int iters = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(iters) + 7);
  const tensor::Tensor votes = tensor::Tensor::randn({2, 3, 4, 3}, rng, 0.0f, 0.7f);
  DynamicRouting r;
  const tensor::Tensor v = r.forward(votes, iters, true, RoutingQuantPoints{});
  const testutil::WeightedSum head(v.shape());
  const tensor::Tensor analytic = r.backward(head.grad());
  auto loss = [&](const tensor::Tensor& in) {
    DynamicRouting probe;
    return head(probe.forward(in, iters, false, RoutingQuantPoints{}));
  };
  testutil::check_gradient(votes, loss, analytic, 1e-3f, 3e-2f, 3e-3f);
}

INSTANTIATE_TEST_SUITE_P(IterationSweep, RoutingGrad, ::testing::Values(1, 2, 3, 4));

TEST(RoutingQuant, RoutingPointsQuantizeInternals) {
  // With an extremely coarse QDR the routed output must collapse onto a much
  // coarser set of values than the FP32 reference.
  common::Rng rng(8);
  const tensor::Tensor votes = tensor::Tensor::randn({2, 4, 6, 4}, rng, 0.0f, 0.5f);
  const tensor::Tensor v_fp = route(votes, 3);

  const fixed::Quantizer dr(fixed::FixedFormat(2, 2),
                            fixed::RoundingScheme::kRoundToNearest);
  RoutingQuantPoints qp;
  qp.routing = &dr;
  DynamicRouting r;
  const tensor::Tensor v_q = r.forward(votes, 3, false, qp);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < v_fp.numel(); ++i)
    diff = std::max(diff, std::fabs(v_fp[i] - v_q[i]));
  EXPECT_GT(diff, 1e-4f);
}

TEST(RoutingQuant, ActivationPointsQuantizeOutput) {
  common::Rng rng(9);
  const tensor::Tensor votes = tensor::Tensor::randn({1, 3, 5, 4}, rng, 0.0f, 0.5f);
  const fixed::Quantizer act(fixed::FixedFormat(1, 4),
                             fixed::RoundingScheme::kRoundToNearest);
  RoutingQuantPoints qp;
  qp.activations = &act;
  DynamicRouting r;
  const tensor::Tensor v = r.forward(votes, 3, false, qp);
  const double eps = fixed::FixedFormat(1, 4).precision();
  for (std::int64_t i = 0; i < v.numel(); ++i) {
    const double scaled = v[i] / eps;
    ASSERT_NEAR(scaled, std::round(scaled), 1e-5);
  }
}

TEST(RoutingQuant, ModerateQdrPreservesWinners) {
  // The paper's key claim (Sec. IV-D): routing tolerates aggressive
  // quantization. A 4-fractional-bit QDR must keep the argmax output capsule
  // for a decisive vote pattern.
  const std::int64_t nin = 8, nout = 4, d = 4;
  tensor::Tensor votes({1, nout, nin, d});
  common::Rng rng(10);
  for (std::int64_t i = 0; i < votes.numel(); ++i)
    votes[i] = rng.normal(0.0f, 0.1f);
  for (std::int64_t i = 0; i < nin; ++i) votes.at({0, 2, i, 0}) = 0.9f;
  const tensor::Tensor v_fp = route(votes, 3);

  const fixed::Quantizer dr(fixed::FixedFormat(2, 4),
                            fixed::RoundingScheme::kRoundToNearest);
  RoutingQuantPoints qp;
  qp.routing = &dr;
  DynamicRouting r;
  const tensor::Tensor v_q = r.forward(votes, 3, false, qp);

  auto argmax_norm = [&](const tensor::Tensor& v) {
    const tensor::Tensor n = tensor::l2_norm_last(v, 0.0f);
    return tensor::argmax_rows(n.reshaped({1, nout}))[0];
  };
  EXPECT_EQ(argmax_norm(v_fp), 2);
  EXPECT_EQ(argmax_norm(v_q), 2);
}

}  // namespace
}  // namespace qcaps::nn
