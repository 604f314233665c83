// Tests for tensor-level fake quantization and error statistics, and for the
// agreement between the fake-quantized (float-grid) world and the packed
// integer world: exact products of grid values, requantized with the qgemm
// rounded shift, must land on the same grid points the quantizer produces.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fixed/quantizer.hpp"
#include "qengine/qtensor.hpp"
#include "tensor/qgemm.hpp"
#include "test_util.hpp"

namespace qcaps::fixed {
namespace {

TEST(Quantizer, OutputsLieOnGrid) {
  common::Rng rng(1);
  tensor::Tensor t = tensor::Tensor::randn({1000}, rng, 0.0f, 0.3f);
  const Quantizer q(FixedFormat(1, 5), RoundingScheme::kRoundToNearest);
  q.apply(t);
  const double eps = FixedFormat(1, 5).precision();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double scaled = t[i] / eps;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-5);
  }
}

TEST(Quantizer, DeterministicAcrossCalls) {
  common::Rng rng(2);
  const tensor::Tensor t = tensor::Tensor::randn({4096}, rng);
  const Quantizer q(FixedFormat(2, 6), RoundingScheme::kStochastic, 77);
  const tensor::Tensor a = q.quantized(t);
  const tensor::Tensor b = q.quantized(t);
  testutil::expect_tensor_near(a, b, 0.0f, "SR determinism");
}

TEST(Quantizer, StochasticSeedChangesResult) {
  common::Rng rng(3);
  const tensor::Tensor t = tensor::Tensor::randn({4096}, rng);
  const Quantizer q1(FixedFormat(2, 6), RoundingScheme::kStochastic, 1);
  const Quantizer q2(FixedFormat(2, 6), RoundingScheme::kStochastic, 2);
  const tensor::Tensor a = q1.quantized(t);
  const tensor::Tensor b = q2.quantized(t);
  int diffs = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    if (a[i] != b[i]) ++diffs;
  EXPECT_GT(diffs, 100);
}

TEST(Quantizer, DeterministicRoundingIdempotent) {
  common::Rng rng(4);
  tensor::Tensor t = tensor::Tensor::randn({2048}, rng);
  for (const auto scheme :
       {RoundingScheme::kTruncation, RoundingScheme::kRoundToNearest}) {
    const Quantizer q(FixedFormat(2, 4), scheme);
    tensor::Tensor once = q.quantized(t);
    tensor::Tensor twice = q.quantized(once);
    testutil::expect_tensor_near(once, twice, 0.0f, "idempotence");
  }
}

TEST(Quantizer, StochasticIdempotentOnGridValues) {
  // Values already on the grid have zero residue and must not move.
  common::Rng rng(5);
  const Quantizer coarse(FixedFormat(1, 3), RoundingScheme::kRoundToNearest);
  tensor::Tensor t = coarse.quantized(tensor::Tensor::randn({1024}, rng, 0.0f, 0.3f));
  const Quantizer sr(FixedFormat(1, 3), RoundingScheme::kStochastic, 9);
  testutil::expect_tensor_near(sr.quantized(t), t, 0.0f, "SR grid fixed point");
}

TEST(Quantizer, ParallelPathMatchesSerial) {
  // Large tensor triggers the OpenMP path; a prefix copy processed alone
  // (serial path) must agree, thanks to the counter-based noise stream.
  common::Rng rng(6);
  const tensor::Tensor big = tensor::Tensor::randn({100000}, rng);
  tensor::Tensor small({100});
  for (int i = 0; i < 100; ++i) small[i] = big[i];
  const Quantizer q(FixedFormat(1, 6), RoundingScheme::kStochastic, 123);
  const tensor::Tensor qb = q.quantized(big);
  const tensor::Tensor qs = q.quantized(small);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(qb[i], qs[i]);
}

class ErrorVsBits : public ::testing::TestWithParam<int> {};

TEST_P(ErrorVsBits, SqnrGrowsRoughlySixDbPerBit) {
  const int qf = GetParam();
  common::Rng rng(7);
  const tensor::Tensor t = tensor::Tensor::uniform({20000}, rng, -0.95f, 0.95f);
  const auto err = quantization_error(t, FixedFormat(1, qf),
                                      RoundingScheme::kRoundToNearest);
  // Uniform-signal SQNR ≈ 6.02*N + const; verify the slope window.
  const double expected = 6.02 * qf;
  EXPECT_NEAR(err.sqnr_db, expected + 4.77, 1.5) << "qf=" << qf;
}

INSTANTIATE_TEST_SUITE_P(BitSweep, ErrorVsBits, ::testing::Range(3, 13));

TEST(ErrorStats, MseDecreasesMonotonicallyWithBits) {
  common::Rng rng(8);
  const tensor::Tensor t = tensor::Tensor::randn({10000}, rng, 0.0f, 0.25f);
  double prev = 1e9;
  for (int qf = 2; qf <= 10; ++qf) {
    const auto err =
        quantization_error(t, FixedFormat(1, qf), RoundingScheme::kRoundToNearest);
    EXPECT_LT(err.mse, prev) << "qf=" << qf;
    prev = err.mse;
  }
}

TEST(ErrorStats, MaxAbsBoundedByStep) {
  common::Rng rng(9);
  const tensor::Tensor t = tensor::Tensor::uniform({5000}, rng, -0.9f, 0.9f);
  const FixedFormat fmt(1, 5);
  const auto err = quantization_error(t, fmt, RoundingScheme::kTruncation);
  EXPECT_LE(err.max_abs, fmt.precision() + 1e-9);
}

TEST(ErrorStats, LosslessReportsLargeSqnr) {
  tensor::Tensor t({4}, {0.25f, -0.5f, 0.75f, 0.0f});
  const auto err =
      quantization_error(t, FixedFormat(1, 4), RoundingScheme::kRoundToNearest);
  EXPECT_EQ(err.mse, 0.0);
  EXPECT_GE(err.sqnr_db, 300.0);
}

TEST(ErrorStats, ShapeMismatchThrows) {
  tensor::Tensor a({3}), b({4});
  EXPECT_THROW(measure_error(a, b), qcaps::Error);
}

TEST(ErrorStats, TruncationBiasNegativeOnTensors) {
  common::Rng rng(10);
  const tensor::Tensor t = tensor::Tensor::uniform({30000}, rng, -0.9f, 0.9f);
  const auto err =
      quantization_error(t, FixedFormat(1, 4), RoundingScheme::kTruncation);
  EXPECT_LT(err.bias, 0.0);
}

// ---- fake-quantized grid vs packed integer execution ------------------------

TEST(QuantizerVsQGemm, ExactProductRequantLandsOnQuantizerGrid) {
  // For grid values x (fmt A) and y (fmt B), the exact product x*y is a raw
  // integer with qf_a + qf_b fractional bits. Pushing that raw product
  // through the qgemm requant (rounded shift) must match what the
  // float-side definition — quantize_value of the real product — produces.
  // This is the element-level statement of "fake quantization simulates the
  // integer datapath exactly".
  const FixedFormat fa(2, 6), fb(1, 7), out(3, 5);
  common::Rng rng(11);
  tensor::QGemmRequant rq;
  rq.shift = fa.qf + fb.qf - out.qf;
  rq.qmin = static_cast<std::int32_t>(out.raw_min());
  rq.qmax = static_cast<std::int32_t>(out.raw_max());
  const Quantizer qa(fa, RoundingScheme::kRoundToNearest);
  const Quantizer qb(fb, RoundingScheme::kRoundToNearest);
  for (int i = 0; i < 2000; ++i) {
    const double x = quantize_value(rng.uniform(-1.9f, 1.9f), fa,
                                    RoundingScheme::kRoundToNearest);
    const double y = quantize_value(rng.uniform(-0.99f, 0.99f), fb,
                                    RoundingScheme::kRoundToNearest);
    const std::int64_t rx = to_raw(x, fa, RoundingScheme::kRoundToNearest);
    const std::int64_t ry = to_raw(y, fb, RoundingScheme::kRoundToNearest);
    const std::int32_t got = tensor::qgemm_requantize(rx * ry, rq);
    // x*y is exact in double (both factors have few mantissa bits).
    const std::int64_t want =
        to_raw(x * y, out, RoundingScheme::kRoundToNearest);
    ASSERT_EQ(got, want) << "x=" << x << " y=" << y;
  }
}

TEST(QuantizerVsQGemm, NegativeAndTieProductsBitIdentical) {
  // Directed cases: negative operands and products landing exactly half-way
  // between output grid points.
  const FixedFormat fa(2, 4), fb(2, 4), out(3, 4);  // shift 4, ties at 8
  tensor::QGemmRequant rq;
  rq.shift = 4;
  rq.qmin = static_cast<std::int32_t>(out.raw_min());
  rq.qmax = static_cast<std::int32_t>(out.raw_max());
  const std::pair<std::int64_t, std::int64_t> cases[] = {
      {2, 4},  {-2, 4}, {2, -4}, {-2, -4}, {6, 4},   {-6, 4},
      {3, 8},  {-3, 8}, {5, -8}, {-5, -8}, {24, 11}, {-24, 11}};
  for (const auto& [ra, rb] : cases) {
    const double x = from_raw(ra, fa), y = from_raw(rb, fb);
    ASSERT_EQ(tensor::qgemm_requantize(ra * rb, rq),
              to_raw(x * y, out, RoundingScheme::kRoundToNearest))
        << "ra=" << ra << " rb=" << rb;
  }
}

TEST(QuantizerVsQGemm, PackedContainerRoundTripsThroughInt8) {
  // Quantizer grid -> QTensor raw -> packed int8 (+ scale/zero-point
  // metadata) -> QTensor -> float must be the identity on the grid.
  common::Rng rng(12);
  const FixedFormat fmt(1, 7);
  const Quantizer q(fmt, RoundingScheme::kRoundToNearest);
  const tensor::Tensor t = q.quantized(tensor::Tensor::randn({512}, rng, 0.0f, 0.4f));
  const qengine::QTensor qt = qengine::QTensor::from_float(t, fmt);
  ASSERT_TRUE(qt.fits_i8());
  EXPECT_EQ(qt.zero_point(), 0);
  EXPECT_DOUBLE_EQ(qt.scale(), fmt.precision());
  const auto packed = qt.packed_i8();
  const qengine::QTensor back =
      qengine::QTensor::from_packed_i8(packed.data(), qt.shape, fmt);
  const tensor::Tensor tf = back.to_float();
  for (std::int64_t i = 0; i < t.numel(); ++i)
    ASSERT_EQ(tf[i], t[i]) << "flat " << i;
}

}  // namespace
}  // namespace qcaps::fixed
