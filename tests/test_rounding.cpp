// Tests for the rounding schemes (paper Sec. II-B): grid membership,
// per-scheme semantics, bias properties and saturation — plus proof that the
// qgemm requantization (rounded shift) is bit-identical to the fixed
// rounding applied to exact int32 products.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fixed/rounding.hpp"
#include "tensor/qgemm.hpp"

namespace qcaps::fixed {
namespace {

TEST(SchemeNames, RoundTrip) {
  for (const auto s : all_schemes())
    EXPECT_EQ(scheme_from_name(scheme_name(s)), s);
  EXPECT_EQ(scheme_from_name("sr"), RoundingScheme::kStochastic);
  EXPECT_THROW(scheme_from_name("nearest-even"), qcaps::Error);
}

TEST(SchemeNames, ComplexityOrderMatchesPaper) {
  // Sec. III-B: truncation simplest, stochastic rounding most complex.
  EXPECT_LT(scheme_complexity_rank(RoundingScheme::kTruncation),
            scheme_complexity_rank(RoundingScheme::kRoundToNearest));
  EXPECT_LT(scheme_complexity_rank(RoundingScheme::kRoundToNearest),
            scheme_complexity_rank(RoundingScheme::kStochastic));
}

class AllSchemes : public ::testing::TestWithParam<RoundingScheme> {};

TEST_P(AllSchemes, OutputOnGrid) {
  const FixedFormat fmt(2, 4);
  common::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.0f, 3.0f);
    const double q = quantize_value(x, fmt, GetParam(), rng.uniform());
    const double scaled = q / fmt.precision();
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9) << "x=" << x;
  }
}

TEST_P(AllSchemes, GridValuesAreFixedPoints) {
  const FixedFormat fmt(1, 3);
  for (std::int64_t raw = fmt.raw_min(); raw <= fmt.raw_max(); ++raw) {
    const double x = from_raw(raw, fmt);
    // Any noise value: a grid point has residue 0, so SR keeps it too.
    EXPECT_DOUBLE_EQ(quantize_value(x, fmt, GetParam(), 0.73f), x);
  }
}

TEST_P(AllSchemes, SaturatesAtRangeEnds) {
  const FixedFormat fmt(1, 4);
  const auto s = GetParam();
  EXPECT_DOUBLE_EQ(quantize_value(100.0, fmt, s, 0.5f), fmt.max_value());
  EXPECT_DOUBLE_EQ(quantize_value(-100.0, fmt, s, 0.5f), fmt.min_value());
}

TEST_P(AllSchemes, ErrorBoundedByOneStep) {
  const FixedFormat fmt(3, 5);
  common::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.5f, 3.5f);  // inside the range
    const double q = quantize_value(x, fmt, GetParam(), rng.uniform());
    EXPECT_LE(std::fabs(q - x), fmt.precision() + 1e-12) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AllSchemes,
                         ::testing::ValuesIn(all_schemes()),
                         [](const auto& info) { return scheme_name(info.param); });

TEST(Truncation, FloorsTowardMinusInfinity) {
  const FixedFormat fmt(2, 2);  // step 0.25
  EXPECT_DOUBLE_EQ(quantize_value(0.30, fmt, RoundingScheme::kTruncation), 0.25);
  EXPECT_DOUBLE_EQ(quantize_value(-0.30, fmt, RoundingScheme::kTruncation), -0.50);
  EXPECT_DOUBLE_EQ(quantize_value(0.999, fmt, RoundingScheme::kTruncation), 0.75);
}

TEST(RoundToNearest, HalfUpRule) {
  const FixedFormat fmt(2, 2);  // step 0.25
  // Exactly half-way values round up (Eq. 3).
  EXPECT_DOUBLE_EQ(quantize_value(0.125, fmt, RoundingScheme::kRoundToNearest), 0.25);
  EXPECT_DOUBLE_EQ(quantize_value(-0.125, fmt, RoundingScheme::kRoundToNearest), 0.0);
  EXPECT_DOUBLE_EQ(quantize_value(0.30, fmt, RoundingScheme::kRoundToNearest), 0.25);
  EXPECT_DOUBLE_EQ(quantize_value(0.40, fmt, RoundingScheme::kRoundToNearest), 0.50);
}

TEST(Stochastic, RoundsToNeighborOnly) {
  const FixedFormat fmt(2, 3);
  common::Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-1.9f, 1.9f);
    const double fl = std::floor(x / fmt.precision()) * fmt.precision();
    const double q = quantize_value(x, fmt, RoundingScheme::kStochastic,
                                    rng.uniform());
    EXPECT_TRUE(std::fabs(q - fl) < 1e-12 ||
                std::fabs(q - (fl + fmt.precision())) < 1e-12)
        << "x=" << x << " q=" << q;
  }
}

TEST(Stochastic, UpProbabilityEqualsResidue) {
  // x = floor + 0.75*eps must round up ~75% of the time.
  const FixedFormat fmt(1, 4);
  const double x = 0.25 + 0.75 * fmt.precision();
  int ups = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float noise = common::u64_to_unit_float(
        common::counter_hash(77, static_cast<std::uint64_t>(i)));
    if (quantize_value(x, fmt, RoundingScheme::kStochastic, noise) > x) ++ups;
  }
  EXPECT_NEAR(static_cast<double>(ups) / n, 0.75, 0.02);
}

// ---- bias properties the paper states in Sec. II-B -------------------------

double mean_error(RoundingScheme scheme, std::uint64_t seed) {
  const FixedFormat fmt(1, 4);
  common::Rng rng(seed);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-0.9f, 0.9f);
    acc += quantize_value(x, fmt, scheme, rng.uniform()) - x;
  }
  return acc / n;
}

TEST(Bias, TruncationHasNegativeBiasOfHalfStep) {
  const double eps = FixedFormat(1, 4).precision();
  const double bias = mean_error(RoundingScheme::kTruncation, 10);
  EXPECT_LT(bias, 0.0);
  EXPECT_NEAR(bias, -eps / 2.0, eps / 10.0);
}

TEST(Bias, RoundToNearestBiasSmallerThanTruncation) {
  const double trn = std::fabs(mean_error(RoundingScheme::kTruncation, 11));
  const double rtn = std::fabs(mean_error(RoundingScheme::kRoundToNearest, 11));
  EXPECT_LT(rtn, trn / 4.0);
}

TEST(Bias, StochasticIsUnbiased) {
  const double eps = FixedFormat(1, 4).precision();
  EXPECT_NEAR(mean_error(RoundingScheme::kStochastic, 12), 0.0, eps / 20.0);
}

// ---- raw conversions --------------------------------------------------------

TEST(Raw, RoundTripThroughRawRepresentation) {
  const FixedFormat fmt(2, 5);
  for (std::int64_t raw = fmt.raw_min(); raw <= fmt.raw_max(); raw += 7) {
    const double x = from_raw(raw, fmt);
    EXPECT_EQ(to_raw(x, fmt, RoundingScheme::kRoundToNearest), raw);
  }
}

TEST(Raw, SaturationClampsRaw) {
  const FixedFormat fmt(1, 2);
  EXPECT_EQ(to_raw(10.0, fmt, RoundingScheme::kTruncation), fmt.raw_max());
  EXPECT_EQ(to_raw(-10.0, fmt, RoundingScheme::kTruncation), fmt.raw_min());
}

TEST(Raw, InvalidFormatRejected) {
  EXPECT_THROW(to_raw(0.5, FixedFormat(0, 3), RoundingScheme::kTruncation),
               qcaps::Error);
}

// ---- qgemm requantization vs the fixed-point rounding definition -----------
//
// A raw int32 accumulator with acc_qf fractional bits represents the exact
// real value acc * 2^-acc_qf. Requantizing it into out_fmt with the qgemm
// rounded shift (shift = acc_qf - out_fmt.qf) must
// land on exactly the raw value that fixed::to_raw produces for that real
// value under round-to-nearest — for positives, negatives, and half-way ties.

tensor::QGemmRequant shift_requant(int shift, const FixedFormat& out) {
  tensor::QGemmRequant rq;
  rq.shift = shift;
  rq.qmin = static_cast<std::int32_t>(out.raw_min());
  rq.qmax = static_cast<std::int32_t>(out.raw_max());
  return rq;
}

TEST(RequantVsToRaw, ShiftPathBitIdenticalToRoundToNearest) {
  const FixedFormat out(2, 3);
  const int acc_qf = 9;  // shift 6
  const auto rq = shift_requant(acc_qf - out.qf, out);
  for (std::int64_t acc = -6000; acc <= 6000; ++acc) {
    const double x = std::ldexp(static_cast<double>(acc), -acc_qf);
    ASSERT_EQ(tensor::qgemm_requantize(acc, rq),
              to_raw(x, out, RoundingScheme::kRoundToNearest))
        << "acc=" << acc;
  }
}

TEST(RequantVsToRaw, HalfWayTiesRoundHalfUpLikeEqThree) {
  // Ties sit at acc = k*2^shift + 2^(shift-1); Eq. (3) rounds them up
  // (toward +inf) on both sides of zero.
  const FixedFormat out(4, 2);
  const int shift = 6;
  const auto rq = shift_requant(shift, out);
  EXPECT_EQ(tensor::qgemm_requantize(32, rq), 1);    // +0.5 ulp -> up
  EXPECT_EQ(tensor::qgemm_requantize(-32, rq), 0);   // -0.5 ulp -> up to 0
  EXPECT_EQ(tensor::qgemm_requantize(96, rq), 2);    // +1.5 ulp -> 2
  EXPECT_EQ(tensor::qgemm_requantize(-96, rq), -1);  // -1.5 ulp -> -1
  for (std::int64_t k = -40; k <= 40; ++k) {
    const std::int64_t acc = k * 64 + 32;
    const double x = std::ldexp(static_cast<double>(acc), -(out.qf + shift));
    ASSERT_EQ(tensor::qgemm_requantize(acc, rq),
              to_raw(x, out, RoundingScheme::kRoundToNearest))
        << "tie acc=" << acc;
  }
}

TEST(RequantVsToRaw, SaturatesExactlyWhereToRawDoes) {
  const FixedFormat out(1, 4);  // raw range [-16, 15]
  const auto rq = shift_requant(4, out);
  for (std::int64_t acc = -1024; acc <= 1024; acc += 3) {
    const double x = std::ldexp(static_cast<double>(acc), -(out.qf + 4));
    ASSERT_EQ(tensor::qgemm_requantize(acc, rq),
              to_raw(x, out, RoundingScheme::kRoundToNearest))
        << "acc=" << acc;
  }
  EXPECT_EQ(tensor::qgemm_requantize(1 << 20, rq), out.raw_max());
  EXPECT_EQ(tensor::qgemm_requantize(-(1 << 20), rq), out.raw_min());
}

}  // namespace
}  // namespace qcaps::fixed
