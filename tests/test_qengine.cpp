// Tests for the integer-only inference engine: operator-level agreement with
// the float/fake-quant reference, and network-scale prediction agreement
// between a fake-quantized CapsNet and its integer deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "data/synth.hpp"
#include "models/shallow_caps.hpp"
#include "nn/caps_ops.hpp"
#include "nn/routing.hpp"
#include "nn/trainer.hpp"
#include "hwmodel/units.hpp"
#include "qengine/qengine.hpp"
#include "qengine/qgraph.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/qgemm.hpp"
#include "test_util.hpp"

namespace qcaps::qengine {
namespace {

// Random QTensor with on-grid values drawn from [-amp, amp].
QTensor random_q(common::Rng& rng, tensor::Shape shape, fixed::FixedFormat fmt,
                 float amp) {
  const fixed::Quantizer q(fmt, fixed::RoundingScheme::kRoundToNearest);
  return QTensor::from_float(
      q.quantized(tensor::Tensor::uniform(std::move(shape), rng, -amp, amp)),
      fmt);
}

// The legacy vote product exactly as the ShallowCaps deployment computed
// it before the qgemm rewire (PR 2): scalar int64 loops + rescale_raw. Kept
// verbatim as the regression oracle for the qgemm_batch_scatter path.
QTensor legacy_vote_transform(const QTensor& u, const QTensor& w,
                              fixed::FixedFormat out_fmt) {
  const std::int64_t b = u.dim(0), nin = u.dim(1), din = u.dim(2);
  const std::int64_t jd = w.dim(1) * w.dim(2);
  QTensor votes({b, nin, w.dim(1), w.dim(2)}, out_fmt);
  const int acc_qf = u.fmt.qf + w.fmt.qf;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t i = 0; i < nin; ++i) {
      const std::int64_t* uv = u.raw.data() + (bi * nin + i) * din;
      const std::int64_t* wrow = w.raw.data() + i * jd * din;
      std::int64_t* vrow = votes.raw.data() + (bi * nin + i) * jd;
      for (std::int64_t x = 0; x < jd; ++x) {
        std::int64_t acc = 0;
        for (std::int64_t p = 0; p < din; ++p)
          acc += wrow[x * din + p] * uv[p];
        vrow[x] = hwmodel::rescale_raw(acc, acc_qf, out_fmt);
      }
    }
  }
  return votes;
}

// Permute i-major votes [B, Nin, Nout, D] into the j-major layout
// [B, Nout, Nin, D] the routing engine consumes.
QTensor to_jmajor(const QTensor& v) {
  const std::int64_t b = v.dim(0), nin = v.dim(1), nout = v.dim(2),
                     d = v.dim(3);
  QTensor out({b, nout, nin, d}, v.fmt);
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t i = 0; i < nin; ++i)
      for (std::int64_t j = 0; j < nout; ++j)
        for (std::int64_t k = 0; k < d; ++k)
          out.raw[static_cast<std::size_t>(((bi * nout + j) * nin + i) * d + k)] =
              v.raw[static_cast<std::size_t>(((bi * nin + i) * nout + j) * d + k)];
  return out;
}

// The integer routing loop exactly as qengine::dynamic_routing computed it
// before the j-major refactor (PR 4): i-major votes, scalar int64
// accumulation, identical rescale points. Kept verbatim as the bit-identity
// oracle for the new layout + int32 fast path.
QTensor legacy_dynamic_routing(const QTensor& votes, int iterations,
                               fixed::FixedFormat act_fmt,
                               fixed::FixedFormat dr_fmt) {
  const std::int64_t r_count = votes.dim(0), nin = votes.dim(1),
                     nout = votes.dim(2), d = votes.dim(3);
  const hwmodel::SoftmaxUnit softmax(dr_fmt);
  const hwmodel::SquashUnit squash(dr_fmt);
  QTensor v_out({r_count, nout, d}, act_fmt);
  for (std::int64_t r = 0; r < r_count; ++r) {
    std::vector<std::int64_t> b_raw(static_cast<std::size_t>(nin * nout), 0);
    std::vector<std::int64_t> c_raw(static_cast<std::size_t>(nin * nout), 0);
    std::vector<std::int64_t> s_raw(static_cast<std::size_t>(nout * d), 0);
    std::vector<std::int64_t> v_raw(static_cast<std::size_t>(nout * d), 0);
    const std::int64_t* u = votes.raw.data() + r * nin * nout * d;
    for (int it = 0; it < iterations; ++it) {
      for (std::int64_t i = 0; i < nin; ++i) {
        std::vector<hwmodel::FixedNum> logits(static_cast<std::size_t>(nout));
        for (std::int64_t j = 0; j < nout; ++j)
          logits[static_cast<std::size_t>(j)] = {
              b_raw[static_cast<std::size_t>(i * nout + j)], dr_fmt};
        const auto c = softmax.apply(logits, act_fmt);
        for (std::int64_t j = 0; j < nout; ++j)
          c_raw[static_cast<std::size_t>(i * nout + j)] =
              c[static_cast<std::size_t>(j)].raw;
      }
      const int acc_qf = act_fmt.qf + act_fmt.qf;
      std::fill(s_raw.begin(), s_raw.end(), 0);
      for (std::int64_t j = 0; j < nout; ++j) {
        for (std::int64_t k = 0; k < d; ++k) {
          std::int64_t acc = 0;
          for (std::int64_t i = 0; i < nin; ++i)
            acc += c_raw[static_cast<std::size_t>(i * nout + j)] *
                   u[(i * nout + j) * d + k];
          s_raw[static_cast<std::size_t>(j * d + k)] =
              hwmodel::rescale_raw(acc, acc_qf, dr_fmt);
        }
      }
      for (std::int64_t j = 0; j < nout; ++j) {
        std::vector<hwmodel::FixedNum> sv(static_cast<std::size_t>(d));
        for (std::int64_t k = 0; k < d; ++k)
          sv[static_cast<std::size_t>(k)] = {
              s_raw[static_cast<std::size_t>(j * d + k)], dr_fmt};
        const auto vq = squash.apply(sv, act_fmt);
        for (std::int64_t k = 0; k < d; ++k)
          v_raw[static_cast<std::size_t>(j * d + k)] =
              vq[static_cast<std::size_t>(k)].raw;
      }
      if (it + 1 == iterations) break;
      for (std::int64_t i = 0; i < nin; ++i) {
        for (std::int64_t j = 0; j < nout; ++j) {
          std::int64_t acc = 0;
          for (std::int64_t k = 0; k < d; ++k)
            acc += v_raw[static_cast<std::size_t>(j * d + k)] *
                   u[(i * nout + j) * d + k];
          const std::int64_t a =
              hwmodel::rescale_raw(acc, 2 * act_fmt.qf, dr_fmt);
          b_raw[static_cast<std::size_t>(i * nout + j)] = hwmodel::saturate_raw(
              b_raw[static_cast<std::size_t>(i * nout + j)] + a, dr_fmt);
        }
      }
    }
    std::copy(v_raw.begin(), v_raw.end(), v_out.raw.begin() + r * nout * d);
  }
  return v_out;
}

TEST(QTensor, FloatRoundTripIsExactOnGrid) {
  common::Rng rng(1);
  const fixed::FixedFormat fmt(2, 6);
  const fixed::Quantizer q(fmt, fixed::RoundingScheme::kRoundToNearest);
  const tensor::Tensor t = q.quantized(tensor::Tensor::randn({100}, rng));
  const QTensor qt = QTensor::from_float(t, fmt);
  const tensor::Tensor back = qt.to_float();
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(QTensor, FromFloatSaturates) {
  tensor::Tensor t({2}, {100.0f, -100.0f});
  const fixed::FixedFormat fmt(1, 3);
  const QTensor q = QTensor::from_float(t, fmt);
  EXPECT_EQ(q.raw[0], fmt.raw_max());
  EXPECT_EQ(q.raw[1], fmt.raw_min());
}

TEST(QEngineConv, MatchesFloatConvOnGridInputs) {
  // With inputs/weights already on the grid and a wide output format, the
  // integer conv must match float convolution to within one output ULP.
  common::Rng rng(2);
  const fixed::FixedFormat xf(2, 8), wf(1, 8), of(6, 12);
  const fixed::Quantizer qx(xf, fixed::RoundingScheme::kRoundToNearest);
  const fixed::Quantizer qw(wf, fixed::RoundingScheme::kRoundToNearest);
  const tensor::Tensor x = qx.quantized(tensor::Tensor::randn({2, 3, 8, 8}, rng, 0.0f, 0.5f));
  const tensor::Tensor w = qw.quantized(tensor::Tensor::randn({4, 3, 3, 3}, rng, 0.0f, 0.3f));
  const tensor::Tensor b = qw.quantized(tensor::Tensor::randn({4}, rng, 0.0f, 0.3f));
  const tensor::Tensor ref = tensor::conv2d_forward(x, w, b, 1, 1);
  const QTensor got =
      conv2d(QActivation(QTensor::from_float(x, xf)),
             QTensor::from_float(w, wf), QTensor::from_float(b, wf), 1, 1, of)
          .widen();
  const tensor::Tensor gotf = got.to_float();
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_NEAR(gotf[i], ref[i], 2.0f * static_cast<float>(of.precision()));
}

TEST(QEngineConv, NarrowOutputFormatSaturates) {
  // A big positive sum into a 1-integer-bit output must clip at max_value.
  tensor::Tensor x({1, 1, 2, 2}, 0.9f);
  tensor::Tensor w({1, 1, 2, 2}, 0.9f);
  const fixed::FixedFormat f(1, 6);
  const QTensor out = conv2d(QActivation(QTensor::from_float(x, f)),
                             QTensor::from_float(w, f), QTensor(), 1, 0, f)
                          .widen();
  EXPECT_EQ(out.raw[0], f.raw_max());
}

// ---- direct convolution on every tier against the exact int64 oracle ------

// The exact int64 scalar convolution: wide accumulate, bias aligned to the
// accumulator, RTN rescale, then the fused ReLU.
QTensor conv2d_ref(const QTensor& x, const QTensor& w, const QTensor& bias,
                   std::int64_t stride, std::int64_t pad,
                   fixed::FixedFormat out_fmt, bool relu) {
  const std::int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t f = w.dim(0), k = w.dim(2);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - k) / stride + 1;
  const int acc_qf = x.fmt.qf + w.fmt.qf;
  QTensor out({b, f, oh, ow}, out_fmt);
  std::size_t o = 0;
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t fi = 0; fi < f; ++fi)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          std::int64_t acc = 0;
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = y * stride + ky - pad;
                const std::int64_t ix = xx * stride + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += x.raw[static_cast<std::size_t>(
                           ((bi * c + ci) * h + iy) * wd + ix)] *
                       w.raw[static_cast<std::size_t>(
                           ((fi * c + ci) * k + ky) * k + kx)];
              }
          if (!bias.raw.empty())
            acc += bias.raw[static_cast<std::size_t>(fi)]
                   << (acc_qf - bias.fmt.qf);
          std::int64_t v = hwmodel::rescale_raw(acc, acc_qf, out_fmt);
          if (relu && v < 0) v = 0;
          out.raw[o++] = v;
        }
  return out;
}

// Raw values uniform in [lo, hi], a quarter of them pinned to the rails.
QTensor random_rails(common::Rng& rng, tensor::Shape shape,
                     fixed::FixedFormat fmt, std::int64_t lo,
                     std::int64_t hi) {
  QTensor t(std::move(shape), fmt);
  for (auto& v : t.raw) {
    const std::uint64_t r = rng.uniform_index(8);
    v = r == 0   ? lo
        : r == 1 ? hi
                 : lo + static_cast<std::int64_t>(rng.uniform_index(
                            static_cast<std::uint64_t>(hi - lo + 1)));
  }
  return t;
}

// Runs `body` at one and at two OpenMP threads.
template <typename F>
void for_each_team(const F& body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (const int threads : {1, 2}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    SCOPED_TRACE("threads " + std::to_string(threads));
    body();
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

// Runs `body` at every dispatch level this CPU supports, at one and at two
// OpenMP threads.
template <typename F>
void for_each_isa_and_team(const F& body) {
  testutil::for_each_isa([&](common::Isa) { for_each_team(body); });
}

struct DirectConvCase {
  std::int64_t b, c, hw, f, k, stride, pad;
};
const DirectConvCase kDirectConvCases[] = {
    {3, 3, 12, 8, 3, 1, 1},    // L1: C = 3 is not a multiple of a K quad
    {16, 32, 8, 16, 3, 2, 1},  // a strided block entry
    {16, 32, 4, 16, 3, 2, 1},  // B5: a 2x2 plane, smaller than one strip
    {1, 3, 9, 5, 9, 1, 0},     // K = 9 onto a 1x1 plane
    {3, 32, 10, 7, 9, 2, 2},   // K = 9, stride 2, pad 2
    {16, 32, 7, 13, 1, 1, 0},  // K = 1
    {1, 3, 11, 6, 1, 2, 1},    // K = 1, stride 2, pad 1: three K rows
    {1, 32, 16, 32, 3, 1, 2},  // batch 1: the column split at two threads
    {3, 64, 6, 8, 3, 1, 1},    // 576 K rows span two K blocks
    // DeepCaps' own geometries (the VNNI window spans in brackets):
    {2, 8, 32, 8, 3, 2, 1},    // B2 entry, 32x32 at stride 2 (30)
    {3, 16, 16, 8, 3, 2, 1},   // B3 entry, 16x16 at stride 2 (50)
    {4, 16, 8, 8, 3, 1, 1},    // B3 inner, 8x8 at stride 1 (17)
    {8, 16, 4, 8, 3, 1, 1},    // B4 inner, 4x4 at stride 1 (21)
};

// Every case of kDirectConvCases x epilogue (plain, bias without ReLU,
// bias + fused ReLU) against conv2d_ref, at one and two threads under every
// dispatch level, or under the default level alone when the formats take
// the `exact` tier, whose kernel is scalar.
void check_direct_conv(fixed::FixedFormat xf, std::int64_t xlo,
                       std::int64_t xhi, fixed::FixedFormat wf,
                       std::int64_t wmax, fixed::FixedFormat out_fmt,
                       bool exact = false) {
  common::Rng rng(41);
  for (const auto& cs : kDirectConvCases) {
    SCOPED_TRACE("b=" + std::to_string(cs.b) + " c=" + std::to_string(cs.c) +
                 " hw=" + std::to_string(cs.hw) + " k=" +
                 std::to_string(cs.k) + " stride=" +
                 std::to_string(cs.stride) + " pad=" + std::to_string(cs.pad));
    const QTensor x =
        random_rails(rng, {cs.b, cs.c, cs.hw, cs.hw}, xf, xlo, xhi);
    const QActivation xa(x);
    const QTensor w =
        random_rails(rng, {cs.f, cs.c, cs.k, cs.k}, wf, -wmax, wmax);
    const QTensor bias = random_rails(rng, {cs.f}, wf, -wmax, wmax);
    const QGemmOperandCache cache = make_operand_cache(w);
    const QTensor want_plain =
        conv2d_ref(x, w, QTensor(), cs.stride, cs.pad, out_fmt, false);
    const QTensor want_bias =
        conv2d_ref(x, w, bias, cs.stride, cs.pad, out_fmt, false);
    const QTensor want_relu =
        conv2d_ref(x, w, bias, cs.stride, cs.pad, out_fmt, true);
    const auto body = [&] {
      const QActivation plain =
          conv2d(xa, w, QTensor(), cs.stride, cs.pad, out_fmt);
      ASSERT_EQ(plain.storage(), storage_for(out_fmt));
      EXPECT_EQ(plain.widen().raw, want_plain.raw);
      EXPECT_EQ(
          conv2d(xa, w, bias, cs.stride, cs.pad, out_fmt, &cache).widen().raw,
          want_bias.raw);
      EXPECT_EQ(conv2d(xa, w, bias, cs.stride, cs.pad, out_fmt, &cache,
                       /*fuse_relu=*/true)
                    .widen()
                    .raw,
                want_relu.raw);
    };
    if (exact)
      for_each_team(body);
    else
      for_each_isa_and_team(body);
  }
}

TEST(QEngineDirectConv, Int8MatchesInt64OracleOnEveryTier) {
  // Operands at +-127: the int8 container (the VNNI quads on that tier).
  check_direct_conv(fixed::FixedFormat(1, 7), -127, 127,
                    fixed::FixedFormat(1, 7), 127, fixed::FixedFormat(6, 11));
}

TEST(QEngineDirectConv, Int8RailsMatchInt64OracleOnEveryTier) {
  // Inputs at both rails of the Q1.7 grid, -128 and 127, held in int8. The
  // tier gate reads the 8-bit format, so |x| = 128 takes the int8 container
  // (the VNNI quads on that tier), on every tier. Outputs land in the int64
  // container (17 bits), the int16 one and the int8 one.
  ASSERT_EQ(storage_for(fixed::FixedFormat(1, 7)), Storage::kInt8);
  for (const fixed::FixedFormat out :
       {fixed::FixedFormat(6, 11), fixed::FixedFormat(6, 10),
        fixed::FixedFormat(3, 5)})
    check_direct_conv(fixed::FixedFormat(1, 7), -128, 127,
                      fixed::FixedFormat(1, 7), 127, out);
}

TEST(QEngineDirectConv, Int16TierMatchesInt64OracleOnEveryTier) {
  // Raw ranges past int8 (the int16 container), still exact in int32.
  check_direct_conv(fixed::FixedFormat(3, 9), -500, 499,
                    fixed::FixedFormat(2, 8), 199, fixed::FixedFormat(8, 12));
}

TEST(QEngineDirectConv, Int16RailsMatchInt64OracleOnEveryTier) {
  // A 16-bit format's rails, -32768 and 32767, held in int16; small weights
  // keep the int32 accumulation exact. int16 and int8 outputs.
  ASSERT_EQ(storage_for(fixed::FixedFormat(1, 15)), Storage::kInt16);
  for (const fixed::FixedFormat out :
       {fixed::FixedFormat(4, 12), fixed::FixedFormat(2, 6)})
    check_direct_conv(fixed::FixedFormat(1, 15), -32768, 32767,
                      fixed::FixedFormat(1, 7), 3, out);
}

TEST(QEngineDirectConv, Int8InputWithInt16WeightsWidensIntoTheInt16Tier) {
  // An int8-held input whose weights pass 127: the int16 tier, fed by an
  // exact widening copy of the int8 rows.
  ASSERT_EQ(packed_tier(fixed::FixedFormat(1, 7), fixed::FixedFormat(2, 8),
                        300, 64 * 9, fixed::FixedFormat(8, 8)),
            PackedTier::kInt16);
  check_direct_conv(fixed::FixedFormat(1, 7), -128, 127,
                    fixed::FixedFormat(2, 8), 300, fixed::FixedFormat(8, 8));
}

TEST(QEngineDirectConv, Int8InputWithWideWeightsTakesTheExactTier) {
  // Weights past the int16 range leave the packed tiers: the int8-held
  // input is widened into the int64 padded copy and the exact kernel stores
  // into the int16 output.
  ASSERT_EQ(packed_tier(fixed::FixedFormat(1, 7), fixed::FixedFormat(17, 8),
                        40000, 1, fixed::FixedFormat(8, 7)),
            PackedTier::kNone);
  check_direct_conv(fixed::FixedFormat(1, 7), -128, 127,
                    fixed::FixedFormat(17, 8), 40000, fixed::FixedFormat(8, 7),
                    /*exact=*/true);
}

TEST(QEngineDirectConv, WideFormatHeldInInt64TakesTheExactTier) {
  // An 18-bit activation format is held in int64 and runs the exact kernel.
  ASSERT_EQ(storage_for(fixed::FixedFormat(6, 12)), Storage::kInt64);
  ASSERT_EQ(packed_tier(fixed::FixedFormat(6, 12), fixed::FixedFormat(2, 8),
                        199, 1, fixed::FixedFormat(8, 12)),
            PackedTier::kNone);
  check_direct_conv(fixed::FixedFormat(6, 12), -131072, 131071,
                    fixed::FixedFormat(2, 8), 199, fixed::FixedFormat(8, 12),
                    /*exact=*/true);
}

TEST(QEngineDirectConv, NarrowOutputSaturatesOnEveryTier) {
  // A 4-bit output grid: most accumulators clamp at a rail.
  common::Rng rng(43);
  const fixed::FixedFormat f8(1, 7), out(2, 2);
  const QTensor x = random_rails(rng, {3, 32, 8, 8}, f8, -128, 127);
  const QTensor w = random_rails(rng, {16, 32, 3, 3}, f8, -128, 127);
  const QTensor want = conv2d_ref(x, w, QTensor(), 1, 1, out, false);
  for_each_isa_and_team([&] {
    EXPECT_EQ(conv2d(QActivation(x), w, QTensor(), 1, 1, out).widen().raw,
              want.raw);
  });
}

struct VotesCase {
  std::int64_t b, tin, din, tout, dout, hw, k, stride, pad;
};

// The grouped ConvCaps3d votes against the per-type oracle: each type's
// channel slice convolved by conv2d_ref and scattered j-major. Inputs in
// [lo, hi] of format f, weights in [-wmax, wmax] of format wf, except the
// first type's in [-first_wmax, first_wmax] when that is given.
void check_grouped_votes(fixed::FixedFormat f, std::int64_t lo,
                         std::int64_t hi, fixed::FixedFormat wf,
                         std::int64_t wmax,
                         fixed::FixedFormat out_fmt = fixed::FixedFormat(6, 10),
                         std::int64_t first_wmax = 0) {
  const VotesCase cases[] = {
      {3, 4, 4, 3, 4, 6, 3, 1, 1},
      {16, 8, 8, 8, 8, 4, 3, 2, 1},  // B5: a 2x2 plane
      {1, 2, 3, 2, 5, 5, 1, 1, 0},
  };
  common::Rng rng(47);
  for (const auto& vc : cases) {
    SCOPED_TRACE("b=" + std::to_string(vc.b) + " hw=" + std::to_string(vc.hw));
    const std::int64_t jd = vc.tout * vc.dout;
    const QTensor x = random_rails(rng, {vc.b, vc.tin * vc.din, vc.hw, vc.hw},
                                   f, lo, hi);
    std::vector<QTensor> wt;
    std::vector<QGemmOperandCache> caches;
    for (std::int64_t t = 0; t < vc.tin; ++t) {
      const std::int64_t m = t == 0 && first_wmax > 0 ? first_wmax : wmax;
      wt.push_back(random_rails(rng, {jd, vc.din, vc.k, vc.k}, wf, -m, m));
      caches.push_back(make_operand_cache(wt.back()));
    }
    const QGemmOperandCache grouped = make_grouped_cache(wt, caches);
    const std::int64_t oh = (vc.hw + 2 * vc.pad - vc.k) / vc.stride + 1;
    const std::int64_t plane = oh * oh;
    QTensor want({vc.b * plane, vc.tout, vc.tin, vc.dout}, out_fmt);
    for (std::int64_t t = 0; t < vc.tin; ++t) {
      QTensor xs({vc.b, vc.din, vc.hw, vc.hw}, f);
      const std::int64_t slab = vc.din * vc.hw * vc.hw;
      for (std::int64_t bi = 0; bi < vc.b; ++bi)
        std::copy_n(x.raw.begin() + (bi * vc.tin + t) * slab, slab,
                    xs.raw.begin() + bi * slab);
      const QTensor vmap =
          conv2d_ref(xs, wt[static_cast<std::size_t>(t)], QTensor(),
                     vc.stride, vc.pad, out_fmt, false);
      for (std::int64_t bi = 0; bi < vc.b; ++bi)
        for (std::int64_t r = 0; r < jd; ++r)
          for (std::int64_t p = 0; p < plane; ++p)
            want.raw[static_cast<std::size_t>(
                (((bi * plane + p) * vc.tout + r / vc.dout) * vc.tin + t) *
                    vc.dout +
                r % vc.dout)] =
                vmap.raw[static_cast<std::size_t>((bi * jd + r) * plane + p)];
    }
    const QActivation xa(x);
    for_each_isa_and_team([&] {
      const QActivation votes = conv_caps3d_votes(
          xa, wt, grouped, vc.dout, vc.stride, vc.pad, out_fmt);
      ASSERT_EQ(votes.storage(), storage_for(out_fmt));
      EXPECT_EQ(votes.shape(), want.shape);
      EXPECT_EQ(votes.widen().raw, want.raw);
    });
  }
}

TEST(QEngineDirectConv, GroupedVotesMatchPerTypeOracleInt8) {
  const fixed::FixedFormat f(1, 7);
  check_grouped_votes(f, -127, 127, f, 127);
  check_grouped_votes(f, -128, 127, f, 127);  // both rails
  // Votes held in int8.
  check_grouped_votes(f, -128, 127, f, 127, fixed::FixedFormat(3, 5));
}

TEST(QEngineDirectConv, GroupedVotesMatchPerTypeOracleInt16) {
  const fixed::FixedFormat f(3, 9);
  check_grouped_votes(f, -500, 499, f, 499);
  // A 16-bit input's rails, -32768 and 32767, with small weights; votes
  // held in int16 and in int64.
  check_grouped_votes(fixed::FixedFormat(1, 15), -32768, 32767,
                      fixed::FixedFormat(1, 7), 3);
  check_grouped_votes(fixed::FixedFormat(1, 15), -32768, 32767,
                      fixed::FixedFormat(1, 7), 3, fixed::FixedFormat(8, 12));
}

TEST(QEngineDirectConv, GroupedVotesExactTierMatchesPerTypeOracle) {
  // Vote weights past the int16 range send every type to the exact kernel,
  // the first type too, although its own range would pack int8: the node
  // runs one tier, picked from the grouped range.
  const fixed::FixedFormat f(1, 7), wf(17, 8);
  std::vector<QTensor> wt = {QTensor({1}, wf), QTensor({1}, wf)};
  wt[0].raw = {100};
  wt[1].raw = {40000};
  const QGemmOperandCache grouped = make_grouped_cache(
      wt, {make_operand_cache(wt[0]), make_operand_cache(wt[1])});
  EXPECT_EQ(grouped.max_abs, 40000);
  EXPECT_FALSE(grouped.has_i8() || grouped.has_i16());
  check_grouped_votes(f, -128, 127, wf, 40000, fixed::FixedFormat(8, 7),
                      /*first_wmax=*/100);
  // An 18-bit input held in int64.
  check_grouped_votes(fixed::FixedFormat(6, 12), -131072, 131071,
                      fixed::FixedFormat(2, 8), 199, fixed::FixedFormat(8, 12));
}

// ---- one-pass capsule convolution against conv -> squash_channels ----------

struct ConvCapsCase {
  std::int64_t b, c, hw, types, dim, stride;
};
// DeepCaps' capsule-block convolutions (3x3, pad 1) onto the block planes
// 16^2, 8^2, 4^2 and 2^2, block entries (stride 2) and inner convs
// (stride 1), T x D of 8 x 4, 4 x 8 and 8 x 8.
const ConvCapsCase kConvCapsCases[] = {
    {1, 32, 32, 8, 4, 2},  // B2 entry, batch 1: the column split
    {3, 32, 16, 8, 4, 1},  // B2 inner
    {3, 32, 16, 8, 8, 2},  // B3 entry
    {16, 64, 8, 8, 8, 2},  // B4 entry: a 32-column strip spans two images
    {16, 64, 2, 4, 8, 1},  // B5 inner: a 32-column strip spans eight
    {1, 64, 4, 8, 8, 2},   // B5 entry, batch 1: one 4-column strip
    {3, 64, 8, 8, 8, 1},   // B3 inner: two 8-pixel rows per 16 columns
    {8, 64, 4, 8, 8, 1},   // B4 inner: one 4x4 image per 16 columns
};

// Every case x epilogue (plain, bias) against the exact int64 conv followed
// by testutil::squash_channels, at one and two threads under every dispatch
// level, or under the default level alone when the formats take the `exact`
// tier. The pre-squash format is the executor's rule for activation format
// `act`.
void check_conv_caps(fixed::FixedFormat xf, std::int64_t xlo,
                     std::int64_t xhi, fixed::FixedFormat wf,
                     std::int64_t wmax, fixed::FixedFormat act,
                     std::vector<ConvCapsCase> cases, bool exact = false) {
  const fixed::FixedFormat mid(8, std::min(20, act.qf + 8));
  common::Rng rng(53);
  for (const auto& cs : cases) {
    SCOPED_TRACE("b=" + std::to_string(cs.b) + " c=" + std::to_string(cs.c) +
                 " hw=" + std::to_string(cs.hw) + " TxD=" +
                 std::to_string(cs.types) + "x" + std::to_string(cs.dim) +
                 " stride=" + std::to_string(cs.stride));
    const std::int64_t f = cs.types * cs.dim;
    const QTensor x =
        random_rails(rng, {cs.b, cs.c, cs.hw, cs.hw}, xf, xlo, xhi);
    const QActivation xa(x);
    const QTensor w = random_rails(rng, {f, cs.c, 3, 3}, wf, -wmax, wmax);
    const QTensor bias = random_rails(rng, {f}, wf, -wmax, wmax);
    const QGemmOperandCache cache = make_operand_cache(w);
    const auto want = [&](const QTensor& bs) {
      return testutil::squash_channels(
          conv2d_ref(x, w, bs, cs.stride, 1, mid, false), cs.dim, act);
    };
    const QTensor want_plain = want(QTensor());
    const QTensor want_bias = want(bias);
    const auto body = [&] {
      const QActivation plain =
          conv_caps(xa, w, QTensor(), cs.stride, 1, cs.dim, mid, act);
      ASSERT_EQ(plain.storage(), storage_for(act));
      EXPECT_EQ(plain.widen().raw, want_plain.raw);
      EXPECT_EQ(conv_caps(xa, w, bias, cs.stride, 1, cs.dim, mid, act, &cache)
                    .widen()
                    .raw,
                want_bias.raw);
    };
    if (exact)
      for_each_team(body);
    else
      for_each_isa_and_team(body);
  }
}

TEST(QEngineConvCaps, Int8RailsMatchConvThenSquashOnEveryTier) {
  // Q1.7 inputs at both rails, -128 and 127: the int8 tier.
  ASSERT_EQ(packed_tier(fixed::FixedFormat(1, 7), fixed::FixedFormat(1, 7),
                        127, 64 * 9, fixed::FixedFormat(8, 15)),
            PackedTier::kInt8);
  const std::vector<ConvCapsCase> all(std::begin(kConvCapsCases),
                                      std::end(kConvCapsCases));
  // Full-range weights push most pre-squash values onto the wide format's
  // rails; small ones, like BN-folded DeepCaps weights, keep them inside.
  check_conv_caps(fixed::FixedFormat(1, 7), -128, 127,
                  fixed::FixedFormat(1, 7), 127, fixed::FixedFormat(1, 7), all);
  check_conv_caps(fixed::FixedFormat(1, 7), -128, 127,
                  fixed::FixedFormat(1, 7), 3, fixed::FixedFormat(1, 7), all);
}

TEST(QEngineConvCaps, Int16TierMatchesConvThenSquashOnEveryTier) {
  ASSERT_EQ(packed_tier(fixed::FixedFormat(3, 9), fixed::FixedFormat(2, 8),
                        199, 64 * 9, fixed::FixedFormat(8, 18)),
            PackedTier::kInt16);
  check_conv_caps(fixed::FixedFormat(3, 9), -500, 499,
                  fixed::FixedFormat(2, 8), 199, fixed::FixedFormat(2, 10),
                  {kConvCapsCases[0], kConvCapsCases[3], kConvCapsCases[4]});
}

TEST(QEngineConvCaps, Int16RailsMatchConvThenSquashOnEveryTier) {
  // A 16-bit input's rails, -32768 and 32767, held in int16; capsules out
  // in int16 (Q1.15) and int8 (Q1.7).
  ASSERT_EQ(packed_tier(fixed::FixedFormat(1, 15), fixed::FixedFormat(1, 7),
                        3, 64 * 9, fixed::FixedFormat(8, 20)),
            PackedTier::kInt16);
  const std::vector<ConvCapsCase> some = {kConvCapsCases[0], kConvCapsCases[3],
                                          kConvCapsCases[4]};
  check_conv_caps(fixed::FixedFormat(1, 15), -32768, 32767,
                  fixed::FixedFormat(1, 7), 3, fixed::FixedFormat(1, 15), some);
  check_conv_caps(fixed::FixedFormat(1, 15), -32768, 32767,
                  fixed::FixedFormat(1, 7), 3, fixed::FixedFormat(1, 7), some);
}

TEST(QEngineConvCaps, WideFormatTakesTheExactTier) {
  // An 18-bit activation format is past the int16 container: the exact
  // kernel's int64 strips are squashed by the same epilogue.
  ASSERT_EQ(packed_tier(fixed::FixedFormat(6, 12), fixed::FixedFormat(2, 8),
                        199, 1, fixed::FixedFormat(8, 18)),
            PackedTier::kNone);
  const std::vector<ConvCapsCase> all(std::begin(kConvCapsCases),
                                      std::end(kConvCapsCases));
  check_conv_caps(fixed::FixedFormat(6, 12), -131072, 131071,
                  fixed::FixedFormat(2, 8), 199, fixed::FixedFormat(2, 10),
                  all, /*exact=*/true);
}

TEST(QEngineConvCaps, Int8InputWithWideWeightsTakesTheExactTier) {
  // Weights past the int16 range: the int8-held input widened into the
  // int64 padded copy, then the exact kernel and the squash epilogue.
  ASSERT_EQ(packed_tier(fixed::FixedFormat(1, 7), fixed::FixedFormat(17, 8),
                        40000, 1, fixed::FixedFormat(8, 15)),
            PackedTier::kNone);
  const std::vector<ConvCapsCase> all(std::begin(kConvCapsCases),
                                      std::end(kConvCapsCases));
  check_conv_caps(fixed::FixedFormat(1, 7), -128, 127,
                  fixed::FixedFormat(17, 8), 40000, fixed::FixedFormat(1, 7),
                  all, /*exact=*/true);
}

// ---- the other ops on int8 / int16 containers at their rails --------------

TEST(QEngineDirectConv, VoteTransformRailsMatchInt64Oracle) {
  // u at a format's rails in its container, votes in int8, int16 and int64
  // containers, against the scalar int64 product at every level and team.
  const struct {
    fixed::FixedFormat uf;
    std::int64_t lo, hi;
    fixed::FixedFormat wf;
    std::int64_t wmax;
    fixed::FixedFormat out;
  } cases[] = {
      {{1, 7}, -128, 127, {1, 7}, 127, {2, 6}},       // int8 -> int8
      {{1, 7}, -128, 127, {1, 7}, 127, {6, 10}},      // int8 -> int16
      {{1, 7}, -128, 127, {2, 8}, 300, {10, 10}},     // int8 widened, int64
      {{1, 15}, -32768, 32767, {1, 7}, 3, {4, 12}},   // int16 -> int16
      {{1, 7}, -128, 127, {17, 8}, 40000, {8, 7}},    // the exact tier
      {{6, 12}, -131072, 131071, {2, 8}, 199, {8, 12}},  // int64 u, exact
  };
  common::Rng rng(71);
  for (const auto& cs : cases) {
    SCOPED_TRACE("u " + cs.uf.to_string() + " w max " +
                 std::to_string(cs.wmax) + " out " + cs.out.to_string());
    const QTensor u = random_rails(rng, {5, 12, 8}, cs.uf, cs.lo, cs.hi);
    const QTensor w =
        random_rails(rng, {12, 5, 4, 8}, cs.wf, -cs.wmax, cs.wmax);
    const QGemmOperandCache cache = make_operand_cache(w);
    const QTensor want = to_jmajor(legacy_vote_transform(u, w, cs.out));
    const QActivation ua(u);
    for_each_isa_and_team([&] {
      const QActivation got = vote_transform(ua, w, cs.out, &cache);
      ASSERT_EQ(got.storage(), storage_for(cs.out));
      EXPECT_EQ(got.widen().raw, want.raw);
    });
  }
}

TEST(QEngineDirectConv, RoutingRailsMatchInt64Oracle) {
  // Votes at their format's rails: int8 (int32 accumulation from the int8
  // container), int16 on the int32 path (Q2.10) and int16 past it (Q1.15,
  // the int64 path over one widened copy). R = 6 rows run under the team.
  const struct {
    fixed::FixedFormat act, dr;
  } cases[] = {
      {{1, 7}, {3, 6}},
      {{2, 10}, {3, 8}},
      {{1, 15}, {4, 12}},
  };
  common::Rng rng(72);
  for (const auto& cs : cases) {
    SCOPED_TRACE("act " + cs.act.to_string());
    const QTensor votes_i = random_rails(rng, {6, 12, 5, 8}, cs.act,
                                         cs.act.raw_min(), cs.act.raw_max());
    const QActivation votes_j(to_jmajor(votes_i));
    for (const int iters : {1, 3}) {
      const QTensor want =
          legacy_dynamic_routing(votes_i, iters, cs.act, cs.dr);
      for_each_isa_and_team([&] {
        const QActivation got = dynamic_routing(votes_j, iters, cs.act, cs.dr);
        ASSERT_EQ(got.storage(), storage_for(cs.act));
        EXPECT_EQ(got.widen().raw, want.raw) << "iters " << iters;
      });
    }
  }
}

TEST(QEngineDirectConv, ResidualAddRailsMatchInt64Oracle) {
  // Sums of rail values clamp back onto the rails in the shared container.
  common::Rng rng(73);
  for (const fixed::FixedFormat f :
       {fixed::FixedFormat(1, 7), fixed::FixedFormat(1, 15),
        fixed::FixedFormat(6, 12)}) {
    SCOPED_TRACE(f.to_string());
    const std::int64_t n = std::int64_t{1} << 16;  // past the parallel cut
    const QTensor a = random_rails(rng, {n}, f, f.raw_min(), f.raw_max());
    const QTensor b = random_rails(rng, {n}, f, f.raw_min(), f.raw_max());
    QTensor want({n}, f);
    for (std::size_t i = 0; i < want.raw.size(); ++i)
      want.raw[i] = std::clamp(a.raw[i] + b.raw[i], f.raw_min(), f.raw_max());
    const QActivation aa(a), ba(b);
    for_each_isa_and_team([&] {
      const QActivation got = residual_add(aa, ba);
      ASSERT_EQ(got.storage(), storage_for(f));
      EXPECT_EQ(got.widen().raw, want.raw);
    });
  }
}

TEST(QEngineActivation, ContainerFollowsTheFormatAndRoundTrips) {
  using F = fixed::FixedFormat;
  EXPECT_EQ(storage_for(F(1, 7)), Storage::kInt8);
  EXPECT_EQ(storage_for(F(8, 0)), Storage::kInt8);
  EXPECT_EQ(storage_for(F(1, 8)), Storage::kInt16);
  EXPECT_EQ(storage_for(F(6, 10)), Storage::kInt16);
  EXPECT_EQ(storage_for(F(1, 16)), Storage::kInt64);
  const F f(1, 7);
  QTensor t({4}, f);
  t.raw = {-128, -1, 0, 127};
  const QActivation a(t);
  EXPECT_EQ(a.storage(), Storage::kInt8);
  EXPECT_EQ(a.bytes(), 4);
  EXPECT_EQ(a.widen().raw, t.raw);
  const QActivation copy = a;  // deep copy
  EXPECT_EQ(copy.widen().raw, t.raw);
  t.raw[0] = -129;  // off the rails of Q1.7
  EXPECT_THROW(QActivation{t}, qcaps::Error);
}

TEST(QEngineActivation, FromFloatMatchesTheRoundToNearestQuantizer) {
  // One-pass input quantization against QTensor::from_float (fixed::to_raw)
  // on every container, including ties, negatives and out-of-range values.
  common::Rng rng(74);
  tensor::Tensor t = tensor::Tensor::uniform({4, 3, 7, 9}, rng, -3.0f, 3.0f);
  t[0] = 0.5f / 128.0f;    // a tie at Q1.7: rounds half up
  t[1] = -0.5f / 128.0f;   // a negative tie
  t[2] = 1.0f;             // the top rail of Q1.7
  t[3] = -1.0f;
  t[4] = -2.75f / 128.0f;  // negative non-integer
  for (const fixed::FixedFormat f :
       {fixed::FixedFormat(1, 7), fixed::FixedFormat(2, 10),
        fixed::FixedFormat(3, 20)}) {
    const QActivation a = QActivation::from_float(t, f);
    EXPECT_EQ(a.storage(), storage_for(f));
    EXPECT_EQ(a.widen().raw, QTensor::from_float(t, f).raw) << f.to_string();
  }
}

TEST(QEnginePackedTier, ContainerFollowsTheFormatsWordlength) {
  using F = fixed::FixedFormat;
  const F out(8, 15);
  // Activations: wl <= 8 packs int8, -128 included; wl <= 16 int16.
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 9, out), PackedTier::kInt8);
  EXPECT_EQ(packed_tier(F(2, 7), F(1, 7), 127, 9, out), PackedTier::kInt16);
  EXPECT_EQ(packed_tier(F(1, 15), F(1, 7), 127, 9, out), PackedTier::kInt16);
  EXPECT_EQ(packed_tier(F(2, 15), F(1, 7), 127, 9, out), PackedTier::kNone);
  // Weights: by their packed range.
  EXPECT_EQ(packed_tier(F(1, 7), F(2, 7), 128, 9, out), PackedTier::kInt16);
  EXPECT_EQ(packed_tier(F(1, 7), F(9, 7), 32768, 9, out), PackedTier::kNone);
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), -1, 9, out), PackedTier::kNone);
}

TEST(QEnginePackedTier, Int32AccumulationRequantAndBiasBounds) {
  using F = fixed::FixedFormat;
  // wl + bit_width(max|w|) + ceil_log2(k) <= 30: 8 + 7 + 15 fits, 16 not.
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 1 << 15, F(8, 15)),
            PackedTier::kInt8);
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, (1 << 15) + 1, F(8, 15)),
            PackedTier::kNone);
  // The requant onto out_fmt: wordlength <= 31, shift in [-30, 31].
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 9, F(16, 15)),
            PackedTier::kInt8);
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 9, F(17, 15)),
            PackedTier::kNone);
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 30), 127, 9, F(8, 6)),
            PackedTier::kInt8);  // shift 37 - 6 = 31
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 30), 127, 9, F(8, 5)),
            PackedTier::kNone);
  // The bias, shifted to the accumulator's 14 fractional bits, must fit
  // int32.
  QTensor bias({2}, F(25, 7));
  bias.raw = {INT32_MAX >> 7, 0};
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 9, F(8, 15), bias),
            PackedTier::kInt8);
  bias.raw[0] += 1;
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 9, F(8, 15), bias),
            PackedTier::kNone);
  QTensor fine_bias({1}, F(1, 15));  // more fractional bits than the acc
  fine_bias.raw = {1};
  EXPECT_EQ(packed_tier(F(1, 7), F(1, 7), 127, 9, F(8, 15), fine_bias),
            PackedTier::kNone);
}

TEST(QEngineRelu, ZeroesNegativeRaw) {
  tensor::Tensor t({3}, {-0.5f, 0.25f, -0.125f});
  QActivation a(QTensor::from_float(t, fixed::FixedFormat(1, 4)));
  relu(a);
  const QTensor q = a.widen();
  EXPECT_EQ(q.raw[0], 0);
  EXPECT_GT(q.raw[1], 0);
  EXPECT_EQ(q.raw[2], 0);
}

TEST(QEngineRescale, WidthReductionRoundsCorrectly) {
  tensor::Tensor t({1}, {0.34375f});  // 0.01011 in binary
  const QTensor fine = QTensor::from_float(t, fixed::FixedFormat(1, 5));
  const QTensor coarse =
      rescale(QActivation(fine), fixed::FixedFormat(1, 2)).widen();
  // 0.34375 -> nearest multiple of 0.25 (half-up) = 0.25.
  EXPECT_FLOAT_EQ(coarse.to_float()[0], 0.25f);
}

TEST(QEngineSquash, TracksFloatSquashWithinPrecision) {
  common::Rng rng(3);
  const fixed::FixedFormat fmt(2, 10);
  const fixed::Quantizer q(fmt, fixed::RoundingScheme::kRoundToNearest);
  const tensor::Tensor s = q.quantized(tensor::Tensor::randn({6, 8}, rng, 0.0f, 0.6f));
  const QTensor got =
      squash_last(QActivation(QTensor::from_float(s, fmt)), fmt).widen();
  const tensor::Tensor ref = nn::squash_last(s);
  const tensor::Tensor gotf = got.to_float();
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_NEAR(gotf[i], ref[i], 8.0f * static_cast<float>(fmt.precision()));
}

TEST(QEngineRouting, ShapesAndCapsuleNormBound) {
  common::Rng rng(4);
  const fixed::FixedFormat act(2, 10), dr(3, 8);
  const fixed::Quantizer q(act, fixed::RoundingScheme::kRoundToNearest);
  const tensor::Tensor votes = q.quantized(
      tensor::Tensor::randn({3, 4, 6, 4}, rng, 0.0f, 0.4f));  // [R,Nout,Nin,D]
  const QTensor v =
      dynamic_routing(QActivation(QTensor::from_float(votes, act)), 3, act, dr)
          .widen();
  EXPECT_EQ(v.shape, (tensor::Shape{3, 4, 4}));
  const tensor::Tensor len = lengths(v);
  for (std::int64_t i = 0; i < len.numel(); ++i) EXPECT_LT(len[i], 1.1f);
}

TEST(QEngineRouting, AgreementSelectsSameWinnerAsFloat) {
  // Decisive vote pattern: float routing and integer routing must agree on
  // the winning output capsule.
  const std::int64_t nin = 8, nout = 4, d = 4;
  common::Rng rng(5);
  tensor::Tensor votes({1, nout, nin, d});  // j-major, shared by both engines
  for (std::int64_t i = 0; i < votes.numel(); ++i)
    votes[i] = rng.normal(0.0f, 0.08f);
  for (std::int64_t i = 0; i < nin; ++i) votes.at({0, 1, i, 0}) = 0.8f;
  const fixed::FixedFormat act(2, 10), dr(3, 6);
  const fixed::Quantizer q(act, fixed::RoundingScheme::kRoundToNearest);
  const tensor::Tensor votes_q = q.quantized(votes);

  nn::DynamicRouting ref;
  const tensor::Tensor v_ref =
      ref.forward(votes_q, 3, false, nn::RoutingQuantPoints{});
  const QTensor v_int =
      dynamic_routing(QActivation(QTensor::from_float(votes_q, act)), 3, act,
                      dr)
          .widen();
  const auto arg_ref =
      tensor::argmax_rows(tensor::l2_norm_last(v_ref, 0.0f).reshaped({1, nout}));
  const auto arg_int = tensor::argmax_rows(lengths(v_int).reshaped({1, nout}));
  EXPECT_EQ(arg_ref[0], 1);
  EXPECT_EQ(arg_int[0], 1);
}

// ---- qgemm-backed operators --------------------------------------------------

TEST(QEngineVotes, WeightCacheMatchesUncachedPath) {
  // The packed-weight cache a compiled graph keeps must be a pure
  // optimization: identical votes with and without it, on both tiers.
  common::Rng rng(37);
  const fixed::FixedFormat act8(1, 7), w8(1, 7), act16(4, 10), out(2, 8);
  const QTensor u8 = random_q(rng, {2, 12, 8}, act8, 0.95f);
  const QTensor w8t = random_q(rng, {12, 5, 4, 8}, w8, 0.95f);
  const QTensor u16 = random_q(rng, {2, 12, 8}, act16, 7.5f);
  const QTensor w16t = random_q(rng, {12, 5, 4, 8}, act16, 7.5f);
  const auto check = [&out](const QTensor& u, const QTensor& w) {
    const QGemmOperandCache cache = make_operand_cache(w);
    const QTensor got =
        vote_transform(QActivation(u), w, out, &cache).widen();
    const QTensor want = vote_transform(QActivation(u), w, out).widen();
    for (std::size_t i = 0; i < got.raw.size(); ++i)
      ASSERT_EQ(got.raw[i], want.raw[i]) << "flat " << i;
  };
  check(u8, w8t);
  check(u16, w16t);
}

TEST(QEngineVotes, QGemmPathIdenticalToLegacyLoopAtQ88) {
  // The regression lock the rewire rides on: at the paper's Q8.8-style
  // wordlengths the qgemm_batch_scatter vote product must reproduce the
  // legacy scalar path raw-for-raw, so downstream routing logits are
  // *identical*.
  common::Rng rng(34);
  const fixed::FixedFormat act(8, 8), wf(8, 8), act3(2, 10), dr(3, 8);
  const std::int64_t b = 3, nin = 24, din = 8, nout = 4, dout = 6;
  const QTensor u = random_q(rng, {b, nin, din}, act, 0.95f);
  const QTensor w = random_q(rng, {nin, nout, dout, din}, wf, 0.45f);
  const QActivation votes_a = vote_transform(QActivation(u), w, act3);
  const QTensor votes = votes_a.widen();
  const QTensor want = legacy_vote_transform(u, w, act3);
  ASSERT_EQ(votes.shape, (tensor::Shape{b, nout, nin, dout}));
  const QTensor want_j = to_jmajor(want);
  for (std::size_t i = 0; i < votes.raw.size(); ++i)
    ASSERT_EQ(votes.raw[i], want_j.raw[i]) << "flat " << i;

  // And therefore identical logits after routing + classification head —
  // with the routing itself locked against the pre-refactor i-major loop.
  const QTensor v_new = dynamic_routing(votes_a, 3, act3, dr).widen();
  const QTensor v_old = legacy_dynamic_routing(want, 3, act3, dr);
  const tensor::Tensor len_new = lengths(v_new);
  const tensor::Tensor len_old = lengths(v_old);
  for (std::int64_t i = 0; i < len_new.numel(); ++i)
    ASSERT_EQ(len_new[i], len_old[i]) << "logit " << i;
}

TEST(QEngineVotes, Int8TierIdenticalToLegacyLoop) {
  common::Rng rng(35);
  const fixed::FixedFormat act(1, 7), wf(1, 7), act3(2, 8);
  const QTensor u = random_q(rng, {2, 12, 8}, act, 0.95f);
  const QTensor w = random_q(rng, {12, 5, 4, 8}, wf, 0.95f);
  ASSERT_TRUE(u.fits_i8());
  ASSERT_TRUE(w.fits_i8());
  const QTensor votes = vote_transform(QActivation(u), w, act3).widen();
  const QTensor want = to_jmajor(legacy_vote_transform(u, w, act3));
  for (std::size_t i = 0; i < votes.raw.size(); ++i)
    ASSERT_EQ(votes.raw[i], want.raw[i]) << "flat " << i;
}

TEST(QEngineRouting, JMajorPathBitIdenticalToLegacy) {
  // The refactor lock: the j-major engine (int32 fast path included) must
  // reproduce the pre-refactor i-major scalar loop raw-for-raw, on both the
  // narrow formats that take the int32 path and wide ones that fall back to
  // int64 accumulation.
  common::Rng rng(40);
  const struct {
    fixed::FixedFormat act, dr;
    float amp;
  } cases[] = {
      {fixed::FixedFormat(2, 10), fixed::FixedFormat(3, 8), 0.9f},
      {fixed::FixedFormat(2, 4), fixed::FixedFormat(2, 3), 1.5f},
      {fixed::FixedFormat(8, 18), fixed::FixedFormat(6, 12), 60.0f},  // int64
  };
  for (const auto& cs : cases) {
    const QTensor votes_i = random_q(rng, {3, 12, 5, 8}, cs.act, cs.amp);
    const QTensor votes_j = to_jmajor(votes_i);
    for (int iters : {1, 3}) {
      const QTensor got =
          dynamic_routing(QActivation(votes_j), iters, cs.act, cs.dr).widen();
      const QTensor want = legacy_dynamic_routing(votes_i, iters, cs.act, cs.dr);
      ASSERT_EQ(got.shape, want.shape);
      for (std::size_t i = 0; i < got.raw.size(); ++i)
        ASSERT_EQ(got.raw[i], want.raw[i])
            << "flat " << i << " fmt " << cs.act.to_string() << " iters "
            << iters;
    }
  }
}

// ---- classification head precision ------------------------------------------

TEST(QEngineLengths, IntegerAccumulationIsExactForLongCapsules) {
  // One big component (raw 4096, squared = 2^24) followed by 2048 tiny ones
  // (raw 1). The old float32 accumulator over dequantized values dropped
  // every tiny contribution — float eps at 2^20 is 0.125, each term adds
  // 0.0625 — reporting sqrt(2^20) = 1024 exactly. Exact integer accumulation
  // keeps them.
  const fixed::FixedFormat fmt(13, 2);
  const std::int64_t d = 2049;
  QTensor caps({1, 1, d}, fmt);
  caps.raw[0] = 4096;
  for (std::int64_t i = 1; i < d; ++i) caps.raw[static_cast<std::size_t>(i)] = 1;

  const float got = lengths(caps)[0];
  const double exact_raw_sq = 16777216.0 + 2048.0;  // 2^24 + 2048
  const float want =
      static_cast<float>(std::ldexp(std::sqrt(exact_raw_sq), -fmt.qf));
  EXPECT_FLOAT_EQ(got, want);
  EXPECT_NEAR(got, 1024.0625f, 1e-3f);

  // Document the divergence of the old float-accumulation path.
  float facc = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) {
    const float v = static_cast<float>(
        fixed::from_raw(caps.raw[static_cast<std::size_t>(i)], fmt));
    facc += v * v;
  }
  const float old_path = std::sqrt(facc);
  EXPECT_FLOAT_EQ(old_path, 1024.0f);   // the lost low bits
  EXPECT_GT(got - old_path, 0.05f);     // measurable divergence, now fixed
}

TEST(QEngineLengths, MatchesFloatNormOnShortCapsules) {
  common::Rng rng(36);
  const fixed::FixedFormat fmt(2, 10);
  const QTensor caps = random_q(rng, {4, 6, 8}, fmt, 0.8f);
  const tensor::Tensor got = lengths(caps);
  const tensor::Tensor want = tensor::l2_norm_last(caps.to_float(), 0.0f);
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got[i], want[i], 1e-5f) << "flat " << i;
}

// ---- network-scale validation ------------------------------------------------

class QuantizedNetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthConfig dcfg;
    dcfg.train_size = 600;
    dcfg.test_size = 128;
    split_ = new data::DataSplit(data::make_digits_split(dcfg));
    auto mcfg = models::ShallowCapsConfig::experiment();
    mcfg.conv_channels = 16;
    mcfg.primary_types = 2;
    common::Rng rng(77);
    net_ = models::build_shallow_caps(mcfg, rng).release();
    nn::TrainConfig tcfg;
    tcfg.epochs = 5;
    tcfg.verbose = false;
    nn::train(*net_, split_->train, split_->test, tcfg);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete split_;
    net_ = nullptr;
    split_ = nullptr;
  }

  static data::DataSplit* split_;
  static nn::Network* net_;
};

data::DataSplit* QuantizedNetTest::split_ = nullptr;
nn::Network* QuantizedNetTest::net_ = nullptr;

TEST_F(QuantizedNetTest, IntegerEngineMatchesFakeQuantAccuracy) {
  core::Evaluator eval(*net_, split_->test, 128);
  const float acc_fp32 = eval.evaluate_fp32();
  ASSERT_GT(acc_fp32, 0.85f);

  auto spec = core::NetworkQuantSpec::uniform(
      3, 8, fixed::RoundingScheme::kRoundToNearest);
  spec.layers[2].qdr_frac = 5;
  eval.calibrate_spec(spec);
  const float acc_fake = eval.evaluate(spec);

  const QuantizedGraph deployed = QuantizedGraph::compile(*net_, spec);
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < split_->test.size(); ++i) idx.push_back(i);
  const auto pred = deployed.predict_batch(split_->test.batch(idx));
  int correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == split_->test.labels[i]) ++correct;
  const float acc_int = static_cast<float>(correct) / static_cast<float>(pred.size());
  // Integer execution differs from fake quantization only in accumulation
  // order/rescale points: accuracies must be close.
  EXPECT_NEAR(acc_int, acc_fake, 0.05f)
      << "fake-quant " << acc_fake << " vs integer " << acc_int;
  EXPECT_GT(acc_int, acc_fp32 - 0.08f);
}

TEST_F(QuantizedNetTest, QuantizedForwardTracksFp32OnCachedInputs) {
  // Accuracy-drift bound on cached inputs: the integer forward pass must
  // track the fp32 model's class-capsule lengths within what the quantizer
  // spec promises (8 fractional activation bits; the routing nonlinearity
  // amplifies the grid error but the decision margin must survive).
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < 32; ++i) idx.push_back(i);
  const tensor::Tensor batch = split_->test.batch(idx);
  const tensor::Tensor caps_fp = net_->forward(batch, nn::Phase::kEval);
  const tensor::Tensor len_fp = tensor::l2_norm_last(caps_fp, 0.0f);

  auto spec = core::NetworkQuantSpec::uniform(
      3, 8, fixed::RoundingScheme::kRoundToNearest);
  spec.layers[2].qdr_frac = 5;
  core::Evaluator eval(*net_, split_->test, 128);
  eval.calibrate_spec(spec);
  const QuantizedGraph deployed = QuantizedGraph::compile(*net_, spec);
  const QTensor v = deployed.forward(batch);
  const tensor::Tensor len_q = lengths(v);
  ASSERT_TRUE(len_q.same_shape(len_fp));

  double mean_drift = 0.0, max_drift = 0.0;
  for (std::int64_t i = 0; i < len_q.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(len_q[i]) - len_fp[i]);
    mean_drift += d;
    max_drift = std::max(max_drift, d);
  }
  mean_drift /= static_cast<double>(len_q.numel());
  EXPECT_LT(mean_drift, 0.05) << "mean capsule-length drift vs fp32";
  EXPECT_LT(max_drift, 0.30) << "worst capsule-length drift vs fp32";

  const auto cls_fp = tensor::argmax_rows(len_fp);
  const auto cls_q = tensor::argmax_rows(len_q);
  int agree = 0;
  for (std::size_t i = 0; i < cls_fp.size(); ++i)
    if (cls_fp[i] == cls_q[i]) ++agree;
  EXPECT_GE(agree, 29) << "of 32 cached inputs";
}

TEST_F(QuantizedNetTest, WeightBitsMatchMemoryModel) {
  core::Evaluator eval(*net_, split_->test, 64);
  auto spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  eval.calibrate_spec(spec);
  const QuantizedGraph deployed = QuantizedGraph::compile(*net_, spec);
  EXPECT_EQ(deployed.weight_bits(), eval.memory().weight_bits(spec));
}

TEST_F(QuantizedNetTest, RejectsWrongNetworkLayout) {
  auto spec = core::NetworkQuantSpec::uniform(
      2, 6, fixed::RoundingScheme::kRoundToNearest);
  EXPECT_THROW(QuantizedGraph::compile(*net_, spec), qcaps::Error);
}

}  // namespace
}  // namespace qcaps::qengine
