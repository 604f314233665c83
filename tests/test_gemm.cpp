// Tests for the packed, blocked GEMM backend (tensor/gemm.hpp): all four
// transpose variants, strided batches, the custom-B (fused-pack) entry point,
// accumulate mode, edge shapes that exercise partial register tiles and
// cache-block boundaries, and thread-count determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::tensor {
namespace {

using testutil::expect_tensor_near;
using testutil::gemm_naive;

// Shapes chosen to hit the microkernel edge cases: 1x1, m/n/k = 1, tails not
// divisible by the 6x16 tile, and one shape crossing every cache-block
// boundary (MC=96, KC=256, NC=1024).
struct Mkn {
  std::int64_t m, k, n;
};
const Mkn kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {1, 1, 9},      {5, 1, 3},
    {6, 16, 16}, {7, 13, 17},  {13, 29, 31},   {96, 64, 48},
    {97, 33, 65} /* one past MC */, {100, 300, 1040} /* crosses MC/KC/NC */,
};

float rel_err(const Tensor& got, const Tensor& want) {
  float worst = 0.0f;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float denom = std::max(1.0f, std::fabs(want[i]));
    worst = std::max(worst, std::fabs(got[i] - want[i]) / denom);
  }
  return worst;
}

TEST(GemmBackend, AllTransposeVariantsMatchNaive) {
  common::Rng rng(11);
  for (const Mkn& s : kShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor at = transpose2d(a);  // [K, M]
    const Tensor bt = transpose2d(b);  // [N, K]
    const Tensor want = gemm_naive(a, b);
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " k=" << s.k
                                      << " n=" << s.n);

    Tensor c_nn({s.m, s.n});
    gemm_ex(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
            c_nn.data(), s.n, false);
    EXPECT_LT(rel_err(c_nn, want), 1e-4f) << "NN";

    Tensor c_tn({s.m, s.n});
    gemm_ex(Trans::kT, Trans::kN, s.m, s.n, s.k, at.data(), s.m, b.data(), s.n,
            c_tn.data(), s.n, false);
    EXPECT_LT(rel_err(c_tn, want), 1e-4f) << "TN";

    Tensor c_nt({s.m, s.n});
    gemm_ex(Trans::kN, Trans::kT, s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k,
            c_nt.data(), s.n, false);
    EXPECT_LT(rel_err(c_nt, want), 1e-4f) << "NT";

    Tensor c_tt({s.m, s.n});
    gemm_ex(Trans::kT, Trans::kT, s.m, s.n, s.k, at.data(), s.m, bt.data(),
            s.k, c_tt.data(), s.n, false);
    EXPECT_LT(rel_err(c_tt, want), 1e-4f) << "TT";
  }
}

TEST(GemmBackend, AccumulateAddsIntoC) {
  common::Rng rng(12);
  for (const Mkn& s : {Mkn{1, 1, 1}, Mkn{7, 13, 17}, Mkn{97, 300, 65}}) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor base = Tensor::randn({s.m, s.n}, rng);
    Tensor c = base;
    gemm_ex(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
            c.data(), s.n, /*accumulate=*/true);
    const Tensor want = add(base, gemm_naive(a, b));
    EXPECT_LT(rel_err(c, want), 1e-4f) << "m=" << s.m << " k=" << s.k
                                       << " n=" << s.n;
  }
}

TEST(GemmBackend, KZeroZeroesOrKeepsC) {
  Tensor c({2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  const float dummy = 0.0f;
  gemm_ex(Trans::kN, Trans::kN, 2, 3, 0, &dummy, 0, &dummy, 3, c.data(), 3,
          /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  gemm_ex(Trans::kN, Trans::kN, 2, 3, 0, &dummy, 0, &dummy, 3, c.data(), 3,
          /*accumulate=*/false);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
}

TEST(GemmBackend, StridedSubmatrixViaLeadingDims) {
  // Multiply the interior [3, 5] x [5, 4] blocks of larger matrices.
  common::Rng rng(13);
  const Tensor big_a = Tensor::randn({8, 10}, rng);
  const Tensor big_b = Tensor::randn({9, 7}, rng);
  Tensor a({3, 5}), b({5, 4});
  for (std::int64_t i = 0; i < 3; ++i)
    for (std::int64_t p = 0; p < 5; ++p) a.at({i, p}) = big_a.at({i + 2, p + 3});
  for (std::int64_t p = 0; p < 5; ++p)
    for (std::int64_t j = 0; j < 4; ++j) b.at({p, j}) = big_b.at({p + 1, j + 2});
  Tensor c({3, 4});
  gemm_ex(Trans::kN, Trans::kN, 3, 4, 5, big_a.data() + 2 * 10 + 3, 10,
          big_b.data() + 1 * 7 + 2, 7, c.data(), 4, false);
  expect_tensor_near(c, gemm_naive(a, b), 1e-4f, "strided submatrix");
}

TEST(GemmBatch, ContiguousBatchMatchesPerItemNaive) {
  common::Rng rng(14);
  const std::int64_t batch = 5, m = 9, k = 11, n = 13;
  const Tensor a = Tensor::randn({batch, m, k}, rng);
  const Tensor b = Tensor::randn({batch, k, n}, rng);
  Tensor c({batch, m, n});
  gemm_batch(Trans::kN, Trans::kN, m, n, k, a.data(), k, m * k, b.data(), n,
             k * n, c.data(), n, m * n, batch, false);
  for (std::int64_t i = 0; i < batch; ++i) {
    Tensor ai({m, k}), bi({k, n}), ci({m, n});
    std::copy(a.data() + i * m * k, a.data() + (i + 1) * m * k, ai.data());
    std::copy(b.data() + i * k * n, b.data() + (i + 1) * k * n, bi.data());
    std::copy(c.data() + i * m * n, c.data() + (i + 1) * m * n, ci.data());
    SCOPED_TRACE(::testing::Message() << "batch item " << i);
    expect_tensor_near(ci, gemm_naive(ai, bi), 1e-4f, "gemm_batch item");
  }
}

TEST(GemmBatch, InterleavedStridesLikeCapsuleVotes) {
  // The fc_caps layout: x is [B, Nin, Din], weights [Nin, JD, Din], votes
  // [B, Nin, JD]; the batch runs over Nin with strides smaller than the
  // matrix extents.
  common::Rng rng(15);
  const std::int64_t bsz = 4, nin = 3, din = 7, jd = 10;
  const Tensor x = Tensor::randn({bsz, nin, din}, rng);
  const Tensor w = Tensor::randn({nin, jd, din}, rng);
  Tensor votes({bsz, nin, jd});
  gemm_batch(Trans::kN, Trans::kT, bsz, jd, din, x.data(), nin * din, din,
             w.data(), din, jd * din, votes.data(), nin * jd, jd, nin, false);
  for (std::int64_t i = 0; i < nin; ++i) {
    Tensor xi({bsz, din}), wi({jd, din});
    for (std::int64_t b = 0; b < bsz; ++b)
      for (std::int64_t d = 0; d < din; ++d) xi.at({b, d}) = x.at({b, i, d});
    for (std::int64_t j = 0; j < jd; ++j)
      for (std::int64_t d = 0; d < din; ++d) wi.at({j, d}) = w.at({i, j, d});
    const Tensor want = gemm_naive(xi, transpose2d(wi));
    for (std::int64_t b = 0; b < bsz; ++b)
      for (std::int64_t j = 0; j < jd; ++j)
        ASSERT_NEAR(votes.at({b, i, j}), want.at({b, j}), 1e-4f)
            << "i=" << i << " b=" << b << " j=" << j;
  }
}

TEST(GemmPackB, CustomProducerMatchesMaterializedB) {
  // Feed B through the documented packed-panel layout and check the result
  // against a plain matmul; this is the contract the fused im2col pack in
  // conv2d_forward relies on.
  common::Rng rng(16);
  for (const Mkn& s : {Mkn{3, 5, 7}, Mkn{20, 40, 50}, Mkn{97, 300, 1040}}) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const float* pb = b.data();
    const std::int64_t n = s.n;
    auto pack = [pb, n](std::int64_t k0, std::int64_t kc, std::int64_t n0,
                        std::int64_t nc, float* out) {
      for (std::int64_t jb = 0; jb < nc; jb += kGemmNR) {
        const std::int64_t nr = std::min(kGemmNR, nc - jb);
        for (std::int64_t p = 0; p < kc; ++p) {
          for (std::int64_t j = 0; j < nr; ++j)
            out[p * kGemmNR + j] = pb[(k0 + p) * n + n0 + jb + j];
          for (std::int64_t j = nr; j < kGemmNR; ++j) out[p * kGemmNR + j] = 0.0f;
        }
        out += kc * kGemmNR;
      }
    };
    Tensor c({s.m, s.n});
    gemm_pack_b(s.m, s.n, s.k, a.data(), s.k, pack, c.data(), s.n, false);
    EXPECT_LT(rel_err(c, gemm_naive(a, b)), 1e-4f)
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

// Every dispatch level must agree with the naive reference on all edge
// shapes, and the AVX-512 kernel must be bit-identical to AVX2 (each output
// lane runs the same FMA sequence — see kernel_avx512).
TEST(GemmBackend, EveryKernelTierMatchesNaive) {
  common::Rng rng(19);
  testutil::for_each_isa([&](common::Isa) {
    for (const Mkn& s : kShapes) {
      const Tensor a = Tensor::randn({s.m, s.k}, rng);
      const Tensor b = Tensor::randn({s.k, s.n}, rng);
      Tensor c({s.m, s.n});
      gemm_ex(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(),
              s.n, c.data(), s.n, false);
      EXPECT_LT(rel_err(c, gemm_naive(a, b)), 1e-4f)
          << "tier " << gemm_kernel_name() << " m=" << s.m << " k=" << s.k
          << " n=" << s.n;
    }
  });
}

TEST(GemmBackend, Avx512TierBitIdenticalToAvx2) {
  common::Rng rng(23);
  const std::int64_t m = 37, k = 65, n = 51;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  std::vector<Tensor> vector_levels;  // avx2 first, then avx512 and vnni
  testutil::for_each_isa([&](common::Isa level) {
    if (level == common::Isa::kScalar) return;
    Tensor c({m, n});
    gemm_ex(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n, c.data(),
            n, false);
    vector_levels.push_back(c);
  });
  if (vector_levels.size() < 2) GTEST_SKIP() << "avx512 level unavailable";
  for (std::size_t t = 1; t < vector_levels.size(); ++t)
    for (std::int64_t i = 0; i < vector_levels[0].numel(); ++i)
      ASSERT_EQ(vector_levels[t][i], vector_levels[0][i])
          << "tier divergence at " << i;
}

TEST(GemmBackend, DeterministicAcrossThreadCounts) {
#ifdef _OPENMP
  common::Rng rng(17);
  const std::int64_t m = 150, k = 300, n = 200;  // big enough to parallelize
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const Tensor c1 = matmul(a, b);
  omp_set_num_threads(4);
  const Tensor c4 = matmul(a, b);
  omp_set_num_threads(saved);
  for (std::int64_t i = 0; i < c1.numel(); ++i)
    ASSERT_EQ(c1[i], c4[i]) << "thread-count nondeterminism at " << i;
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

}  // namespace
}  // namespace qcaps::tensor
