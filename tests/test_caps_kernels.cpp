// Tests for the batched j-major routing kernel backend
// (tensor/caps_kernels.{hpp,cpp}) and the layout refactor built on it:
//
//  * every dispatch level (testutil::for_each_isa) agrees with the plain
//    scalar loops on randomized shapes, including odd capsule dimensions;
//  * DynamicRouting on the j-major layout reproduces the pre-refactor
//    i-major implementation (kept verbatim below) within float tolerance on
//    randomized shapes — the layout round-trip lock;
//  * the unrolled-backward gradient check passes on every tier.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hwmodel/units.hpp"
#include "nn/caps_ops.hpp"
#include "nn/routing.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::tensor {
namespace {

struct Shape4 {
  std::int64_t r, nin, nout, d;
};

// The pre-refactor routing forward, verbatim: i-major votes
// [R, Nin, Nout, D], scalar loops, std::exp softmax. The oracle the j-major
// path must reproduce (up to float reassociation and the shared-polynomial
// exp, hence the tolerances below).
tensor::Tensor legacy_routing_forward(const tensor::Tensor& votes, int iters) {
  const std::int64_t r_count = votes.dim(0), nin = votes.dim(1),
                     nout = votes.dim(2), d = votes.dim(3);
  tensor::Tensor b({r_count, nin, nout});
  tensor::Tensor v;
  const float* u = votes.data();
  for (int it = 0; it < iters; ++it) {
    tensor::Tensor c = b;
    {
      float* pc = c.data();
      for (std::int64_t row = 0; row < r_count * nin; ++row) {
        float* rw = pc + row * nout;
        float mx = rw[0];
        for (std::int64_t j = 1; j < nout; ++j) mx = std::max(mx, rw[j]);
        float sum = 0.0f;
        for (std::int64_t j = 0; j < nout; ++j) {
          rw[j] = std::exp(rw[j] - mx);
          sum += rw[j];
        }
        for (std::int64_t j = 0; j < nout; ++j) rw[j] /= sum;
      }
    }
    tensor::Tensor s({r_count, nout, d});
    {
      const float* pc = c.data();
      float* ps = s.data();
      for (std::int64_t r = 0; r < r_count; ++r)
        for (std::int64_t i = 0; i < nin; ++i)
          for (std::int64_t j = 0; j < nout; ++j) {
            const float cij = pc[(r * nin + i) * nout + j];
            const float* uv = u + ((r * nin + i) * nout + j) * d;
            float* sv = ps + (r * nout + j) * d;
            for (std::int64_t k = 0; k < d; ++k) sv[k] += cij * uv[k];
          }
    }
    v = tensor::Tensor(s.shape());
    {
      const float* ps = s.data();
      float* pv = v.data();
      for (std::int64_t row = 0; row < r_count * nout; ++row) {
        float nsq = 0.0f;
        for (std::int64_t k = 0; k < d; ++k)
          nsq += ps[row * d + k] * ps[row * d + k];
        const float n = std::sqrt(nsq + 1e-8f);
        const float f = n / (1.0f + nsq);
        for (std::int64_t k = 0; k < d; ++k)
          pv[row * d + k] = f * ps[row * d + k];
      }
    }
    if (it + 1 == iters) break;
    {
      const float* pv = v.data();
      float* pb = b.data();
      for (std::int64_t r = 0; r < r_count; ++r)
        for (std::int64_t i = 0; i < nin; ++i)
          for (std::int64_t j = 0; j < nout; ++j) {
            const float* uv = u + ((r * nin + i) * nout + j) * d;
            const float* vv = pv + (r * nout + j) * d;
            float acc = 0.0f;
            for (std::int64_t k = 0; k < d; ++k) acc += uv[k] * vv[k];
            pb[(r * nin + i) * nout + j] += acc;
          }
    }
  }
  return v;
}

tensor::Tensor permute_to_jmajor(const tensor::Tensor& votes) {
  const std::int64_t r = votes.dim(0), nin = votes.dim(1),
                     nout = votes.dim(2), d = votes.dim(3);
  tensor::Tensor out({r, nout, nin, d});
  const float* src = votes.data();
  float* dst = out.data();
  for (std::int64_t ri = 0; ri < r; ++ri)
    for (std::int64_t i = 0; i < nin; ++i)
      for (std::int64_t j = 0; j < nout; ++j)
        for (std::int64_t k = 0; k < d; ++k)
          dst[((ri * nout + j) * nin + i) * d + k] =
              src[((ri * nin + i) * nout + j) * d + k];
  return out;
}

TEST(CapsKernels, TiersAgreeWithScalarOnRandomShapes) {
  common::Rng rng(11);
  const Shape4 shapes[] = {
      {2, 9, 3, 5}, {1, 33, 10, 8}, {3, 21, 10, 16}, {2, 7, 4, 20}, {1, 5, 2, 1}};
  for (const auto& sh : shapes) {
    const tensor::Tensor u =
        tensor::Tensor::randn({sh.r, sh.nout, sh.nin, sh.d}, rng);
    const tensor::Tensor c =
        tensor::Tensor::uniform({sh.r, sh.nin, sh.nout}, rng, 0.0f, 1.0f);
    const tensor::Tensor v =
        tensor::Tensor::randn({sh.r, sh.nout, sh.d}, rng, 0.0f, 0.5f);
    const tensor::Tensor gs =
        tensor::Tensor::randn({sh.r, sh.nout, sh.d}, rng, 0.0f, 0.5f);
    const tensor::Tensor gb =
        tensor::Tensor::randn({sh.r, sh.nin, sh.nout}, rng, 0.0f, 0.5f);

    // Scalar references.
    ASSERT_TRUE(common::force_isa(common::Isa::kScalar));
    tensor::Tensor s_ref({sh.r, sh.nout, sh.d});
    routing_weighted_sum(u.data(), c.data(), s_ref.data(), sh.r, sh.nin,
                         sh.nout, sh.d);
    tensor::Tensor a_ref({sh.r, sh.nin, sh.nout});
    routing_agreement(u.data(), v.data(), a_ref.data(), sh.r, sh.nin, sh.nout,
                      sh.d, /*accumulate=*/false);
    tensor::Tensor gc_ref({sh.r, sh.nin, sh.nout});
    tensor::Tensor gu_ref(u.shape());
    routing_weighted_sum_backward(u.data(), c.data(), gs.data(), gc_ref.data(),
                                  gu_ref.data(), sh.r, sh.nin, sh.nout, sh.d);
    tensor::Tensor gv_ref({sh.r, sh.nout, sh.d});
    tensor::Tensor gu2_ref(u.shape());
    routing_agreement_backward(u.data(), v.data(), gb.data(), gv_ref.data(),
                               gu2_ref.data(), sh.r, sh.nin, sh.nout, sh.d);

    testutil::for_each_isa([&](common::Isa) {
      const float tol = 2e-4f;
      tensor::Tensor s({sh.r, sh.nout, sh.d});
      routing_weighted_sum(u.data(), c.data(), s.data(), sh.r, sh.nin, sh.nout,
                           sh.d);
      testutil::expect_tensor_near(s, s_ref, tol, caps_kernel_name());

      tensor::Tensor s2({sh.r, sh.nout, sh.d});
      tensor::Tensor vout({sh.r, sh.nout, sh.d});
      routing_weighted_sum_squash(u.data(), c.data(), s2.data(), vout.data(),
                                  sh.r, sh.nin, sh.nout, sh.d, 1e-8f);
      testutil::expect_tensor_near(s2, s_ref, tol, caps_kernel_name());
      testutil::expect_tensor_near(vout, nn::squash_last(s2), 1e-5f,
                                   caps_kernel_name());

      tensor::Tensor a({sh.r, sh.nin, sh.nout});
      routing_agreement(u.data(), v.data(), a.data(), sh.r, sh.nin, sh.nout,
                        sh.d, /*accumulate=*/false);
      testutil::expect_tensor_near(a, a_ref, tol, caps_kernel_name());

      // accumulate=true must add on top of existing values.
      tensor::Tensor b2 = a_ref;
      routing_agreement(u.data(), v.data(), b2.data(), sh.r, sh.nin, sh.nout,
                        sh.d, /*accumulate=*/true);
      for (std::int64_t x = 0; x < b2.numel(); ++x)
        ASSERT_NEAR(b2[x], 2.0f * a_ref[x], 4e-4f) << caps_kernel_name();

      // Fused iteration == weighted sum + squash + agreement update.
      tensor::Tensor fs({sh.r, sh.nout, sh.d});
      tensor::Tensor fv({sh.r, sh.nout, sh.d});
      tensor::Tensor fb({sh.r, sh.nin, sh.nout});
      routing_iteration_fused(u.data(), c.data(), fs.data(), fv.data(),
                              fb.data(), sh.r, sh.nin, sh.nout, sh.d, 1e-8f);
      testutil::expect_tensor_near(fs, s_ref, tol, caps_kernel_name());
      tensor::Tensor want_b({sh.r, sh.nin, sh.nout});
      routing_agreement(u.data(), fv.data(), want_b.data(), sh.r, sh.nin,
                        sh.nout, sh.d, /*accumulate=*/false);
      testutil::expect_tensor_near(fb, want_b, 4e-4f, caps_kernel_name());

      tensor::Tensor gc({sh.r, sh.nin, sh.nout});
      tensor::Tensor gu(u.shape());
      routing_weighted_sum_backward(u.data(), c.data(), gs.data(), gc.data(),
                                    gu.data(), sh.r, sh.nin, sh.nout, sh.d);
      testutil::expect_tensor_near(gc, gc_ref, tol, caps_kernel_name());
      testutil::expect_tensor_near(gu, gu_ref, tol, caps_kernel_name());

      tensor::Tensor gv({sh.r, sh.nout, sh.d});
      tensor::Tensor gu2(u.shape());
      routing_agreement_backward(u.data(), v.data(), gb.data(), gv.data(),
                                 gu2.data(), sh.r, sh.nin, sh.nout, sh.d);
      testutil::expect_tensor_near(gv, gv_ref, tol, caps_kernel_name());
      testutil::expect_tensor_near(gu2, gu2_ref, tol, caps_kernel_name());
    });
  }
}

TEST(CapsKernels, SoftmaxRowsMatchesReferenceAllTiers) {
  common::Rng rng(12);
  for (std::int64_t d : {1, 3, 7, 10, 16, 21, 40}) {
    tensor::Tensor x = tensor::Tensor::randn({37, d}, rng, 0.0f, 3.0f);
    // Double-precision std::exp reference.
    std::vector<double> want(static_cast<std::size_t>(x.numel()));
    for (std::int64_t r = 0; r < 37; ++r) {
      double mx = x[r * d];
      for (std::int64_t j = 1; j < d; ++j)
        mx = std::max(mx, static_cast<double>(x[r * d + j]));
      double sum = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        want[static_cast<std::size_t>(r * d + j)] = std::exp(x[r * d + j] - mx);
        sum += want[static_cast<std::size_t>(r * d + j)];
      }
      for (std::int64_t j = 0; j < d; ++j)
        want[static_cast<std::size_t>(r * d + j)] /= sum;
    }
    testutil::for_each_isa([&](common::Isa) {
      tensor::Tensor y = x;
      softmax_rows(y.data(), 37, d);
      for (std::int64_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], want[static_cast<std::size_t>(i)], 2e-6)
            << caps_kernel_name() << " d=" << d << " flat " << i;
    });
  }
}

TEST(CapsKernels, SoftmaxRowsTransposedMatchesReferenceAllTiers) {
  common::Rng rng(16);
  // rows = 37 lands mid-vector for both tiers (37 = 4*8+5 = 2*16+5), so the
  // avx2 scalar-delegated tail and the avx512 masked tail both execute.
  constexpr std::int64_t rows = 37;
  for (std::int64_t d : {1, 3, 7, 10, 16, 21, 40}) {
    tensor::Tensor x = tensor::Tensor::randn({d, rows}, rng, 0.0f, 3.0f);
    // Double-precision std::exp reference over the logical rows: element
    // (r, j) of the [d, rows] storage sits at x[j * rows + r].
    std::vector<double> want(static_cast<std::size_t>(x.numel()));
    for (std::int64_t r = 0; r < rows; ++r) {
      double mx = x[r];
      for (std::int64_t j = 1; j < d; ++j)
        mx = std::max(mx, static_cast<double>(x[j * rows + r]));
      double sum = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        want[static_cast<std::size_t>(j * rows + r)] =
            std::exp(x[j * rows + r] - mx);
        sum += want[static_cast<std::size_t>(j * rows + r)];
      }
      for (std::int64_t j = 0; j < d; ++j)
        want[static_cast<std::size_t>(j * rows + r)] /= sum;
    }
    testutil::for_each_isa([&](common::Isa) {
      tensor::Tensor y = x;
      softmax_rows_t(y.data(), rows, d);
      for (std::int64_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], want[static_cast<std::size_t>(i)], 2e-6)
            << caps_kernel_name() << " d=" << d << " flat " << i;
    });
  }
}

TEST(CapsKernels, SquashRowsMatchesScalarAllTiers) {
  common::Rng rng(13);
  for (std::int64_t d : {1, 5, 8, 16, 19}) {
    const tensor::Tensor s = tensor::Tensor::randn({23, d}, rng);
    const tensor::Tensor g = tensor::Tensor::randn({23, d}, rng);
    ASSERT_TRUE(common::force_isa(common::Isa::kScalar));
    tensor::Tensor v_ref({23, d}), gs_ref({23, d});
    squash_rows(s.data(), v_ref.data(), 23, d, 1e-8f);
    squash_rows_backward(s.data(), g.data(), gs_ref.data(), 23, d, 1e-8f);
    testutil::for_each_isa([&](common::Isa) {
      tensor::Tensor v({23, d}), gs({23, d});
      squash_rows(s.data(), v.data(), 23, d, 1e-8f);
      squash_rows_backward(s.data(), g.data(), gs.data(), 23, d, 1e-8f);
      testutil::expect_tensor_near(v, v_ref, 1e-5f, caps_kernel_name());
      testutil::expect_tensor_near(gs, gs_ref, 1e-5f, caps_kernel_name());
    });
  }
}

TEST(CapsKernels, SquashGainRawMatchesSquashUnitOracleAllTiers) {
  // Bit-exact lock of the batched integer gain against the scalar
  // hwmodel::SquashUnit datapath (the oracle), on every tier, over the
  // kernel's whole contract:
  //   - every internal width qf in [1, 28];
  //   - norms up to bit width 62: zeros, tiny values, exact powers of two and
  //     their neighbours (normalization edges), 1 + s next to 2^(2qf) / k
  //     (the ratio's quotient at and around an integer), dense random
  //     coverage, and at qf 24 the DeepCaps band (bit widths 15-31);
  //   - every length 1..17, so every masked tail, with nothing written past
  //     the last norm;
  //   - a zero at each lane position of a block and of a tail.
  common::Rng rng(21);
  // A random norm of exactly `bits` bits.
  const auto norm_of_width = [&](int bits) {
    const std::uint64_t top = std::uint64_t{1} << (bits - 1);
    return static_cast<std::int64_t>(top | (rng.next_u64() & (top - 1)));
  };
  for (int qf = 1; qf <= 28; ++qf) {
    SCOPED_TRACE("qf " + std::to_string(qf));
    const hwmodel::SquashUnit unit(fixed::FixedFormat{4, qf}, qf);
    std::vector<std::int64_t> nsq = {0};
    for (int b = 0; b <= 61; ++b) {
      nsq.push_back(std::int64_t{1} << b);
      nsq.push_back((std::int64_t{1} << b) - 1);
      nsq.push_back((std::int64_t{1} << b) + 1);
    }
    const std::int64_t one = std::int64_t{1} << qf;
    for (std::int64_t k = 1; k <= 16; ++k)
      for (std::int64_t d = -3; d <= 3; ++d) {
        const std::int64_t s = (one << qf) / k + d - one;
        if (s > 0) nsq.push_back(s);
      }
    for (int i = 0; i < 1000; ++i)
      nsq.push_back(norm_of_width(1 + static_cast<int>(rng.uniform_index(62))));
    if (qf == 24)
      for (int bits = 15; bits <= 31; ++bits)
        for (int i = 0; i < 200; ++i) nsq.push_back(norm_of_width(bits));
    std::vector<std::int64_t> zeros(17);
    for (auto& v : zeros) v = norm_of_width(24);
    const auto oracle = [&](const std::int64_t* x, std::int64_t n) {
      std::vector<std::int64_t> g(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        g[static_cast<std::size_t>(i)] = unit.gain_raw(x[i]);
      return g;
    };
    // Runs the kernel on x[0..n) into a buffer one longer than n and checks
    // every gain and the untouched sentinel after them.
    const auto check = [&](const std::int64_t* x, std::int64_t n,
                           const char* what) {
      const std::vector<std::int64_t> want = oracle(x, n);
      std::vector<std::int64_t> got(static_cast<std::size_t>(n + 1), -1);
      squash_gain_raw_n(x, got.data(), n, qf);
      for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  want[static_cast<std::size_t>(i)])
            << caps_kernel_name() << ' ' << what << " n " << n << " at " << i
            << " nsq " << x[i];
      ASSERT_EQ(got.back(), -1) << caps_kernel_name() << ' ' << what
                                << " wrote past n " << n;
    };
    testutil::for_each_isa([&](common::Isa) {
      check(nsq.data(), static_cast<std::int64_t>(nsq.size()), "all");
      for (std::int64_t len = 1; len <= 17; ++len)
        check(nsq.data() + 3 * len, len, "length");
      for (std::size_t lane = 0; lane < zeros.size(); ++lane) {
        std::vector<std::int64_t> z = zeros;
        z[lane] = 0;
        check(z.data(), 8, "zero lane");
        check(z.data(), 17, "zero lane");
      }
    });
  }
}

TEST(CapsKernels, JMajorRoutingMatchesLegacyLayoutOnRandomShapes) {
  // The layout round-trip lock: forward on the j-major layout must equal the
  // pre-refactor i-major forward (modulo float reassociation and the shared
  // exp polynomial) for randomized shapes, on every kernel tier.
  common::Rng rng(14);
  const Shape4 shapes[] = {
      {2, 6, 4, 5}, {1, 40, 10, 16}, {3, 17, 3, 8}, {2, 11, 7, 12}};
  for (const auto& sh : shapes) {
    for (int iters : {1, 3}) {
      const tensor::Tensor votes_imajor =
          tensor::Tensor::randn({sh.r, sh.nin, sh.nout, sh.d}, rng, 0.0f, 0.6f);
      const tensor::Tensor want = legacy_routing_forward(votes_imajor, iters);
      const tensor::Tensor votes_j = permute_to_jmajor(votes_imajor);
      testutil::for_each_isa([&](common::Isa) {
        nn::DynamicRouting routing;
        const tensor::Tensor got =
            routing.forward(votes_j, iters, false, nn::RoutingQuantPoints{});
        testutil::expect_tensor_near(got, want, 5e-4f, caps_kernel_name());
      });
    }
  }
}

TEST(CapsKernels, RoutingBackwardGradcheckAllTiers) {
  // Finite-difference check of the full unrolled backward on the new layout,
  // per tier (the forced-scalar tier included).
  common::Rng rng(15);
  const tensor::Tensor votes =
      tensor::Tensor::randn({2, 3, 4, 3}, rng, 0.0f, 0.7f);  // [R,Nout,Nin,D]
  testutil::for_each_isa([&](common::Isa) {
    nn::DynamicRouting r;
    const tensor::Tensor v =
        r.forward(votes, 3, true, nn::RoutingQuantPoints{});
    const testutil::WeightedSum head(v.shape());
    const tensor::Tensor analytic = r.backward(head.grad());
    auto loss = [&](const tensor::Tensor& in) {
      nn::DynamicRouting probe;
      return head(probe.forward(in, 3, false, nn::RoutingQuantPoints{}));
    };
    testutil::check_gradient(votes, loss, analytic, 1e-3f, 3e-2f, 3e-3f);
  });
}

}  // namespace
}  // namespace qcaps::tensor
