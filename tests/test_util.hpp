// Shared helpers for the qcaps test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hwmodel/units.hpp"
#include "qengine/qtensor.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/tensor.hpp"

namespace qcaps::testutil {

/// Runs fn(level) at every dispatch level this CPU and build support, lowest
/// first, each forced through common::force_isa and named in a SCOPED_TRACE.
/// Restores the default level afterwards, also when fn throws.
template <typename F>
void for_each_isa(const F& fn) {
  struct Reset {
    ~Reset() { common::reset_isa(); }
  } reset;
  for (std::size_t i = 0; i < common::kIsaLevels; ++i) {
    const auto level = static_cast<common::Isa>(i);
    if (!common::force_isa(level)) break;  // the levels are ordered
    SCOPED_TRACE(std::string("isa ") + common::isa_name(level));
    fn(level);
  }
}

/// Elementwise comparison with absolute tolerance.
inline void expect_tensor_near(const tensor::Tensor& a, const tensor::Tensor& b,
                               float tol, const char* what = "") {
  ASSERT_TRUE(a.same_shape(b)) << what << ": shape mismatch "
                               << tensor::shape_to_string(a.shape()) << " vs "
                               << tensor::shape_to_string(b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a[i], b[i], tol) << what << " at flat index " << i;
}

/// Central-difference gradient check.
///
/// `loss` must evaluate a scalar from the input tensor (it is called many
/// times with perturbed copies). `analytic` is dL/dx from the backward pass.
/// Uses a relative-or-absolute criterion suitable for float32 kernels.
inline void check_gradient(const tensor::Tensor& x,
                           const std::function<double(const tensor::Tensor&)>& loss,
                           const tensor::Tensor& analytic, float eps = 1e-3f,
                           float rel_tol = 2e-2f, float abs_tol = 2e-3f) {
  ASSERT_TRUE(x.same_shape(analytic));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    tensor::Tensor xp = x;
    tensor::Tensor xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss(xp) - loss(xm)) / (2.0 * eps);
    const double ana = analytic[i];
    const double err = std::fabs(num - ana);
    const double scale = std::max(std::fabs(num), std::fabs(ana));
    ASSERT_TRUE(err <= abs_tol || err <= rel_tol * scale)
        << "gradient mismatch at " << i << ": numeric " << num << " analytic "
        << ana;
  }
}

/// Reference GEMM oracle: C[M,N] = A[M,K] * B[K,N] with double accumulation.
/// Deliberately the simplest possible triple loop — every fast path in the
/// packed backend is tested against this.
inline tensor::Tensor gemm_naive(const tensor::Tensor& a,
                                 const tensor::Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  tensor::Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at({i, p})) * b.at({p, j});
      c.at({i, j}) = static_cast<float>(acc);
    }
  return c;
}

/// Reference integer-GEMM accumulation oracle: the simplest possible exact
/// int64 triple loop over op(A)·op(B).
template <typename T>
inline std::vector<std::int64_t> qgemm_acc_naive(
    tensor::Trans ta, tensor::Trans tb, std::int64_t m, std::int64_t n,
    std::int64_t k, const T* a, std::int64_t lda, const T* b,
    std::int64_t ldb) {
  std::vector<std::int64_t> acc(static_cast<std::size_t>(m * n), 0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t s = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const std::int64_t av =
            ta == tensor::Trans::kN ? a[i * lda + p] : a[p * lda + i];
        const std::int64_t bv =
            tb == tensor::Trans::kN ? b[p * ldb + j] : b[j * ldb + p];
        s += av * bv;
      }
      acc[static_cast<std::size_t>(i * n + j)] = s;
    }
  return acc;
}

/// The documented qgemm requantization formula, spelled out longhand with
/// division instead of shifts:
///   clamp(floor((acc + 2^(shift-1)) / 2^shift), qmin, qmax)  for shift > 0,
///   clamp(acc * 2^-shift, qmin, qmax)                         otherwise.
inline std::int32_t requant_naive(std::int64_t acc, int shift,
                                  std::int32_t qmin, std::int32_t qmax) {
  std::int64_t r;
  if (shift > 0) {
    const std::int64_t d = std::int64_t{1} << shift;
    const std::int64_t x = acc + d / 2;
    r = x / d - (x % d < 0 ? 1 : 0);  // floor, not truncation
  } else {
    r = acc * (std::int64_t{1} << -shift);
  }
  if (r < qmin) r = qmin;
  if (r > qmax) r = qmax;
  return static_cast<std::int32_t>(r);
}

/// requant_naive of every accumulator of an m x n oracle result, plus the
/// per-row bias when `rq` has one.
inline std::vector<std::int32_t> requant_acc_naive(
    const std::vector<std::int64_t>& acc, std::int64_t m, std::int64_t n,
    const tensor::QGemmRequant& rq) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t s = acc[static_cast<std::size_t>(i * n + j)];
      if (rq.bias) s += rq.bias[i];
      out[static_cast<std::size_t>(i * n + j)] =
          requant_naive(s, rq.shift, rq.qmin, rq.qmax);
    }
  return out;
}

/// Full integer-GEMM oracle: naive accumulation + naive requantization,
/// honouring the bias. Every fast path of tensor/qgemm.{hpp,cpp} must match
/// this bit for bit.
template <typename T>
inline std::vector<std::int32_t> qgemm_naive(
    tensor::Trans ta, tensor::Trans tb, std::int64_t m, std::int64_t n,
    std::int64_t k, const T* a, std::int64_t lda, const T* b, std::int64_t ldb,
    const tensor::QGemmRequant& rq) {
  return requant_acc_naive(qgemm_acc_naive(ta, tb, m, n, k, a, lda, b, ldb), m,
                           n, rq);
}

/// Per-capsule squash of a channel-grouped feature map s [B, T*D, H, W] into
/// out_fmt: capsule (b, t, y, x) is s[b, t*D .. t*D + D - 1, y, x], squashed
/// by hwmodel::SquashUnit::apply, the unit's own per-vector datapath. The
/// oracle of qengine::conv_caps' squash epilogue.
inline qengine::QTensor squash_channels(const qengine::QTensor& s,
                                        std::int64_t caps_dim,
                                        fixed::FixedFormat out_fmt) {
  QCAPS_CHECK_MSG(s.shape.size() == 4 && s.dim(1) % caps_dim == 0,
                  "squash_channels expects [B, T*D, H, W] with D = "
                      << caps_dim);
  const std::int64_t plane = s.dim(2) * s.dim(3);
  const std::int64_t slabs = s.dim(0) * s.dim(1) / caps_dim;
  const hwmodel::SquashUnit unit(s.fmt);
  qengine::QTensor out(s.shape, out_fmt);
  std::vector<hwmodel::FixedNum> caps(static_cast<std::size_t>(caps_dim));
  for (std::int64_t sl = 0; sl < slabs; ++sl)
    for (std::int64_t p = 0; p < plane; ++p) {
      const auto at = [&](std::int64_t d) {
        return static_cast<std::size_t>((sl * caps_dim + d) * plane + p);
      };
      for (std::int64_t d = 0; d < caps_dim; ++d)
        caps[static_cast<std::size_t>(d)] = {s.raw[at(d)], s.fmt};
      const std::vector<hwmodel::FixedNum> v = unit.apply(caps, out_fmt);
      for (std::int64_t d = 0; d < caps_dim; ++d)
        out.raw[at(d)] = v[static_cast<std::size_t>(d)].raw;
    }
  return out;
}

/// Deterministic weighted-sum "loss head" for gradient checks: L = Σ w ⊙ y.
struct WeightedSum {
  tensor::Tensor w;

  explicit WeightedSum(const tensor::Shape& shape, std::uint64_t seed = 99) {
    common::Rng rng(seed);
    w = tensor::Tensor::uniform(shape, rng, -1.0f, 1.0f);
  }

  double operator()(const tensor::Tensor& y) const {
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i)
      acc += static_cast<double>(w[i]) * static_cast<double>(y[i]);
    return acc;
  }

  /// dL/dy for the backward pass entry point.
  tensor::Tensor grad() const { return w; }
};

}  // namespace qcaps::testutil
