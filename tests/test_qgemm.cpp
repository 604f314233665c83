// Oracle tests for the packed integer GEMM backend (tensor/qgemm.hpp).
//
// Everything here is exact: qgemm, qgemm_batch_scatter and QGemmDirect must
// match the naive int64 reference (testutil::qgemm_naive) bit for bit — at
// every supported dispatch level (scalar, avx2, avx512, vnni), all four
// transpose variants, edge shapes that exercise partial register tiles and
// cache-block boundaries, strided batches, saturation-boundary inputs, every
// requant shift in [-30, 31] with and without bias, and any thread count.
// Mirrors tests/test_gemm.cpp for the float backend.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "fixed/format.hpp"
#include "hwmodel/units.hpp"
#include "tensor/qgemm.hpp"
#include "test_util.hpp"

namespace qcaps::tensor {
namespace {

using testutil::qgemm_acc_naive;
using testutil::qgemm_naive;
using testutil::requant_acc_naive;

// Shapes chosen to hit the microkernel edge cases: 1x1, m/n/k = 1, odd K
// (the packed K-pair tail), tails not divisible by the 6x16 tile, and one
// shape crossing every cache-block boundary (MC=96, KC=256, NC=1024).
struct Mkn {
  std::int64_t m, k, n;
};
const Mkn kShapes[] = {
    {1, 1, 1},   {1, 7, 1},   {1, 1, 9},    {5, 1, 3},
    {6, 16, 16}, {7, 13, 17}, {13, 29, 31}, {96, 64, 48},
    {97, 33, 65} /* one past MC */, {100, 300, 1040} /* crosses MC/KC/NC */,
};

std::vector<std::int8_t> random_i8(common::Rng& rng, std::int64_t n) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v)
    x = static_cast<std::int8_t>(
        static_cast<int>(rng.uniform_index(256)) - 128);
  return v;
}

std::vector<std::int16_t> random_i16(common::Rng& rng, std::int64_t n,
                                     int bound) {
  std::vector<std::int16_t> v(static_cast<std::size_t>(n));
  for (auto& x : v)
    x = static_cast<std::int16_t>(
        static_cast<int>(rng.uniform_index(2 * bound + 1)) - bound);
  return v;
}

// Transposed copy of a row-major [r, c] buffer.
template <typename T>
std::vector<T> transposed(const std::vector<T>& src, std::int64_t r,
                          std::int64_t c) {
  std::vector<T> out(src.size());
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j)
      out[static_cast<std::size_t>(j * r + i)] =
          src[static_cast<std::size_t>(i * c + j)];
  return out;
}

std::vector<std::int32_t> random_bias(common::Rng& rng, std::int64_t m,
                                      int bound) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(m));
  for (auto& x : v)
    x = static_cast<std::int32_t>(rng.uniform_index(2 * bound + 1)) - bound;
  return v;
}

// fn(rq) for every shift in [-30, 31], without and with `bias`, on the
// given output rails.
template <typename F>
void for_each_requant(const std::int32_t* bias, std::int32_t qmin,
                      std::int32_t qmax, const F& fn) {
  for (int shift = -30; shift <= 31; ++shift)
    for (const std::int32_t* b : {static_cast<const std::int32_t*>(nullptr),
                                  bias}) {
      SCOPED_TRACE(::testing::Message()
                   << "shift=" << shift << (b ? " bias" : "") << " rails ["
                   << qmin << ", " << qmax << "]");
      QGemmRequant rq;
      rq.shift = shift;
      rq.qmin = qmin;
      rq.qmax = qmax;
      rq.bias = b;
      fn(rq);
    }
}

// The QGemmAllKernels tests run at every dispatch level this machine has
// (testutil::for_each_isa). All of them must agree with the oracle (and
// therefore with each other) bit for bit.

TEST(QGemmAllKernels, AllTransposeVariantsBitExactI32) {
  testutil::for_each_isa([](common::Isa) {
    common::Rng rng(21);
    for (const Mkn& s : kShapes) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << s.m << " k=" << s.k << " n=" << s.n);
      const auto a = random_i8(rng, s.m * s.k);
      const auto b = random_i8(rng, s.k * s.n);
      const auto at = transposed(a, s.m, s.k);  // [K, M]
      const auto bt = transposed(b, s.k, s.n);  // [N, K]
      const auto want = qgemm_acc_naive(Trans::kN, Trans::kN, s.m, s.n, s.k,
                                        a.data(), s.k, b.data(), s.n);
      std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));
      const QGemmRequant raw;  // shift 0 on int32 rails: the accumulators

      qgemm(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
            c.data(), s.n, raw);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], want[i]) << "NN flat " << i;

      qgemm(Trans::kT, Trans::kN, s.m, s.n, s.k, at.data(), s.m, b.data(), s.n,
            c.data(), s.n, raw);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], want[i]) << "TN flat " << i;

      qgemm(Trans::kN, Trans::kT, s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k,
            c.data(), s.n, raw);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], want[i]) << "NT flat " << i;

      qgemm(Trans::kT, Trans::kT, s.m, s.n, s.k, at.data(), s.m, bt.data(), s.k,
            c.data(), s.n, raw);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], want[i]) << "TT flat " << i;
    }
  });
}

TEST(QGemmAllKernels, RequantizedOutputBitExact) {
  testutil::for_each_isa([](common::Isa) {
    common::Rng rng(22);
    for (const Mkn& s : {Mkn{1, 1, 1}, Mkn{7, 13, 17}, Mkn{13, 29, 31},
                         Mkn{97, 33, 65}}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << s.m << " k=" << s.k << " n=" << s.n);
      const auto a = random_i8(rng, s.m * s.k);
      const auto b = random_i8(rng, s.k * s.n);
      const auto bias = random_bias(rng, s.m, 20000);
      const auto acc = qgemm_acc_naive(Trans::kN, Trans::kN, s.m, s.n, s.k,
                                       a.data(), s.k, b.data(), s.n);
      std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));
      const auto check = [&](const QGemmRequant& rq) {
        const auto want = requant_acc_naive(acc, s.m, s.n, rq);
        qgemm(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(),
              s.n, c.data(), s.n, rq);
        for (std::size_t i = 0; i < c.size(); ++i)
          ASSERT_EQ(c[i], want[i]) << "flat " << i;
      };
      for_each_requant(bias.data(), -128, 127, check);
      for_each_requant(bias.data(), INT32_MIN, INT32_MAX, check);
    }
  });
}

TEST(QGemmAllKernels, SaturationBoundaryInputs) {
  testutil::for_each_isa([](common::Isa) {
    // Full-scale operands: every product is (+-127/-128)^2-scale and the
    // int8-range requantized output must clamp exactly where the oracle does.
    const std::int64_t m = 9, k = 4096, n = 18;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = (i % 3 == 0) ? std::int8_t{-128}
                          : (i % 3 == 1 ? std::int8_t{127} : std::int8_t{-127});
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = (i % 2 == 0) ? std::int8_t{127} : std::int8_t{-128};
    QGemmRequant rq;
    rq.shift = 8;
    rq.qmin = -128;
    rq.qmax = 127;
    const auto want =
        qgemm_naive(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n,
                    rq);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    qgemm(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n, c.data(), n,
          rq);
    bool clipped_lo = false, clipped_hi = false;
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], want[i]) << "flat " << i;
      clipped_lo |= c[i] == rq.qmin;
      clipped_hi |= c[i] == rq.qmax;
    }
    EXPECT_TRUE(clipped_lo) << "test vectors never hit qmin";
    EXPECT_TRUE(clipped_hi) << "test vectors never hit qmax";
  });
}

TEST(QGemmAllKernels, LargeBiasStaysBitExact) {
  testutil::for_each_isa([](common::Isa) {
    // A bias at accumulator scale can push |acc + bias| past int32; the
    // requant pass must still match the int64 oracle exactly (regression for
    // the vectorized-requant low-32-bit truncation).
    common::Rng rng(29);
    const std::int64_t m = 9, k = 4096, n = 24;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), 127);
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 127);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i)
      bias[static_cast<std::size_t>(i)] =
          (i % 2 ? 1 : -1) *
          ((std::int32_t{1} << 30) +
           static_cast<std::int32_t>(rng.uniform_index(1000)));
    QGemmRequant rq;
    rq.bias = bias.data();
    rq.shift = 12;
    rq.qmin = -(std::int32_t{1} << 24);
    rq.qmax = (std::int32_t{1} << 24) - 1;
    const auto want =
        qgemm_naive(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n,
                    rq);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    qgemm(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n, c.data(), n,
          rq);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], want[i]) << "flat " << i;
  });
}

TEST(QGemmAllKernels, Int16OperandsBitExact) {
  testutil::for_each_isa([](common::Isa) {
    // The int16 entry points carry the wide fixed-point formats (e.g. Q8.8
    // activations); same kernel, wider packed source.
    common::Rng rng(25);
    for (const Mkn& s : {Mkn{1, 1, 1}, Mkn{5, 1, 3}, Mkn{7, 13, 17},
                         Mkn{97, 33, 65}}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << s.m << " k=" << s.k << " n=" << s.n);
      // Bound 2048 keeps k * |a| * |b| below 2^31 for every tested shape.
      const auto a = random_i16(rng, s.m * s.k, 2048);
      const auto b = random_i16(rng, s.k * s.n, 2048);
      const auto want = qgemm_acc_naive(Trans::kN, Trans::kN, s.m, s.n, s.k,
                                        a.data(), s.k, b.data(), s.n);
      std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));
      qgemm(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
            c.data(), s.n, QGemmRequant{});  // shift 0, int32 rails
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], want[i]) << "flat " << i;

      QGemmRequant rq;
      rq.shift = 6;
      rq.qmin = -32768;
      rq.qmax = 32767;
      const auto wantq = qgemm_naive(Trans::kN, Trans::kN, s.m, s.n, s.k,
                                     a.data(), s.k, b.data(), s.n, rq);
      qgemm(Trans::kN, Trans::kN, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
            c.data(), s.n, rq);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c[i], wantq[i]) << "requant flat " << i;
    }
  });
}

TEST(QGemmAllKernels, KZeroZeroesC) {
  testutil::for_each_isa([](common::Isa) {
    std::vector<std::int32_t> c = {1, 2, 3, 4, 5, 6};
    const std::int8_t dummy = 0;
    qgemm(Trans::kN, Trans::kN, 2, 3, 0, &dummy, 0, &dummy, 3, c.data(), 3,
          QGemmRequant{});
    for (const auto v : c) EXPECT_EQ(v, 0);
  });
}

TEST(QGemmAllKernels, StridedBatchInterleavedLikeCapsuleVotes) {
  testutil::for_each_isa([](common::Isa) {
    // The capsule vote layout: u [B, Nin, Din], w [Nin, JD, Din], votes
    // [B, Nin, JD]; the batch runs over Nin with strides smaller than the
    // matrix extents, and the destination interleaves the same way.
    common::Rng rng(27);
    const std::int64_t bsz = 4, nin = 3, din = 7, jd = 10;
    const auto u = random_i8(rng, bsz * nin * din);
    const auto w = random_i8(rng, nin * jd * din);
    QGemmRequant rq;
    rq.shift = 3;
    rq.qmin = -512;
    rq.qmax = 511;
    std::vector<std::int16_t> votes(static_cast<std::size_t>(bsz * nin * jd));
    QGemmScatterDst<std::int16_t> sd;
    sd.dst = votes.data();
    sd.row_stride = nin * jd;
    sd.col_outer_stride = 1;
    sd.batch_stride = jd;
    qgemm_batch_scatter(Trans::kN, Trans::kT, bsz, jd, din, u.data(), nin * din,
                        din, w.data(), din, jd * din, nin, rq, sd);
    for (std::int64_t i = 0; i < nin; ++i) {
      // Gather the i-th slice and run the 2-D oracle on it.
      std::vector<std::int8_t> ui(static_cast<std::size_t>(bsz * din));
      std::vector<std::int8_t> wi(static_cast<std::size_t>(jd * din));
      for (std::int64_t bb = 0; bb < bsz; ++bb)
        for (std::int64_t d = 0; d < din; ++d)
          ui[static_cast<std::size_t>(bb * din + d)] =
              u[static_cast<std::size_t>((bb * nin + i) * din + d)];
      for (std::int64_t j = 0; j < jd * din; ++j)
        wi[static_cast<std::size_t>(j)] =
            w[static_cast<std::size_t>(i * jd * din + j)];
      const auto want = qgemm_naive(Trans::kN, Trans::kT, bsz, jd, din,
                                    ui.data(), din, wi.data(), din, rq);
      for (std::int64_t bb = 0; bb < bsz; ++bb)
        for (std::int64_t j = 0; j < jd; ++j)
          ASSERT_EQ(votes[static_cast<std::size_t>((bb * nin + i) * jd + j)],
                    want[static_cast<std::size_t>(bb * jd + j)])
              << "i=" << i << " b=" << bb << " j=" << j;
    }
  });
}

TEST(QGemmAllKernels, ScatterEpilogueMatchesDenseRequantPlusPermute) {
  testutil::for_each_isa([](common::Isa) {
    // A one-item qgemm_batch_scatter = qgemm into a dense C, then store each
    // element into the affine-scattered destination's container. The column
    // split j -> (j / 4, j % 4) is the vote layout's (nout, dout) split.
    common::Rng rng(31);
    const std::int64_t m = 12, k = 29, n = 20;
    const auto a = random_i8(rng, m * k);
    const auto b = random_i8(rng, k * n);
    const auto bias = random_bias(rng, m, 4000);
    QGemmRequant rq;
    rq.shift = 5;
    rq.bias = bias.data();
    rq.qmin = -128;
    rq.qmax = 127;
    const auto want =
        qgemm_naive(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n,
                    rq);

    // Element (i, jo, ji) lands at dst[ji * (n/4 * m) + jo * m + i] — a
    // [4, n/4, m] layout. The [-128, 127] requant grid fits every
    // destination container.
    const auto column_split = [&](auto fill) {
      using Out = decltype(fill);
      std::vector<Out> dst(static_cast<std::size_t>(m * n), fill);
      QGemmScatterDst<Out> sd;
      sd.dst = dst.data();
      sd.row_stride = 1;
      sd.col_inner = 4;
      sd.col_outer_stride = m;
      sd.col_inner_stride = (n / 4) * m;
      qgemm_batch_scatter(Trans::kN, Trans::kN, m, n, k, a.data(), k, 0,
                          b.data(), n, 0, 1, rq, sd);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          ASSERT_EQ(dst[static_cast<std::size_t>((j % 4) * (n / 4) * m +
                                                 (j / 4) * m + i)],
                    want[static_cast<std::size_t>(i * n + j)])
              << "i=" << i << " j=" << j;
    };
    column_split(std::int64_t{-999});
    column_split(std::int16_t{-999});
    column_split(std::int8_t{99});
  });
}

// The vote-transform fusion target: per input capsule i (the batch axis),
// votes [B, JD] scatter into the j-major [B, Nout, Nin, Dout] layout of
// container Out, at every shift, without and with bias, on rails [qmin,
// qmax] that fit Out.
template <typename Out>
void check_votes_j_major(std::int32_t qmin, std::int32_t qmax) {
  SCOPED_TRACE(::testing::Message() << sizeof(Out) << "-byte votes");
  common::Rng rng(32);
  // JD = 15 columns: one full 8-lane step and a masked tail per row.
  const std::int64_t bsz = 3, nin = 5, din = 7, nout = 5, dout = 3;
  const std::int64_t jd = nout * dout;
  const auto u = random_i8(rng, bsz * nin * din);
  const auto w = random_i8(rng, nin * jd * din);
  const auto bias = random_bias(rng, bsz, 2000);
  std::vector<std::vector<std::int64_t>> acc;  // per input capsule i
  for (std::int64_t i = 0; i < nin; ++i) {
    std::vector<std::int8_t> ui(static_cast<std::size_t>(bsz * din));
    for (std::int64_t bb = 0; bb < bsz; ++bb)
      for (std::int64_t d = 0; d < din; ++d)
        ui[static_cast<std::size_t>(bb * din + d)] =
            u[static_cast<std::size_t>((bb * nin + i) * din + d)];
    acc.push_back(qgemm_acc_naive(Trans::kN, Trans::kT, bsz, jd, din,
                                  ui.data(), din, w.data() + i * jd * din,
                                  din));
  }
  for_each_requant(bias.data(), qmin, qmax, [&](const QGemmRequant& rq) {
    std::vector<Out> votes(static_cast<std::size_t>(bsz * nout * nin * dout),
                           Out{-99});
    QGemmScatterDst<Out> sd;
    sd.dst = votes.data();
    sd.batch_stride = dout;
    sd.row_stride = nout * nin * dout;
    sd.col_inner = dout;
    sd.col_outer_stride = nin * dout;
    sd.col_inner_stride = 1;
    qgemm_batch_scatter(Trans::kN, Trans::kT, bsz, jd, din, u.data(),
                        nin * din, din, w.data(), din, jd * din, nin, rq, sd);
    for (std::int64_t i = 0; i < nin; ++i) {
      const auto want = requant_acc_naive(acc[static_cast<std::size_t>(i)],
                                          bsz, jd, rq);
      for (std::int64_t bb = 0; bb < bsz; ++bb)
        for (std::int64_t j = 0; j < nout; ++j)
          for (std::int64_t d = 0; d < dout; ++d)
            ASSERT_EQ(votes[static_cast<std::size_t>(
                          ((bb * nout + j) * nin + i) * dout + d)],
                      want[static_cast<std::size_t>(bb * jd + j * dout + d)])
                << "i=" << i << " b=" << bb << " j=" << j << " d=" << d;
    }
  });
}

TEST(QGemmAllKernels, BatchScatterLandsVotesJMajor) {
  testutil::for_each_isa([](common::Isa) {
    check_votes_j_major<std::int8_t>(-128, 127);
    check_votes_j_major<std::int16_t>(-32768, 32767);
    check_votes_j_major<std::int64_t>(INT32_MIN, INT32_MAX);
  });
}

// Source rows of a gathered B in their own mapping, placed so that the last
// element ends a page and the next page is inaccessible: a vector load that
// reads past the last source column of the last K row faults instead of
// passing unnoticed.
template <typename T>
class GuardedRows {
 public:
  explicit GuardedRows(std::size_t count) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    bytes_ = (count * sizeof(T) + page - 1) / page * page + page;
    void* base = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(base);
    char* guard = base_ + bytes_ - page;
    if (mprotect(guard, page, PROT_NONE) != 0) throw std::bad_alloc();
    data_ = reinterpret_cast<T*>(guard) - count;
  }
  ~GuardedRows() { munmap(base_, bytes_); }
  GuardedRows(const GuardedRows&) = delete;
  GuardedRows& operator=(const GuardedRows&) = delete;
  T* data() const { return data_; }

 private:
  char* base_;
  std::size_t bytes_;
  T* data_;
};

// A column pattern of a gathered B: output column j reads element col[j] of
// every K row, and the rows are max(col) + 1 elements apart.
struct GatherCols {
  std::string name;
  std::vector<std::int64_t> col;
};

// The column patterns of the direct convolutions, for n columns: one image
// row (contiguous), a scrambled order (element gathers), a stride-2 row,
// rows of 8 pixels at pitch 10, 16-column groups whose sources span the
// VNNI window's width W - 1 and W (W = 32 and 64), and images of 20
// columns, 100 elements apart, so that some halves cross two images.
std::vector<GatherCols> gather_cols(std::int64_t n) {
  std::vector<GatherCols> out;
  const auto add = [&](std::string name, const auto& f) {
    GatherCols g{std::move(name), {}};
    for (std::int64_t j = 0; j < n; ++j) g.col.push_back(f(j));
    out.push_back(std::move(g));
  };
  add("contiguous", [](std::int64_t j) { return j; });
  add("scrambled", [n](std::int64_t j) { return (j * 11) % n; });
  add("stride 2", [](std::int64_t j) { return 2 * j; });
  add("rows of 8 at pitch 10",
      [](std::int64_t j) { return j / 8 * 10 + j % 8; });
  for (const std::int64_t span : {31, 32, 63, 64})
    add("span " + std::to_string(span), [span](std::int64_t j) {
      return j / 16 * (span + 1) + (j % 16 == 15 ? span : j % 16);
    });
  add("images of 20 columns",
      [](std::int64_t j) { return j / 20 * 100 + j % 20; });
  return out;
}

// QGemmDirect against the naive oracle on the matrix its gather describes,
// B(p, j) = src[p * pitch + col[j]], for every pattern of gather_cols and
// every requant of `rqs`. K = 600 crosses the direct path's 512-row K block,
// m and n leave partial tiles and strips, and the columns run in two calls
// split mid-strip. `value` draws the source elements.
template <typename T, typename Value>
void check_direct_gather(const std::vector<T>& a, std::int64_t m,
                         std::int64_t k, std::int64_t n,
                         const std::vector<QGemmRequant>& rqs,
                         const Value& value) {
  for (const GatherCols& gc : gather_cols(n)) {
    SCOPED_TRACE(gc.name);
    const std::vector<std::int64_t>& col = gc.col;
    const std::int64_t pitch = *std::max_element(col.begin(), col.end()) + 1;
    const GuardedRows<T> src(static_cast<std::size_t>(k * pitch));
    for (std::int64_t i = 0; i < k * pitch; ++i) src.data()[i] = value();
    std::vector<std::int64_t> tap(static_cast<std::size_t>(k));
    std::vector<T> bp(static_cast<std::size_t>(k * n));
    for (std::int64_t p = 0; p < k; ++p) {
      tap[static_cast<std::size_t>(p)] = p * pitch;
      for (std::int64_t j = 0; j < n; ++j)
        bp[static_cast<std::size_t>(p * n + j)] =
            src.data()[p * pitch + col[static_cast<std::size_t>(j)]];
    }
    const auto acc = qgemm_acc_naive(Trans::kN, Trans::kN, m, n, k, a.data(),
                                     k, bp.data(), n);
    const QGemmGatherB<T> gb{src.data(), tap.data(), col.data()};
    const std::int64_t mid = std::min<std::int64_t>(37, n);
    for (const QGemmRequant& rq : rqs) {
      SCOPED_TRACE(::testing::Message()
                   << "shift=" << rq.shift << (rq.bias ? " bias" : "")
                   << " rails [" << rq.qmin << ", " << rq.qmax << "]");
      const auto want = requant_acc_naive(acc, m, n, rq);
      const QGemmDirect<T> gemm(a.data(), m, k, rq);

      // One requantized strip of at most 32 columns per call, in column
      // order.
      std::vector<std::int64_t> tiles(static_cast<std::size_t>(m * n), -999);
      std::int64_t next = 0;
      const auto consume = [&](std::int64_t j0, std::int64_t nr,
                               const std::int32_t* tile, std::int64_t ld) {
        ASSERT_EQ(j0, next);
        ASSERT_TRUE(nr >= 1 && nr <= 32);
        next = j0 + nr;
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t jj = 0; jj < nr; ++jj)
            tiles[static_cast<std::size_t>(i * n + j0 + jj)] =
                tile[i * ld + jj];
      };
      gemm.run_tiles(gb, 0, mid, consume);
      gemm.run_tiles(gb, mid, n, consume);
      EXPECT_EQ(next, n);
      for (std::size_t i = 0; i < tiles.size(); ++i)
        ASSERT_EQ(tiles[i], want[i]) << "tile flat " << i;
    }
  }
}

TEST(QGemmAllKernels, DirectGatherMatchesNaive) {
  testutil::for_each_isa([](common::Isa) {
    common::Rng rng(32);
    const std::int64_t m = 13, k = 600, n = 70;
    const auto a = random_i8(rng, m * k);  // the full int8 range, -128 too
    const auto b8 = [&] {
      return static_cast<std::int8_t>(
          static_cast<int>(rng.uniform_index(256)) - 128);
    };
    const auto bias = random_bias(rng, m, 20000);
    // Every shift without and with bias on int32 rails, and random shifts
    // with bias on narrow rails.
    std::vector<QGemmRequant> rqs;
    for_each_requant(bias.data(), INT32_MIN, INT32_MAX,
                     [&](const QGemmRequant& rq) { rqs.push_back(rq); });
    for (int r = 0; r < 4; ++r) {
      QGemmRequant rq;
      rq.shift = static_cast<int>(rng.uniform_index(11)) - 2;
      rq.bias = bias.data();
      rq.qmin = -3000;
      rq.qmax = 3000;
      rqs.push_back(rq);
    }
    check_direct_gather(a, m, k, n, rqs, b8);

    const auto a16 = random_i16(rng, m * k, 300);
    QGemmRequant rq16;
    rq16.shift = 7;
    rq16.bias = bias.data();
    check_direct_gather(a16, m, k, n, {rq16}, [&] {
      return static_cast<std::int16_t>(
          static_cast<int>(rng.uniform_index(601)) - 300);
    });
  });
}

TEST(QGemmAllKernels, DirectLongKStaysExact) {
  testutil::for_each_isa([](common::Isa) {
    // Past K = 65793 the VNNI offset accumulator could wrap, so the direct
    // path takes the int16 pair panels there. With a = -128 and b = 127 the
    // offset sum, 70000 * -128 * 255, is past int32 while the exact product,
    // 70000 * -128 * 127, is not.
    const std::int64_t m = 2, k = 70000, n = 3;
    const std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), -128);
    check_direct_gather(a, m, k, n, {QGemmRequant{}},
                        [] { return std::int8_t{127}; });
  });
}

TEST(QGemmRequantize, MatchesRescaleRawOnExactProducts) {
  // The rounded shift is the fixed-point rescale: bit-identical to
  // hwmodel::rescale_raw(acc, from_qf, out_fmt, kRoundToNearest), including
  // negative accumulators, rounding ties, and saturation.
  const fixed::FixedFormat out(3, 4);
  QGemmRequant rq;
  rq.shift = 8;  // from_qf 12 -> out qf 4
  rq.qmin = static_cast<std::int32_t>(out.raw_min());
  rq.qmax = static_cast<std::int32_t>(out.raw_max());
  for (std::int64_t acc = -(1 << 15); acc <= (1 << 15); ++acc) {
    ASSERT_EQ(qgemm_requantize(acc, rq),
              hwmodel::rescale_raw(acc, 12, out,
                                   fixed::RoundingScheme::kRoundToNearest))
        << "acc=" << acc;
  }
}

TEST(QGemmRequantize, NegativeShiftIsExactLeftShift) {
  const fixed::FixedFormat out(4, 10);
  QGemmRequant rq;
  rq.shift = -4;  // from_qf 6 -> out qf 10
  rq.qmin = static_cast<std::int32_t>(out.raw_min());
  rq.qmax = static_cast<std::int32_t>(out.raw_max());
  for (std::int64_t acc = -3000; acc <= 3000; acc += 7)
    ASSERT_EQ(qgemm_requantize(acc, rq),
              hwmodel::rescale_raw(acc, 6, out,
                                   fixed::RoundingScheme::kRoundToNearest))
        << "acc=" << acc;
}

TEST(QGemmMaxK, BoundsMatchAccumulatorWidth) {
  // 8-bit operands: k * 2^14 < 2^31.
  EXPECT_EQ(qgemm_max_k(8, 8), 131071);
  // 9-bit operands: k * 2^16 < 2^31.
  EXPECT_EQ(qgemm_max_k(9, 9), 32767);
  EXPECT_GE(qgemm_max_k(2, 2), (std::int64_t{1} << 29) - 1);
}

TEST(QGemmThreads, DeterministicAcrossThreadCounts) {
#ifdef _OPENMP
  common::Rng rng(28);
  const std::int64_t m = 150, k = 300, n = 200;  // big enough to parallelize
  const auto a = random_i8(rng, m * k);
  const auto b = random_i8(rng, k * n);
  const auto bias = random_bias(rng, m, 20000);
  QGemmRequant rq;
  rq.shift = static_cast<int>(rng.uniform_index(12));
  rq.bias = bias.data();
  rq.qmin = -(std::int32_t{1} << 24);
  rq.qmax = (std::int32_t{1} << 24) - 1;
  std::vector<std::int32_t> c1(static_cast<std::size_t>(m * n));
  std::vector<std::int32_t> c4(static_cast<std::size_t>(m * n));
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  qgemm(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n, c1.data(), n,
        rq);
  omp_set_num_threads(4);
  qgemm(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n, c4.data(), n,
        rq);
  omp_set_num_threads(saved);
  for (std::size_t i = 0; i < c1.size(); ++i)
    ASSERT_EQ(c1[i], c4[i]) << "thread-count nondeterminism at " << i;
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(QGemmGuards, RejectsOversizedKForInt8) {
  const std::int8_t dummy = 0;
  std::int32_t c = 0;
  EXPECT_THROW(qgemm(Trans::kN, Trans::kN, 1, 1, 200000, &dummy, 200000,
                     &dummy, 1, &c, 1, QGemmRequant{}),
               qcaps::Error);
}

TEST(QGemmGuards, BadShiftThrowsCatchablyFromLargeBatch) {
  // Large enough to take the OpenMP batch path: the requant validation must
  // still surface as a catchable qcaps::Error, not a terminate inside the
  // parallel region.
  const std::int64_t batch = 4, m = 32, k = 64, n = 64;
  std::vector<std::int8_t> a(static_cast<std::size_t>(batch * m * k), 1);
  std::vector<std::int8_t> b(static_cast<std::size_t>(batch * k * n), 1);
  std::vector<std::int64_t> c(static_cast<std::size_t>(batch * m * n));
  QGemmScatterDst<std::int64_t> sd;
  sd.dst = c.data();
  sd.row_stride = n;
  sd.col_outer_stride = 1;
  sd.batch_stride = m * n;
  QGemmRequant rq;
  rq.shift = 40;  // out of range
  EXPECT_THROW(qgemm_batch_scatter(Trans::kN, Trans::kN, m, n, k, a.data(), k,
                                   m * k, b.data(), n, k * n, batch, rq, sd),
               qcaps::Error);
}

TEST(QGemmGuards, RejectsBadRequantParameters) {
  const std::int8_t dummy = 0;
  std::int32_t c = 0;
  QGemmRequant rq;
  rq.shift = 40;
  EXPECT_THROW(
      qgemm(Trans::kN, Trans::kN, 1, 1, 1, &dummy, 1, &dummy, 1, &c, 1, rq),
      qcaps::Error);
}

}  // namespace
}  // namespace qcaps::tensor
