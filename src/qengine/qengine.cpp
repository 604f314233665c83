#include "qengine/qengine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "hwmodel/units.hpp"
#include "tensor/qgemm.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef QCAPS_X86_NATIVE
#include <immintrin.h>
#endif

namespace qcaps::qengine {
namespace {

int ceil_log2(std::int64_t v) {
  return v <= 1 ? 0
               : std::bit_width(static_cast<std::uint64_t>(v - 1));
}

tensor::QGemmRequant make_requant(int acc_qf,
                                  const fixed::FixedFormat& out_fmt) {
  tensor::QGemmRequant rq;
  rq.shift = acc_qf - out_fmt.qf;
  rq.qmin = static_cast<std::int32_t>(out_fmt.raw_min());
  rq.qmax = static_cast<std::int32_t>(out_fmt.raw_max());
  return rq;
}

template <typename T>
std::vector<T> packed_of(const QTensor& t) {
  if constexpr (std::is_same_v<T, std::int8_t>)
    return t.packed_i8();
  else
    return t.packed_i16();
}

template <typename T>
const T* cached_data(const QGemmOperandCache& cache) {
  if constexpr (std::is_same_v<T, std::int8_t>) {
    QCAPS_CHECK_MSG(cache.has_i8(), "weight cache lacks its int8 container");
    return cache.i8_data();
  } else {
    QCAPS_CHECK_MSG(cache.has_i16(), "weight cache lacks its int16 container");
    return cache.i16_data();
  }
}

// The weights as tier T reads them: the packed cache (or one packed copy
// into `local` when no cache is given) on the int8/int16 tiers, the raw
// values on the exact tier.
template <typename T>
const T* weights_as(const QTensor& w, const QGemmOperandCache* cache,
                    std::vector<T>& local) {
  if constexpr (std::is_same_v<T, std::int64_t>) {
    QCAPS_CHECK_MSG(!w.raw.empty(),
                    "the exact tier reads raw weights, which a hollow weight "
                    "lacks");
    return w.raw.data();
  } else {
    if (cache) return cached_data<T>(*cache);
    local = packed_of<T>(w);
    return local.data();
  }
}

// The activation's values as T: its own container when that is T, else one
// widening copy into `local` (int8 values feeding the int16 tier).
template <typename T>
const T* values_as(const QActivation& x, std::vector<T>& local) {
  if (storage_bytes(x.storage()) == static_cast<std::int64_t>(sizeof(T)))
    return x.data<T>();
  local.resize(static_cast<std::size_t>(x.numel()));
  x.visit([&](const auto* src) {
    std::transform(src, src + x.numel(), local.begin(),
                   [](auto v) { return static_cast<T>(v); });
  });
  return local.data();
}

// f(T{}) with T the operand type of `tier`: int8, int16, or int64 for the
// exact tier (kNone).
template <typename F>
decltype(auto) on_tier(PackedTier tier, F&& f) {
  switch (tier) {
    case PackedTier::kInt8: return f(std::int8_t{});
    case PackedTier::kInt16: return f(std::int16_t{});
    default: return f(std::int64_t{});
  }
}

// One strided GEMM per input type i (the shape qgemm amortizes best):
//   c[:, i, :] [B x JD] = u[:, i, :] [B x Din] * w[i]^T [Din x JD]
// The i-major result is permuted into the j-major votes layout by the
// requant epilogue's affine scatter (QGemmScatterDst) — element (bi, j*Dout
// + dd) of batch item i lands at votes[((bi*Nout + j)*Nin + i)*Dout + dd]
// straight out of the microkernel, in the votes' own container. (Emitting
// j-major via GEMM shapes instead would need one batch per output capsule:
// n = Dout-wide calls too small to amortize packing, measured 3x slower on
// the ShallowCaps head.)
template <typename T, typename O>
void run_qgemm_votes(const QActivation& u, const QTensor& w,
                     const QGemmOperandCache* w_cache, std::int64_t b,
                     std::int64_t nin, std::int64_t din, std::int64_t nout,
                     std::int64_t dout, const tensor::QGemmRequant& rq,
                     O* votes) {
  std::vector<T> u_local, wp_local;
  const T* up = values_as<T>(u, u_local);
  const T* wp = weights_as<T>(w, w_cache, wp_local);
  const std::int64_t jd = nout * dout;
  tensor::QGemmScatterDst<O> sd;
  sd.dst = votes;
  sd.row_stride = nout * nin * dout;        // per image row bi
  sd.col_inner = dout;
  sd.col_outer_stride = nin * dout;         // per output type j
  sd.col_inner_stride = 1;                  // per vote component dd
  sd.batch_stride = dout;                   // per input type i
  tensor::qgemm_batch_scatter(tensor::Trans::kN, tensor::Trans::kT, b, jd,
                              din, up, nin * din, din, wp, din, jd * din, nin,
                              rq, sd);
}

// ---- direct convolution ----------------------------------------------------
//
// The conv paths never build an im2col matrix. Each image is copied once
// from its activation container into a zero-padded buffer
// [C, H + 2p, W + 2p] of the tier's operand type (int8, int16, or int64 for
// the exact tier), and the tier's GEMM reads its B operand through offsets
// into that copy (tensor::QGemmGatherB): tap[p] per K row p = (ci, ky, kx)
// and col[j] per output column j = (image, oy, ox). Padding is stored zeros,
// which are exact zeros on the symmetric grid. Each requantized strip of
// output columns (QGemmDirect::run_tiles, ExactDirect::run_tiles) then goes
// to the op's one epilogue, which stores it into the output's own container.

struct ConvGeom {
  std::int64_t b, c, h, wd, k, stride, pad, oh, ow;
  std::int64_t hp() const { return h + 2 * pad; }
  std::int64_t wp() const { return wd + 2 * pad; }
  std::int64_t img() const { return c * hp() * wp(); }  // padded image
  std::int64_t plane() const { return oh * ow; }
  std::int64_t fan_in() const { return c * k * k; }
};

// Shape checks and output geometry of x [B, C, H, W] convolved with
// w [F, C / groups, K, K] (each of the `groups` channel groups convolved on
// its own, as the ConvCaps3d votes are).
ConvGeom conv_geom(const tensor::Shape& xs, const QTensor& w,
                   std::int64_t stride, std::int64_t pad,
                   std::int64_t groups = 1) {
  QCAPS_CHECK_MSG(xs.size() == 4 && w.shape.size() == 4,
                  "qengine conv2d expects [B,C,H,W] x [F,C,K,K]");
  const std::int64_t c = xs[1], k = w.dim(2);
  QCAPS_CHECK(w.dim(1) * groups == c && w.dim(3) == k);
  const std::int64_t h = xs[2], wd = xs[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - k) / stride + 1;
  QCAPS_CHECK(oh > 0 && ow > 0);
  return {xs[0], c, h, wd, k, stride, pad, oh, ow};
}

// Offsets of the K rows of a conv over `channels` consecutive channels.
std::vector<std::int64_t> tap_offsets(const ConvGeom& g,
                                      std::int64_t channels) {
  std::vector<std::int64_t> tap(static_cast<std::size_t>(channels * g.k * g.k));
  std::size_t p = 0;
  for (std::int64_t ci = 0; ci < channels; ++ci)
    for (std::int64_t ky = 0; ky < g.k; ++ky)
      for (std::int64_t kx = 0; kx < g.k; ++kx)
        tap[p++] = (ci * g.hp() + ky) * g.wp() + kx;
  return tap;
}

// Offsets of the output columns of `images` consecutive padded images.
std::vector<std::int64_t> col_offsets(const ConvGeom& g, std::int64_t images) {
  std::vector<std::int64_t> col(static_cast<std::size_t>(images * g.plane()));
  std::size_t j = 0;
  for (std::int64_t i = 0; i < images; ++i)
    for (std::int64_t y = 0; y < g.oh; ++y)
      for (std::int64_t xx = 0; xx < g.ow; ++xx)
        col[j++] = i * g.img() + y * g.stride * g.wp() + xx * g.stride;
  return col;
}

// Copy channel ci of image bi into the interior of its padded plane at dst:
// a row copy when the activation's container is the tier's T, an exact
// widening otherwise. Only the interior is written, so the borders of a
// zero-initialized buffer stay zero however often it is refilled.
template <typename T>
void copy_channel(const QActivation& x, const ConvGeom& g, std::int64_t bi,
                  std::int64_t ci, T* dst) {
  x.visit([&](const auto* base) {
    const auto* src = base + (bi * g.c + ci) * g.h * g.wd;
    for (std::int64_t y = 0; y < g.h; ++y) {
      T* row = dst + (y + g.pad) * g.wp() + g.pad;
      const auto* in = src + y * g.wd;
      for (std::int64_t xx = 0; xx < g.wd; ++xx)
        row[xx] = static_cast<T>(in[xx]);
    }
  });
}

// Split the strip columns [j0, j0 + nr) (image-local, `plane` per image)
// into runs that land on consecutive output pixels of one image:
// run(jj, len, img, p) covers strip columns jj .. jj + len - 1, which are
// pixels p .. p + len - 1 of image img.
template <typename Run>
void for_each_image_run(std::int64_t j0, std::int64_t nr, std::int64_t plane,
                        const Run& run) {
  for (std::int64_t jj = 0; jj < nr;) {
    const std::int64_t p = (j0 + jj) % plane;
    const std::int64_t len = std::min(nr - jj, plane - p);
    run(jj, len, (j0 + jj) / plane, p);
    jj += len;
  }
}

// Store a requantized strip (rows i < `rows`, image-local columns
// [j0, j0 + nr)) into the [rows, plane] planes of the images at out. Strip
// values are on the output format's rails, so the store into O is exact.
template <typename S, typename O>
void store_strip(const S* tile, std::int64_t ld, std::int64_t rows,
                 std::int64_t j0, std::int64_t nr, std::int64_t plane,
                 O* out) {
  for_each_image_run(j0, nr, plane, [&](std::int64_t jj, std::int64_t len,
                                        std::int64_t img, std::int64_t p) {
    O* dst = out + (img * rows) * plane + p;
    for (std::int64_t i = 0; i < rows; ++i) {
      const S* src = tile + i * ld + jj;
      O* d = dst + i * plane;
      for (std::int64_t t = 0; t < len; ++t) d[t] = static_cast<O>(src[t]);
    }
  });
}

// Drive a direct convolution over the batch: `run(data, col, b0, j0, j1)`
// computes output columns [j0, j1) of the images from b0 on, copied at
// `data` with column offsets `col`. One OpenMP region per conv, and none when
// the work is too small to share. With at least one image per thread each
// thread copies and convolves its own contiguous images, a few at a time
// when planes are small so that strips stay full. With fewer images than
// threads the batch is copied once into a shared buffer and the threads
// split its output columns.
template <typename T, typename Run>
void direct_conv(const QActivation& x, const ConvGeom& g, std::int64_t macs,
                 const Run& run) {
  constexpr std::int64_t kGroupCols = 64;  // two VNNI strips
  int team = 1;
#ifdef _OPENMP
  constexpr std::int64_t kMinParallelMacs = std::int64_t{1} << 16;
  if (!omp_in_parallel() && macs > kMinParallelMacs)
    team = omp_get_max_threads();
#else
  (void)macs;
#endif
  const std::int64_t plane = g.plane();
  if (g.b >= team) {
    const std::int64_t group =
        std::clamp<std::int64_t>((kGroupCols + plane - 1) / plane, 1, g.b);
    const std::vector<std::int64_t> col = col_offsets(g, group);
    const auto images = [&](std::int64_t lo, std::int64_t hi) {
      std::vector<T> buf(static_cast<std::size_t>(
          std::min(group, hi - lo) * g.img()));
      for (std::int64_t b0 = lo; b0 < hi; b0 += group) {
        const std::int64_t n = std::min(group, hi - b0);
        for (std::int64_t i = 0; i < n; ++i)
          for (std::int64_t ci = 0; ci < g.c; ++ci)
            copy_channel(x, g, b0 + i, ci,
                         buf.data() + i * g.img() + ci * g.hp() * g.wp());
        run(buf.data(), col.data(), b0, std::int64_t{0}, n * plane);
      }
    };
    if (team == 1) {
      images(0, g.b);
      return;
    }
#ifdef _OPENMP
#pragma omp parallel num_threads(team)
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t per = (g.b + nt - 1) / nt;
      const std::int64_t lo = std::min(omp_get_thread_num() * per, g.b);
      const std::int64_t hi = std::min(lo + per, g.b);
      if (lo < hi) images(lo, hi);
    }
#endif
    return;
  }
#ifdef _OPENMP
  constexpr std::int64_t kStripCols = 32;
  const std::int64_t ncol = g.b * plane;
  const std::vector<std::int64_t> col = col_offsets(g, g.b);
  std::vector<T> buf(static_cast<std::size_t>(g.b * g.img()));
#pragma omp parallel num_threads(team)
  {
#pragma omp for schedule(static)
    for (std::int64_t bc = 0; bc < g.b * g.c; ++bc)
      copy_channel(x, g, bc / g.c, bc % g.c,
                   buf.data() + bc * g.hp() * g.wp());
    const std::int64_t strips = (ncol + kStripCols - 1) / kStripCols;
#pragma omp for schedule(static)
    for (std::int64_t s = 0; s < strips; ++s)
      run(buf.data(), col.data(), std::int64_t{0}, s * kStripCols,
          std::min(ncol, (s + 1) * kStripCols));
  }
#endif
}

// The exact tier: tensor::QGemmDirect's contract on int64 operands, for
// formats the packed tiers cannot hold. Element (p, j) of B is read from an
// int64 padded copy through the same tap/column offsets; each output
// accumulates in int64 from its row's bias aligned to the accumulator, and
// each finished strip is rounded to nearest onto out_fmt
// (hwmodel::rescale_raw, which saturates) with the lower rail raised to 0 by
// a fused ReLU: the packed requantization, element for element.
class ExactDirect {
 public:
  ExactDirect(const std::int64_t* a, std::int64_t m, std::int64_t k,
              std::vector<std::int64_t> base, int acc_qf,
              fixed::FixedFormat out_fmt, bool relu)
      : a_(a), m_(m), k_(k), base_(std::move(base)), acc_qf_(acc_qf),
        out_fmt_(out_fmt), lo_(relu ? 0 : out_fmt.raw_min()) {}

  // Output columns [j0, j1), one requantized strip of at most kStrip
  // columns per consume(j0, nr, tile, ld) call, in column order.
  void run_tiles(const tensor::QGemmGatherB<std::int64_t>& b, std::int64_t j0,
                 std::int64_t j1,
                 const std::function<void(std::int64_t, std::int64_t,
                                          const std::int64_t*, std::int64_t)>&
                     consume) const {
    constexpr std::int64_t kStrip = 32;
    std::vector<std::int64_t> tile(static_cast<std::size_t>(m_ * kStrip));
    for (std::int64_t s0 = j0; s0 < j1; s0 += kStrip) {
      const std::int64_t nr = std::min(kStrip, j1 - s0);
      for (std::int64_t i = 0; i < m_; ++i) {
        const std::int64_t* a = a_ + i * k_;
        for (std::int64_t jj = 0; jj < nr; ++jj) {
          const std::int64_t* src = b.data + b.col[s0 + jj];
          std::int64_t acc = base_[static_cast<std::size_t>(i)];
          for (std::int64_t p = 0; p < k_; ++p) acc += a[p] * src[b.tap[p]];
          tile[static_cast<std::size_t>(i * kStrip + jj)] =
              std::max(hwmodel::rescale_raw(acc, acc_qf_, out_fmt_), lo_);
        }
      }
      consume(s0, nr, tile.data(), kStrip);
    }
  }

 private:
  const std::int64_t* a_;
  std::int64_t m_, k_;
  std::vector<std::int64_t> base_;
  int acc_qf_;
  fixed::FixedFormat out_fmt_;
  std::int64_t lo_;
};

template <typename T>
using DirectGemm = std::conditional_t<std::is_same_v<T, std::int64_t>,
                                      ExactDirect, tensor::QGemmDirect<T>>;

// The direct GEMM of tier T over weights a [m, k] (row-major) in w_fmt, for
// an input in x_fmt: the accumulator (x_fmt.qf + w_fmt.qf fractional bits)
// plus `bias` (one value per row, possibly empty) aligned to it, requantized
// onto out_fmt, the lower rail raised to 0 by a fused ReLU (relu(clamp(v,
// qmin, qmax)) == clamp(v, 0, qmax) on the symmetric grid).
template <typename T>
DirectGemm<T> direct_gemm(const T* a, std::int64_t m, std::int64_t k,
                          const QTensor& bias, fixed::FixedFormat x_fmt,
                          fixed::FixedFormat w_fmt, fixed::FixedFormat out_fmt,
                          bool relu) {
  const int acc_qf = x_fmt.qf + w_fmt.qf;
  const int bshift = acc_qf - bias.fmt.qf;
  if constexpr (std::is_same_v<T, std::int64_t>) {
    // Exact while k * 2^(wl_x - 1) * 2^(wl_w - 1) cannot wrap int64, bounded
    // from the formats alone.
    QCAPS_CHECK_MSG(x_fmt.wordlength() + w_fmt.wordlength() +
                            ceil_log2(k + 1) <=
                        62,
                    "int64 accumulator would overflow for these formats");
    QCAPS_CHECK_MSG(bias.raw.empty() || bshift >= 0,
                    "bias fractional width exceeds the accumulator's");
    std::vector<std::int64_t> base(static_cast<std::size_t>(m), 0);
    for (std::size_t i = 0; i < bias.raw.size(); ++i)
      base[i] = bias.raw[i] << bshift;
    return ExactDirect(a, m, k, std::move(base), acc_qf, out_fmt, relu);
  } else {
    // packed_tier admitted the bias: bshift in [0, 31), aligned fits int32.
    std::vector<std::int32_t> bias32(bias.raw.size());
    for (std::size_t i = 0; i < bias.raw.size(); ++i)
      bias32[i] = static_cast<std::int32_t>(bias.raw[i] << bshift);
    tensor::QGemmRequant rq = make_requant(acc_qf, out_fmt);
    if (relu) rq.qmin = std::max(rq.qmin, std::int32_t{0});
    if (!bias32.empty()) rq.bias = bias32.data();
    return tensor::QGemmDirect<T>(a, m, k, rq);  // folds the bias
  }
}

// A convolution of x by the f-row GEMM of tier T into [B, f, H', W'] of
// out_fmt: every requantized strip goes to epilogue(tile, ld, j0, nr, dst),
// dst being the output of the strip's first image in its container.
template <typename T, typename Gemm, typename Epilogue>
QActivation conv_direct(const QActivation& x, const ConvGeom& g,
                        const Gemm& gemm, std::int64_t f,
                        fixed::FixedFormat out_fmt,
                        const Epilogue& epilogue) {
  const std::vector<std::int64_t> tap = tap_offsets(g, g.c);
  QActivation out({g.b, f, g.oh, g.ow}, out_fmt);
  direct_conv<T>(
      x, g, g.b * g.plane() * f * g.fan_in(),
      [&](const T* data, const std::int64_t* col, std::int64_t b0,
          std::int64_t j0, std::int64_t j1) {
        gemm.run_tiles({data, tap.data(), col}, j0, j1,
                       [&](std::int64_t s0, std::int64_t nr, const auto* tile,
                           std::int64_t ld) {
                         out.visit([&](auto* y) {
                           epilogue(tile, ld, s0, nr, y + b0 * f * g.plane());
                         });
                       });
      });
  return out;
}

// ---- squash ----------------------------------------------------------------

// The SquashUnit raw seam's per-element arithmetic (SquashUnit::apply
// without the FixedNum marshaling). A capsule's squared norm accumulates
// s*s << shift_up (>> when negative) at the unit's internal_qf fractional
// bits; each element then finishes as clamp((s * gain + half) >> shift, lo,
// hi) in the output format.
struct SquashScale {
  int shift_up = 0;
  int shift = 0;
  std::int64_t half = 0, lo = 0, hi = 0;
};

SquashScale squash_scale(const hwmodel::SquashUnit& unit,
                         fixed::FixedFormat in_fmt,
                         fixed::FixedFormat out_fmt) {
  SquashScale s;
  s.shift_up = unit.internal_qf() - 2 * in_fmt.qf;
  // The output rescale always shifts DOWN (internal_qf >= out qf), so the
  // round-to-nearest + saturate is inlined by the callers — per-element
  // calls into hwmodel::rescale_raw would dominate the finishing pass.
  s.shift = in_fmt.qf + unit.internal_qf() - out_fmt.qf;
  QCAPS_CHECK(s.shift > 0);
  s.half = std::int64_t{1} << (s.shift - 1);
  s.lo = out_fmt.raw_min();
  s.hi = out_fmt.raw_max();
  return s;
}

// ---- one-pass capsule convolution ------------------------------------------
//
// conv_caps squashes each requantized strip of its direct GEMM while the
// strip is in cache. Strip rows are the T*D output channels, so capsule
// (t, column) is rows t*D .. t*D + D - 1 of one column: per strip one norms
// pass, ONE batched gain call over its T*nr capsules, and one finishing pass
// that writes [B, T*D, H', W'] directly — element for element the
// arithmetic of a conv into mid_fmt followed by a per-capsule
// SquashUnit::apply. On the packed tiers' int32 strips the norms and
// finishing passes have an AVX-512 path, taken at the avx512 and vnni
// dispatch levels, the ones that run the direct GEMM's own AVX-512 epilogue.

// Squared norms of channel-grouped capsules: capsule (t, column jj) is rows
// t*dim .. t*dim + dim - 1 (row stride ld) of column jj, and its norm lands
// in nsq[t * nr + jj].
template <typename S>
void strip_norms(const S* tile, std::int64_t ld, std::int64_t types,
                 std::int64_t dim, std::int64_t nr, int shift_up,
                 std::int64_t* nsq) {
  for (std::int64_t t = 0; t < types; ++t) {
    std::int64_t* acc = nsq + t * nr;
    std::fill(acc, acc + nr, std::int64_t{0});
    for (std::int64_t d = 0; d < dim; ++d) {
      const S* row = tile + (t * dim + d) * ld;
      for (std::int64_t jj = 0; jj < nr; ++jj) {
        const std::int64_t wide = std::int64_t{row[jj]} * row[jj];
        acc[jj] += shift_up >= 0 ? (wide << shift_up) : (wide >> -shift_up);
      }
    }
  }
}

// dst[i] = clamp((src[i] * gain[i] + half) >> shift, lo, hi), i < n, stored
// into the output's container O (exact: lo and hi are its format's rails).
template <typename S, typename O>
void squash_run(const S* src, const std::int64_t* gain, std::int64_t n,
                const SquashScale& s, O* dst) {
  for (std::int64_t i = 0; i < n; ++i)
    dst[i] = static_cast<O>(std::clamp(
        (std::int64_t{src[i]} * gain[i] + s.half) >> s.shift, s.lo, s.hi));
}

#ifdef QCAPS_X86_NATIVE
// strip_norms and squash_run, 8 int64 lanes per step. vpmuldq multiplies
// the signed low 32 bits of each lane exactly, and both of its operands fit
// there: tile values are int32, and a squash gain is |s| / (1 + |s|^2) <= 1/2
// at internal_qf <= 28 fractional bits, about 2^27 at most, far below 2^31.
// Shifts are arithmetic, like the scalar >>. (GCC 12 emits -Wmaybe-uninitialized false
// positives from its own AVX-512 intrinsic headers here, PR105593.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) inline __mmask8 lane_mask(std::int64_t n) {
  return n >= 8 ? static_cast<__mmask8>(0xFF)
                : static_cast<__mmask8>((1u << n) - 1);
}

__attribute__((target("avx512f"))) inline __m512i load_i32x8(
    const std::int32_t* p, __mmask8 k) {
  return _mm512_cvtepi32_epi64(
      _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(k, p)));
}

__attribute__((target("avx512f"))) void strip_norms_avx512(
    const std::int32_t* tile, std::int64_t ld, std::int64_t types,
    std::int64_t dim, std::int64_t nr, int shift_up, std::int64_t* nsq) {
  const __m128i vup = _mm_cvtsi32_si128(shift_up > 0 ? shift_up : 0);
  const __m128i vdown = _mm_cvtsi32_si128(shift_up < 0 ? -shift_up : 0);
  for (std::int64_t t = 0; t < types; ++t) {
    const std::int32_t* rows = tile + t * dim * ld;
    for (std::int64_t jj = 0; jj < nr; jj += 8) {
      const __mmask8 k = lane_mask(nr - jj);
      __m512i acc = _mm512_setzero_si512();
      for (std::int64_t d = 0; d < dim; ++d) {
        const __m512i v = load_i32x8(rows + d * ld + jj, k);
        const __m512i wide = _mm512_mul_epi32(v, v);
        acc = _mm512_add_epi64(
            acc, _mm512_sll_epi64(_mm512_sra_epi64(wide, vdown), vup));
      }
      _mm512_mask_storeu_epi64(nsq + t * nr + jj, k, acc);
    }
  }
}

template <typename O>
__attribute__((target("avx512f"))) void squash_run_avx512(
    const std::int32_t* src, const std::int64_t* gain, std::int64_t n,
    const SquashScale& s, O* dst) {
  const __m512i vhalf = _mm512_set1_epi64(s.half);
  const __m128i vshift = _mm_cvtsi32_si128(s.shift);
  const __m512i vlo = _mm512_set1_epi64(s.lo);
  const __m512i vhi = _mm512_set1_epi64(s.hi);
  for (std::int64_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    __m512i v = _mm512_mul_epi32(load_i32x8(src + i, k),
                                 _mm512_maskz_loadu_epi64(k, gain + i));
    v = _mm512_sra_epi64(_mm512_add_epi64(v, vhalf), vshift);
    v = _mm512_min_epi64(_mm512_max_epi64(v, vlo), vhi);
    if constexpr (std::is_same_v<O, std::int8_t>)
      _mm512_mask_cvtepi64_storeu_epi8(dst + i, k, v);
    else if constexpr (std::is_same_v<O, std::int16_t>)
      _mm512_mask_cvtepi64_storeu_epi16(dst + i, k, v);
    else
      _mm512_mask_storeu_epi64(dst + i, k, v);
  }
}
#pragma GCC diagnostic pop
#endif  // QCAPS_X86_NATIVE

struct CapsStrip {
  std::int64_t types, dim, plane;
  const hwmodel::SquashUnit* unit;
  SquashScale scale;
  bool vec;  // the AVX-512 passes (int32 strips only)
};

// Squash one requantized strip (columns [j0, j0 + nr), image-local to the
// images whose output starts at `out`) into [T*D, H', W'] planes.
template <typename S, typename O>
void squash_strip(const CapsStrip& cs, const S* tile, std::int64_t ld,
                  std::int64_t j0, std::int64_t nr, O* out) {
  thread_local std::vector<std::int64_t> nsq, gain;
  const std::size_t n = static_cast<std::size_t>(cs.types * nr);
  if (nsq.size() < n) {
    nsq.resize(n);
    gain.resize(n);
  }
  auto norms = strip_norms<S>;
  auto finish = squash_run<S, O>;
#ifdef QCAPS_X86_NATIVE
  if constexpr (std::is_same_v<S, std::int32_t>) {
    if (cs.vec) {
      norms = strip_norms_avx512;
      finish = squash_run_avx512<O>;
    }
  }
#endif
  norms(tile, ld, cs.types, cs.dim, nr, cs.scale.shift_up, nsq.data());
  cs.unit->gain_raw_n(nsq.data(), gain.data(), cs.types * nr);
  const std::int64_t channels = cs.types * cs.dim;
  for_each_image_run(j0, nr, cs.plane, [&](std::int64_t jj, std::int64_t len,
                                           std::int64_t img, std::int64_t p) {
    O* dst = out + img * channels * cs.plane + p;
    for (std::int64_t t = 0; t < cs.types; ++t)
      for (std::int64_t d = 0; d < cs.dim; ++d) {
        const std::int64_t row = t * cs.dim + d;
        finish(tile + row * ld + jj, gain.data() + t * nr + jj, len,
               cs.scale, dst + row * cs.plane);
      }
  });
}

// ---- j-major vote convolutions ---------------------------------------------
//
// Input type t of x [B, Tin*Din, H, W] convolved with wt[t]
// [Tout*Dout, Din, K, K] (row-major [Tout*Dout, Din*K*K]): each image is
// copied once over the full channel set, and type t's GEMM reads its Din
// channels at offset t * Din * Hp * Wp of that copy. Each requantized strip
// of type t (rows j*Dout + dd, image-local columns (bi, p)) lands at
// votes[((b0 + bi) * plane + p) * Tout*Tin*Dout + j*Tin*Dout + t*Dout + dd]:
// the j-major [R, Tout, Tin, Dout] the routing consumes, R = B * OH * OW.
template <typename T>
QActivation votes_direct(const QActivation& x, const std::vector<const T*>& wt,
                         const ConvGeom& g, fixed::FixedFormat w_fmt,
                         std::int64_t din, std::int64_t out_types,
                         std::int64_t dout, fixed::FixedFormat out_fmt) {
  const std::int64_t in_types = static_cast<std::int64_t>(wt.size());
  const std::int64_t kk = din * g.k * g.k;  // fan-in of ONE type's vote conv
  const std::int64_t jd = out_types * dout;
  const std::int64_t jd_all = jd * in_types;
  const std::int64_t plane = g.plane();
  QActivation votes({g.b * plane, out_types, in_types, dout}, out_fmt);
  if (votes.numel() == 0) return votes;
  std::vector<DirectGemm<T>> gemms;
  gemms.reserve(wt.size());
  for (const T* w : wt)
    gemms.push_back(
        direct_gemm<T>(w, jd, kk, QTensor(), x.fmt(), w_fmt, out_fmt, false));
  const std::vector<std::int64_t> tap = tap_offsets(g, din);
  direct_conv<T>(
      x, g, g.b * plane * in_types * jd * kk,
      [&](const T* data, const std::int64_t* col, std::int64_t b0,
          std::int64_t j0, std::int64_t j1) {
        for (std::int64_t t = 0; t < in_types; ++t)
          gemms[static_cast<std::size_t>(t)].run_tiles(
              {data + t * din * g.hp() * g.wp(), tap.data(), col}, j0, j1,
              [&](std::int64_t s0, std::int64_t nr, const auto* tile,
                  std::int64_t ld) {
                votes.visit([&](auto* v) {
                  using O = elem_t<decltype(v)>;
                  O* at = v + (b0 * plane + s0) * jd_all + t * dout;
                  for (std::int64_t jj = 0; jj < nr; ++jj) {
                    O* d = at + jj * jd_all;
                    for (std::int64_t j = 0; j < out_types; ++j)
                      for (std::int64_t dd = 0; dd < dout; ++dd)
                        d[j * in_types * dout + dd] =
                            static_cast<O>(tile[(j * dout + dd) * ld + jj]);
                  }
                });
              });
      });
  return votes;
}

}  // namespace

PackedTier packed_tier(fixed::FixedFormat x_fmt, fixed::FixedFormat w_fmt,
                       std::int64_t w_max_abs, std::int64_t k,
                       fixed::FixedFormat out_fmt, const QTensor& bias) {
  const int wl = x_fmt.wordlength();
  if (w_max_abs < 0 || w_max_abs > 32767 || wl > 16) return PackedTier::kNone;
  // The requant onto out_fmt: an int32 output grid, a shift in range.
  const int acc_qf = x_fmt.qf + w_fmt.qf;
  const int shift = acc_qf - out_fmt.qf;
  if (out_fmt.wordlength() > 31 || shift < -30 || shift > 31)
    return PackedTier::kNone;
  // |x| <= 2^(wl-1) has bit width wl: sum_k |x||w| < 2^31.
  const int wb = std::bit_width(static_cast<std::uint64_t>(w_max_abs));
  if (wl + wb + ceil_log2(k) > 30) return PackedTier::kNone;
  if (!bias.raw.empty()) {
    const int bshift = acc_qf - bias.fmt.qf;
    if (bshift < 0 || bshift >= 31 ||
        bias.max_abs_raw() > (INT32_MAX >> bshift))
      return PackedTier::kNone;
  }
  return wl <= 8 && w_max_abs <= 127 ? PackedTier::kInt8 : PackedTier::kInt16;
}

QActivation conv2d(const QActivation& x, const QTensor& w, const QTensor& bias,
                   std::int64_t stride, std::int64_t pad,
                   fixed::FixedFormat out_fmt,
                   const QGemmOperandCache* w_cache, bool fuse_relu) {
  const ConvGeom g = conv_geom(x.shape(), w, stride, pad);
  const std::int64_t f = w.dim(0);
  QCAPS_CHECK_MSG(!w_cache || w_cache->max_abs >= 0,
                  "conv2d weight cache was not built");
  if (g.b == 0) return QActivation({0, f, g.oh, g.ow}, out_fmt);
  const std::int64_t wmax = w_cache ? w_cache->max_abs : w.max_abs_raw();
  const PackedTier tier =
      packed_tier(x.fmt(), w.fmt, wmax, g.fan_in(), out_fmt, bias);
  return on_tier(tier, [&](auto zero) {
    using T = decltype(zero);
    std::vector<T> local;
    const auto gemm =
        direct_gemm<T>(weights_as<T>(w, w_cache, local), f, g.fan_in(), bias,
                       x.fmt(), w.fmt, out_fmt, fuse_relu);
    return conv_direct<T>(x, g, gemm, f, out_fmt,
                          [&](const auto* tile, std::int64_t ld,
                              std::int64_t s0, std::int64_t nr, auto* dst) {
                            store_strip(tile, ld, f, s0, nr, g.plane(), dst);
                          });
  });
}

QActivation conv_caps(const QActivation& x, const QTensor& w,
                      const QTensor& bias, std::int64_t stride,
                      std::int64_t pad, std::int64_t caps_dim,
                      fixed::FixedFormat mid_fmt, fixed::FixedFormat out_fmt,
                      const QGemmOperandCache* w_cache) {
  const ConvGeom g = conv_geom(x.shape(), w, stride, pad);
  const std::int64_t f = w.dim(0);
  QCAPS_CHECK_MSG(caps_dim > 0 && f % caps_dim == 0,
                  "conv_caps: " << f << " channels do not split into "
                                << "capsules of dim " << caps_dim);
  QCAPS_CHECK_MSG(!w_cache || w_cache->max_abs >= 0,
                  "conv_caps weight cache was not built");
  const hwmodel::SquashUnit unit(mid_fmt);
  const CapsStrip cs{f / caps_dim, caps_dim, g.plane(), &unit,
                     squash_scale(unit, mid_fmt, out_fmt),
                     common::isa() >= common::Isa::kAvx512};
  if (g.b == 0) return QActivation({0, f, g.oh, g.ow}, out_fmt);
  const std::int64_t wmax = w_cache ? w_cache->max_abs : w.max_abs_raw();
  const PackedTier tier =
      packed_tier(x.fmt(), w.fmt, wmax, g.fan_in(), mid_fmt, bias);
  return on_tier(tier, [&](auto zero) {
    using T = decltype(zero);
    std::vector<T> local;
    const auto gemm =
        direct_gemm<T>(weights_as<T>(w, w_cache, local), f, g.fan_in(), bias,
                       x.fmt(), w.fmt, mid_fmt, /*relu=*/false);
    return conv_direct<T>(x, g, gemm, f, out_fmt,
                          [&](const auto* tile, std::int64_t ld,
                              std::int64_t s0, std::int64_t nr, auto* dst) {
                            squash_strip(cs, tile, ld, s0, nr, dst);
                          });
  });
}

void relu(QActivation& x) {
  x.visit([&](auto* p) {
    for (std::int64_t i = 0; i < x.numel(); ++i)
      if (p[i] < 0) p[i] = 0;
  });
}

QActivation rescale(const QActivation& x, fixed::FixedFormat out_fmt) {
  QActivation out(x.shape(), out_fmt);
  x.visit([&](const auto* src) {
    out.visit([&](auto* dst) {
      for (std::int64_t i = 0; i < x.numel(); ++i)
        dst[i] = static_cast<elem_t<decltype(dst)>>(
            hwmodel::rescale_raw(src[i], x.fmt().qf, out_fmt));
    });
  });
  return out;
}

QActivation squash_last(const QActivation& s, fixed::FixedFormat out_fmt) {
  QCAPS_CHECK(!s.shape().empty());
  const std::int64_t d = s.dim(-1);
  const std::int64_t rows = s.numel() / d;
  const hwmodel::SquashUnit unit(s.fmt());
  // Raw-seam bulk path: same arithmetic as unit.apply() per row without the
  // per-row FixedNum vector allocations.
  const SquashScale sc = squash_scale(unit, s.fmt(), out_fmt);
  QActivation out(s.shape(), out_fmt);
  // Blocked rows: one norms pass, one batched gain (vector NR over lanes of
  // rows), one scale pass — same bits as the per-row loop in any order.
  constexpr std::int64_t kBlock = 64;
  const std::int64_t nblocks = (rows + kBlock - 1) / kBlock;
  s.visit([&](const auto* in) {
    out.visit([&](auto* y) {
#pragma omp parallel for schedule(static) if (rows > 64)
      for (std::int64_t blk = 0; blk < nblocks; ++blk) {
        const std::int64_t r0 = blk * kBlock;
        const std::int64_t rc = std::min(kBlock, rows - r0);
        std::int64_t nsq[kBlock];
        std::int64_t gain[kBlock];
        for (std::int64_t rr = 0; rr < rc; ++rr) {
          const auto* src = in + (r0 + rr) * d;
          std::int64_t acc = 0;
          for (std::int64_t j = 0; j < d; ++j) {
            const std::int64_t wide = std::int64_t{src[j]} * src[j];
            acc += sc.shift_up >= 0 ? (wide << sc.shift_up)
                                    : (wide >> -sc.shift_up);
          }
          nsq[rr] = acc;
        }
        unit.gain_raw_n(nsq, gain, rc);
        for (std::int64_t rr = 0; rr < rc; ++rr) {
          const auto* src = in + (r0 + rr) * d;
          auto* dst = y + (r0 + rr) * d;
          for (std::int64_t j = 0; j < d; ++j)
            dst[j] = static_cast<elem_t<decltype(y)>>(
                std::clamp((std::int64_t{src[j]} * gain[rr] + sc.half) >>
                               sc.shift,
                           sc.lo, sc.hi));
        }
      }
    });
  });
  return out;
}

namespace {

// The routing of dynamic_routing over votes and outputs in container S (the
// activation format's: votes, couplings and outputs share it), both
// contractions accumulating in Acc. With the j-major layout both walk
// unit-stride slabs, and dynamic_routing picks int32 whenever Σ |c||u|
// (resp. Σ |v||u|) cannot wrap it: the loops then vectorize. Integer
// addition is associative, so every Acc gives the same bits — the requant
// points (rescale into QDR before squash, per Fig. 9) are untouched.
template <typename Acc, typename S>
void route(const S* votes, std::int64_t r_count, std::int64_t nout,
           std::int64_t nin, std::int64_t d, int iterations,
           fixed::FixedFormat act_fmt, fixed::FixedFormat dr_fmt, S* v_out) {
  const hwmodel::SoftmaxUnit softmax(dr_fmt);
  const hwmodel::SquashUnit squash(dr_fmt);
  const int acc_qf = act_fmt.qf + act_fmt.qf;

#pragma omp parallel for schedule(static) if (r_count > 4)
  for (std::int64_t r = 0; r < r_count; ++r) {
    // Per-row state: logits b (dr fmt), couplings c (act fmt). Both are
    // held j-major [Nout, Nin] — the transposed-batch orientation: the
    // softmax normalizes each logical i-row through the strided raw seam,
    // while the weighted sum's coupling reads and the agreement's logit
    // writes (both per-j slabs) become unit-stride.
    std::vector<std::int64_t> b_raw(static_cast<std::size_t>(nout * nin), 0);
    std::vector<std::int64_t> c_raw(static_cast<std::size_t>(nout * nin), 0);
    std::vector<std::int64_t> s_raw(static_cast<std::size_t>(nout * d), 0);
    std::vector<Acc> c(static_cast<std::size_t>(nout * nin), 0);
    std::vector<Acc> v(static_cast<std::size_t>(nout * d), 0);
    std::vector<Acc> acc(static_cast<std::size_t>(d), 0);
    std::vector<std::int64_t> nsq_scratch(static_cast<std::size_t>(nout));
    std::vector<std::int64_t> gain_scratch(static_cast<std::size_t>(nout));
    const S* u = votes + r * nout * nin * d;

    for (int it = 0; it < iterations; ++it) {
      // c_i* = softmax over Nout of b_i* — logits carry the QDR format but
      // the couplings come out at activation precision (Fig. 9: the cheap
      // data is what feeds the unit, not what leaves it). One batched raw
      // pass over all Nin rows: no per-i FixedNum marshaling.
      softmax.apply_rows_t_raw(b_raw.data(), c_raw.data(), nin, nout,
                               act_fmt);
      for (std::size_t t = 0; t < c_raw.size(); ++t)
        c[t] = static_cast<Acc>(c_raw[t]);
      // s_j = Σ_i c_ij û_j|i, accumulated wide, rescaled into dr fmt
      // (precision lowered before the squash, Fig. 9). Per (r, j) slab the
      // votes rows are contiguous in k.
      for (std::int64_t j = 0; j < nout; ++j) {
        const S* uj = u + j * nin * d;
        const Acc* cj = c.data() + j * nin;
        std::fill(acc.begin(), acc.end(), 0);
        for (std::int64_t i = 0; i < nin; ++i) {
          const Acc cij = cj[i];
          const S* uv = uj + i * d;
          for (std::int64_t k = 0; k < d; ++k)
            acc[static_cast<std::size_t>(k)] += cij * static_cast<Acc>(uv[k]);
        }
        for (std::int64_t k = 0; k < d; ++k)
          s_raw[static_cast<std::size_t>(j * d + k)] = hwmodel::rescale_raw(
              acc[static_cast<std::size_t>(k)], acc_qf, dr_fmt);
      }
      // v_j = squash(s_j): QDR input, activation-precision output. Raw bulk
      // seam: norms for all Nout capsules, ONE batched gain call (vector NR
      // over lanes of norms), then the per-element finish — apply()'s
      // arithmetic without the FixedNum marshaling.
      {
        const int shift_up = squash.internal_qf() - 2 * dr_fmt.qf;
        const int prod_qf = dr_fmt.qf + squash.internal_qf();
        for (std::int64_t j = 0; j < nout; ++j) {
          const std::int64_t* sj = s_raw.data() + j * d;
          std::int64_t norm = 0;
          for (std::int64_t k = 0; k < d; ++k) {
            const std::int64_t wide = sj[k] * sj[k];
            norm += shift_up >= 0 ? (wide << shift_up) : (wide >> -shift_up);
          }
          nsq_scratch[static_cast<std::size_t>(j)] = norm;
        }
        squash.gain_raw_n(nsq_scratch.data(), gain_scratch.data(), nout);
        for (std::int64_t j = 0; j < nout; ++j) {
          const std::int64_t g = gain_scratch[static_cast<std::size_t>(j)];
          for (std::int64_t k = 0; k < d; ++k)
            v[static_cast<std::size_t>(j * d + k)] =
                static_cast<Acc>(hwmodel::rescale_raw(
                    s_raw[static_cast<std::size_t>(j * d + k)] * g, prod_qf,
                    act_fmt));
        }
      }
      if (it + 1 == iterations) break;
      // b_ij += a_ij = v_j · û_j|i (wide dot, rescaled into dr fmt); the
      // j-major logits make this a unit-stride walk per j-slab.
      for (std::int64_t j = 0; j < nout; ++j) {
        std::int64_t* bj = b_raw.data() + j * nin;
        const S* uj = u + j * nin * d;
        const Acc* vj = v.data() + j * d;
        for (std::int64_t i = 0; i < nin; ++i) {
          const S* uv = uj + i * d;
          Acc dot = 0;
          for (std::int64_t k = 0; k < d; ++k)
            dot += static_cast<Acc>(uv[k]) * vj[k];
          const std::int64_t a =
              hwmodel::rescale_raw(dot, 2 * act_fmt.qf, dr_fmt);
          bj[i] = hwmodel::saturate_raw(bj[i] + a, dr_fmt);
        }
      }
    }
    std::transform(v.begin(), v.end(), v_out + r * nout * d,
                   [](Acc x) { return static_cast<S>(x); });
  }
}

}  // namespace

QActivation dynamic_routing(const QActivation& votes, int iterations,
                            fixed::FixedFormat act_fmt,
                            fixed::FixedFormat dr_fmt) {
  QCAPS_CHECK_MSG(votes.shape().size() == 4,
                  "votes must be [R, Nout, Nin, D]");
  QCAPS_CHECK(iterations >= 1);
  const std::int64_t r_count = votes.dim(0), nout = votes.dim(1),
                     nin = votes.dim(2), d = votes.dim(3);
  QCAPS_CHECK(votes.fmt() == act_fmt);
  QActivation v_out({r_count, nout, d}, act_fmt);
  if (v_out.numel() == 0) return v_out;
  // Votes, couplings and squashed outputs all carry the activation format,
  // whose rails bound every raw magnitude by 2^(wl-1) (bit width wl), so
  // the format decides whether both contractions fit int32.
  const bool i32 =
      2 * act_fmt.wordlength() +
          ceil_log2(std::max<std::int64_t>(std::max(nin, d), 1)) <=
      30;
  // Votes and outputs share act_fmt, hence one container type.
  visit_pair(v_out, votes, [&](auto* v, const auto* u) {
    if (i32)
      route<std::int32_t>(u, r_count, nout, nin, d, iterations, act_fmt,
                          dr_fmt, v);
    else
      route<std::int64_t>(u, r_count, nout, nin, d, iterations, act_fmt,
                          dr_fmt, v);
  });
  return v_out;
}

QGemmOperandCache make_operand_cache(const QTensor& t) {
  QGemmOperandCache cache;
  cache.max_abs = t.max_abs_raw();
  if (cache.max_abs <= 127) cache.i8 = t.packed_i8();
  if (cache.max_abs <= 32767) cache.i16 = t.packed_i16();
  return cache;
}

QGemmOperandCache make_grouped_cache(
    const std::vector<QTensor>& weights,
    const std::vector<QGemmOperandCache>& caches) {
  QCAPS_CHECK_MSG(weights.size() == caches.size(),
                  "one packed cache per type weight");
  QGemmOperandCache grouped;
  grouped.max_abs = 0;
  for (const QGemmOperandCache& c : caches) {
    QCAPS_CHECK_MSG(c.max_abs >= 0, "type weight cache was not built");
    grouped.max_abs = std::max(grouped.max_abs, c.max_abs);
  }
  // No type's range exceeds the grouped one, so each type's cache holds
  // every container the grouped range admits.
  const auto append = [](auto& dst, const auto* src, const QTensor& w) {
    dst.insert(dst.end(), src, src + tensor::shape_numel(w.shape));
  };
  for (std::size_t t = 0; t < weights.size(); ++t) {
    if (grouped.max_abs <= 127)
      append(grouped.i8, cached_data<std::int8_t>(caches[t]), weights[t]);
    if (grouped.max_abs <= 32767)
      append(grouped.i16, cached_data<std::int16_t>(caches[t]), weights[t]);
  }
  return grouped;
}

QActivation vote_transform(const QActivation& u, const QTensor& w,
                           fixed::FixedFormat out_fmt,
                           const QGemmOperandCache* w_cache) {
  QCAPS_CHECK_MSG(u.shape().size() == 3 && w.shape.size() == 4,
                  "vote_transform expects u [B,Nin,Din], w [Nin,Nout,Dout,Din]");
  const std::int64_t b = u.dim(0), nin = u.dim(1), din = u.dim(2);
  const std::int64_t nout = w.dim(1), dout = w.dim(2);
  QCAPS_CHECK(w.dim(0) == nin && w.dim(3) == din);
  QCAPS_CHECK_MSG(!w_cache || w_cache->max_abs >= 0,
                  "vote_transform weight cache was not built");
  const std::int64_t jd = nout * dout;
  const std::int64_t wmax = w_cache ? w_cache->max_abs : w.max_abs_raw();
  const PackedTier tier = din > 0
                              ? packed_tier(u.fmt(), w.fmt, wmax, din, out_fmt)
                              : PackedTier::kNone;
  if (tier == PackedTier::kNone) {
    // The exact tier: the ConvCaps3d vote convolutions over 1x1 images,
    // input type i reading row u[b, i, :] against w[i] as [Nout*Dout, Din].
    const ConvGeom g{b, nin * din, 1, 1, 1, 1, 0, 1, 1};
    std::vector<std::int64_t> unused;
    const std::int64_t* w64 = weights_as(w, nullptr, unused);
    std::vector<const std::int64_t*> wt(static_cast<std::size_t>(nin));
    for (std::int64_t i = 0; i < nin; ++i)
      wt[static_cast<std::size_t>(i)] = w64 + i * jd * din;
    return votes_direct(u, wt, g, w.fmt, din, nout, dout, out_fmt);
  }
  QActivation votes({b, nout, nin, dout}, out_fmt);
  if (votes.numel() == 0) return votes;
  const tensor::QGemmRequant rq = make_requant(u.fmt().qf + w.fmt.qf, out_fmt);
  votes.visit([&](auto* v) {
    if (tier == PackedTier::kInt8)
      run_qgemm_votes<std::int8_t>(u, w, w_cache, b, nin, din, nout, dout, rq,
                                   v);
    else
      run_qgemm_votes<std::int16_t>(u, w, w_cache, b, nin, din, nout, dout,
                                    rq, v);
  });
  return votes;
}

QActivation conv_caps3d_votes(const QActivation& x,
                              const std::vector<QTensor>& type_weights,
                              const QGemmOperandCache& grouped,
                              std::int64_t out_dim, std::int64_t stride,
                              std::int64_t pad, fixed::FixedFormat out_fmt) {
  QCAPS_CHECK_MSG(!type_weights.empty(), "conv_caps3d_votes needs weights");
  const QTensor& w0 = type_weights.front();
  const std::int64_t in_types = static_cast<std::int64_t>(type_weights.size());
  const ConvGeom g = conv_geom(x.shape(), w0, stride, pad, in_types);
  for (const QTensor& w : type_weights)
    QCAPS_CHECK_MSG(w.shape == w0.shape && w.fmt == w0.fmt,
                    "conv_caps3d_votes: type weights differ in shape or "
                    "format");
  QCAPS_CHECK_MSG(out_dim > 0 && w0.dim(0) % out_dim == 0,
                  "conv_caps3d_votes: " << w0.dim(0) << " rows do not split "
                                        << "into capsules of dim " << out_dim);
  const std::int64_t din = w0.dim(1), kk = din * g.k * g.k;
  const PackedTier tier =
      packed_tier(x.fmt(), w0.fmt, grouped.max_abs, kk, out_fmt);
  return on_tier(tier, [&](auto zero) {
    using T = decltype(zero);
    std::vector<const T*> wt;
    for (std::int64_t t = 0; t < in_types; ++t) {
      if constexpr (std::is_same_v<T, std::int64_t>) {
        std::vector<T> unused;
        wt.push_back(weights_as<T>(
            type_weights[static_cast<std::size_t>(t)], nullptr, unused));
      } else {
        wt.push_back(cached_data<T>(grouped) + t * w0.dim(0) * kk);
      }
    }
    return votes_direct<T>(x, wt, g, w0.fmt, din, w0.dim(0) / out_dim,
                           out_dim, out_fmt);
  });
}

tensor::Tensor lengths(const QTensor& caps) {
  QCAPS_CHECK(caps.shape.size() == 3);
  const std::int64_t b = caps.dim(0), n = caps.dim(1), d = caps.dim(2);
  // Accumulate the sum of squares exactly in raw integer space; only the
  // final square root is floating point. (The previous float32 accumulator
  // over dequantized values silently lost low-order contributions once the
  // running sum passed 2^24 ULPs — locked by QEngineLengths tests.)
  const std::int64_t maxabs = caps.max_abs_raw();
  const int vb = std::bit_width(static_cast<std::uint64_t>(maxabs));
  QCAPS_CHECK_MSG(2 * vb + ceil_log2(std::max<std::int64_t>(d, 1)) <= 62,
                  "lengths accumulator would overflow for these values");
  tensor::Tensor out({b, n});
  for (std::int64_t i = 0; i < b * n; ++i) {
    std::int64_t acc = 0;
    for (std::int64_t k = 0; k < d; ++k) {
      const std::int64_t v = caps.raw[static_cast<std::size_t>(i * d + k)];
      acc += v * v;
    }
    out[i] = static_cast<float>(
        std::ldexp(std::sqrt(static_cast<double>(acc)), -caps.fmt.qf));
  }
  return out;
}

}  // namespace qcaps::qengine
