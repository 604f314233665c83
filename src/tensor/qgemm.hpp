// Blocked, packed, register-tiled integer GEMM backend for the quantized
// engine: int8 (or int16) operands, exact int32 accumulation, and an optional
// fused requantization stage.
//
// The kernel reuses the GotoBLAS/BLIS decomposition of the float backend in
// gemm.{hpp,cpp}: N is walked in blocks of NC, K in blocks of KC, M in blocks
// of MC; the current A block is packed into kQGemmMR-row panels and the
// current B block into kQGemmNR-column panels; each MR x NR output tile is
// produced by a register-resident microkernel. On the vpmaddwd tiers both
// operands are widened to int16 inside the packed panels with K laid out in
// interleaved pairs, so the microkernel is a chain of pairwise multiply-add
// instructions (vpmaddwd — the signed sibling of the maddubs path, exact for
// the full int8 range including -128) into int32 accumulators:
//
//   - AVX-512 VNNI tier: int8 operands stay narrow — row-contiguous int8 A
//     panels and quad-interleaved (k x 4) B panels consumed by vpdpbusd, four
//     MACs per int32 lane per instruction; int16 operands fuse the
//     madd+add pair into vpdpwssd;
//   - AVX-512BW tier: one zmm per tile row, 16 int32 lanes per vpmaddwd;
//   - AVX2 tier: two ymm per tile row;
//   - portable scalar fallback everywhere else.
//
// Each tier runs at the common::isa() dispatch level of the same name
// (common/cpu_dispatch.hpp, which also documents QCAPS_ISA and
// -DQCAPS_NATIVE=OFF): the VNNI tier at vnni, the vpmaddwd AVX-512BW tier
// at avx512, the AVX2 tier at avx2 and the scalar kernel at scalar.
//
// Accumulation is exact as long as the int32 accumulator cannot wrap:
// sum_k |a_ik| * |b_kj| must stay below 2^31 for every output element. For
// full-range int8 operands that holds for k <= qgemm_max_k(8, 8) = 131071
// (checked); for the int16 entry points the caller must bound its operands
// (see qgemm_max_k). Because integer addition is associative, results are
// bit-identical for every kernel tier, blocking split, and thread count.
//
// Matrices are row-major with explicit leading dimensions, exactly like the
// float backend.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "tensor/gemm.hpp"  // Trans

namespace qcaps::tensor {

// Register tile of the integer microkernel (same shape as the float tile).
inline constexpr std::int64_t kQGemmMR = 6;
inline constexpr std::int64_t kQGemmNR = 16;

/// The multiplier value that makes the requantization scale an exact power
/// of two: with multiplier == kQGemmUnitMultiplier the rescale is
/// out = round_half_up(acc / 2^shift), bit-identical to
/// hwmodel::rescale_raw(acc, from_qf, out_fmt, kRoundToNearest) with
/// shift = from_qf - out_fmt.qf.
inline constexpr std::int32_t kQGemmUnitMultiplier = std::int32_t{1} << 30;

/// Requantization of raw int32 accumulators onto a narrower integer grid.
///
/// Effective operand values are (stored - zero_point): a_zero/b_zero are
/// subtracted via rowsum/colsum compensation outside the kernel, so the
/// packed panels always hold the stored bytes. Per output element:
///
///   acc' = acc + comp(a_zero, b_zero) + bias[i]
///   out  = clamp(round_half_up(acc' * M_i / 2^(30 + s_i)) + c_zero,
///                qmin, qmax)
///
/// where M_i/s_i are `multiplier`/`shift`, or the per-row overrides when
/// `row_multipliers`/`row_shifts` are set (per-channel weight scales).
/// round_half_up is floor(x + 1/2) — the same convention as
/// fixed::RoundingScheme::kRoundToNearest and hwmodel::rescale_raw, so for
/// power-of-two scales the whole path is bit-identical to the fixed-point
/// rescale applied to the exact int32 product.
struct QGemmRequant {
  std::int32_t multiplier = kQGemmUnitMultiplier;  ///< positive, Q2.30 scale
  int shift = 0;              ///< extra right shift; negative shifts left
  std::int32_t c_zero = 0;    ///< output zero point, added after scaling
  std::int32_t a_zero = 0;    ///< input zero points: value = stored - zero
  std::int32_t b_zero = 0;
  std::int32_t qmin = INT32_MIN;  ///< saturation bounds of the output grid
  std::int32_t qmax = INT32_MAX;
  const std::int32_t* row_multipliers = nullptr;  ///< optional, length m
  const int* row_shifts = nullptr;                ///< optional, length m
  const std::int32_t* bias = nullptr;  ///< optional per-row int32 bias at
                                       ///< accumulator scale, length m
};

/// Requantize a single raw accumulator with `rq` (using the per-tensor
/// multiplier/shift) — the exact scalar applied to every output element.
/// Zero-point compensation and bias are not included; pass them in `acc`.
std::int32_t qgemm_requantize(std::int64_t acc, const QGemmRequant& rq);

/// Largest K for which exact int32 accumulation of products of operands with
/// the given significant bit widths (including sign) cannot wrap.
std::int64_t qgemm_max_k(int bits_a, int bits_b);

/// C[m,n] (+)= op(A)[m,k] * op(B)[k,n], raw int32 accumulation, no requant.
/// accumulate=false overwrites C, accumulate=true adds into it.
void qgemm_i32(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::int8_t* a, std::int64_t lda,
               const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
               std::int64_t ldc, bool accumulate);
void qgemm_i32(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::int16_t* a, std::int64_t lda,
               const std::int16_t* b, std::int64_t ldb, std::int32_t* c,
               std::int64_t ldc, bool accumulate);

/// C[m,n] = requant(op(A)[m,k] * op(B)[k,n]) per `rq`.
void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq);
void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int16_t* a, std::int64_t lda, const std::int16_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq);

/// Strided batch of requantizing GEMMs: for i in [0, batch):
///   C_i = requant(op(A_i) * op(B_i))
/// with A_i = a + i*stride_a etc. Strides are in elements and may interleave,
/// matching gemm_batch (the capsule vote-product layout).
void qgemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, const std::int8_t* a, std::int64_t lda,
                 std::int64_t stride_a, const std::int8_t* b, std::int64_t ldb,
                 std::int64_t stride_b, std::int32_t* c, std::int64_t ldc,
                 std::int64_t stride_c, std::int64_t batch,
                 const QGemmRequant& rq);
void qgemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, const std::int16_t* a, std::int64_t lda,
                 std::int64_t stride_a, const std::int16_t* b,
                 std::int64_t ldb, std::int64_t stride_b, std::int32_t* c,
                 std::int64_t ldc, std::int64_t stride_c, std::int64_t batch,
                 const QGemmRequant& rq);

/// Affine scatter destination for the fused requantize+scatter epilogue
/// (qgemm_scatter / qgemm_batch_scatter): output element (i, j) of the
/// logical m x n result is requantized and stored, in the destination's
/// container Out (int8, int16 or int64), at
///
///   dst[(i / row_inner) * row_outer_stride
///       + (i % row_inner) * row_inner_stride
///       + (j / col_inner) * col_outer_stride
///       + (j % col_inner) * col_inner_stride]
///
/// Splitting each output axis into two strided sub-axes expresses the
/// capsule permutations (the j-major [R, Nout, Nin, D] votes layout) without
/// a separate copy pass over a dense result. The requant's [qmin, qmax] must
/// fit Out; the store is then exact.
template <typename Out>
struct QGemmScatterDst {
  Out* dst = nullptr;
  std::int64_t row_inner = 1;  ///< i splits as (i / row_inner, i % row_inner)
  std::int64_t row_outer_stride = 0;
  std::int64_t row_inner_stride = 0;
  std::int64_t col_inner = 1;  ///< j splits as (j / col_inner, j % col_inner)
  std::int64_t col_outer_stride = 0;
  std::int64_t col_inner_stride = 0;
  std::int64_t batch_stride = 0;  ///< dst advance per qgemm_batch_scatter item
};

/// Scattered variant of qgemm: requant(op(A)[m,k] * op(B)[k,n]) per `rq`,
/// each element written straight to `sd` (see QGemmScatterDst) instead of a
/// dense int32 C. Bit-identical to qgemm followed by a scatter. T is int8_t
/// or int16_t; Out is int8_t, int16_t or int64_t.
template <typename T, typename Out>
void qgemm_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                   std::int64_t k, const T* a, std::int64_t lda, const T* b,
                   std::int64_t ldb, const QGemmRequant& rq,
                   const QGemmScatterDst<Out>& sd);

/// Strided batch of scattered requantizing GEMMs: item i reads
/// a + i*stride_a / b + i*stride_b and writes to sd.dst + i*sd.batch_stride.
template <typename T, typename Out>
void qgemm_batch_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                         std::int64_t k, const T* a, std::int64_t lda,
                         std::int64_t stride_a, const T* b, std::int64_t ldb,
                         std::int64_t stride_b, std::int64_t batch,
                         const QGemmRequant& rq,
                         const QGemmScatterDst<Out>& sd);

/// Name of the microkernel the active dispatch level runs ("scalar",
/// "avx2", "avx512", "avx512vnni").
const char* qgemm_kernel_name();

/// Gathered B operand of a direct (implicit-GEMM) convolution: element
/// (p, j) of the logical k x n B is data[tap[p] + col[j]]. The caller copies
/// its input once into a zero-padded buffer and describes the im2col matrix by
/// one offset per K row (channel, kernel row, kernel column) and one per
/// output column (image, output pixel), so the packers build their panels
/// straight from the copy and no column matrix is ever materialized.
template <typename T>
struct QGemmGatherB {
  const T* data = nullptr;
  const std::int64_t* tap = nullptr;  ///< length k
  const std::int64_t* col = nullptr;  ///< indexed by the global column j
};

/// Consumer of QGemmDirect::run_tiles: one requantized strip of output
/// columns [j0, j0 + nr). Element (i, j0 + jj) of the logical m x n result,
/// i < m and jj < nr, is tile[i * ld + jj], already on [qmin, qmax]. The
/// tile is per-thread scratch, valid only during the call.
using QGemmTileFn = std::function<void(std::int64_t j0, std::int64_t nr,
                                       const std::int32_t* tile,
                                       std::int64_t ld)>;

/// The direct-convolution entry: requant(A[m,k] * B) per `rq` with a
/// gathered B (QGemmGatherB). A (the weights, row-major with leading
/// dimension k) is packed into the active level's panels once at
/// construction, and the per-row requant base (bias, plus on the VNNI int8
/// tier the -128 * rowsum(A) term that undoes its +128 B offset) is folded
/// then too. run_tiles() walks the output columns in strips, requantizes
/// each finished strip in place and hands it to a consumer, which stores it
/// into its own layout and container (the convolutions write their planes,
/// the capsule convolution squashes there). It computes a column range on
/// the calling thread with no OpenMP region of its own, so callers split
/// images or columns across their own team. Zero points must be 0; the
/// exactness contract is qgemm's (sum_k |a||b| < 2^31). `rq`'s per-row
/// arrays, if any, must outlive the object. Bit-identical to qgemm on the
/// materialized im2col matrix, on every tier.
template <typename T>
class QGemmDirect {
 public:
  QGemmDirect(const T* a, std::int64_t m, std::int64_t k,
              const QGemmRequant& rq);
  /// Output columns [j0, j1), one requantized strip of at most 32 columns
  /// per `consume` call, in column order.
  void run_tiles(const QGemmGatherB<T>& b, std::int64_t j0, std::int64_t j1,
                 const QGemmTileFn& consume) const;

 private:
  std::int64_t m_, k_;
  common::Isa isa_;   // the dispatch level the panels were packed for
  bool vnni8_;        // narrow quad panels (VNNI tier, int8 operands)
  QGemmRequant rq_;
  std::vector<std::int8_t> a8_;    // VNNI quad panels
  std::vector<std::int16_t> a16_;  // pair panels of the other tiers
  std::vector<std::int64_t> base_;  // per-row requant base (empty: none)
};

}  // namespace qcaps::tensor
