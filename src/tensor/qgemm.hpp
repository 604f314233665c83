// Blocked, packed, register-tiled integer GEMM backend for the quantized
// engine: int8 (or int16) operands, exact int32 accumulation, and a fused
// fixed-point requantization stage (QGemmRequant).
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

/// Requantization of raw int32 accumulators onto a narrower fixed-point
/// grid: the rounded power-of-two shift plus saturation of the paper's
/// datapath. Per output element of row i:
///
///   out = clamp(round_half_up((acc + bias[i]) / 2^shift), qmin, qmax)
///
/// where a negative shift is an exact left shift. round_half_up is
/// floor(x + 1/2), the convention of fixed::RoundingScheme::kRoundToNearest,
/// so with shift = from_qf - out_fmt.qf and out_fmt's rails the whole path is
/// bit-identical to hwmodel::rescale_raw(acc, from_qf, out_fmt,
/// kRoundToNearest) applied to the exact int32 product.
struct QGemmRequant {
  int shift = 0;                  ///< right shift in [-30, 31]
  std::int32_t qmin = INT32_MIN;  ///< saturation bounds of the output grid
  std::int32_t qmax = INT32_MAX;
  const std::int32_t* bias = nullptr;  ///< optional per-row int32 bias at
                                       ///< accumulator scale, length m
};

/// Requantize a single raw accumulator with `rq`'s shift and bounds — the
/// exact scalar applied to every output element. Bias is not included; pass
/// it in `acc`.
std::int32_t qgemm_requantize(std::int64_t acc, const QGemmRequant& rq);

/// Largest K for which exact int32 accumulation of products of operands with
/// the given significant bit widths (including sign) cannot wrap.
std::int64_t qgemm_max_k(int bits_a, int bits_b);

/// C[m,n] = requant(op(A)[m,k] * op(B)[k,n]) per `rq`. shift = 0 with the
/// default bounds returns the raw int32 accumulators.
void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq);
void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int16_t* a, std::int64_t lda, const std::int16_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq);

/// Affine scatter destination of qgemm_batch_scatter: element (i, j) of the
/// logical m x n result of batch item b is requantized and stored, in the
/// destination's container Out (int8, int16 or int64), at
///
///   dst[b * batch_stride + i * row_stride
///       + (j / col_inner) * col_outer_stride
///       + (j % col_inner) * col_inner_stride]
///
/// Splitting the column axis into two strided sub-axes expresses the capsule
/// vote permutation (the j-major [R, Nout, Nin, D] layout) without a
/// separate copy pass over a dense result. The requant's [qmin, qmax] must
/// fit Out; the store is then exact.
template <typename Out>
struct QGemmScatterDst {
  Out* dst = nullptr;
  std::int64_t row_stride = 0;
  std::int64_t col_inner = 1;  ///< j splits as (j / col_inner, j % col_inner)
  std::int64_t col_outer_stride = 0;
  std::int64_t col_inner_stride = 0;
  std::int64_t batch_stride = 0;  ///< dst advance per batch item
};

/// Strided batch of scattered requantizing GEMMs: item i computes
/// requant(op(A_i) * op(B_i)) per `rq` with A_i = a + i*stride_a and
/// B_i = b + i*stride_b (strides in elements; they may interleave, the
/// capsule vote-product layout) and stores it through `sd` (see
/// QGemmScatterDst). Bit-identical to qgemm followed by a scatter. T is
/// int8_t or int16_t; Out is int8_t, int16_t or int64_t.
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
/// images or columns across their own team. The exactness contract is
/// qgemm's (sum_k |a||b| < 2^31). Bit-identical to qgemm on the materialized
/// im2col matrix, on every tier.
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
  std::vector<std::int64_t> base_;  // per-row requant base
};

}  // namespace qcaps::tensor
