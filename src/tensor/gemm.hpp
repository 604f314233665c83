// Blocked, packed, register-tiled float32 GEMM backend.
//
// All dense matrix products in the framework (matmul variants, im2col
// convolution, capsule vote transforms) route through this file. The kernel
// follows the classic GotoBLAS/BLIS decomposition:
//
//   - loop over N in blocks of kGemmNC, K in blocks of kGemmKC, M in blocks
//     of kGemmMC so every operand block lives in a known cache level;
//   - pack the current A block into row panels of kGemmMR and the current B
//     block into column panels of kGemmNR so the innermost loops read
//     contiguous memory regardless of transposition or leading dimension;
//   - compute each kGemmMR x kGemmNR output tile with a register-resident
//     microkernel picked by the common::isa() dispatch level
//     (common/cpu_dispatch.hpp, which also documents QCAPS_ISA and
//     -DQCAPS_NATIVE=OFF): an AVX-512F kernel at the avx512 and vnni levels
//     (the 16-wide tile row is one zmm vector, halving the FMA count per
//     k-step), an AVX2+FMA kernel at avx2, and a portable auto-vectorizable
//     scalar kernel at scalar. The AVX-512 and AVX2 kernels are
//     bit-identical (each output lane runs the same FMA sequence); the
//     scalar kernel does not fuse the multiply-add, so its rounding differs.
//
// Matrices are row-major. `lda/ldb/ldc` are leading dimensions (row strides)
// of the *stored* matrices, which lets callers run GEMM on strided
// sub-matrices without copying. Results are identical for any thread count:
// every output element accumulates in the same order regardless of how the
// M/N loops are split across OpenMP threads.
#pragma once

#include <cstdint>
#include <functional>

namespace qcaps::tensor {

/// Operand transposition: kN uses the matrix as stored, kT uses its transpose.
enum class Trans { kN, kT };

// Register tile of the microkernel. Exposed because fused producers (the
// im2col pack in conv.cpp) write the packed-B panel layout directly.
inline constexpr std::int64_t kGemmMR = 6;
inline constexpr std::int64_t kGemmNR = 16;

/// C[m,n] (+)= op(A)[m,k] * op(B)[k,n].
///
/// op(A) is A when ta == kN (stored [m,k], leading dim lda) and A^T when
/// ta == kT (stored [k,m], leading dim lda); likewise for B. accumulate=false
/// overwrites C, accumulate=true adds into it.
void gemm_ex(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
             const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
             float* c, std::int64_t ldc, bool accumulate);

/// Strided batch of GEMMs: for i in [0, batch):
///   C_i (+)= op(A_i) * op(B_i)
/// with A_i = a + i*stride_a etc. Strides are in elements and may interleave
/// (stride smaller than the matrix extent), which is how the capsule layers
/// express per-input-type vote products over [B, Nin, ...] tensors.
void gemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, std::int64_t lda,
                std::int64_t stride_a, const float* b, std::int64_t ldb,
                std::int64_t stride_b, float* c, std::int64_t ldc,
                std::int64_t stride_c, std::int64_t batch, bool accumulate);

/// Fills `packed` with the panel layout of the B block
/// [k0, k0+kc) x [n0, n0+nc): ceil(nc/kGemmNR) column strips, strip s holding
/// kc*kGemmNR floats with element (p, j) at
///   packed[s*(kc*kGemmNR) + p*kGemmNR + (j - s*kGemmNR)],  s = j / kGemmNR.
/// Columns past nc inside the last strip must be written as zeros.
using PackBFn = std::function<void(std::int64_t k0, std::int64_t kc,
                                   std::int64_t n0, std::int64_t nc,
                                   float* packed)>;

/// GEMM with a virtual B operand: C[m,n] (+)= A[m,k] * B[k,n] where B is
/// produced block-by-block by `pack_b` instead of being materialized. This is
/// the fused im2col path: convolution packs patch data straight into B panels
/// and never allocates the [patch, out_pixels] column matrix. A is used as
/// stored (no transposition).
void gemm_pack_b(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                 std::int64_t lda, const PackBFn& pack_b, float* c,
                 std::int64_t ldc, bool accumulate);

/// Consumes one finished microkernel tile of a virtual C: tile element
/// (i, j) with i < mr, j < nr and row stride kGemmNR holds a product term of
/// C[m0 + i, n0 + j]. When k exceeds the GEMM's K cache block the same
/// coordinates are handed PARTIAL sums more than once, so sinks must
/// accumulate (+=) into zero-initialized storage.
using ScatterCFn = std::function<void(std::int64_t m0, std::int64_t mr,
                                      std::int64_t n0, std::int64_t nr,
                                      const float* tile)>;

/// GEMM with a virtual C operand: computes op(A)[m,k] * op(B)[k,n] and hands
/// every microkernel tile to `scatter` instead of storing a C matrix. This is
/// the fused col2im path: conv backward scatters the input-gradient columns
/// straight into the gradient image and never allocates the
/// [patch, out_pixels] matrix. Runs single-threaded within the call — sinks
/// like col2im write overlapping locations, so callers parallelize across
/// independent invocations (e.g. per image) instead.
void gemm_scatter_c(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                    std::int64_t k, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, const ScatterCFn& scatter);

/// Name of the microkernel the active dispatch level runs ("scalar",
/// "avx2", "avx512").
const char* gemm_kernel_name();

}  // namespace qcaps::tensor
