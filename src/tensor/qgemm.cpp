#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef QCAPS_X86_NATIVE
#include <immintrin.h>
#endif

namespace qcaps::tensor {
namespace {

constexpr std::int64_t MR = kQGemmMR;
constexpr std::int64_t NR = kQGemmNR;
// Cache blocking, same geometry as the float backend; panels hold int16, so
// the packed A block (MC x KC) is 48 KB -> L2, each packed B strip (KC x NR)
// is 8 KB -> L1, the packed B block (KC x NC) is 512 KB -> L3.
constexpr std::int64_t MC = 96;
constexpr std::int64_t KC = 256;  // even: K is packed in interleaved pairs
constexpr std::int64_t NC = 1024;
constexpr std::int64_t kParallelMinWork = std::int64_t{1} << 16;
// Column-strip width of the VNNI int8 microkernel (two zmm per tile row).
constexpr std::int64_t VNR = 32;
static_assert(NC % VNR == 0, "B scratch sizing assumes NC is a strip multiple");

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Per-thread packing buffers, reused across calls. The a8/b8 pair holds the
// narrow panels of the VNNI tier and is only allocated when that tier runs.
struct Scratch {
  std::vector<std::int16_t> a;
  std::vector<std::int16_t> b;
  std::vector<std::int8_t> a8;
  std::vector<std::uint8_t> b8;
};

Scratch& scratch() {
  thread_local Scratch s;
  if (s.a.empty()) {
    s.a.resize(static_cast<std::size_t>(MC * KC));
    s.b.resize(static_cast<std::size_t>(KC * NC));
  }
  return s;
}

#ifdef QCAPS_X86_NATIVE
Scratch& scratch_vnni() {
  Scratch& s = scratch();
  if (s.a8.empty()) {
    s.a8.resize(static_cast<std::size_t>(MC * KC));
    s.b8.resize(static_cast<std::size_t>(KC * NC));
  }
  return s;
}
#endif

// ---- packing ---------------------------------------------------------------
//
// Panels widen the operands to int16. With kc2 = ceil(kc/2) and
// kcp = kc2 * 2 (K padded to even):
//   A panel (per MR-row block): row-contiguous — (i, p) at out[i*kcp + p],
//     so the no-transpose pack is a straight widening copy and the kernel
//     broadcasts the (2p, 2p+1) pair with one 32-bit memory operand per row.
//   B panel (per NR-col strip): pair-interleaved — (2*p2+q, j) at
//     out[p2*NR*2 + j*2 + q], the operand shape vpmaddwd consumes.
// Rows/columns past the edge and the odd-K tail are zero.

template <typename SrcT>
void pack_a_block(Trans ta, const SrcT* a, std::int64_t lda, std::int64_t i0,
                  std::int64_t mc, std::int64_t p0, std::int64_t kc,
                  std::int16_t* out) {
  const std::int64_t kcp = 2 * ceil_div(kc, 2);
  for (std::int64_t ib = 0; ib < mc; ib += MR) {
    const std::int64_t mr = std::min(MR, mc - ib);
    for (std::int64_t i = 0; i < MR; ++i) {
      std::int16_t* dst = out + i * kcp;
      if (i < mr) {
        if (ta == Trans::kN) {
          const SrcT* src = a + (i0 + ib + i) * lda + p0;
          for (std::int64_t p = 0; p < kc; ++p)
            dst[p] = static_cast<std::int16_t>(src[p]);
        } else {
          const SrcT* src = a + p0 * lda + i0 + ib + i;
          for (std::int64_t p = 0; p < kc; ++p)
            dst[p] = static_cast<std::int16_t>(src[p * lda]);
        }
        if (kc < kcp) dst[kc] = 0;
      } else {
        // Zero rows past the edge so edge tiles can run the full kernel.
        std::fill(dst, dst + kcp, std::int16_t{0});
      }
    }
    out += MR * kcp;
  }
}

template <typename SrcT>
void pack_b_block(Trans tb, const SrcT* b, std::int64_t ldb, std::int64_t p0,
                  std::int64_t kc, std::int64_t j0, std::int64_t nc,
                  std::int16_t* out) {
  const std::int64_t kc2 = ceil_div(kc, 2);
  const std::int64_t k2full = kc / 2;
  for (std::int64_t jb = 0; jb < nc; jb += NR) {
    const std::int64_t nr = std::min(NR, nc - jb);
    if (tb == Trans::kN) {
      for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
        const SrcT* lo = b + (p0 + 2 * p2) * ldb + j0 + jb;
        const SrcT* hi = lo + ldb;
        const bool has_hi = p2 < k2full;
        std::int16_t* dst = out + p2 * NR * 2;
        if (has_hi) {
          for (std::int64_t j = 0; j < nr; ++j) {
            dst[j * 2] = static_cast<std::int16_t>(lo[j]);
            dst[j * 2 + 1] = static_cast<std::int16_t>(hi[j]);
          }
        } else {
          for (std::int64_t j = 0; j < nr; ++j) {
            dst[j * 2] = static_cast<std::int16_t>(lo[j]);
            dst[j * 2 + 1] = 0;
          }
        }
        for (std::int64_t j = nr; j < NR; ++j) {
          dst[j * 2] = 0;
          dst[j * 2 + 1] = 0;
        }
      }
    } else {
      for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
        const SrcT* src = b + (j0 + jb) * ldb + p0 + 2 * p2;
        const bool has_hi = p2 < k2full;
        std::int16_t* dst = out + p2 * NR * 2;
        for (std::int64_t j = 0; j < nr; ++j) {
          dst[j * 2] = static_cast<std::int16_t>(src[j * ldb]);
          dst[j * 2 + 1] =
              has_hi ? static_cast<std::int16_t>(src[j * ldb + 1])
                     : std::int16_t{0};
        }
        for (std::int64_t j = nr; j < NR; ++j) {
          dst[j * 2] = 0;
          dst[j * 2 + 1] = 0;
        }
      }
    }
    out += kc2 * NR * 2;
  }
}

// ---- microkernels ----------------------------------------------------------
//
// Each computes the MR x NR tile sum over kc2 packed pairs of
// a(i, 2p)*b(2p, j) + a(i, 2p+1)*b(2p+1, j) with int32 accumulators and
// merges the mr x nr valid region straight into C (overwriting or
// accumulating). Exact as long as the caller's no-wrap bound holds (see
// qgemm_max_k).

void merge_tile(const std::int32_t* t, std::int32_t* c, std::int64_t ldc,
                std::int64_t mr, std::int64_t nr, bool accumulate) {
  for (std::int64_t i = 0; i < mr; ++i) {
    std::int32_t* row = c + i * ldc;
    const std::int32_t* src = t + i * NR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) row[j] += src[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) row[j] = src[j];
    }
  }
}

void kernel_scalar_q(std::int64_t kc2, const std::int16_t* ap,
                     const std::int16_t* bp, std::int32_t* c,
                     std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                     bool accumulate) {
  // Accumulate in int64 to keep the fallback free of signed-overflow UB even
  // at the bound; the final value fits int32 under the caller's guarantee.
  const std::int64_t kcp = kc2 * 2;
  std::int64_t t[MR * NR] = {};
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const std::int16_t* b = bp + p2 * NR * 2;
    for (std::int64_t i = 0; i < MR; ++i) {
      const std::int32_t a0 = ap[i * kcp + 2 * p2];
      const std::int32_t a1 = ap[i * kcp + 2 * p2 + 1];
      for (std::int64_t j = 0; j < NR; ++j)
        t[i * NR + j] += a0 * b[j * 2] + a1 * b[j * 2 + 1];
    }
  }
  std::int32_t t32[MR * NR];
  for (std::int64_t i = 0; i < MR * NR; ++i)
    t32[i] = static_cast<std::int32_t>(t[i]);
  merge_tile(t32, c, ldc, mr, nr, accumulate);
}

#ifdef QCAPS_X86_NATIVE

// Broadcast one packed (a_2p, a_2p+1) int16 pair into every 32-bit lane.
inline std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("avx2"))) void kernel_avx2_q(
    std::int64_t kc2, const std::int16_t* ap, const std::int16_t* bp,
    std::int32_t* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  // 6x16 int32 tile as 6 rows x 2 ymm accumulators; per packed K pair each
  // row costs one broadcast + two vpmaddwd + two vpaddd.
  const std::int64_t kcp = kc2 * 2;
  const std::int16_t* a0 = ap;
  const std::int16_t* a1 = ap + kcp;
  const std::int16_t* a2 = ap + 2 * kcp;
  const std::int16_t* a3 = ap + 3 * kcp;
  const std::int16_t* a4 = ap + 4 * kcp;
  const std::int16_t* a5 = ap + 5 * kcp;
  __m256i r0a = _mm256_setzero_si256(), r0b = _mm256_setzero_si256();
  __m256i r1a = _mm256_setzero_si256(), r1b = _mm256_setzero_si256();
  __m256i r2a = _mm256_setzero_si256(), r2b = _mm256_setzero_si256();
  __m256i r3a = _mm256_setzero_si256(), r3b = _mm256_setzero_si256();
  __m256i r4a = _mm256_setzero_si256(), r4b = _mm256_setzero_si256();
  __m256i r5a = _mm256_setzero_si256(), r5b = _mm256_setzero_si256();
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2 + 16));
    __m256i av = _mm256_set1_epi32(load_pair(a0 + 2 * p2));
    r0a = _mm256_add_epi32(r0a, _mm256_madd_epi16(av, b0));
    r0b = _mm256_add_epi32(r0b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a1 + 2 * p2));
    r1a = _mm256_add_epi32(r1a, _mm256_madd_epi16(av, b0));
    r1b = _mm256_add_epi32(r1b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a2 + 2 * p2));
    r2a = _mm256_add_epi32(r2a, _mm256_madd_epi16(av, b0));
    r2b = _mm256_add_epi32(r2b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a3 + 2 * p2));
    r3a = _mm256_add_epi32(r3a, _mm256_madd_epi16(av, b0));
    r3b = _mm256_add_epi32(r3b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a4 + 2 * p2));
    r4a = _mm256_add_epi32(r4a, _mm256_madd_epi16(av, b0));
    r4b = _mm256_add_epi32(r4b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a5 + 2 * p2));
    r5a = _mm256_add_epi32(r5a, _mm256_madd_epi16(av, b0));
    r5b = _mm256_add_epi32(r5b, _mm256_madd_epi16(av, b1));
  }
  if (mr == MR && nr == NR) {
    // Merge straight into C without a bounce buffer.
#define QCAPS_QGEMM_MERGE_ROW(row, lo, hi)                                    \
  do {                                                                        \
    std::int32_t* r_ = (row);                                                 \
    __m256i lo_ = (lo), hi_ = (hi);                                           \
    if (accumulate) {                                                         \
      lo_ = _mm256_add_epi32(                                                 \
          lo_, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r_)));     \
      hi_ = _mm256_add_epi32(                                                 \
          hi_, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r_ + 8))); \
    }                                                                         \
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r_), lo_);                 \
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r_ + 8), hi_);             \
  } while (0)
    QCAPS_QGEMM_MERGE_ROW(c + 0 * ldc, r0a, r0b);
    QCAPS_QGEMM_MERGE_ROW(c + 1 * ldc, r1a, r1b);
    QCAPS_QGEMM_MERGE_ROW(c + 2 * ldc, r2a, r2b);
    QCAPS_QGEMM_MERGE_ROW(c + 3 * ldc, r3a, r3b);
    QCAPS_QGEMM_MERGE_ROW(c + 4 * ldc, r4a, r4b);
    QCAPS_QGEMM_MERGE_ROW(c + 5 * ldc, r5a, r5b);
#undef QCAPS_QGEMM_MERGE_ROW
    return;
  }
  std::int32_t t[MR * NR];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 0 * NR), r0a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 0 * NR + 8), r0b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 1 * NR), r1a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 1 * NR + 8), r1b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 2 * NR), r2a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 2 * NR + 8), r2b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 3 * NR), r3a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 3 * NR + 8), r3b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 4 * NR), r4a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 4 * NR + 8), r4b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 5 * NR), r5a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 5 * NR + 8), r5b);
  merge_tile(t, c, ldc, mr, nr, accumulate);
}

__attribute__((target("avx512f,avx512bw"))) void kernel_avx512_q(
    std::int64_t kc2, const std::int16_t* ap, const std::int16_t* bp,
    std::int32_t* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  // One zmm of 16 int32 lanes per tile row: per packed K pair each row is a
  // single vpmaddwd + vpaddd against one 32-element B load. The merge into C
  // is masked, so edge tiles take the same code path.
  const std::int64_t kcp = kc2 * 2;
  const std::int16_t* a0 = ap;
  const std::int16_t* a1 = ap + kcp;
  const std::int16_t* a2 = ap + 2 * kcp;
  const std::int16_t* a3 = ap + 3 * kcp;
  const std::int16_t* a4 = ap + 4 * kcp;
  const std::int16_t* a5 = ap + 5 * kcp;
  __m512i r0 = _mm512_setzero_si512();
  __m512i r1 = _mm512_setzero_si512();
  __m512i r2 = _mm512_setzero_si512();
  __m512i r3 = _mm512_setzero_si512();
  __m512i r4 = _mm512_setzero_si512();
  __m512i r5 = _mm512_setzero_si512();
  const std::int16_t* bq = bp;
  std::int64_t p2 = 0;
  for (; p2 + 2 <= kc2; p2 += 2) {  // 2x unroll to amortize loop overhead
    const __m512i b0 = _mm512_loadu_si512(bq);
    r0 = _mm512_add_epi32(r0, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a0 + p2 * 2)), b0));
    r1 = _mm512_add_epi32(r1, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a1 + p2 * 2)), b0));
    r2 = _mm512_add_epi32(r2, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a2 + p2 * 2)), b0));
    r3 = _mm512_add_epi32(r3, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a3 + p2 * 2)), b0));
    r4 = _mm512_add_epi32(r4, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a4 + p2 * 2)), b0));
    r5 = _mm512_add_epi32(r5, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a5 + p2 * 2)), b0));
    const __m512i b1 = _mm512_loadu_si512(bq + NR * 2);
    r0 = _mm512_add_epi32(r0, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a0 + p2 * 2 + 2)), b1));
    r1 = _mm512_add_epi32(r1, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a1 + p2 * 2 + 2)), b1));
    r2 = _mm512_add_epi32(r2, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a2 + p2 * 2 + 2)), b1));
    r3 = _mm512_add_epi32(r3, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a3 + p2 * 2 + 2)), b1));
    r4 = _mm512_add_epi32(r4, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a4 + p2 * 2 + 2)), b1));
    r5 = _mm512_add_epi32(r5, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a5 + p2 * 2 + 2)), b1));
    bq += 2 * NR * 2;
  }
  if (p2 < kc2) {
    const __m512i b = _mm512_loadu_si512(bq);
    r0 = _mm512_add_epi32(r0, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a0 + p2 * 2)), b));
    r1 = _mm512_add_epi32(r1, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a1 + p2 * 2)), b));
    r2 = _mm512_add_epi32(r2, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a2 + p2 * 2)), b));
    r3 = _mm512_add_epi32(r3, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a3 + p2 * 2)), b));
    r4 = _mm512_add_epi32(r4, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a4 + p2 * 2)), b));
    r5 = _mm512_add_epi32(r5, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a5 + p2 * 2)), b));
  }
  const __mmask16 mask =
      static_cast<__mmask16>((std::uint32_t{1} << nr) - 1);
#define QCAPS_QGEMM_MERGE_ROW512(i, reg)                                     \
  do {                                                                       \
    if ((i) < mr) {                                                          \
      std::int32_t* row_ = c + (i)*ldc;                                      \
      __m512i v_ = (reg);                                                    \
      if (accumulate)                                                        \
        v_ = _mm512_add_epi32(                                               \
            v_, _mm512_maskz_loadu_epi32(mask, row_));                       \
      _mm512_mask_storeu_epi32(row_, mask, v_);                              \
    }                                                                        \
  } while (0)
  QCAPS_QGEMM_MERGE_ROW512(0, r0);
  QCAPS_QGEMM_MERGE_ROW512(1, r1);
  QCAPS_QGEMM_MERGE_ROW512(2, r2);
  QCAPS_QGEMM_MERGE_ROW512(3, r3);
  QCAPS_QGEMM_MERGE_ROW512(4, r4);
  QCAPS_QGEMM_MERGE_ROW512(5, r5);
#undef QCAPS_QGEMM_MERGE_ROW512
}

// ---- AVX-512 VNNI int8 path ------------------------------------------------
//
// The vpmaddwd tiers widen int8 operands to int16 inside the packed panels;
// VNNI keeps them narrow, doubling the MACs per instruction. With
// kc4 = ceil(kc/4) and kcp4 = kc4 * 4 (K padded to a multiple of 4):
//   A panel (per MR-row block): row-contiguous signed bytes — (i, p) at
//     out[i*kcp4 + p] — so the kernel broadcasts a 4-byte K quad per row
//     with one 32-bit memory operand.
//   B panel (per VNR = 32-col strip): quad-interleaved offset bytes —
//     (4*p4 + q, j) at out[p4*VNR*4 + j*4 + q], stored as uint8(b + 128)
//     because vpdpbusd multiplies an unsigned by a signed operand. One p4
//     step of a strip is exactly two 64-byte zmm loads. The strip is twice
//     as wide as the vpmaddwd tiers' (two zmm per tile row) so each A-quad
//     broadcast feeds 128 MACs instead of 64.
// The kernel therefore accumulates sum_k (b + 128) * a into each lane: the
// exact product plus 128 * rowsum(op(A))[i] — constant per output row — in
// wrapping int32 arithmetic. The driver subtracts that term in uint32
// arithmetic after the last K block; the true value fits int32 under the
// caller's no-wrap bound and 32-bit addition is modular, so the result is
// exact even when intermediate accumulators wrap.

void pack_a_vnni(Trans ta, const std::int8_t* a, std::int64_t lda,
                 std::int64_t i0, std::int64_t mc, std::int64_t p0,
                 std::int64_t kc, std::int8_t* out) {
  const std::int64_t kcp = 4 * ceil_div(kc, 4);
  for (std::int64_t ib = 0; ib < mc; ib += MR) {
    const std::int64_t mr = std::min(MR, mc - ib);
    for (std::int64_t i = 0; i < MR; ++i) {
      std::int8_t* dst = out + i * kcp;
      if (i < mr) {
        if (ta == Trans::kN) {
          std::memcpy(dst, a + (i0 + ib + i) * lda + p0,
                      static_cast<std::size_t>(kc));
        } else {
          const std::int8_t* src = a + p0 * lda + i0 + ib + i;
          for (std::int64_t p = 0; p < kc; ++p) dst[p] = src[p * lda];
        }
        std::fill(dst + kc, dst + kcp, std::int8_t{0});
      } else {
        std::fill(dst, dst + kcp, std::int8_t{0});
      }
    }
    out += MR * kcp;
  }
}

void pack_b_vnni(Trans tb, const std::int8_t* b, std::int64_t ldb,
                 std::int64_t p0, std::int64_t kc, std::int64_t j0,
                 std::int64_t nc, std::uint8_t* out) {
  const std::int64_t kc4 = ceil_div(kc, 4);
  for (std::int64_t jb = 0; jb < nc; jb += VNR) {
    const std::int64_t nr = std::min(VNR, nc - jb);
    for (std::int64_t p4 = 0; p4 < kc4; ++p4) {
      std::uint8_t* dst = out + p4 * VNR * 4;
      const std::int64_t pq = std::min<std::int64_t>(4, kc - 4 * p4);
      for (std::int64_t j = 0; j < nr; ++j) {
        for (std::int64_t q = 0; q < pq; ++q) {
          const std::int64_t p = p0 + 4 * p4 + q;
          const std::int8_t v = tb == Trans::kN ? b[p * ldb + j0 + jb + j]
                                                : b[(j0 + jb + j) * ldb + p];
          // Offset bytes; K-tail and edge-column pads are 0, which
          // contributes nothing against a zero (padded) A quad and is
          // masked out of the merge for edge columns.
          dst[j * 4 + q] = static_cast<std::uint8_t>(static_cast<int>(v) + 128);
        }
        for (std::int64_t q = pq; q < 4; ++q) dst[j * 4 + q] = 0;
      }
      for (std::int64_t j = nr; j < VNR; ++j) std::memset(dst + j * 4, 0, 4);
    }
    out += kc4 * VNR * 4;
  }
}

// Broadcast one packed 4-byte A quad into every 32-bit lane.
inline std::int32_t load_quad(const std::int8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
kernel_avx512vnni_q8(std::int64_t kc4, const std::int8_t* ap,
                     const std::uint8_t* bp, std::int32_t* c, std::int64_t ldc,
                     std::int64_t mr, std::int64_t nr, bool accumulate) {
  // Two zmm of 16 int32 lanes per tile row (VNR = 32 columns): per K quad
  // each row is two vpdpbusd against the strip's pair of 64-byte B loads
  // (the unsigned operand), with the row's 4-byte A quad broadcast as the
  // signed operand. The twelve accumulators double as the latency split the
  // vpmaddwd tiers get from their 1-cycle vpaddd chain: each accumulator is
  // touched only twice per unrolled iteration, so the loop runs at port
  // throughput, not vpdpbusd latency.
  const std::int64_t kcp = kc4 * 4;
  const std::int8_t* a0 = ap;
  const std::int8_t* a1 = ap + kcp;
  const std::int8_t* a2 = ap + 2 * kcp;
  const std::int8_t* a3 = ap + 3 * kcp;
  const std::int8_t* a4 = ap + 4 * kcp;
  const std::int8_t* a5 = ap + 5 * kcp;
  __m512i r0l = _mm512_setzero_si512(), r0h = _mm512_setzero_si512();
  __m512i r1l = _mm512_setzero_si512(), r1h = _mm512_setzero_si512();
  __m512i r2l = _mm512_setzero_si512(), r2h = _mm512_setzero_si512();
  __m512i r3l = _mm512_setzero_si512(), r3h = _mm512_setzero_si512();
  __m512i r4l = _mm512_setzero_si512(), r4h = _mm512_setzero_si512();
  __m512i r5l = _mm512_setzero_si512(), r5h = _mm512_setzero_si512();
  const std::uint8_t* bq = bp;
#define QCAPS_QGEMM_VNNI_STEP(off)                                           \
  do {                                                                       \
    const __m512i bl_ = _mm512_loadu_si512(bq + (off)*VNR * 4);              \
    const __m512i bh_ = _mm512_loadu_si512(bq + (off)*VNR * 4 + 64);         \
    __m512i av_;                                                             \
    av_ = _mm512_set1_epi32(load_quad(a0 + (p4 + (off)) * 4));               \
    r0l = _mm512_dpbusd_epi32(r0l, bl_, av_);                                \
    r0h = _mm512_dpbusd_epi32(r0h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a1 + (p4 + (off)) * 4));               \
    r1l = _mm512_dpbusd_epi32(r1l, bl_, av_);                                \
    r1h = _mm512_dpbusd_epi32(r1h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a2 + (p4 + (off)) * 4));               \
    r2l = _mm512_dpbusd_epi32(r2l, bl_, av_);                                \
    r2h = _mm512_dpbusd_epi32(r2h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a3 + (p4 + (off)) * 4));               \
    r3l = _mm512_dpbusd_epi32(r3l, bl_, av_);                                \
    r3h = _mm512_dpbusd_epi32(r3h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a4 + (p4 + (off)) * 4));               \
    r4l = _mm512_dpbusd_epi32(r4l, bl_, av_);                                \
    r4h = _mm512_dpbusd_epi32(r4h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a5 + (p4 + (off)) * 4));               \
    r5l = _mm512_dpbusd_epi32(r5l, bl_, av_);                                \
    r5h = _mm512_dpbusd_epi32(r5h, bh_, av_);                                \
  } while (0)
  std::int64_t p4 = 0;
  for (; p4 + 2 <= kc4; p4 += 2) {
    QCAPS_QGEMM_VNNI_STEP(0);
    QCAPS_QGEMM_VNNI_STEP(1);
    bq += 2 * VNR * 4;
  }
  if (p4 < kc4) QCAPS_QGEMM_VNNI_STEP(0);
#undef QCAPS_QGEMM_VNNI_STEP
  const std::uint32_t full =
      nr >= 32 ? 0xFFFFFFFFu : (std::uint32_t{1} << nr) - 1;
  const __mmask16 mask_lo = static_cast<__mmask16>(full);
  const __mmask16 mask_hi = static_cast<__mmask16>(full >> 16);
#define QCAPS_QGEMM_MERGE_ROW512(i, lo, hi)                                  \
  do {                                                                       \
    if ((i) < mr) {                                                          \
      std::int32_t* row_ = c + (i)*ldc;                                      \
      __m512i vl_ = (lo);                                                    \
      __m512i vh_ = (hi);                                                    \
      if (accumulate) {                                                      \
        vl_ = _mm512_add_epi32(vl_, _mm512_maskz_loadu_epi32(mask_lo, row_)); \
        vh_ = _mm512_add_epi32(                                              \
            vh_, _mm512_maskz_loadu_epi32(mask_hi, row_ + 16));              \
      }                                                                      \
      _mm512_mask_storeu_epi32(row_, mask_lo, vl_);                          \
      _mm512_mask_storeu_epi32(row_ + 16, mask_hi, vh_);                     \
    }                                                                        \
  } while (0)
  QCAPS_QGEMM_MERGE_ROW512(0, r0l, r0h);
  QCAPS_QGEMM_MERGE_ROW512(1, r1l, r1h);
  QCAPS_QGEMM_MERGE_ROW512(2, r2l, r2h);
  QCAPS_QGEMM_MERGE_ROW512(3, r3l, r3h);
  QCAPS_QGEMM_MERGE_ROW512(4, r4l, r4h);
  QCAPS_QGEMM_MERGE_ROW512(5, r5l, r5h);
#undef QCAPS_QGEMM_MERGE_ROW512
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
kernel_avx512vnni_q16(std::int64_t kc2, const std::int16_t* ap,
                      const std::int16_t* bp, std::int32_t* c,
                      std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                      bool accumulate) {
  // kernel_avx512_q with each madd+add pair fused into one vpdpwssd; the
  // int16 pair-interleaved panels are consumed unchanged. Accumulators are
  // split per unroll slot for the same latency reason as the int8 kernel:
  // vpdpwssd carries the dependency through the multi-cycle dot product,
  // where the madd tier chains through 1-cycle vpaddd.
  const std::int64_t kcp = kc2 * 2;
  const std::int16_t* a0 = ap;
  const std::int16_t* a1 = ap + kcp;
  const std::int16_t* a2 = ap + 2 * kcp;
  const std::int16_t* a3 = ap + 3 * kcp;
  const std::int16_t* a4 = ap + 4 * kcp;
  const std::int16_t* a5 = ap + 5 * kcp;
  __m512i r0a = _mm512_setzero_si512(), r0b = _mm512_setzero_si512();
  __m512i r1a = _mm512_setzero_si512(), r1b = _mm512_setzero_si512();
  __m512i r2a = _mm512_setzero_si512(), r2b = _mm512_setzero_si512();
  __m512i r3a = _mm512_setzero_si512(), r3b = _mm512_setzero_si512();
  __m512i r4a = _mm512_setzero_si512(), r4b = _mm512_setzero_si512();
  __m512i r5a = _mm512_setzero_si512(), r5b = _mm512_setzero_si512();
  const std::int16_t* bq = bp;
  std::int64_t p2 = 0;
  for (; p2 + 2 <= kc2; p2 += 2) {
    const __m512i b0 = _mm512_loadu_si512(bq);
    r0a = _mm512_dpwssd_epi32(r0a, _mm512_set1_epi32(load_pair(a0 + p2 * 2)), b0);
    r1a = _mm512_dpwssd_epi32(r1a, _mm512_set1_epi32(load_pair(a1 + p2 * 2)), b0);
    r2a = _mm512_dpwssd_epi32(r2a, _mm512_set1_epi32(load_pair(a2 + p2 * 2)), b0);
    r3a = _mm512_dpwssd_epi32(r3a, _mm512_set1_epi32(load_pair(a3 + p2 * 2)), b0);
    r4a = _mm512_dpwssd_epi32(r4a, _mm512_set1_epi32(load_pair(a4 + p2 * 2)), b0);
    r5a = _mm512_dpwssd_epi32(r5a, _mm512_set1_epi32(load_pair(a5 + p2 * 2)), b0);
    const __m512i b1 = _mm512_loadu_si512(bq + NR * 2);
    r0b = _mm512_dpwssd_epi32(r0b, _mm512_set1_epi32(load_pair(a0 + p2 * 2 + 2)), b1);
    r1b = _mm512_dpwssd_epi32(r1b, _mm512_set1_epi32(load_pair(a1 + p2 * 2 + 2)), b1);
    r2b = _mm512_dpwssd_epi32(r2b, _mm512_set1_epi32(load_pair(a2 + p2 * 2 + 2)), b1);
    r3b = _mm512_dpwssd_epi32(r3b, _mm512_set1_epi32(load_pair(a3 + p2 * 2 + 2)), b1);
    r4b = _mm512_dpwssd_epi32(r4b, _mm512_set1_epi32(load_pair(a4 + p2 * 2 + 2)), b1);
    r5b = _mm512_dpwssd_epi32(r5b, _mm512_set1_epi32(load_pair(a5 + p2 * 2 + 2)), b1);
    bq += 2 * NR * 2;
  }
  if (p2 < kc2) {
    const __m512i b = _mm512_loadu_si512(bq);
    r0a = _mm512_dpwssd_epi32(r0a, _mm512_set1_epi32(load_pair(a0 + p2 * 2)), b);
    r1a = _mm512_dpwssd_epi32(r1a, _mm512_set1_epi32(load_pair(a1 + p2 * 2)), b);
    r2a = _mm512_dpwssd_epi32(r2a, _mm512_set1_epi32(load_pair(a2 + p2 * 2)), b);
    r3a = _mm512_dpwssd_epi32(r3a, _mm512_set1_epi32(load_pair(a3 + p2 * 2)), b);
    r4a = _mm512_dpwssd_epi32(r4a, _mm512_set1_epi32(load_pair(a4 + p2 * 2)), b);
    r5a = _mm512_dpwssd_epi32(r5a, _mm512_set1_epi32(load_pair(a5 + p2 * 2)), b);
  }
  const __m512i r0 = _mm512_add_epi32(r0a, r0b);
  const __m512i r1 = _mm512_add_epi32(r1a, r1b);
  const __m512i r2 = _mm512_add_epi32(r2a, r2b);
  const __m512i r3 = _mm512_add_epi32(r3a, r3b);
  const __m512i r4 = _mm512_add_epi32(r4a, r4b);
  const __m512i r5 = _mm512_add_epi32(r5a, r5b);
  const __mmask16 mask =
      static_cast<__mmask16>((std::uint32_t{1} << nr) - 1);
#define QCAPS_QGEMM_MERGE_ROW512(i, reg)                                     \
  do {                                                                       \
    if ((i) < mr) {                                                          \
      std::int32_t* row_ = c + (i)*ldc;                                      \
      __m512i v_ = (reg);                                                    \
      if (accumulate)                                                        \
        v_ = _mm512_add_epi32(                                               \
            v_, _mm512_maskz_loadu_epi32(mask, row_));                       \
      _mm512_mask_storeu_epi32(row_, mask, v_);                              \
    }                                                                        \
  } while (0)
  QCAPS_QGEMM_MERGE_ROW512(0, r0);
  QCAPS_QGEMM_MERGE_ROW512(1, r1);
  QCAPS_QGEMM_MERGE_ROW512(2, r2);
  QCAPS_QGEMM_MERGE_ROW512(3, r3);
  QCAPS_QGEMM_MERGE_ROW512(4, r4);
  QCAPS_QGEMM_MERGE_ROW512(5, r5);
#undef QCAPS_QGEMM_MERGE_ROW512
}
#endif  // QCAPS_X86_NATIVE

using KernelFn = void (*)(std::int64_t kc2, const std::int16_t* ap,
                          const std::int16_t* bp, std::int32_t* c,
                          std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                          bool accumulate);

// The microkernel of each dispatch level. At vnni this is the int16-panel
// kernel; int8 operands take the narrow-operand driver (qgemm_raw_vnni).
#ifdef QCAPS_X86_NATIVE
constexpr KernelFn kKernels[] = {kernel_scalar_q, kernel_avx2_q,
                                 kernel_avx512_q, kernel_avx512vnni_q16};
#else
constexpr KernelFn kKernels[] = {kernel_scalar_q, kernel_scalar_q,
                                 kernel_scalar_q, kernel_scalar_q};
#endif
constexpr const char* kKernelNames[] = {"scalar", "avx2", "avx512",
                                        "avx512vnni"};

// Single-threaded blocked driver, structured exactly like gemm_serial in the
// float backend. `pack_b(p0, kc, j0, nc, out)` fills the packed B panels for
// the requested block in this call's own coordinate frame.
template <typename SrcT, typename PackB>
void qgemm_serial(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
                  const SrcT* a, std::int64_t lda, const PackB& pack_b,
                  std::int32_t* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (std::int64_t i = 0; i < m; ++i)
      std::fill(c + i * ldc, c + i * ldc + n, 0);
    return;
  }
  Scratch& s = scratch();
  std::int16_t* apack = s.a.data();
  std::int16_t* bpack = s.b.data();
  const KernelFn kernel = common::at_isa(kKernels);
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      const std::int64_t kc2 = ceil_div(kc, 2);
      const bool acc_c = pc > 0;
      pack_b(pc, kc, jc, nc, bpack);
      for (std::int64_t ic = 0; ic < m; ic += MC) {
        const std::int64_t mc = std::min(MC, m - ic);
        pack_a_block(ta, a, lda, ic, mc, pc, kc, apack);
        for (std::int64_t jr = 0; jr < nc; jr += NR) {
          const std::int64_t nr = std::min(NR, nc - jr);
          const std::int16_t* bstrip = bpack + (jr / NR) * (kc2 * NR * 2);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            kernel(kc2, apack + (ir / MR) * (kc2 * MR * 2), bstrip,
                   c + (ic + ir) * ldc + jc + jr, ldc, mr, nr, acc_c);
          }
        }
      }
    }
  }
}

#ifdef _OPENMP
bool want_parallel(std::int64_t work) {
  return work > kParallelMinWork && omp_get_max_threads() > 1 &&
         !omp_in_parallel();
}
#endif

#ifdef QCAPS_X86_NATIVE
// Blocked driver for the VNNI int8 tier: same loop structure as
// qgemm_serial, narrow panels, vpdpbusd microkernel.
template <typename PackB>
void qgemm_serial_vnni(Trans ta, std::int64_t m, std::int64_t n,
                       std::int64_t k, const std::int8_t* a, std::int64_t lda,
                       const PackB& pack_b, std::int32_t* c,
                       std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (std::int64_t i = 0; i < m; ++i)
      std::fill(c + i * ldc, c + i * ldc + n, 0);
    return;
  }
  Scratch& s = scratch_vnni();
  std::int8_t* apack = s.a8.data();
  std::uint8_t* bpack = s.b8.data();
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      const std::int64_t kc4 = ceil_div(kc, 4);
      const bool acc_c = pc > 0;
      pack_b(pc, kc, jc, nc, bpack);
      for (std::int64_t ic = 0; ic < m; ic += MC) {
        const std::int64_t mc = std::min(MC, m - ic);
        pack_a_vnni(ta, a, lda, ic, mc, pc, kc, apack);
        for (std::int64_t jr = 0; jr < nc; jr += VNR) {
          const std::int64_t nr = std::min(VNR, nc - jr);
          const std::uint8_t* bstrip = bpack + (jr / VNR) * (kc4 * VNR * 4);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            kernel_avx512vnni_q8(kc4, apack + (ir / MR) * (kc4 * MR * 4),
                                 bstrip, c + (ic + ir) * ldc + jc + jr, ldc,
                                 mr, nr, acc_c);
          }
        }
      }
    }
  }
}

void qgemm_raw_vnni(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                    std::int64_t k, const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
#ifdef _OPENMP
  if (want_parallel(m * n * k)) {
    const bool split_n = n >= m;
    const std::int64_t tiles = split_n ? ceil_div(n, NR) : ceil_div(m, MR);
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t per = ceil_div(tiles, nt);
      const std::int64_t lo = std::min(t * per, tiles);
      const std::int64_t hi = std::min(lo + per, tiles);
      if (lo < hi) {
        if (split_n) {
          const std::int64_t j0 = lo * NR;
          const std::int64_t j1 = std::min(n, hi * NR);
          const std::int8_t* bsub = tb == Trans::kN ? b + j0 : b + j0 * ldb;
          auto pb = [tb, bsub, ldb](std::int64_t p0, std::int64_t kc,
                                    std::int64_t jj, std::int64_t nc,
                                    std::uint8_t* out) {
            pack_b_vnni(tb, bsub, ldb, p0, kc, jj, nc, out);
          };
          qgemm_serial_vnni(ta, m, j1 - j0, k, a, lda, pb, c + j0, ldc);
        } else {
          const std::int64_t i0 = lo * MR;
          const std::int64_t i1 = std::min(m, hi * MR);
          const std::int8_t* asub = ta == Trans::kN ? a + i0 * lda : a + i0;
          auto pb = [tb, b, ldb](std::int64_t p0, std::int64_t kc,
                                 std::int64_t jj, std::int64_t nc,
                                 std::uint8_t* out) {
            pack_b_vnni(tb, b, ldb, p0, kc, jj, nc, out);
          };
          qgemm_serial_vnni(ta, i1 - i0, n, k, asub, lda, pb, c + i0 * ldc,
                            ldc);
        }
      }
    }
  } else
#endif
  {
    auto pb = [tb, b, ldb](std::int64_t p0, std::int64_t kc, std::int64_t jj,
                           std::int64_t nc, std::uint8_t* out) {
      pack_b_vnni(tb, b, ldb, p0, kc, jj, nc, out);
    };
    qgemm_serial_vnni(ta, m, n, k, a, lda, pb, c, ldc);
  }
  if (k <= 0) return;
  // Undo the +128 B-panel offset: the driver accumulated
  // acc + 128*rowsum(op(A))[i] mod 2^32 into each row (see the VNNI packing
  // comment); subtract the offset term in wrapping 32-bit arithmetic.
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (want_parallel(m * n))
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p)
      sum += ta == Trans::kN ? a[i * lda + p] : a[p * lda + i];
    const std::uint32_t off = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(std::int64_t{128} * sum));
    std::int32_t* row = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      row[j] =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(row[j]) - off);
  }
}
#endif  // QCAPS_X86_NATIVE

// C[m,n] = op(A)[m,k] * op(B)[k,n] as raw int32 accumulators, on the active
// dispatch level's driver and split over an OpenMP team when large enough.
template <typename SrcT>
void qgemm_raw(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, const SrcT* a, std::int64_t lda, const SrcT* b,
               std::int64_t ldb, std::int32_t* c, std::int64_t ldc) {
#ifdef QCAPS_X86_NATIVE
  if constexpr (std::is_same_v<SrcT, std::int8_t>) {
    if (common::isa() == common::Isa::kAvx512Vnni) {
      qgemm_raw_vnni(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
      return;
    }
  }
#endif
#ifdef _OPENMP
  if (want_parallel(m * n * k)) {
    // Split the larger output dimension on tile boundaries. Integer
    // accumulation is exact and associative, so any split is bit-identical.
    const bool split_n = n >= m;
    const std::int64_t tiles = split_n ? ceil_div(n, NR) : ceil_div(m, MR);
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t per = ceil_div(tiles, nt);
      const std::int64_t lo = std::min(t * per, tiles);
      const std::int64_t hi = std::min(lo + per, tiles);
      if (lo < hi) {
        if (split_n) {
          const std::int64_t j0 = lo * NR;
          const std::int64_t j1 = std::min(n, hi * NR);
          const SrcT* bsub = tb == Trans::kN ? b + j0 : b + j0 * ldb;
          auto pb = [tb, bsub, ldb](std::int64_t p0, std::int64_t kc,
                                    std::int64_t jj, std::int64_t nc,
                                    std::int16_t* out) {
            pack_b_block(tb, bsub, ldb, p0, kc, jj, nc, out);
          };
          qgemm_serial(ta, m, j1 - j0, k, a, lda, pb, c + j0, ldc);
        } else {
          const std::int64_t i0 = lo * MR;
          const std::int64_t i1 = std::min(m, hi * MR);
          const SrcT* asub = ta == Trans::kN ? a + i0 * lda : a + i0;
          auto pb = [tb, b, ldb](std::int64_t p0, std::int64_t kc,
                                 std::int64_t jj, std::int64_t nc,
                                 std::int16_t* out) {
            pack_b_block(tb, b, ldb, p0, kc, jj, nc, out);
          };
          qgemm_serial(ta, i1 - i0, n, k, asub, lda, pb, c + i0 * ldc, ldc);
        }
      }
    }
    return;
  }
#endif
  auto pb = [tb, b, ldb](std::int64_t p0, std::int64_t kc, std::int64_t jj,
                         std::int64_t nc, std::int16_t* out) {
    pack_b_block(tb, b, ldb, p0, kc, jj, nc, out);
  };
  qgemm_serial(ta, m, n, k, a, lda, pb, c, ldc);
}

// ---- requantization --------------------------------------------------------

void check_requant(const QGemmRequant& rq) {
  QCAPS_CHECK_MSG(rq.shift >= -30 && rq.shift <= 31,
                  "qgemm requant shift out of [-30, 31]");
  QCAPS_CHECK(rq.qmin <= rq.qmax);
}

void check_k_bound_s8(std::int64_t k) {
  QCAPS_CHECK_MSG(k <= qgemm_max_k(8, 8),
                  "qgemm int8 K too large for exact int32 accumulation");
}

// Round half-up shift and clamp. For |acc| < 2^33 (an int32 accumulator plus
// an int32 bias) the left shift by at most 30 is exact in int64.
inline std::int32_t requant_one(std::int64_t acc, int shift, std::int32_t qmin,
                                std::int32_t qmax) {
  const std::int64_t r = shift > 0
                             ? (acc + (std::int64_t{1} << (shift - 1))) >> shift
                             : acc << -shift;
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(r, qmin, qmax));
}

#ifdef QCAPS_X86_NATIVE
// requant_one over a row of n int32 accumulators plus `base`, in place, 8
// int64 lanes per step (vpsraq / vpsllq); the clamp to [qmin, qmax] makes
// the int32 store exact.
//
// GCC 12 emits -Wmaybe-uninitialized false positives from its own AVX-512
// intrinsic headers here (PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void requant_row_avx512(
    std::int32_t* row, std::int64_t n, std::int64_t base, int shift,
    std::int32_t qmin, std::int32_t qmax) {
  const __m512i vadd = _mm512_set1_epi64(
      base + (shift > 0 ? std::int64_t{1} << (shift - 1) : 0));
  const __m128i vshr = _mm_cvtsi32_si128(shift > 0 ? shift : 0);
  const __m128i vshl = _mm_cvtsi32_si128(shift < 0 ? -shift : 0);
  const __m512i vmin = _mm512_set1_epi64(qmin);
  const __m512i vmax = _mm512_set1_epi64(qmax);
  for (std::int64_t j = 0; j < n; j += 8) {
    const __mmask8 k = n - j >= 8
                           ? static_cast<__mmask8>(0xFF)
                           : static_cast<__mmask8>((1u << (n - j)) - 1);
    const __m256i a =
        _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(k, row + j));
    __m512i v = _mm512_add_epi64(_mm512_cvtepi32_epi64(a), vadd);
    v = _mm512_sll_epi64(_mm512_sra_epi64(v, vshr), vshl);
    v = _mm512_min_epi64(_mm512_max_epi64(v, vmin), vmax);
    _mm512_mask_cvtepi64_storeu_epi32(row + j, k, v);
  }
}
#pragma GCC diagnostic pop
#endif  // QCAPS_X86_NATIVE

// Requantize one row of n accumulators plus `base` in place: the vector loop
// when `vec` (an AVX-512 level), requant_one otherwise. Every epilogue (the
// dense pass, the scatter, the direct tiles) runs its rows through here.
void requant_row(std::int32_t* row, std::int64_t n, std::int64_t base,
                 const QGemmRequant& rq, bool vec) {
#ifdef QCAPS_X86_NATIVE
  if (vec) {
    requant_row_avx512(row, n, base, rq.shift, rq.qmin, rq.qmax);
    return;
  }
#else
  (void)vec;
#endif
  for (std::int64_t j = 0; j < n; ++j)
    row[j] = requant_one(row[j] + base, rq.shift, rq.qmin, rq.qmax);
}

bool vector_requant() { return common::isa() >= common::Isa::kAvx512; }

// In-place requantization of the m x n raw int32 accumulators in C.
void requant_pass(std::int32_t* c, std::int64_t ldc, std::int64_t m,
                  std::int64_t n, const QGemmRequant& rq) {
  const bool vec = vector_requant();
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (want_parallel(m * n))
#endif
  for (std::int64_t i = 0; i < m; ++i)
    requant_row(c + i * ldc, n, rq.bias ? rq.bias[i] : 0, rq, vec);
}

template <typename SrcT>
void qgemm_impl(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const SrcT* a, std::int64_t lda, const SrcT* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                const QGemmRequant& rq) {
  check_requant(rq);
  qgemm_raw(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
  requant_pass(c, ldc, m, n, rq);
}

// ---- fused requantize + scatter epilogue -----------------------------------

// One batch item: the accumulators land in a per-thread dense buffer, each
// row is requantized there in place (requant_row) and then only stored into
// the scattered destination's container. The clamp onto [qmin, qmax] makes
// that store exact; the microkernels are untouched.
template <typename SrcT, typename Out>
void qgemm_scatter_one(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                       std::int64_t k, const SrcT* a, std::int64_t lda,
                       const SrcT* b, std::int64_t ldb, const QGemmRequant& rq,
                       const QGemmScatterDst<Out>& sd, Out* dst) {
  if (m <= 0 || n <= 0) return;
  thread_local std::vector<std::int32_t> cbuf;
  if (cbuf.size() < static_cast<std::size_t>(m * n))
    cbuf.resize(static_cast<std::size_t>(m * n));
  std::int32_t* const c = cbuf.data();  // this thread's buffer, for the team
  qgemm_raw(ta, tb, m, n, k, a, lda, b, ldb, c, n);
  const bool vec = vector_requant();
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (want_parallel(m * n))
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t* row = c + i * n;
    requant_row(row, n, rq.bias ? rq.bias[i] : 0, rq, vec);
    Out* drow = dst + i * sd.row_stride;
    for (std::int64_t j0 = 0; j0 < n; j0 += sd.col_inner) {
      Out* dcol = drow + (j0 / sd.col_inner) * sd.col_outer_stride;
      const std::int64_t nj = std::min(sd.col_inner, n - j0);
      for (std::int64_t ji = 0; ji < nj; ++ji)
        dcol[ji * sd.col_inner_stride] = static_cast<Out>(row[j0 + ji]);
    }
  }
}

// ---- direct convolution (gathered B) ---------------------------------------
//
// QGemmDirect walks its output columns in strips of the microkernel's width
// (VNR on the VNNI int8 path, NR elsewhere). Per strip and K block it packs
// one B panel straight from the caller's narrowed image, runs every A panel
// against it into a small per-thread int32 tile, and after the last K block
// requantizes that tile in place and hands it to the caller's consumer,
// which stores it into its own layout and container. The panels are the
// ones pack_b_vnni / pack_b_block build, so the microkernels are unchanged.
//
// K tails and edge columns: a quad or pair past K reads a valid tap again,
// which is harmless because the packed A is zero there; panel columns past
// the strip's edge keep stale (initialized) bytes or, in a windowed VNNI
// half, a copy of its first column; the kernels' merges never store their
// lanes.

// K block of the direct path: a 32-column VNNI panel (or a 16-column pair
// panel) of this depth is 16 KB, an L1-resident B strip.
constexpr std::int64_t kDirectKC = 512;
static_assert(kDirectKC % 4 == 0, "direct A blocks are packed in K quads");

// With the +128 B offset the VNNI accumulator holds sum_k a * (b + 128),
// |a| <= 128 and b + 128 <= 255: it cannot wrap int32 for k up to this bound,
// so -128 * rowsum(A) can be folded into the int64 requant base. Longer K
// takes the int16 pair panels instead.
constexpr std::int64_t kDirectVnniMaxK = INT32_MAX / (128 * 255);

struct DirectScratch {
  std::vector<std::uint8_t> b8;
  std::vector<std::int16_t> b16;
  std::vector<std::int32_t> c;
};

DirectScratch& direct_scratch() {
  thread_local DirectScratch s;
  return s;
}

#ifdef QCAPS_X86_NATIVE
// True when col[0..n) addresses n consecutive source elements.
bool contiguous(const std::int64_t* col, std::int64_t n) {
  for (std::int64_t j = 1; j < n; ++j)
    if (col[j] != col[0] + j) return false;
  return true;
}

// One K pair of a full 16-column pair panel from two contiguous source rows:
// widen, then interleave (lo[j], hi[j]) -> out[2j], out[2j + 1].
__attribute__((target("avx2"))) inline void pair_row16(__m256i lo, __m256i hi,
                                                       std::int16_t* out) {
  const __m256i t0 = _mm256_unpacklo_epi16(lo, hi);
  const __m256i t1 = _mm256_unpackhi_epi16(lo, hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(t0, t1, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16),
                      _mm256_permute2x128_si256(t0, t1, 0x31));
}

__attribute__((target("avx2"))) void pair_row16(const std::int8_t* lo,
                                                const std::int8_t* hi,
                                                std::int16_t* out) {
  pair_row16(_mm256_cvtepi8_epi16(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo))),
             _mm256_cvtepi8_epi16(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi))),
             out);
}

__attribute__((target("avx2"))) void pair_row16(const std::int16_t* lo,
                                                const std::int16_t* hi,
                                                std::int16_t* out) {
  pair_row16(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo)),
             _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi)), out);
}
#endif  // QCAPS_X86_NATIVE

// Pair panel (pack_b_block's layout) of one strip of nr <= NR columns for K
// rows tap[0..kc). `vec` allows the AVX2 path for a full contiguous strip.
template <typename SrcT>
void pack_b_pairs_gather(const SrcT* data, const std::int64_t* tap,
                         const std::int64_t* col, std::int64_t kc,
                         std::int64_t nr, bool vec, std::int16_t* out) {
  const std::int64_t kc2 = ceil_div(kc, 2);
#ifdef QCAPS_X86_NATIVE
  if (vec && nr == NR && contiguous(col, NR)) {
    for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
      const SrcT* lo = data + tap[2 * p2] + col[0];
      const SrcT* hi =
          2 * p2 + 1 < kc ? data + tap[2 * p2 + 1] + col[0] : lo;
      pair_row16(lo, hi, out + p2 * NR * 2);
    }
    return;
  }
#else
  (void)vec;
#endif
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const SrcT* lo = data + tap[2 * p2];
    const SrcT* hi = 2 * p2 + 1 < kc ? data + tap[2 * p2 + 1] : lo;
    std::int16_t* dst = out + p2 * NR * 2;
    for (std::int64_t j = 0; j < nr; ++j) {
      dst[2 * j] = static_cast<std::int16_t>(lo[col[j]]);
      dst[2 * j + 1] = static_cast<std::int16_t>(hi[col[j]]);
    }
  }
}

#ifdef QCAPS_X86_NATIVE
// Window plan of one half (at most 16 columns) of a VNNI strip. When every
// source offset col[j] - col[0] lies in [0, 64), each K row of the half is
// one masked load of the window bytes [0, span] at col[0], where span is the
// largest offset, so no byte past the last source column is read.
// vpunpck{l,h}bw interleave the two rows of a K pair into words (row 2t + 1
// in the high byte) in 128-bit-lane order; the permute index folds that
// order in, and one vpermt2w per pair picks each column's word. Halves that
// reach 64 bytes or more (they cross images) gather per element.
struct VnniWindow {
  std::int64_t base;   // col[0]
  std::uint64_t load;  // window bytes 0..span
  alignas(64) std::uint16_t idx[32];  // words 2j and 2j + 1: column j
};

bool vnni_window(const std::int64_t* col, std::int64_t cols, VnniWindow& w) {
  std::int64_t span = 0;
  for (std::int64_t j = 0; j < cols; ++j) {
    const std::int64_t off = col[j] - col[0];
    if (off < 0 || off >= 64) return false;
    span = std::max(span, off);
  }
  w.base = col[0];
  w.load = ~std::uint64_t{0} >> (63 - span);
  // Byte `off` of the window sits in lane off / 16 of the low unpack for
  // off % 16 < 8 and of the high one (index + 32) otherwise. Panel columns
  // past the half's edge read offset 0; their lanes are never stored.
  for (std::int64_t j = 0; j < 16; ++j) {
    const std::int64_t off = j < cols ? col[j] - col[0] : 0;
    const auto word = static_cast<std::uint16_t>((off & 8) << 2 |
                                                 (off >> 4) << 3 | (off & 7));
    w.idx[2 * j] = word;
    w.idx[2 * j + 1] = word;
  }
  return true;
}

// The quads of one windowed half for K rows tap[0..kc): quad p4's 64 bytes
// land at out + p4 * VNR * 4.
__attribute__((target("avx512f,avx512bw"))) void vnni_window_half(
    const std::int8_t* data, const std::int64_t* tap, std::int64_t kc,
    const VnniWindow& w, std::uint8_t* out) {
  const __mmask64 load = w.load;
  const __m512i idx = _mm512_load_si512(w.idx);
  const __m512i offset = _mm512_set1_epi8(static_cast<char>(0x80));
  const std::int8_t* base = data + w.base;
  const std::int64_t kc4 = ceil_div(kc, 4);
  for (std::int64_t p4 = 0; p4 < kc4; ++p4) {
    __m512i r[4];
    for (std::int64_t q = 0; q < 4; ++q)
      r[q] = _mm512_maskz_loadu_epi8(
          load, base + tap[4 * p4 + q < kc ? 4 * p4 + q : 4 * p4]);
    const __m512i w01 =
        _mm512_permutex2var_epi16(_mm512_unpacklo_epi8(r[0], r[1]), idx,
                                  _mm512_unpackhi_epi8(r[0], r[1]));
    const __m512i w23 =
        _mm512_permutex2var_epi16(_mm512_unpacklo_epi8(r[2], r[3]), idx,
                                  _mm512_unpackhi_epi8(r[2], r[3]));
    _mm512_storeu_si512(
        out + p4 * VNR * 4,
        _mm512_xor_si512(_mm512_mask_blend_epi16(0xAAAAAAAAu, w01, w23),
                         offset));
  }
}

// Quad panel (pack_b_vnni's layout, +128 offset bytes) of one strip of
// nr <= VNR columns, one 16-column half at a time: a windowed half in vector
// (VnniWindow), the rest four bytes per column into one word.
void pack_b_vnni_gather(const std::int8_t* data, const std::int64_t* tap,
                        const std::int64_t* col, std::int64_t kc,
                        std::int64_t nr, std::uint8_t* out) {
  const std::int64_t kc4 = ceil_div(kc, 4);
  const auto byte = [](const std::int8_t* p) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(*p));
  };
  for (std::int64_t ja = 0; ja < nr; ja += 16) {
    const std::int64_t cols = std::min<std::int64_t>(16, nr - ja);
    VnniWindow w;
    if (vnni_window(col + ja, cols, w)) {
      vnni_window_half(data, tap, kc, w, out + 4 * ja);
      continue;
    }
    for (std::int64_t p4 = 0; p4 < kc4; ++p4) {
      const std::int8_t* s[4];
      for (std::int64_t q = 0; q < 4; ++q)
        s[q] = data + tap[4 * p4 + q < kc ? 4 * p4 + q : 4 * p4];
      std::uint8_t* dst = out + p4 * VNR * 4 + 4 * ja;
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::int64_t c = col[ja + j];
        const std::uint32_t v = (byte(s[0] + c) | byte(s[1] + c) << 8 |
                                 byte(s[2] + c) << 16 | byte(s[3] + c) << 24) ^
                                0x80808080u;
        std::memcpy(dst + 4 * j, &v, 4);
      }
    }
  }
}

#endif  // QCAPS_X86_NATIVE

}  // namespace

std::int32_t qgemm_requantize(std::int64_t acc, const QGemmRequant& rq) {
  check_requant(rq);
  return requant_one(acc, rq.shift, rq.qmin, rq.qmax);
}

std::int64_t qgemm_max_k(int bits_a, int bits_b) {
  QCAPS_CHECK(bits_a >= 2 && bits_b >= 2 && bits_a + bits_b <= 33);
  // |a| <= 2^(bits_a - 1), |b| <= 2^(bits_b - 1).
  return ((std::int64_t{1} << 31) - 1) >> (bits_a + bits_b - 2);
}

void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq) {
  check_k_bound_s8(k);
  qgemm_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, rq);
}

void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int16_t* a, std::int64_t lda, const std::int16_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq) {
  qgemm_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, rq);
}

template <typename T, typename Out>
void qgemm_batch_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                         std::int64_t k, const T* a, std::int64_t lda,
                         std::int64_t stride_a, const T* b, std::int64_t ldb,
                         std::int64_t stride_b, std::int64_t batch,
                         const QGemmRequant& rq,
                         const QGemmScatterDst<Out>& sd) {
  if (batch <= 0) return;
  if constexpr (std::is_same_v<T, std::int8_t>) check_k_bound_s8(k);
  check_requant(rq);
  QCAPS_CHECK_MSG(sd.dst != nullptr, "qgemm scatter destination is null");
  QCAPS_CHECK_MSG(sd.col_inner >= 1,
                  "qgemm scatter inner split size must be >= 1");
#ifdef _OPENMP
  if (batch > 1 && want_parallel(batch * m * n * k)) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < batch; ++i)
      qgemm_scatter_one(ta, tb, m, n, k, a + i * stride_a, lda,
                        b + i * stride_b, ldb, rq, sd,
                        sd.dst + i * sd.batch_stride);
    return;
  }
#endif
  for (std::int64_t i = 0; i < batch; ++i)
    qgemm_scatter_one(ta, tb, m, n, k, a + i * stride_a, lda,
                      b + i * stride_b, ldb, rq, sd,
                      sd.dst + i * sd.batch_stride);
}

#define QCAPS_QGEMM_SCATTER(T, Out)                                           \
  template void qgemm_batch_scatter<T, Out>(                                  \
      Trans, Trans, std::int64_t, std::int64_t, std::int64_t, const T*,      \
      std::int64_t, std::int64_t, const T*, std::int64_t, std::int64_t,      \
      std::int64_t, const QGemmRequant&, const QGemmScatterDst<Out>&);
QCAPS_QGEMM_SCATTER(std::int8_t, std::int8_t)
QCAPS_QGEMM_SCATTER(std::int8_t, std::int16_t)
QCAPS_QGEMM_SCATTER(std::int8_t, std::int64_t)
QCAPS_QGEMM_SCATTER(std::int16_t, std::int8_t)
QCAPS_QGEMM_SCATTER(std::int16_t, std::int16_t)
QCAPS_QGEMM_SCATTER(std::int16_t, std::int64_t)
#undef QCAPS_QGEMM_SCATTER

const char* qgemm_kernel_name() { return common::at_isa(kKernelNames); }

template <typename T>
QGemmDirect<T>::QGemmDirect(const T* a, std::int64_t m, std::int64_t k,
                            const QGemmRequant& rq)
    : m_(m), k_(k), isa_(common::isa()), vnni8_(false), rq_(rq) {
  QCAPS_CHECK_MSG(m > 0 && k > 0, "qgemm direct convolution needs m, k > 0");
  check_requant(rq);
  if constexpr (std::is_same_v<T, std::int8_t>) {
    check_k_bound_s8(k);
    vnni8_ = isa_ == common::Isa::kAvx512Vnni && k <= kDirectVnniMaxK;
  }
  // One block of panels per kDirectKC slice of K, every block sized for a
  // full slice: block pc / kDirectKC starts at (pc / kDirectKC) * mp * KC.
  const std::int64_t mp = ceil_div(m, MR) * MR;
  const std::size_t size =
      static_cast<std::size_t>(mp * ceil_div(k, kDirectKC) * kDirectKC);
  for (std::int64_t pc = 0; pc < k; pc += kDirectKC) {
    const std::int64_t kc = std::min(kDirectKC, k - pc);
    const std::int64_t at = (pc / kDirectKC) * mp * kDirectKC;
#ifdef QCAPS_X86_NATIVE
    if constexpr (std::is_same_v<T, std::int8_t>) {
      if (vnni8_) {
        a8_.resize(size);
        pack_a_vnni(Trans::kN, a, k, 0, m, pc, kc, a8_.data() + at);
        continue;
      }
    }
#endif
    a16_.resize(size);
    pack_a_block(Trans::kN, a, k, 0, m, pc, kc, a16_.data() + at);
  }
  base_.resize(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t b = rq.bias ? rq.bias[i] : 0;
    if (vnni8_)
      for (std::int64_t p = 0; p < k; ++p)
        b -= 128 * std::int64_t{a[i * k + p]};
    base_[static_cast<std::size_t>(i)] = b;
  }
  rq_.bias = nullptr;  // folded into base_
}

template <typename T>
void QGemmDirect<T>::run_tiles(const QGemmGatherB<T>& b, std::int64_t j0,
                               std::int64_t j1,
                               const QGemmTileFn& consume) const {
  if (j0 >= j1) return;
  DirectScratch& s = direct_scratch();
  const std::int64_t w = vnni8_ ? VNR : NR;  // strip width
  const std::int64_t mp = ceil_div(m_, MR) * MR;
  if (s.c.size() < static_cast<std::size_t>(m_ * w))
    s.c.resize(static_cast<std::size_t>(m_ * w));
  const KernelFn kernel = kKernels[static_cast<std::size_t>(isa_)];
  const bool vec = isa_ != common::Isa::kScalar;
  const bool vec_requant = isa_ >= common::Isa::kAvx512;
  for (std::int64_t s0 = j0; s0 < j1; s0 += w) {
    const std::int64_t nr = std::min(w, j1 - s0);
    const std::int64_t* col = b.col + s0;
    for (std::int64_t pc = 0; pc < k_; pc += kDirectKC) {
      const std::int64_t kc = std::min(kDirectKC, k_ - pc);
      const std::int64_t at = (pc / kDirectKC) * mp * kDirectKC;
      const bool acc = pc > 0;
#ifdef QCAPS_X86_NATIVE
      if constexpr (std::is_same_v<T, std::int8_t>) {
        if (vnni8_) {
          if (s.b8.empty())
            s.b8.resize(static_cast<std::size_t>(kDirectKC * VNR));
          const std::int64_t kc4 = ceil_div(kc, 4);
          pack_b_vnni_gather(b.data, b.tap + pc, col, kc, nr, s.b8.data());
          for (std::int64_t ir = 0; ir < m_; ir += MR)
            kernel_avx512vnni_q8(kc4, a8_.data() + at + ir * kc4 * 4,
                                 s.b8.data(), s.c.data() + ir * w, w,
                                 std::min(MR, m_ - ir), nr, acc);
          continue;
        }
      }
#endif
      if (s.b16.empty())
        s.b16.resize(static_cast<std::size_t>(kDirectKC * NR));
      const std::int64_t kc2 = ceil_div(kc, 2);
      pack_b_pairs_gather(b.data, b.tap + pc, col, kc, nr, vec, s.b16.data());
      for (std::int64_t ir = 0; ir < m_; ir += MR)
        kernel(kc2, a16_.data() + at + ir * kc2 * 2, s.b16.data(),
               s.c.data() + ir * w, w, std::min(MR, m_ - ir), nr, acc);
    }
    for (std::int64_t i = 0; i < m_; ++i)
      requant_row(s.c.data() + i * w, nr, base_[static_cast<std::size_t>(i)],
                  rq_, vec_requant);
    consume(s0, nr, s.c.data(), w);
  }
}

template class QGemmDirect<std::int8_t>;
template class QGemmDirect<std::int16_t>;

}  // namespace qcaps::tensor
