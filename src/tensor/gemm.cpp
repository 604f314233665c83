#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/cpu_dispatch.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef QCAPS_X86_NATIVE
#include <immintrin.h>
#endif

namespace qcaps::tensor {
namespace {

constexpr std::int64_t MR = kGemmMR;
constexpr std::int64_t NR = kGemmNR;
// Cache blocking: the packed A block (MC x KC floats, ~96 KB) targets L2,
// each packed B strip (KC x NR, 16 KB) targets L1, and the packed B block
// (KC x NC, 1 MB) targets L3.
constexpr std::int64_t MC = 96;
constexpr std::int64_t KC = 256;
constexpr std::int64_t NC = 1024;
// Below this many multiply-adds the threading machinery costs more than it
// saves.
constexpr std::int64_t kParallelMinWork = std::int64_t{1} << 16;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Per-thread packing buffers, reused across calls.
struct Scratch {
  std::vector<float> a;
  std::vector<float> b;
};

Scratch& scratch() {
  thread_local Scratch s;
  if (s.a.empty()) {
    s.a.resize(static_cast<std::size_t>(MC * KC));
    s.b.resize(static_cast<std::size_t>(KC * NC));
  }
  return s;
}

// Pack the A block [i0, i0+mc) x [p0, p0+kc) into MR-row panels: panel r
// holds kc*MR floats with element (i, p) at panel[p*MR + (i - r*MR)]; rows
// past mc are zero so edge tiles can run the full-width microkernel.
void pack_a_block(Trans ta, const float* a, std::int64_t lda, std::int64_t i0,
                  std::int64_t mc, std::int64_t p0, std::int64_t kc,
                  float* out) {
  for (std::int64_t ib = 0; ib < mc; ib += MR) {
    const std::int64_t mr = std::min(MR, mc - ib);
    if (ta == Trans::kN) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (i0 + ib) * lda + p0 + p;
        for (std::int64_t i = 0; i < mr; ++i) out[p * MR + i] = src[i * lda];
        for (std::int64_t i = mr; i < MR; ++i) out[p * MR + i] = 0.0f;
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * lda + i0 + ib;
        for (std::int64_t i = 0; i < mr; ++i) out[p * MR + i] = src[i];
        for (std::int64_t i = mr; i < MR; ++i) out[p * MR + i] = 0.0f;
      }
    }
    out += kc * MR;
  }
}

// Pack the B block [p0, p0+kc) x [j0, j0+nc) into the NR-column panel layout
// documented next to PackBFn in gemm.hpp.
void pack_b_block(Trans tb, const float* b, std::int64_t ldb, std::int64_t p0,
                  std::int64_t kc, std::int64_t j0, std::int64_t nc,
                  float* out) {
  for (std::int64_t jb = 0; jb < nc; jb += NR) {
    const std::int64_t nr = std::min(NR, nc - jb);
    if (tb == Trans::kN) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * ldb + j0 + jb;
        for (std::int64_t j = 0; j < nr; ++j) out[p * NR + j] = src[j];
        for (std::int64_t j = nr; j < NR; ++j) out[p * NR + j] = 0.0f;
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (j0 + jb) * ldb + p0 + p;
        for (std::int64_t j = 0; j < nr; ++j) out[p * NR + j] = src[j * ldb];
        for (std::int64_t j = nr; j < NR; ++j) out[p * NR + j] = 0.0f;
      }
    }
    out += kc * NR;
  }
}

// ---- microkernels ----------------------------------------------------------
//
// Each computes acc[MR][NR] = sum_p ap[p*MR + i] * bp[p*NR + j] with the
// accumulators held in registers; the caller merges `acc` into C.

void kernel_scalar(std::int64_t kc, const float* ap, const float* bp,
                   float* acc) {
  float t[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    for (std::int64_t i = 0; i < MR; ++i) {
      const float av = a[i];
      for (std::int64_t j = 0; j < NR; ++j) t[i * NR + j] += av * b[j];
    }
  }
  std::copy(t, t + MR * NR, acc);
}

#ifdef QCAPS_X86_NATIVE
__attribute__((target("avx2,fma"))) void kernel_avx2(std::int64_t kc,
                                                     const float* ap,
                                                     const float* bp,
                                                     float* acc) {
  // 6x16 tile as 6 rows x 2 ymm accumulators = 12 of the 16 ymm registers;
  // the rest hold the two B vectors and the broadcast A element.
  __m256 r0a = _mm256_setzero_ps(), r0b = _mm256_setzero_ps();
  __m256 r1a = _mm256_setzero_ps(), r1b = _mm256_setzero_ps();
  __m256 r2a = _mm256_setzero_ps(), r2b = _mm256_setzero_ps();
  __m256 r3a = _mm256_setzero_ps(), r3b = _mm256_setzero_ps();
  __m256 r4a = _mm256_setzero_ps(), r4b = _mm256_setzero_ps();
  __m256 r5a = _mm256_setzero_ps(), r5b = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * NR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * NR + 8);
    const float* a = ap + p * MR;
    __m256 av = _mm256_broadcast_ss(a + 0);
    r0a = _mm256_fmadd_ps(av, b0, r0a);
    r0b = _mm256_fmadd_ps(av, b1, r0b);
    av = _mm256_broadcast_ss(a + 1);
    r1a = _mm256_fmadd_ps(av, b0, r1a);
    r1b = _mm256_fmadd_ps(av, b1, r1b);
    av = _mm256_broadcast_ss(a + 2);
    r2a = _mm256_fmadd_ps(av, b0, r2a);
    r2b = _mm256_fmadd_ps(av, b1, r2b);
    av = _mm256_broadcast_ss(a + 3);
    r3a = _mm256_fmadd_ps(av, b0, r3a);
    r3b = _mm256_fmadd_ps(av, b1, r3b);
    av = _mm256_broadcast_ss(a + 4);
    r4a = _mm256_fmadd_ps(av, b0, r4a);
    r4b = _mm256_fmadd_ps(av, b1, r4b);
    av = _mm256_broadcast_ss(a + 5);
    r5a = _mm256_fmadd_ps(av, b0, r5a);
    r5b = _mm256_fmadd_ps(av, b1, r5b);
  }
  _mm256_storeu_ps(acc + 0 * NR, r0a);
  _mm256_storeu_ps(acc + 0 * NR + 8, r0b);
  _mm256_storeu_ps(acc + 1 * NR, r1a);
  _mm256_storeu_ps(acc + 1 * NR + 8, r1b);
  _mm256_storeu_ps(acc + 2 * NR, r2a);
  _mm256_storeu_ps(acc + 2 * NR + 8, r2b);
  _mm256_storeu_ps(acc + 3 * NR, r3a);
  _mm256_storeu_ps(acc + 3 * NR + 8, r3b);
  _mm256_storeu_ps(acc + 4 * NR, r4a);
  _mm256_storeu_ps(acc + 4 * NR + 8, r4b);
  _mm256_storeu_ps(acc + 5 * NR, r5a);
  _mm256_storeu_ps(acc + 5 * NR + 8, r5b);
}

__attribute__((target("avx512f"))) void kernel_avx512(std::int64_t kc,
                                                      const float* ap,
                                                      const float* bp,
                                                      float* acc) {
  // The 16-wide tile row is exactly one zmm vector: 6 accumulators, one B
  // load and 6 broadcast-FMAs per k-step — half the vector ops of the AVX2
  // kernel. Per output lane the FMA sequence is identical to the AVX2 tier,
  // so the two produce bit-identical results (locked by test_gemm).
  __m512 r0 = _mm512_setzero_ps();
  __m512 r1 = _mm512_setzero_ps();
  __m512 r2 = _mm512_setzero_ps();
  __m512 r3 = _mm512_setzero_ps();
  __m512 r4 = _mm512_setzero_ps();
  __m512 r5 = _mm512_setzero_ps();
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * NR);
    const float* a = ap + p * MR;
    r0 = _mm512_fmadd_ps(_mm512_set1_ps(a[0]), b0, r0);
    r1 = _mm512_fmadd_ps(_mm512_set1_ps(a[1]), b0, r1);
    r2 = _mm512_fmadd_ps(_mm512_set1_ps(a[2]), b0, r2);
    r3 = _mm512_fmadd_ps(_mm512_set1_ps(a[3]), b0, r3);
    r4 = _mm512_fmadd_ps(_mm512_set1_ps(a[4]), b0, r4);
    r5 = _mm512_fmadd_ps(_mm512_set1_ps(a[5]), b0, r5);
  }
  _mm512_storeu_ps(acc + 0 * NR, r0);
  _mm512_storeu_ps(acc + 1 * NR, r1);
  _mm512_storeu_ps(acc + 2 * NR, r2);
  _mm512_storeu_ps(acc + 3 * NR, r3);
  _mm512_storeu_ps(acc + 4 * NR, r4);
  _mm512_storeu_ps(acc + 5 * NR, r5);
}
#endif  // QCAPS_X86_NATIVE

using KernelFn = void (*)(std::int64_t, const float*, const float*, float*);

// The microkernel of each dispatch level; VNNI adds nothing to fp32.
#ifdef QCAPS_X86_NATIVE
constexpr KernelFn kKernels[] = {kernel_scalar, kernel_avx2, kernel_avx512,
                                 kernel_avx512};
#else
constexpr KernelFn kKernels[] = {kernel_scalar, kernel_scalar, kernel_scalar,
                                 kernel_scalar};
#endif
constexpr const char* kKernelNames[] = {"scalar", "avx2", "avx512", "avx512"};

void write_tile(const float* t, float* c, std::int64_t ldc, std::int64_t mr,
                std::int64_t nr, bool accumulate) {
  for (std::int64_t i = 0; i < mr; ++i) {
    float* row = c + i * ldc;
    const float* src = t + i * NR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) row[j] += src[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) row[j] = src[j];
    }
  }
}

// Single-threaded blocked driver. `pack_b(p0, kc, j0, nc, out)` fills the
// packed panels for the requested B block with offsets relative to this
// call's own coordinate frame.
template <typename PackB>
void gemm_serial(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const PackB& pack_b,
                 float* c, std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate)
      for (std::int64_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    return;
  }
  Scratch& s = scratch();
  float* apack = s.a.data();
  float* bpack = s.b.data();
  const KernelFn kernel = common::at_isa(kKernels);
  float tile[MR * NR];
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      const bool acc_c = accumulate || pc > 0;
      pack_b(pc, kc, jc, nc, bpack);
      for (std::int64_t ic = 0; ic < m; ic += MC) {
        const std::int64_t mc = std::min(MC, m - ic);
        pack_a_block(ta, a, lda, ic, mc, pc, kc, apack);
        for (std::int64_t jr = 0; jr < nc; jr += NR) {
          const std::int64_t nr = std::min(NR, nc - jr);
          const float* bstrip = bpack + (jr / NR) * (kc * NR);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            kernel(kc, apack + (ir / MR) * (kc * MR), bstrip, tile);
            write_tile(tile, c + (ic + ir) * ldc + jc + jr, ldc, mr, nr,
                       acc_c);
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

}  // namespace

void gemm_ex(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
             std::int64_t k, const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate) {
#ifdef _OPENMP
  if (want_parallel(m * n * k)) {
    // Split the larger output dimension on tile boundaries. Every element
    // still accumulates in the same order, so results match the serial run
    // bit-for-bit.
    const bool split_n = n >= m;
    const std::int64_t tiles =
        split_n ? ceil_div(n, NR) : ceil_div(m, MR);
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
          const float* bsub = tb == Trans::kN ? b + j0 : b + j0 * ldb;
          auto pb = [tb, bsub, ldb](std::int64_t p0, std::int64_t kc,
                                    std::int64_t jj, std::int64_t nc,
                                    float* out) {
            pack_b_block(tb, bsub, ldb, p0, kc, jj, nc, out);
          };
          gemm_serial(ta, m, j1 - j0, k, a, lda, pb, c + j0, ldc, accumulate);
        } else {
          const std::int64_t i0 = lo * MR;
          const std::int64_t i1 = std::min(m, hi * MR);
          const float* asub = ta == Trans::kN ? a + i0 * lda : a + i0;
          auto pb = [tb, b, ldb](std::int64_t p0, std::int64_t kc,
                                 std::int64_t jj, std::int64_t nc, float* out) {
            pack_b_block(tb, b, ldb, p0, kc, jj, nc, out);
          };
          gemm_serial(ta, i1 - i0, n, k, asub, lda, pb, c + i0 * ldc, ldc,
                      accumulate);
        }
      }
    }
    return;
  }
#endif
  auto pb = [tb, b, ldb](std::int64_t p0, std::int64_t kc, std::int64_t jj,
                         std::int64_t nc, float* out) {
    pack_b_block(tb, b, ldb, p0, kc, jj, nc, out);
  };
  gemm_serial(ta, m, n, k, a, lda, pb, c, ldc, accumulate);
}

void gemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, std::int64_t lda,
                std::int64_t stride_a, const float* b, std::int64_t ldb,
                std::int64_t stride_b, float* c, std::int64_t ldc,
                std::int64_t stride_c, std::int64_t batch, bool accumulate) {
  if (batch <= 0) return;
#ifdef _OPENMP
  if (batch > 1 && want_parallel(batch * m * n * k)) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < batch; ++i) {
      const float* bi = b + i * stride_b;
      auto pb = [tb, bi, ldb](std::int64_t p0, std::int64_t kc,
                              std::int64_t jj, std::int64_t nc, float* out) {
        pack_b_block(tb, bi, ldb, p0, kc, jj, nc, out);
      };
      gemm_serial(ta, m, n, k, a + i * stride_a, lda, pb, c + i * stride_c,
                  ldc, accumulate);
    }
    return;
  }
#endif
  for (std::int64_t i = 0; i < batch; ++i)
    gemm_ex(ta, tb, m, n, k, a + i * stride_a, lda, b + i * stride_b, ldb,
            c + i * stride_c, ldc, accumulate);
}

void gemm_scatter_c(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                    std::int64_t k, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb,
                    const ScatterCFn& scatter) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  // Same blocked walk as gemm_serial, with the write_tile store replaced by
  // the sink. Deliberately no threading: the sink may fold distinct C
  // coordinates onto one storage location (col2im overlap), which would race.
  Scratch& s = scratch();
  float* apack = s.a.data();
  float* bpack = s.b.data();
  const KernelFn kernel = common::at_isa(kKernels);
  float tile[MR * NR];
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      pack_b_block(tb, b, ldb, pc, kc, jc, nc, bpack);
      for (std::int64_t ic = 0; ic < m; ic += MC) {
        const std::int64_t mc = std::min(MC, m - ic);
        pack_a_block(ta, a, lda, ic, mc, pc, kc, apack);
        for (std::int64_t jr = 0; jr < nc; jr += NR) {
          const std::int64_t nr = std::min(NR, nc - jr);
          const float* bstrip = bpack + (jr / NR) * (kc * NR);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            kernel(kc, apack + (ir / MR) * (kc * MR), bstrip, tile);
            scatter(ic + ir, mr, jc + jr, nr, tile);
          }
        }
      }
    }
  }
}

void gemm_pack_b(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const PackBFn& pack_b,
                 float* c, std::int64_t ldc, bool accumulate) {
#ifdef _OPENMP
  if (want_parallel(m * n * k)) {
    const std::int64_t tiles = ceil_div(n, NR);
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t per = ceil_div(tiles, nt);
      const std::int64_t lo = std::min(t * per, tiles);
      const std::int64_t hi = std::min(lo + per, tiles);
      if (lo < hi) {
        const std::int64_t j0 = lo * NR;
        const std::int64_t j1 = std::min(n, hi * NR);
        // Re-base the producer so it sees absolute column indices.
        auto pb = [&pack_b, j0](std::int64_t p0, std::int64_t kc,
                                std::int64_t jj, std::int64_t nc, float* out) {
          pack_b(p0, kc, j0 + jj, nc, out);
        };
        gemm_serial(Trans::kN, m, j1 - j0, k, a, lda, pb, c + j0, ldc,
                    accumulate);
      }
    }
    return;
  }
#endif
  gemm_serial(Trans::kN, m, n, k, a, lda, pack_b, c, ldc, accumulate);
}

const char* gemm_kernel_name() { return common::at_isa(kKernelNames); }

}  // namespace qcaps::tensor
