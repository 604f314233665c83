#include "tensor/conv.hpp"

#include <algorithm>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace qcaps::tensor {

void im2col(const float* img, const Conv2dGeom& g, float* cols) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ncols = oh * ow;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t prow = (c * g.kernel + ky) * g.kernel + kx;
        float* dst = cols + prow * ncols;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(dst + y * ow, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src = img + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kx - g.pad;
            dst[y * ow + x] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, const Conv2dGeom& g, float* img) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ncols = oh * ow;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t prow = (c * g.kernel + ky) * g.kernel + kx;
        const float* src = cols + prow * ncols;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = img + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kx - g.pad;
            if (ix >= 0 && ix < g.in_w) dst[ix] += src[y * ow + x];
          }
        }
      }
    }
  }
}

namespace {
// Fused im2col + B-pack: writes the patch data of one image directly into
// the GEMM backend's packed-B panel layout (see PackBFn in tensor/gemm.hpp)
// for the block [k0, k0+kc) x [n0, n0+nc) of the virtual [patch, outH*outW]
// column matrix. The forward conv never materializes that matrix.
void im2col_pack_block(const float* img, const Conv2dGeom& g, std::int64_t k0,
                       std::int64_t kc, std::int64_t n0, std::int64_t nc,
                       float* out) {
  const std::int64_t ow = g.out_w();
  for (std::int64_t jb = 0; jb < nc; jb += kGemmNR) {
    const std::int64_t nr = std::min(kGemmNR, nc - jb);
    for (std::int64_t p = 0; p < kc; ++p) {
      const std::int64_t prow = k0 + p;
      const std::int64_t kx = prow % g.kernel;
      const std::int64_t ky = (prow / g.kernel) % g.kernel;
      const std::int64_t ch = prow / (g.kernel * g.kernel);
      const float* plane = img + ch * g.in_h * g.in_w;
      float* dst = out + p * kGemmNR;
      std::int64_t y = (n0 + jb) / ow;
      std::int64_t x = (n0 + jb) % ow;
      std::int64_t iy = y * g.stride + ky - g.pad;
      std::int64_t ix = x * g.stride + kx - g.pad;
      for (std::int64_t j = 0; j < nr; ++j) {
        dst[j] = (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                     ? plane[iy * g.in_w + ix]
                     : 0.0f;
        if (++x == ow) {
          x = 0;
          ix = kx - g.pad;
          iy += g.stride;
        } else {
          ix += g.stride;
        }
      }
      for (std::int64_t j = nr; j < kGemmNR; ++j) dst[j] = 0.0f;
    }
    out += kc * kGemmNR;
  }
}

Conv2dGeom geom_from(const Tensor& input, const Tensor& weight,
                     std::int64_t stride, std::int64_t pad) {
  QCAPS_CHECK_MSG(input.ndim() == 4, "conv2d input must be [B,C,H,W], got "
                                         << shape_to_string(input.shape()));
  QCAPS_CHECK_MSG(weight.ndim() == 4, "conv2d weight must be [F,C,K,K], got "
                                          << shape_to_string(weight.shape()));
  QCAPS_CHECK_MSG(weight.dim(2) == weight.dim(3), "only square kernels supported");
  QCAPS_CHECK_MSG(input.dim(1) == weight.dim(1),
                  "channel mismatch: input C=" << input.dim(1) << " weight C="
                                               << weight.dim(1));
  Conv2dGeom g;
  g.in_c = input.dim(1);
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.out_c = weight.dim(0);
  g.kernel = weight.dim(2);
  g.stride = stride;
  g.pad = pad;
  QCAPS_CHECK_MSG(g.out_h() > 0 && g.out_w() > 0,
                  "conv2d produces empty output for input "
                      << shape_to_string(input.shape()));
  return g;
}
}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::int64_t stride, std::int64_t pad) {
  const Conv2dGeom g = geom_from(input, weight, stride, pad);
  const std::int64_t batch = input.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.in_c * g.kernel * g.kernel;
  const std::int64_t ncols = oh * ow;
  const bool has_bias = !bias.empty();
  if (has_bias) QCAPS_CHECK_MSG(bias.dim(0) == g.out_c, "bias size mismatch");

  Tensor output({batch, g.out_c, oh, ow});
  const std::int64_t img_in = g.in_c * g.in_h * g.in_w;
  const std::int64_t img_out = g.out_c * oh * ow;

  const auto image = [&](std::int64_t b) {
    const float* img = input.data() + b * img_in;
    // out[F, ncols] = W[F, patch] * cols[patch, ncols], with the column
    // matrix produced block-by-block straight into packed panels.
    gemm_pack_b(g.out_c, ncols, patch, weight.data(), patch,
                [img, &g](std::int64_t k0, std::int64_t kc, std::int64_t n0,
                          std::int64_t nc, float* packed) {
                  im2col_pack_block(img, g, k0, kc, n0, nc, packed);
                },
                output.data() + b * img_out, ncols, /*accumulate=*/false);
    if (has_bias) {
      float* out = output.data() + b * img_out;
      for (std::int64_t f = 0; f < g.out_c; ++f) {
        const float bv = bias[f];
        float* plane = out + f * ncols;
        for (std::int64_t i = 0; i < ncols; ++i) plane[i] += bv;
      }
    }
  };
  // Parallelize across images only when the batch can occupy every thread.
  // Otherwise loop outside any parallel construct so the GEMM backend opens
  // its own team over output tiles: a team nested in an inactive
  // `parallel if (false)` region starts fresh OS threads on every call.
#ifdef _OPENMP
  if (batch >= omp_get_max_threads()) {
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < batch; ++b) image(b);
    return output;
  }
#endif
  for (std::int64_t b = 0; b < batch; ++b) image(b);
  return output;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, std::int64_t stride,
                            std::int64_t pad, bool has_bias) {
  const Conv2dGeom g = geom_from(input, weight, stride, pad);
  const std::int64_t batch = input.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  QCAPS_CHECK_MSG(grad_output.ndim() == 4 && grad_output.dim(0) == batch &&
                      grad_output.dim(1) == g.out_c && grad_output.dim(2) == oh &&
                      grad_output.dim(3) == ow,
                  "grad_output shape mismatch: " << shape_to_string(grad_output.shape()));

  const std::int64_t patch = g.in_c * g.kernel * g.kernel;
  const std::int64_t ncols = oh * ow;
  const std::int64_t img_in = g.in_c * g.in_h * g.in_w;
  const std::int64_t img_out = g.out_c * ncols;

  Conv2dGrads grads;
  grads.grad_input = Tensor(input.shape());
  grads.grad_weight = Tensor(weight.shape());
  if (has_bias) grads.grad_bias = Tensor({g.out_c});

#pragma omp parallel
  {
    std::vector<float> cols(static_cast<std::size_t>(patch * ncols));
    Tensor local_gw(weight.shape());
    Tensor local_gb = has_bias ? Tensor({g.out_c}) : Tensor();
#pragma omp for schedule(static) nowait
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* go = grad_output.data() + b * img_out;
      // grad_weight[F, patch] += gO[F, ncols] * cols[patch, ncols]^T
      im2col(input.data() + b * img_in, g, cols.data());
      gemm_ex(Trans::kN, Trans::kT, g.out_c, patch, ncols, go, ncols,
              cols.data(), ncols, local_gw.data(), patch, /*accumulate=*/true);
      // grad_cols[patch, ncols] = W[F, patch]^T * gO[F, ncols], scattered
      // straight through the col2im map into this image's zeroed gradient:
      // virtual-C row m0+i is patch entry (ch, ky, kx), column n0+j is output
      // pixel (y, x), and the tile element lands on input pixel
      // (y*stride + ky - pad, x*stride + kx - pad) when in bounds. The
      // [patch, ncols] column matrix is never materialized, and K-blocked
      // partial tiles are correct because the scatter accumulates.
      float* gi = grads.grad_input.data() + b * img_in;
      gemm_scatter_c(
          Trans::kT, Trans::kN, patch, ncols, g.out_c, weight.data(), patch,
          go, ncols,
          [gi, &g, ow](std::int64_t m0, std::int64_t mr, std::int64_t n0,
                       std::int64_t nr, const float* tile) {
            for (std::int64_t i = 0; i < mr; ++i) {
              const std::int64_t prow = m0 + i;
              const std::int64_t kx = prow % g.kernel;
              const std::int64_t ky = (prow / g.kernel) % g.kernel;
              const std::int64_t ch = prow / (g.kernel * g.kernel);
              float* plane = gi + ch * g.in_h * g.in_w;
              const float* src = tile + i * kGemmNR;
              std::int64_t iy = (n0 / ow) * g.stride + ky - g.pad;
              std::int64_t ix = (n0 % ow) * g.stride + kx - g.pad;
              std::int64_t x = n0 % ow;
              for (std::int64_t j = 0; j < nr; ++j) {
                if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                  plane[iy * g.in_w + ix] += src[j];
                if (++x == ow) {
                  x = 0;
                  ix = kx - g.pad;
                  iy += g.stride;
                } else {
                  ix += g.stride;
                }
              }
            }
          });
      if (has_bias) {
        for (std::int64_t f = 0; f < g.out_c; ++f) {
          const float* gorow = go + f * ncols;
          float acc = 0.0f;
          for (std::int64_t i = 0; i < ncols; ++i) acc += gorow[i];
          local_gb[f] += acc;
        }
      }
    }
#pragma omp critical
    {
      axpy(grads.grad_weight, 1.0f, local_gw);
      if (has_bias) axpy(grads.grad_bias, 1.0f, local_gb);
    }
  }
  return grads;
}

}  // namespace qcaps::tensor
