// 2-D convolution kernels (im2col + GEMM), forward and backward.
//
// Layout conventions: inputs/outputs are NCHW, weights are [F, C, Kh, Kw].
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace qcaps::tensor {

struct Conv2dGeom {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0, kernel = 1, stride = 1, pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// Unfold one image [C, H, W] into columns [C*K*K, outH*outW].
void im2col(const float* img, const Conv2dGeom& g, float* cols);
/// Fold columns back, accumulating into img (used for input gradients).
void col2im(const float* cols, const Conv2dGeom& g, float* img);

/// Forward: input [B, C, H, W], weight [F, C, K, K], bias [F] (may be empty)
/// -> output [B, F, outH, outW].
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::int64_t stride, std::int64_t pad);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};

/// Backward pass; grad_output is [B, F, outH, outW].
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, std::int64_t stride,
                            std::int64_t pad, bool has_bias);

}  // namespace qcaps::tensor
