#include "nn/conv_caps.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "nn/caps_ops.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace qcaps::nn {

// ---- ConvCapsLayer ----------------------------------------------------------

ConvCapsLayer::ConvCapsLayer(std::string name, std::int64_t in_types,
                             std::int64_t in_dim, std::int64_t out_types,
                             std::int64_t out_dim, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad,
                             common::Rng& rng, bool batch_norm)
    : WeightedLayer(std::move(name)),
      in_types_(in_types),
      in_dim_(in_dim),
      out_types_(out_types),
      out_dim_(out_dim),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  const std::int64_t in_c = in_types * in_dim;
  const std::int64_t out_c = out_types * out_dim;
  const float sd = std::sqrt(2.0f / static_cast<float>(in_c * kernel * kernel));
  weight_ = tensor::Tensor::randn({out_c, in_c, kernel, kernel}, rng, 0.0f, sd);
  grad_weight_ = tensor::Tensor(weight_.shape());
  bias_ = tensor::Tensor({out_c});
  grad_bias_ = tensor::Tensor(bias_.shape());
  if (batch_norm) bn_ = std::make_unique<BatchNorm2d>(out_c);
}

std::vector<tensor::Tensor*> ConvCapsLayer::params() {
  auto out = WeightedLayer::params();
  if (bn_) {
    out.push_back(&bn_->gamma());
    out.push_back(&bn_->beta());
  }
  return out;
}

std::vector<tensor::Tensor*> ConvCapsLayer::grads() {
  auto out = WeightedLayer::grads();
  if (bn_) {
    out.push_back(&bn_->grad_gamma());
    out.push_back(&bn_->grad_beta());
  }
  return out;
}

std::vector<tensor::Tensor*> ConvCapsLayer::state() {
  if (!bn_) return {};
  return {&bn_->running_mean(), &bn_->running_var()};
}

tensor::Tensor ConvCapsLayer::forward(const tensor::Tensor& x, Phase phase) {
  QCAPS_CHECK_MSG(x.dim(1) == in_types_ * in_dim_,
                  name() << ": expected " << in_types_ * in_dim_
                         << " channels, got " << x.dim(1));
  const std::int64_t batch = x.dim(0);
  if (phase == Phase::kTrain) cached_input_ = x;
  tensor::Tensor s = tensor::conv2d_forward(x, effective_weight(),
                                            effective_bias(), stride_, pad_);
  set_macs_per_sample(s.numel() / batch * in_types_ * in_dim_ * kernel_ *
                      kernel_);
  if (bn_) s = bn_->forward(s, phase == Phase::kTrain);
  if (phase == Phase::kTrain) cached_pre_squash_ = s;
  tensor::Tensor v = squash_channels(s, out_dim_);
  return finish_forward(std::move(v), batch);
}

tensor::Tensor ConvCapsLayer::backward(const tensor::Tensor& grad_out) {
  QCAPS_CHECK_MSG(!cached_input_.empty(),
                  "backward without a preceding train-phase forward");
  tensor::Tensor gs =
      squash_channels_backward(cached_pre_squash_, grad_out, out_dim_);
  if (bn_) gs = bn_->backward(gs);
  auto grads = tensor::conv2d_backward(cached_input_, weight_, gs, stride_,
                                       pad_, /*has_bias=*/true);
  tensor::axpy(grad_weight_, 1.0f, grads.grad_weight);
  tensor::axpy(grad_bias_, 1.0f, grads.grad_bias);
  return std::move(grads.grad_input);
}

// ---- RoutedConvCapsLayer ----------------------------------------------------

RoutedConvCapsLayer::RoutedConvCapsLayer(std::string name,
                                         std::int64_t in_types,
                                         std::int64_t in_dim,
                                         std::int64_t out_types,
                                         std::int64_t out_dim,
                                         std::int64_t kernel,
                                         std::int64_t stride, std::int64_t pad,
                                         int iterations, common::Rng& rng)
    : WeightedLayer(std::move(name)),
      in_types_(in_types),
      in_dim_(in_dim),
      out_types_(out_types),
      out_dim_(out_dim),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      iters_(iterations) {
  // Per input type t: a conv weight [Tout*Dout, Din, K, K] producing that
  // type's votes. Stored stacked along the first axis.
  const std::int64_t votes_c = out_types * out_dim;
  const float sd = std::sqrt(2.0f / static_cast<float>(in_dim * kernel * kernel));
  weight_ = tensor::Tensor::randn({in_types * votes_c, in_dim, kernel, kernel},
                                  rng, 0.0f, sd);
  grad_weight_ = tensor::Tensor(weight_.shape());
}

tensor::Tensor RoutedConvCapsLayer::weight_slice(std::int64_t type) const {
  const std::int64_t votes_c = out_types_ * out_dim_;
  const std::int64_t slice = votes_c * in_dim_ * kernel_ * kernel_;
  tensor::Tensor w({votes_c, in_dim_, kernel_, kernel_});
  std::memcpy(w.data(), weight_.data() + type * slice,
              static_cast<std::size_t>(slice) * sizeof(float));
  return w;
}

tensor::Tensor RoutedConvCapsLayer::forward(const tensor::Tensor& x,
                                            Phase phase) {
  QCAPS_CHECK_MSG(x.dim(1) == in_types_ * in_dim_,
                  name() << ": expected " << in_types_ * in_dim_
                         << " channels, got " << x.dim(1));
  const std::int64_t batch = x.dim(0);
  const std::int64_t h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = h * w;
  batch_ = batch;

  const tensor::Tensor& wq = effective_weight();
  const std::int64_t votes_c = out_types_ * out_dim_;
  const std::int64_t patch_t = in_dim_ * kernel_ * kernel_;
  const std::int64_t wslice = votes_c * patch_t;

  // One im2col of the full input per image; capsule type t's patch rows are
  // the contiguous block [t*patch_t, (t+1)*patch_t), so the per-type vote
  // convolutions collapse into one strided GEMM batch over types.
  tensor::Conv2dGeom g;
  g.in_c = in_types_ * in_dim_;
  g.in_h = h;
  g.in_w = w;
  g.out_c = votes_c;
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  out_h_ = g.out_h();
  out_w_ = g.out_w();
  QCAPS_CHECK_MSG(out_h_ > 0 && out_w_ > 0,
                  name() << ": vote conv produces empty output for input "
                         << tensor::shape_to_string(x.shape()));
  const std::int64_t oplane = out_h_ * out_w_;
  const std::int64_t ncols = oplane;
  const std::int64_t patch_full = g.in_c * kernel_ * kernel_;

  tensor::Tensor votes({batch * oplane, out_types_, in_types_, out_dim_});
  float* pvotes = votes.data();
  const auto images = [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float> cols(static_cast<std::size_t>(patch_full * ncols));
    std::vector<float> vbuf(static_cast<std::size_t>(in_types_ * votes_c * ncols));
    for (std::int64_t b = b0; b < b1; ++b) {
      tensor::im2col(x.data() + b * g.in_c * plane, g, cols.data());
      // vbuf[t][jd, p] = W_t[jd, patch_t] * cols[t*patch_t:, p]
      tensor::gemm_batch(tensor::Trans::kN, tensor::Trans::kN, votes_c, ncols,
                         patch_t, wq.data(), patch_t, wslice, cols.data(),
                         ncols, patch_t * ncols, vbuf.data(), ncols,
                         votes_c * ncols, in_types_, /*accumulate=*/false);
      // Scatter vbuf[t][(j, dd), p] -> votes[(b, p), j, t, dd]: the j-major
      // routing layout, emitted directly (this pass replaces the old i-major
      // scatter — no extra transpose).
      for (std::int64_t t = 0; t < in_types_; ++t) {
        const float* pv = vbuf.data() + t * votes_c * ncols;
        for (std::int64_t j = 0; j < out_types_; ++j)
          for (std::int64_t dd = 0; dd < out_dim_; ++dd) {
            const float* src = pv + (j * out_dim_ + dd) * oplane;
            for (std::int64_t p = 0; p < oplane; ++p)
              pvotes[(((b * oplane + p) * out_types_ + j) * in_types_ + t) *
                         out_dim_ +
                     dd] = src[p];
          }
      }
    }
  };
  // Parallelize across images (per-thread scratch above) only when the batch
  // can occupy every thread. Otherwise loop outside any parallel construct
  // so the inner GEMM batch opens its own team over types/tiles: a team
  // nested in an inactive `parallel if (false)` region starts fresh OS
  // threads on every call.
#ifdef _OPENMP
  if (batch >= omp_get_max_threads()) {
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t per = (batch + nt - 1) / nt;
      const std::int64_t b0 = std::min(omp_get_thread_num() * per, batch);
      images(b0, std::min(b0 + per, batch));
    }
  } else
#endif
  {
    images(0, batch);
  }

  // The backward pass re-convolves per type, so keep the per-type input
  // slices on the training tape.
  cached_slices_.clear();
  if (phase == Phase::kTrain) {
    for (std::int64_t t = 0; t < in_types_; ++t) {
      tensor::Tensor xs({batch, in_dim_, h, w});
      for (std::int64_t b = 0; b < batch; ++b)
        std::memcpy(xs.data() + b * in_dim_ * plane,
                    x.data() + (b * in_types_ * in_dim_ + t * in_dim_) * plane,
                    static_cast<std::size_t>(in_dim_ * plane) * sizeof(float));
      cached_slices_.push_back(std::move(xs));
    }
  }

  if (quant_.activations) quant_.activations->apply(votes);
  RoutingQuantPoints qp;
  qp.activations = quant_.activations ? &*quant_.activations : nullptr;
  qp.routing = quant_.routing ? &*quant_.routing : nullptr;
  tensor::Tensor v = routing_.forward(votes, iters_, phase == Phase::kTrain, qp);

  // Gather v[(b, y, x), j, dd] -> out[b, j*Dout+dd, y, x].
  tensor::Tensor out({batch, votes_c, out_h_, out_w_});
  const float* pvv = v.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::int64_t jd = 0; jd < votes_c; ++jd)
      for (std::int64_t p = 0; p < oplane; ++p)
        po[(b * votes_c + jd) * oplane + p] =
            pvv[(b * oplane + p) * votes_c + jd];

  const std::int64_t conv_macs = in_types_ * votes_c * oplane * in_dim_ *
                                 kernel_ * kernel_;
  const std::int64_t routing_macs = static_cast<std::int64_t>(iters_) * 2 *
                                    oplane * in_types_ * votes_c;
  set_macs_per_sample(conv_macs + routing_macs);
  return finish_forward(std::move(out), batch);
}

tensor::Tensor RoutedConvCapsLayer::backward(const tensor::Tensor& grad_out) {
  QCAPS_CHECK_MSG(!cached_slices_.empty(),
                  "backward without a preceding train-phase forward");
  const std::int64_t batch = batch_;
  const std::int64_t votes_c = out_types_ * out_dim_;
  const std::int64_t oplane = out_h_ * out_w_;

  // grad_out fmap -> grad over v [R, Tout, Dout].
  tensor::Tensor gv({batch * oplane, out_types_, out_dim_});
  {
    const float* pg = grad_out.data();
    float* pgv = gv.data();
    for (std::int64_t b = 0; b < batch; ++b)
      for (std::int64_t jd = 0; jd < votes_c; ++jd)
        for (std::int64_t p = 0; p < oplane; ++p)
          pgv[(b * oplane + p) * votes_c + jd] =
              pg[(b * votes_c + jd) * oplane + p];
  }
  tensor::Tensor grad_votes = routing_.backward(gv);

  // Per type: grad votes fmap -> conv backward -> weight and input grads.
  const std::int64_t h = cached_slices_[0].dim(2);
  const std::int64_t w = cached_slices_[0].dim(3);
  const std::int64_t plane = h * w;
  tensor::Tensor gx({batch, in_types_ * in_dim_, h, w});
  const std::int64_t wslice = votes_c * in_dim_ * kernel_ * kernel_;
  for (std::int64_t t = 0; t < in_types_; ++t) {
    tensor::Tensor gvt({batch, votes_c, out_h_, out_w_});
    const float* pgv = grad_votes.data();  // j-major [R, Tout, Tin, Dout]
    float* pg = gvt.data();
    for (std::int64_t b = 0; b < batch; ++b)
      for (std::int64_t j = 0; j < out_types_; ++j)
        for (std::int64_t dd = 0; dd < out_dim_; ++dd)
          for (std::int64_t p = 0; p < oplane; ++p)
            pg[(b * votes_c + j * out_dim_ + dd) * oplane + p] =
                pgv[(((b * oplane + p) * out_types_ + j) * in_types_ + t) *
                        out_dim_ +
                    dd];
    tensor::Tensor wt = weight_slice(t);
    auto grads = tensor::conv2d_backward(cached_slices_[static_cast<std::size_t>(t)],
                                         wt, gvt, stride_, pad_,
                                         /*has_bias=*/false);
    // Accumulate the weight-slice gradient.
    float* gw = grad_weight_.data() + t * wslice;
    const float* gsrc = grads.grad_weight.data();
    for (std::int64_t i = 0; i < wslice; ++i) gw[i] += gsrc[i];
    // Scatter the input-slice gradient back into the full channel layout.
    for (std::int64_t b = 0; b < batch; ++b)
      std::memcpy(gx.data() + (b * in_types_ * in_dim_ + t * in_dim_) * plane,
                  grads.grad_input.data() + b * in_dim_ * plane,
                  static_cast<std::size_t>(in_dim_ * plane) * sizeof(float));
  }
  return gx;
}

// ---- CapsBlockLayer ---------------------------------------------------------

CapsBlockLayer::CapsBlockLayer(std::string name, std::int64_t in_types,
                               std::int64_t in_dim, std::int64_t out_types,
                               std::int64_t out_dim, std::int64_t kernel,
                               bool routed_skip, int iterations,
                               common::Rng& rng)
    : Layer(std::move(name)), routed_skip_(routed_skip) {
  const std::int64_t pad = kernel / 2;
  conv1_ = std::make_unique<ConvCapsLayer>(this->name() + "/conv1", in_types,
                                           in_dim, out_types, out_dim, kernel,
                                           /*stride=*/2, pad, rng);
  conv2_ = std::make_unique<ConvCapsLayer>(this->name() + "/conv2", out_types,
                                           out_dim, out_types, out_dim, kernel,
                                           /*stride=*/1, pad, rng);
  conv3_ = std::make_unique<ConvCapsLayer>(this->name() + "/conv3", out_types,
                                           out_dim, out_types, out_dim, kernel,
                                           /*stride=*/1, pad, rng);
  if (routed_skip) {
    skip_ = std::make_unique<RoutedConvCapsLayer>(
        this->name() + "/skip3d", out_types, out_dim, out_types, out_dim,
        kernel, /*stride=*/1, pad, iterations, rng);
  } else {
    skip_ = std::make_unique<ConvCapsLayer>(this->name() + "/skip", out_types,
                                            out_dim, out_types, out_dim,
                                            kernel, /*stride=*/1, pad, rng);
  }
}

void CapsBlockLayer::sync_quant() {
  if (synced_version_ == quant_.version) return;
  for (Layer* l : {static_cast<Layer*>(conv1_.get()),
                   static_cast<Layer*>(conv2_.get()),
                   static_cast<Layer*>(conv3_.get()), skip_.get()}) {
    l->quant().set_weights(quant_.weights);
    l->quant().set_activations(quant_.activations);
  }
  skip_->quant().set_routing(quant_.routing);
  synced_version_ = quant_.version;
}

tensor::Tensor CapsBlockLayer::forward(const tensor::Tensor& x, Phase phase) {
  sync_quant();
  const std::int64_t batch = x.dim(0);
  tensor::Tensor x1 = conv1_->forward(x, phase);
  tensor::Tensor x2 = conv2_->forward(x1, phase);
  tensor::Tensor x3 = conv3_->forward(x2, phase);
  tensor::Tensor sk = skip_->forward(x1, phase);
  tensor::Tensor out = tensor::add(x3, sk);
  set_macs_per_sample(conv1_->macs_per_sample() + conv2_->macs_per_sample() +
                      conv3_->macs_per_sample() + skip_->macs_per_sample());
  return finish_forward(std::move(out), batch);
}

tensor::Tensor CapsBlockLayer::backward(const tensor::Tensor& grad_out) {
  tensor::Tensor g1_skip = skip_->backward(grad_out);
  tensor::Tensor g2 = conv3_->backward(grad_out);
  tensor::Tensor g1_main = conv2_->backward(g2);
  tensor::axpy(g1_main, 1.0f, g1_skip);
  return conv1_->backward(g1_main);
}

std::vector<tensor::Tensor*> CapsBlockLayer::params() {
  std::vector<tensor::Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(conv1_.get()),
                   static_cast<Layer*>(conv2_.get()),
                   static_cast<Layer*>(conv3_.get()), skip_.get()}) {
    const auto p = l->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<tensor::Tensor*> CapsBlockLayer::grads() {
  std::vector<tensor::Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(conv1_.get()),
                   static_cast<Layer*>(conv2_.get()),
                   static_cast<Layer*>(conv3_.get()), skip_.get()}) {
    const auto g = l->grads();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

std::vector<tensor::Tensor*> CapsBlockLayer::state() {
  std::vector<tensor::Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(conv1_.get()),
                   static_cast<Layer*>(conv2_.get()),
                   static_cast<Layer*>(conv3_.get()), skip_.get()}) {
    const auto s = l->state();
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

}  // namespace qcaps::nn
