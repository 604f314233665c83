#include "nn/routing.hpp"

#include <algorithm>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "nn/caps_ops.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/ops.hpp"

namespace qcaps::nn {

// Quantizer-free fast path: the whole iteration sequence runs sample by
// sample, so each [Nout, Nin, D] votes slab is streamed from memory once and
// every later access (agreement, next iteration's weighted sum) hits cache.
// Iteration 0 skips the softmax outright: b = 0 makes the couplings exactly
// uniform (softmax of a constant row computes 1 * (1 / Nout) — the same
// float value the fill produces).
//
// Without a tape the per-sample logits and couplings live TRANSPOSED
// ([Nout, Nin], each output capsule's column contiguous): the softmax runs
// through softmax_rows_t and the slab kernels take the couplings with unit
// stride, so no row-major logit transpose happens anywhere in the iteration
// loop. Only the final couplings are transposed once into last_c_'s
// [R, Nin, Nout] contract. On the scalar tier this is bit-identical to the
// row-major path (softmax_rows_t keeps each row's max/exp/sum in j order and
// the slab kernels only change addressing); the vector tiers share the
// pointwise exp polynomial but reduce the row-major softmax in vector order,
// so the two paths agree to softmax tolerance there. The keep_tape path
// stays row-major because backward consumes the tapes in that layout.
tensor::Tensor DynamicRouting::forward_fused(const tensor::Tensor& votes,
                                             int iterations, bool keep_tape) {
  const std::int64_t r_count = votes.dim(0), nout = votes.dim(1),
                     nin = votes.dim(2), d = votes.dim(3);
  const float* u = votes.data();
  tensor::Tensor v_out({r_count, nout, d});
  last_c_ = tensor::Tensor({r_count, nin, nout});
  if (keep_tape) {
    for (int it = 0; it < iterations; ++it) {
      c_tape_.emplace_back(tensor::Shape{r_count, nin, nout});
      s_tape_.emplace_back(tensor::Shape{r_count, nout, d});
      v_tape_.emplace_back(tensor::Shape{r_count, nout, d});
    }
  }
  const float uniform = 1.0f / static_cast<float>(nout);
  const std::int64_t row_elems = nin * nout;
  const std::int64_t caps_elems = nout * d;

  // The row loop runs in a team only when there are rows to share. Otherwise
  // it runs outside any parallel construct, not in an inactive region: the
  // routing kernels below open their own team when they have the work, and
  // a team nested in an inactive region starts fresh OS threads every time.
  const auto rows = [&](std::int64_t r0, std::int64_t r1) {
    // Per-thread scratch: the logits never outlive the forward pass, and
    // without a tape neither do the per-iteration c/s/v.
    std::vector<float> b_loc(static_cast<std::size_t>(row_elems));
    std::vector<float> c_loc, s_loc, v_loc;
    if (!keep_tape) {
      c_loc.resize(static_cast<std::size_t>(row_elems));
      s_loc.resize(static_cast<std::size_t>(caps_elems));
      v_loc.resize(static_cast<std::size_t>(caps_elems));
    }
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t coff = r * row_elems;
      const std::int64_t soff = r * caps_elems;
      const float* ur = u + r * nout * nin * d;
      std::fill(b_loc.begin(), b_loc.end(), 0.0f);
      if (keep_tape) {
        for (int it = 0; it < iterations; ++it) {
          const bool last = it + 1 == iterations;
          float* c_ptr = c_tape_[static_cast<std::size_t>(it)].data() + coff;
          if (it == 0) {
            std::fill(c_ptr, c_ptr + row_elems, uniform);
          } else {
            std::copy(b_loc.begin(), b_loc.end(), c_ptr);
            tensor::softmax_rows(c_ptr, nin, nout);
          }
          float* s_ptr = s_tape_[static_cast<std::size_t>(it)].data() + soff;
          float* v_ptr = v_tape_[static_cast<std::size_t>(it)].data() + soff;
          if (last) {
            tensor::routing_weighted_sum_squash(ur, c_ptr, s_ptr, v_ptr, 1,
                                                nin, nout, d, 1e-8f);
            std::copy(c_ptr, c_ptr + row_elems, last_c_.data() + coff);
            std::copy(v_ptr, v_ptr + caps_elems, v_out.data() + soff);
          } else {
            tensor::routing_iteration_fused(ur, c_ptr, s_ptr, v_ptr,
                                            b_loc.data(), 1, nin, nout, d,
                                            1e-8f);
          }
        }
      } else {
        // Transposed iteration loop: b_loc/c_loc are [Nout, Nin] here.
        for (int it = 0; it < iterations; ++it) {
          const bool last = it + 1 == iterations;
          float* c_ptr = c_loc.data();
          if (it == 0) {
            std::fill(c_ptr, c_ptr + row_elems, uniform);
          } else {
            std::copy(b_loc.begin(), b_loc.end(), c_ptr);
            tensor::softmax_rows_t(c_ptr, nin, nout);
          }
          float* v_ptr = last ? v_out.data() + soff : v_loc.data();
          if (last) {
            tensor::routing_weighted_sum_squash(ur, c_ptr, s_loc.data(), v_ptr,
                                                1, nin, nout, d, 1e-8f,
                                                /*c_transposed=*/true);
            float* lc = last_c_.data() + coff;
            for (std::int64_t j = 0; j < nout; ++j)
              for (std::int64_t i = 0; i < nin; ++i)
                lc[i * nout + j] = c_ptr[j * nin + i];
          } else {
            tensor::routing_iteration_fused(ur, c_ptr, s_loc.data(), v_ptr,
                                            b_loc.data(), 1, nin, nout, d,
                                            1e-8f, /*c_transposed=*/true);
          }
        }
      }
    }
  };
#ifdef _OPENMP
  if (r_count > 1 && !omp_in_parallel() &&
      iterations * r_count * row_elems * d > (std::int64_t{1} << 15)) {
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t per = (r_count + nt - 1) / nt;
      const std::int64_t r0 = std::min(omp_get_thread_num() * per, r_count);
      rows(r0, std::min(r0 + per, r_count));
    }
    return v_out;
  }
#endif
  rows(0, r_count);
  return v_out;
}

tensor::Tensor DynamicRouting::forward(const tensor::Tensor& votes,
                                       int iterations, bool keep_tape,
                                       const RoutingQuantPoints& quant) {
  QCAPS_CHECK_MSG(votes.ndim() == 4, "routing votes must be [R, Nout, Nin, D]");
  QCAPS_CHECK(iterations >= 1);
  const std::int64_t r_count = votes.dim(0), nout = votes.dim(1),
                     nin = votes.dim(2), d = votes.dim(3);
  iters_ = iterations;
  c_tape_.clear();
  s_tape_.clear();
  v_tape_.clear();
  if (keep_tape) votes_ = votes;

  if (!quant.routing && !quant.activations)
    return forward_fused(votes, iterations, keep_tape);

  tensor::Tensor b({r_count, nin, nout});
  tensor::Tensor v;
  const float* u = votes.data();

  for (int it = 0; it < iterations; ++it) {
    // Logits are quantized with QDR right before the softmax (Fig. 9).
    if (quant.routing) quant.routing->apply(b);
    tensor::Tensor c = tensor::softmax_last(b);
    if (quant.activations) quant.activations->apply(c);

    // s[r, j, :] = Σ_i c[r, i, j] û[r, j, i, :]; v = squash(s). Fig. 9's QDR
    // point sits between the weighted sum and the squash; without it the two
    // run fused while the s row is hot.
    tensor::Tensor s({r_count, nout, d});
    if (quant.routing) {
      tensor::routing_weighted_sum(u, c.data(), s.data(), r_count, nin, nout,
                                   d);
      quant.routing->apply(s);
      v = squash_last(s);
    } else {
      v = tensor::Tensor({r_count, nout, d});
      tensor::routing_weighted_sum_squash(u, c.data(), s.data(), v.data(),
                                          r_count, nin, nout, d, 1e-8f);
    }
    if (quant.activations) quant.activations->apply(v);

    if (keep_tape) {
      c_tape_.push_back(c);
      s_tape_.push_back(s);
      v_tape_.push_back(v);
    }
    if (it + 1 == iterations) {
      last_c_ = std::move(c);
      break;
    }

    // Agreement a[r, i, j] = v[r, j, :] · û[r, j, i, :]; b += a. With no
    // activation quantizer on a, the update fuses straight into b.
    if (quant.activations) {
      tensor::Tensor a({r_count, nin, nout});
      tensor::routing_agreement(u, v.data(), a.data(), r_count, nin, nout, d,
                                /*accumulate=*/false);
      quant.activations->apply(a);
      tensor::axpy(b, 1.0f, a);
    } else {
      tensor::routing_agreement(u, v.data(), b.data(), r_count, nin, nout, d,
                                /*accumulate=*/true);
    }
  }
  return v;
}

tensor::Tensor DynamicRouting::backward(const tensor::Tensor& grad_v) {
  QCAPS_CHECK_MSG(!votes_.empty() && !v_tape_.empty(),
                  "routing backward without a keep_tape forward");
  const std::int64_t r_count = votes_.dim(0), nout = votes_.dim(1),
                     nin = votes_.dim(2), d = votes_.dim(3);
  QCAPS_CHECK(grad_v.ndim() == 3 && grad_v.dim(0) == r_count &&
              grad_v.dim(1) == nout && grad_v.dim(2) == d);

  tensor::Tensor grad_votes(votes_.shape());
  tensor::Tensor gv = grad_v;                       // dL/dv_r for current r
  tensor::Tensor gb({r_count, nin, nout});          // dL/db_r accumulator
  const float* u = votes_.data();

  for (int it = iters_ - 1; it >= 0; --it) {
    const tensor::Tensor& c = c_tape_[static_cast<std::size_t>(it)];
    const tensor::Tensor& s = s_tape_[static_cast<std::size_t>(it)];
    // v = squash(s)
    tensor::Tensor gs = squash_last_backward(s, gv);
    // s = Σ_i c ⊙ û :  gc[i,j] = û_j|i·gs[j] ;  gU[j,i,:] += c[i,j] * gs[j,:]
    tensor::Tensor gc({r_count, nin, nout});
    tensor::routing_weighted_sum_backward(u, c.data(), gs.data(), gc.data(),
                                          grad_votes.data(), r_count, nin,
                                          nout, d);
    // c = softmax(b) over the Nout axis (the last axis of [R, Nin, Nout]).
    tensor::axpy(gb, 1.0f, tensor::softmax_last_backward(c, gc));

    if (it == 0) break;

    // b_it = b_{it-1} + a_{it-1},  a_{it-1}[i,j] = v_{it-1}[j] · û_j|i.
    // gb passes through to b_{it-1} unchanged; additionally:
    //   gv_{it-1}[j,:] = Σ_i gb[i,j] û[j,i,:] ;  gU[j,i,:] += gb[i,j] v[j,:]
    const tensor::Tensor& v_prev = v_tape_[static_cast<std::size_t>(it - 1)];
    tensor::Tensor gv_prev({r_count, nout, d});
    tensor::routing_agreement_backward(u, v_prev.data(), gb.data(),
                                       gv_prev.data(), grad_votes.data(),
                                       r_count, nin, nout, d);
    gv = std::move(gv_prev);
  }
  return grad_votes;
}

}  // namespace qcaps::nn
