// Integer-arithmetic CapsNet operators.
//
// Every operator follows the standard accelerator organization: widening
// multiplies into a 64-bit accumulator (frac width = sum of operand frac
// widths), one rescale-with-rounding into the destination format, saturation
// at the destination range. The squash and softmax use the bit-accurate unit
// datapaths from src/hwmodel (Newton-Raphson inverse sqrt, exp LUT).
//
// Activations in and out are QActivations, held in the container their
// format picks (int8 up to 8 bits, int16 up to 16, int64 otherwise); weights
// and biases are QTensors. Each GEMM-shaped op has one path: its input is
// gathered into the operand type of the tier packed_tier picks (int8 or
// int16 for the packed qgemm kernels, int64 for the exact kernel), the
// tier's kernel requantizes strips of outputs, and the op's one epilogue
// stores them into the output's container.
#pragma once

#include <memory>

#include "qengine/qtensor.hpp"

namespace qcaps::qengine {

/// Reusable packed-container cache for a constant qgemm operand (weights):
/// built once, it saves every subsequent conv2d/vote_transform call the
/// O(|w|) range scan and packed copy on the hot path — the serving stack
/// builds one per weight tensor and reuses it across all requests.
///
/// Two storage modes. make_operand_cache() fills the owning vectors (the
/// compile path). The .qcg loader instead sets the *_view pointers into a
/// read-only mapped file kept alive by `owner` — copying such a cache (the
/// serving pool replicating its model per worker) duplicates two pointers
/// and a shared_ptr, so N replicas share ONE weight image (io/ docs).
struct QGemmOperandCache {
  std::int64_t max_abs = -1;      ///< -1 = not built
  std::vector<std::int8_t> i8;    ///< filled when the values fit int8
  std::vector<std::int16_t> i16;  ///< filled when the values fit int16
  const std::int8_t* i8_view = nullptr;    ///< zero-copy alternative to i8
  const std::int16_t* i16_view = nullptr;  ///< zero-copy alternative to i16
  std::shared_ptr<const void> owner;       ///< keeps the views' image alive

  bool has_i8() const { return i8_view != nullptr || !i8.empty(); }
  bool has_i16() const { return i16_view != nullptr || !i16.empty(); }
  const std::int8_t* i8_data() const {
    return i8_view != nullptr ? i8_view : i8.data();
  }
  const std::int16_t* i16_data() const {
    return i16_view != nullptr ? i16_view : i16.data();
  }
};

/// Eagerly build the packed cache for `t`.
QGemmOperandCache make_operand_cache(const QTensor& t);

/// The grouped operand of a ConvCaps3d node's vote convolutions: the
/// per-type weights' packed containers concatenated in type order, each
/// container the grouped range admits. max_abs is the largest over the
/// types, so one tier serves them all. `caches[t]` is type_weights[t]'s
/// cache.
QGemmOperandCache make_grouped_cache(
    const std::vector<QTensor>& type_weights,
    const std::vector<QGemmOperandCache>& caches);

// ---- tier gate --------------------------------------------------------------

/// Operand tier of the GEMM-shaped ops: the packed int8 or int16 qgemm
/// kernels, or kNone, the exact kernel (int64 operands and accumulation).
enum class PackedTier { kNone, kInt8, kInt16 };

/// The one tier gate of the GEMM-shaped ops (conv2d, conv_caps, the
/// ConvCaps3d votes, vote_transform), decided from formats and
/// constant weights alone, never from an activation's values; the .qcg
/// serializer's hollow-weight rule calls it too. Every producer clamps its
/// values onto its format's rails, so an activation in `x_fmt` is bounded by
/// 2^(wl-1): wl <= 8 packs int8 (-128 included), wl <= 16 packs int16. The
/// weights pack int8 when `w_max_abs` (their QGemmOperandCache::max_abs) is
/// <= 127 and int16 when it is <= 32767. The op's int32 accumulation over
/// `k` terms must be exact: wl + bit_width(w_max_abs) + ceil_log2(k) <= 30.
/// The accumulator -> `out_fmt` rescale must be a qgemm requant (wordlength
/// <= 31, shift in [-30, 31]; the executor always rounds to nearest). A
/// non-empty `bias` (a weight) must fit int32 at accumulator scale. kNone:
/// the op runs the exact kernel, which rounds like the packed requant.
PackedTier packed_tier(fixed::FixedFormat x_fmt, fixed::FixedFormat w_fmt,
                       std::int64_t w_max_abs, std::int64_t k,
                       fixed::FixedFormat out_fmt,
                       const QTensor& bias = QTensor());

/// Integer conv2d: x [B, C, H, W] (act fmt) * w [F, C, K, K] (weight fmt)
/// + bias [F] (weight fmt) -> [B, F, H', W'] in out_fmt, rounded to nearest.
///
/// A direct convolution on the tier packed_tier picks: each image's rows are
/// copied once into a zero-padded buffer of the tier's operand type, the
/// GEMM reads its B operand straight from it (no im2col matrix), the bias is
/// folded into the requantization, and each requantized strip is stored into
/// [B, F, H', W']. The packed tiers run tensor::QGemmDirect; the exact tier
/// accumulates in int64 and rounds with hwmodel::rescale_raw, element for
/// element the same requantization. Pass `w_cache` (built from `w`) to skip
/// re-packing constant weights on every call.
///
/// `fuse_relu` applies the following ReLU inside the requantization: the
/// clamp's lower bound is raised to the zero point (0 on the symmetric
/// grid), so relu(clamp(v, qmin, qmax)) == clamp(v, 0, qmax) element-exact
/// on every tier — the graph fusion pass uses this to elide kRelu nodes.
QActivation conv2d(const QActivation& x, const QTensor& w, const QTensor& bias,
                   std::int64_t stride, std::int64_t pad,
                   fixed::FixedFormat out_fmt,
                   const QGemmOperandCache* w_cache = nullptr,
                   bool fuse_relu = false);

/// The capsule convolution of a kConvCaps node, in one pass: conv2d of x
/// with w/bias into the wide pre-squash format `mid_fmt` (the tier is picked
/// at mid_fmt), each requantized strip squashed per capsule (capsules of
/// `caps_dim` consecutive channels, the SquashUnit datapath) while it is in
/// cache and written straight into [B, T*D, H', W'] in out_fmt: no
/// pre-squash tensor exists. Bit-identical to conv2d into mid_fmt followed
/// by SquashUnit::apply on every capsule, on every tier.
QActivation conv_caps(const QActivation& x, const QTensor& w,
                      const QTensor& bias, std::int64_t stride,
                      std::int64_t pad, std::int64_t caps_dim,
                      fixed::FixedFormat mid_fmt, fixed::FixedFormat out_fmt,
                      const QGemmOperandCache* w_cache = nullptr);

/// In-place ReLU on raw values.
void relu(QActivation& x);

/// Rescale every element into a new format (the inter-layer width change),
/// rounded to nearest.
QActivation rescale(const QActivation& x, fixed::FixedFormat out_fmt);

/// squash over the last axis of [..., D] via the SquashUnit datapath;
/// output has out_fmt.
QActivation squash_last(const QActivation& s, fixed::FixedFormat out_fmt);

/// Integer dynamic routing. votes: j-major [R, Nout, Nin, D] in act fmt
/// (the layout vote_transform emits — per (r, j) slab the weighted sum and
/// agreement walk unit-stride rows). Logits/pre-activations use dr_fmt (the
/// QDR width, paper Fig. 9); couplings and outputs use act_fmt. Returns
/// v [R, Nout, D] in act fmt. Both contractions read the votes' container
/// in one loop, accumulating in vectorizable int32 when act_fmt's
/// wordlength admits it and in int64 otherwise — the same bits either way
/// (integer addition is associative; every rescale point is unchanged).
QActivation dynamic_routing(const QActivation& votes, int iterations,
                            fixed::FixedFormat act_fmt,
                            fixed::FixedFormat dr_fmt);

/// Batched capsule vote product: u [B, Nin, Din] (activations) *
/// w [Nin, Nout, Dout, Din] (weights) -> j-major votes [B, Nout, Nin, Dout]
/// in out_fmt, rounded to nearest — the layout dynamic_routing consumes. On
/// the packed tiers, one strided batch of scattered GEMMs over the Nin input
/// types reads u's container: the j-major permutation is an affine scatter
/// fused into the qgemm requant epilogue (tensor::QGemmScatterDst), so votes
/// land in routing order, in their own container, straight out of the
/// microkernel. The exact tier runs the ConvCaps3d vote convolutions over
/// 1x1 images (input type i reads row u[b, i, :]). Pass `w_cache` (built
/// from `w`) to skip re-packing constant weights.
QActivation vote_transform(const QActivation& u, const QTensor& w,
                           fixed::FixedFormat out_fmt,
                           const QGemmOperandCache* w_cache = nullptr);

/// The vote convolutions of a ConvCaps3d node, as one grouped direct conv:
/// input type t of x [B, Tin*Din, H, W] convolved with type_weights[t]
/// [Tout*Dout, Din, K, K] (one shape and format for all t, Tin of them),
/// without bias, rounded to nearest into out_fmt. One padded copy of each
/// image feeds the Tin GEMMs, whose requantized strips land j-major in
/// [B*OH*OW, Tout, Tin, Dout] (Dout = `out_dim`): no per-type channel-slice
/// copies, conv dispatches, or permutation passes. packed_tier picks one
/// tier for all types from `grouped` (make_grouped_cache of the types'
/// caches), whose containers the packed tiers read; the exact tier reads
/// the weights' raw values.
QActivation conv_caps3d_votes(const QActivation& x,
                              const std::vector<QTensor>& type_weights,
                              const QGemmOperandCache& grouped,
                              std::int64_t out_dim, std::int64_t stride,
                              std::int64_t pad, fixed::FixedFormat out_fmt);

/// Capsule lengths (classification head): [B, N, D] -> [B, N]. The sum of
/// squares accumulates exactly in int64 raw space; only the final square
/// root is floating point.
tensor::Tensor lengths(const QTensor& caps);

}  // namespace qcaps::qengine
