// Integer-arithmetic CapsNet operators.
//
// Every operator follows the standard accelerator organization: widening
// multiplies into a 64-bit accumulator (frac width = sum of operand frac
// widths), one rescale-with-rounding into the destination format, saturation
// at the destination range. The squash and softmax use the bit-accurate unit
// datapaths from src/hwmodel (Newton-Raphson inverse sqrt, exp LUT).
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

// ---- packed-path gate ------------------------------------------------------

/// Storage tier of the packed qgemm paths.
enum class PackedTier { kNone, kInt8, kInt16 };

/// The one gate of the packed GEMM-shaped ops (conv2d, conv_caps, the
/// grouped ConvCaps3d votes, vote_transform), decided from formats and
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
/// the op runs its exact int64 fallback.
PackedTier packed_tier(fixed::FixedFormat x_fmt, fixed::FixedFormat w_fmt,
                       std::int64_t w_max_abs, std::int64_t k,
                       fixed::FixedFormat out_fmt,
                       const QTensor& bias = QTensor());

/// Integer conv2d: x [B, C, H, W] (act fmt) * w [F, C, K, K] (weight fmt)
/// + bias [F] (weight fmt) -> [B, F, H', W'] in out_fmt.
///
/// Fast path: when packed_tier admits the formats and the scheme is
/// round-to-nearest, the convolution runs as a direct packed integer GEMM
/// (tensor::QGemmDirect): each image is narrowed once into a zero-padded
/// int8/int16 copy, the qgemm panels are packed straight from it (no im2col
/// matrix), and the bias is folded into the requantization, which writes
/// [B, F, H', W'] directly. Results are bit-identical
/// to the scalar path (integer accumulation is order-exact and the requant
/// is the same round-half-up rescale). Pass `w_cache` (built from `w`) to
/// skip re-packing constant weights on every call.
///
/// `fuse_relu` applies the following ReLU inside the requantization: the
/// clamp's lower bound is raised to the zero point (0 on the symmetric
/// grid), so relu(clamp(v, qmin, qmax)) == clamp(v, 0, qmax) element-exact
/// on every path — the graph fusion pass uses this to elide kRelu nodes.
QTensor conv2d(const QTensor& x, const QTensor& w, const QTensor& bias,
               std::int64_t stride, std::int64_t pad,
               fixed::FixedFormat out_fmt,
               fixed::RoundingScheme scheme =
                   fixed::RoundingScheme::kRoundToNearest,
               const QGemmOperandCache* w_cache = nullptr,
               bool fuse_relu = false);

/// The capsule convolution of a kConvCaps node, in one pass: conv2d of x
/// with w/bias into the wide pre-squash format `mid_fmt`, then the
/// per-capsule squash of squash_channels (capsules of `caps_dim` consecutive
/// channels) into out_fmt. On the packed path (packed_tier at mid_fmt)
/// each requantized strip of the direct GEMM is squashed while it is in
/// cache and written straight into [B, T*D, H', W']: no pre-squash tensor
/// exists. Other formats run conv2d then squash_channels, the exact int64
/// path. Bit-identical to conv2d followed by squash_channels on every tier.
QTensor conv_caps(const QTensor& x, const QTensor& w, const QTensor& bias,
                  std::int64_t stride, std::int64_t pad,
                  std::int64_t caps_dim, fixed::FixedFormat mid_fmt,
                  fixed::FixedFormat out_fmt,
                  const QGemmOperandCache* w_cache = nullptr);

/// Per-capsule squash of a channel-grouped feature map [B, T*D, H, W] (each
/// (b, t, y, x) vector of length D squashed via the SquashUnit datapath).
QTensor squash_channels(const QTensor& s, std::int64_t caps_dim,
                        fixed::FixedFormat out_fmt);

/// In-place ReLU on raw values.
void relu(QTensor& x);

/// Rescale every element into a new format (the inter-layer width change).
QTensor rescale(const QTensor& x, fixed::FixedFormat out_fmt,
                fixed::RoundingScheme scheme =
                    fixed::RoundingScheme::kRoundToNearest);

/// squash over the last axis of [..., D] via the SquashUnit datapath;
/// output has out_fmt.
QTensor squash_last(const QTensor& s, fixed::FixedFormat out_fmt);

/// Integer dynamic routing. votes: j-major [R, Nout, Nin, D] in act fmt
/// (the layout vote_transform emits — per (r, j) slab the weighted sum and
/// agreement walk unit-stride rows). Logits/pre-activations use dr_fmt (the
/// QDR width, paper Fig. 9); couplings and outputs use act_fmt. Returns
/// v [R, Nout, D] in act fmt. When act_fmt's wordlength admits it, both
/// contractions accumulate in vectorizable int32 — bit-identical to the
/// exact int64 path (integer addition is associative; every rescale point is
/// unchanged).
QTensor dynamic_routing(const QTensor& votes, int iterations,
                        fixed::FixedFormat act_fmt, fixed::FixedFormat dr_fmt);

/// Batched capsule vote product: u [B, Nin, Din] (activations) *
/// w [Nin, Nout, Dout, Din] (weights) -> j-major votes [B, Nout, Nin, Dout]
/// in out_fmt — the layout dynamic_routing consumes. One strided batch of
/// scattered GEMMs over the Nin input types on the fast path: the j-major
/// permutation is an affine scatter fused into the qgemm requant epilogue
/// (tensor::QGemmScatterDst), so votes land in routing order straight out of
/// the microkernel with no intermediate dense result or widening-copy pass.
/// Exact int64 scalar fallback otherwise (bit-identical values). Pass
/// `w_cache` (built from `w`) to skip re-packing constant weights.
QTensor vote_transform(const QTensor& u, const QTensor& w,
                       fixed::FixedFormat out_fmt,
                       fixed::RoundingScheme scheme =
                           fixed::RoundingScheme::kRoundToNearest,
                       const QGemmOperandCache* w_cache = nullptr);

/// Fused, grouped ConvCaps3d vote convolutions: one narrowed copy of each
/// image of the [B, Tin*Din, H, W] input feeds Tin direct GEMMs against the
/// concatenated per-type vote weights in `grouped` (see the fusion pass in
/// qgraph), landing votes j-major [B*OH*OW, Tout, Tin, Dout] straight out of
/// the requant epilogue — no per-type channel-slice copies, conv dispatches,
/// or permutation passes. `w_fmt` is the (shared) vote-weight format,
/// `ksize` the square kernel size; `votes` must be preallocated with that
/// shape and out_fmt. Returns false with `votes` untouched when packed_tier
/// rejects the formats or `grouped` lacks the tier's container — the caller
/// falls back to the per-type conv2d + scatter loop, which is bit-identical
/// when both run.
bool conv_caps3d_votes(const QTensor& x, const QGemmOperandCache& grouped,
                       fixed::FixedFormat w_fmt, std::int64_t in_types,
                       std::int64_t in_dim, std::int64_t out_types,
                       std::int64_t out_dim, std::int64_t ksize,
                       std::int64_t stride, std::int64_t pad,
                       fixed::FixedFormat out_fmt, QTensor& votes);

/// Capsule lengths (classification head): [B, N, D] -> [B, N]. The sum of
/// squares accumulates exactly in int64 raw space; only the final square
/// root is floating point.
tensor::Tensor lengths(const QTensor& caps);

}  // namespace qcaps::qengine
