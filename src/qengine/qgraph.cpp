#include "qengine/qgraph.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/error.hpp"
#include "common/heap.hpp"
#include "nn/activation_layers.hpp"
#include "nn/conv2d_layer.hpp"
#include "nn/conv_caps.hpp"
#include "nn/fc_caps.hpp"
#include "nn/network.hpp"
#include "nn/primary_caps.hpp"

namespace qcaps::qengine {
namespace {

// Whole-tensor elementwise passes of the executor (the residual add, the
// saturation count) run under the OpenMP team from this many elements on;
// below it a region's fork/join costs about as much as the pass.
constexpr std::int64_t kParallelMinElems = std::int64_t{1} << 15;

// Wide working format for pre-squash values: the activation format is
// calibrated on the bounded post-squash capsules, but the conv outputs that
// feed the squash can be far outside it. Same rule the hand-rolled
// ShallowCaps deployment used (locked by the golden test).
fixed::FixedFormat pre_squash_fmt(const fixed::FixedFormat& act) {
  return {8, std::min(20, act.qf + 8)};
}

// Smallest QI with 2^(QI-1) > m (two's complement, sign included) — the
// evaluator's calibration rule, with more headroom allowed since folded
// weights are a deployment artifact, not a searched quantity.
int needed_qi(double m) {
  int qi = 1;
  while (qi < 16 && std::ldexp(1.0, qi - 1) <= m) ++qi;
  return qi;
}

// Quantize an FP32 weight tensor under the spec's weight format. When
// `widen` (BN-folded weights), the integer bits grow to cover the values'
// actual range so folding cannot push weights into the saturation cliff;
// otherwise the spec format applies verbatim (the pre-refactor behaviour,
// which the ShallowCaps golden-lock test depends on).
QTensor quantize_weight(const tensor::Tensor& w, const core::LayerQuantSpec& ls,
                        fixed::RoundingScheme scheme, bool widen,
                        double folded_abs_max = 0.0) {
  fixed::FixedFormat fmt = ls.weight_format();
  if (widen) {
    // Saturating silently here would collapse accuracy with no diagnostic
    // (degenerate BN statistics can blow folded weights up arbitrarily).
    QCAPS_CHECK_MSG(folded_abs_max < std::ldexp(1.0, 15),
                    "BN-folded weights exceed the representable range "
                    "(|w| up to " << folded_abs_max
                    << "); the batch-norm statistics are degenerate");
    fmt.qi = std::max(fmt.qi, needed_qi(folded_abs_max));
  }
  return QTensor::from_float(w, fmt, scheme);
}

double tensor_abs_max(const tensor::Tensor& t) {
  double m = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(t[i])));
  return m;
}

// The weight-cache key: layer identity + the spec fields that determine the
// quantized bytes. Everything else about the layer (FP32 masters, BN stats)
// is frozen for the cache's lifetime by contract.
std::string weight_key(const std::string& source,
                       const core::LayerQuantSpec& ls,
                       fixed::RoundingScheme scheme) {
  return source + '|' + std::to_string(ls.qw_int) + '.' +
         std::to_string(ls.qw_frac) + '|' +
         std::to_string(static_cast<int>(scheme));
}

// Fill op's weight fields from the cache, or run `build` and remember the
// result. `build` must populate weight/bias/wcache (and the type_* vectors
// for kConvCaps3d) on the op it is given.
template <typename Build>
void with_weights(QGraphWeightCache* cache, const core::LayerQuantSpec& ls,
                  fixed::RoundingScheme scheme, QuantizedOp& op,
                  Build&& build) {
  if (cache == nullptr) {
    build(op);
    return;
  }
  const std::string key = weight_key(op.source, ls, scheme);
  if (const QGraphWeightCache::Entry* e = cache->find(key)) {
    op.weight = e->weight;
    op.bias = e->bias;
    op.wcache = e->wcache;
    op.type_weights = e->type_weights;
    op.type_caches = e->type_caches;
    return;
  }
  build(op);
  cache->put(key, {op.weight, op.bias, op.wcache, op.type_weights,
                   op.type_caches});
}

// Compile one ConvCapsLayer (BN folded) into a kConvCaps node.
QuantizedOp compile_conv_caps(const nn::ConvCapsLayer& l,
                              const core::LayerQuantSpec& ls,
                              fixed::RoundingScheme scheme, int input,
                              QGraphWeightCache* cache) {
  QuantizedOp op;
  op.kind = QOpKind::kConvCaps;
  op.input = input;
  op.source = l.name();
  with_weights(cache, ls, scheme, op, [&](QuantizedOp& o) {
    tensor::Tensor w = l.master_weight();
    tensor::Tensor b = l.master_bias();
    if (const nn::BatchNorm2d* bn = l.batch_norm()) {
      FoldedConv folded = fold_batch_norm(w, b, *bn);
      const double m =
          std::max(tensor_abs_max(folded.weight), tensor_abs_max(folded.bias));
      o.weight = quantize_weight(folded.weight, ls, scheme, /*widen=*/true, m);
      o.bias = QTensor::from_float(folded.bias, o.weight.fmt, scheme);
    } else {
      o.weight = quantize_weight(w, ls, scheme, /*widen=*/false);
      if (b.numel() > 0) o.bias = QTensor::from_float(b, o.weight.fmt, scheme);
    }
    o.wcache = make_operand_cache(o.weight);
  });
  op.stride = l.stride();
  op.pad = l.pad();
  op.in_types = l.in_types();
  op.in_dim = l.in_dim();
  op.out_types = l.out_types();
  op.out_dim = l.out_dim();
  op.out_fmt = ls.act_format();
  op.mid_fmt = pre_squash_fmt(op.out_fmt);
  return op;
}

// Compile one RoutedConvCapsLayer (the ConvCaps3D) into a kConvCaps3d node:
// per input type, that type's vote convolution weight, packed once.
QuantizedOp compile_conv_caps3d(const nn::RoutedConvCapsLayer& l,
                                const core::LayerQuantSpec& ls,
                                fixed::RoundingScheme scheme, int input,
                                QGraphWeightCache* cache) {
  QuantizedOp op;
  op.kind = QOpKind::kConvCaps3d;
  op.input = input;
  op.source = l.name();
  with_weights(cache, ls, scheme, op, [&](QuantizedOp& o) {
    for (std::int64_t t = 0; t < l.in_types(); ++t) {
      QTensor wt = quantize_weight(l.weight_slice(t), ls, scheme, false);
      o.type_caches.push_back(make_operand_cache(wt));
      o.type_weights.push_back(std::move(wt));
    }
  });
  op.stride = l.stride();
  op.pad = l.pad();
  op.in_types = l.in_types();
  op.in_dim = l.in_dim();
  op.out_types = l.out_types();
  op.out_dim = l.out_dim();
  op.iterations = l.iterations();
  op.out_fmt = ls.act_format();
  op.dr_fmt = ls.dr_format();
  return op;
}

// ---- op execution ----------------------------------------------------------

// The one capsule-layout transpose the routing-bound ops share: gather
// [B, T*D, H, W] feature-map values into [B, T*HW, D] capsule rows.
template <typename T>
void gather_caps_rows(const T* src, std::int64_t b, std::int64_t types,
                      std::int64_t d, std::int64_t plane, T* dst) {
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t t = 0; t < types; ++t)
      for (std::int64_t dd = 0; dd < d; ++dd)
        for (std::int64_t p = 0; p < plane; ++p)
          dst[((bi * types + t) * plane + p) * d + dd] =
              src[((bi * types * d) + t * d + dd) * plane + p];
}

QActivation exec_conv_caps3d(const QuantizedOp& op, const QActivation& x) {
  const std::int64_t b = x.dim(0), h = x.dim(2), w = x.dim(3);
  QCAPS_CHECK_MSG(x.dim(1) == op.in_types * op.in_dim,
                  op.source << ": expected " << op.in_types * op.in_dim
                            << " channels, got " << x.dim(1));
  const std::int64_t k = op.type_weights.front().dim(2);
  const std::int64_t oh = (h + 2 * op.pad - k) / op.stride + 1;
  const std::int64_t ow = (w + 2 * op.pad - k) / op.stride + 1;
  const std::int64_t oplane = oh * ow;
  const std::int64_t jd = op.out_types * op.out_dim;

  // j-major votes [R, Nout, Nin, Dout] (R = B * OH * OW), the layout the
  // routing engine consumes — the per-position analogue of the fc_caps
  // vote product.
  const QActivation votes =
      conv_caps3d_votes(x, op.type_weights, *op.grouped_cache, op.out_dim,
                        op.stride, op.pad, op.out_fmt);
  const QActivation v = dynamic_routing(votes, op.iterations, op.out_fmt,
                                        op.dr_fmt);

  // Gather v[(b, y, x), j, dd] back into the feature map [B, Tout*Dout, ...].
  QActivation out({b, jd, oh, ow}, op.out_fmt);
  visit_pair(out, v, [&](auto* po, const auto* pvv) {
    for (std::int64_t bi = 0; bi < b; ++bi)
      for (std::int64_t c = 0; c < jd; ++c)
        for (std::int64_t p = 0; p < oplane; ++p)
          po[(bi * jd + c) * oplane + p] = pvv[(bi * oplane + p) * jd + c];
  });
  return out;
}

QActivation exec_primary_caps(const QuantizedOp& op, const QActivation& x) {
  const QActivation s = conv2d(x, op.weight, op.bias, op.stride, op.pad,
                               op.mid_fmt, &op.wcache);
  // [B, T*D, H', W'] -> capsule list [B, T*H'*W', D] (same traversal the
  // hand-rolled deployment used — locked by the golden test).
  const std::int64_t b = s.dim(0), plane = s.dim(2) * s.dim(3);
  QActivation caps({b, op.caps_types * plane, op.caps_dim}, op.mid_fmt);
  visit_pair(caps, s, [&](auto* dst, const auto* src) {
    gather_caps_rows(src, b, op.caps_types, op.caps_dim, plane, dst);
  });
  return squash_last(caps, op.out_fmt);
}

QActivation exec_flatten(const QuantizedOp& op, const QActivation& x) {
  QCAPS_CHECK_MSG(x.shape().size() == 4 && x.dim(1) % op.caps_dim == 0,
                  op.source << ": expected [B, T*D, H, W] with D = "
                            << op.caps_dim);
  const std::int64_t b = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  const std::int64_t types = c / op.caps_dim;
  QActivation out({b, types * plane, op.caps_dim}, x.fmt());
  visit_pair(out, x, [&](auto* dst, const auto* src) {
    gather_caps_rows(src, b, types, op.caps_dim, plane, dst);
  });
  return out;
}

// Values of a graph value sitting exactly on its format's rails.
std::uint64_t count_at_rails(const QActivation& y) {
  return y.visit([&](const auto* r) {
    using T = elem_t<decltype(r)>;
    const T lo = static_cast<T>(y.fmt().raw_min());
    const T hi = static_cast<T>(y.fmt().raw_max());
    const std::int64_t n = y.numel();
    std::uint64_t at_rail = 0;
#pragma omp parallel for schedule(static) reduction(+ : at_rail) \
    if (n >= kParallelMinElems)
    for (std::int64_t j = 0; j < n; ++j)
      at_rail += static_cast<std::uint64_t>((r[j] <= lo) | (r[j] >= hi));
    return at_rail;
  });
}

}  // namespace

const QGraphWeightCache::Entry* QGraphWeightCache::find(
    const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++hits_;
  return &it->second;
}

void QGraphWeightCache::put(std::string key, Entry entry) {
  entries_.emplace(std::move(key), std::move(entry));
}

std::int64_t QuantizedOp::weight_bits() const {
  // Count from shapes, not raw.size(): mmap-loaded graphs carry "hollow"
  // weights (shape + format + packed containers, no raw vector) whose
  // storage cost is unchanged.
  std::int64_t bits = tensor::shape_numel(weight.shape) *
                          weight.fmt.wordlength() +
                      tensor::shape_numel(bias.shape) * bias.fmt.wordlength();
  for (const auto& w : type_weights)
    bits += tensor::shape_numel(w.shape) * w.fmt.wordlength();
  return bits;
}

QActivation residual_add(const QActivation& a, const QActivation& b) {
  QCAPS_CHECK_MSG(a.shape() == b.shape() && a.fmt() == b.fmt(),
                  "residual_add expects same-shape, same-format operands");
  QActivation out(a.shape(), a.fmt());
  const std::int64_t n = a.numel();
  visit_pair(out, a, [&](auto* po, const auto* pa) {
    using T = elem_t<decltype(po)>;
    const T* pb = b.data<T>();
    // Both operands sit on one format's rails, so their sum fits int64 (and
    // int32 for the narrow containers) before the clamp.
    using Wide = std::conditional_t<sizeof(T) < 4, std::int32_t, std::int64_t>;
    const Wide lo = static_cast<Wide>(a.fmt().raw_min());
    const Wide hi = static_cast<Wide>(a.fmt().raw_max());
#pragma omp parallel for schedule(static) if (n >= kParallelMinElems)
    for (std::int64_t i = 0; i < n; ++i)
      po[i] = static_cast<T>(
          std::clamp(static_cast<Wide>(Wide{pa[i]} + pb[i]), lo, hi));
  });
  return out;
}

FoldedConv fold_batch_norm(const tensor::Tensor& weight,
                           const tensor::Tensor& bias,
                           const nn::BatchNorm2d& bn) {
  const std::int64_t f = weight.dim(0);
  QCAPS_CHECK_MSG(bn.channels() == f,
                  "batch-norm channels do not match conv filters");
  FoldedConv out;
  out.weight = weight;
  out.bias = tensor::Tensor({f});
  const std::int64_t per_filter = weight.numel() / f;
  for (std::int64_t c = 0; c < f; ++c) {
    const double inv = 1.0 / std::sqrt(static_cast<double>(
                                           bn.running_var()[c]) +
                                       static_cast<double>(bn.eps()));
    const double scale = static_cast<double>(bn.gamma()[c]) * inv;
    float* wrow = out.weight.data() + c * per_filter;
    for (std::int64_t i = 0; i < per_filter; ++i)
      wrow[i] = static_cast<float>(wrow[i] * scale);
    const double b0 = bias.numel() > 0 ? static_cast<double>(bias[c]) : 0.0;
    out.bias[c] = static_cast<float>(
        (b0 - static_cast<double>(bn.running_mean()[c])) * scale +
        static_cast<double>(bn.beta()[c]));
  }
  return out;
}

QuantizedGraph QuantizedGraph::compile(nn::Network& net,
                                       const core::NetworkQuantSpec& spec,
                                       QGraphWeightCache* weights,
                                       bool track_saturation) {
  core::check_spec_covers(net, spec);
  common::retain_heap();
  const auto scheme = spec.scheme;
  QuantizedGraph g;
  std::size_t w = 0;  // weighted-layer cursor = spec index
  int last = -1;      // value produced by the previous op
  bool input_fmt_set = false;
  std::vector<int> layer_start;  // first node of each weighted layer

  const auto push = [&g, &last](QuantizedOp op) {
    g.ops_.push_back(std::move(op));
    last = static_cast<int>(g.ops_.size()) - 1;
  };
  const auto take_spec = [&](nn::Layer& layer) -> const core::LayerQuantSpec& {
    QCAPS_CHECK_MSG(w < spec.layers.size(),
                    "spec exhausted before layer " << layer.name());
    const core::LayerQuantSpec& ls = spec.layers[w++];
    layer_start.push_back(static_cast<int>(g.ops_.size()));
    if (!input_fmt_set) {
      // Inputs are [0, 1] pixels: reuse the first layer's activation format.
      g.input_fmt_ = ls.act_format();
      input_fmt_set = true;
    }
    return ls;
  };

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    if (auto* conv = dynamic_cast<nn::Conv2dLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      QuantizedOp op;
      op.kind = QOpKind::kConv2d;
      op.input = last;
      op.source = layer.name();
      with_weights(weights, ls, scheme, op, [&](QuantizedOp& o) {
        o.weight = quantize_weight(conv->master_weight(), ls, scheme, false);
        if (conv->master_bias().numel() > 0)
          o.bias = QTensor::from_float(conv->master_bias(), o.weight.fmt,
                                       scheme);
        o.wcache = make_operand_cache(o.weight);
      });
      op.stride = conv->stride();
      op.pad = conv->pad();
      op.out_fmt = ls.act_format();
      push(std::move(op));
    } else if (dynamic_cast<nn::ReluLayer*>(&layer) != nullptr) {
      QuantizedOp op;
      op.kind = QOpKind::kRelu;
      op.input = last;
      op.source = layer.name();
      op.out_fmt = g.ops_.empty() ? g.input_fmt_ : g.ops_.back().out_fmt;
      push(std::move(op));
    } else if (auto* primary = dynamic_cast<nn::PrimaryCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      QuantizedOp op;
      op.kind = QOpKind::kPrimaryCaps;
      op.input = last;
      op.source = layer.name();
      with_weights(weights, ls, scheme, op, [&](QuantizedOp& o) {
        o.weight =
            quantize_weight(primary->master_weight(), ls, scheme, false);
        o.bias = QTensor::from_float(primary->master_bias(), o.weight.fmt,
                                     scheme);
        o.wcache = make_operand_cache(o.weight);
      });
      op.stride = primary->stride();
      op.pad = 0;
      op.caps_types = primary->caps_types();
      op.caps_dim = primary->caps_dim();
      op.out_fmt = ls.act_format();
      op.mid_fmt = pre_squash_fmt(op.out_fmt);
      push(std::move(op));
    } else if (auto* fc = dynamic_cast<nn::FCCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      QuantizedOp votes;
      votes.kind = QOpKind::kVoteTransform;
      votes.input = last;
      votes.source = layer.name();
      with_weights(weights, ls, scheme, votes, [&](QuantizedOp& o) {
        o.weight = quantize_weight(fc->master_weight(), ls, scheme, false);
        o.wcache = make_operand_cache(o.weight);
      });
      votes.in_types = fc->num_in();
      votes.in_dim = fc->dim_in();
      votes.out_types = fc->num_out();
      votes.out_dim = fc->dim_out();
      votes.out_fmt = ls.act_format();
      push(std::move(votes));
      QuantizedOp routing;
      routing.kind = QOpKind::kDynamicRouting;
      routing.input = last;
      routing.source = layer.name();
      routing.iterations = fc->iterations();
      routing.out_fmt = ls.act_format();
      routing.dr_fmt = ls.dr_format();
      push(std::move(routing));
    } else if (auto* flat = dynamic_cast<nn::FlattenCapsLayer*>(&layer)) {
      QuantizedOp op;
      op.kind = QOpKind::kFlatten;
      op.input = last;
      op.source = layer.name();
      op.caps_dim = flat->caps_dim();
      op.out_fmt = g.ops_.empty() ? g.input_fmt_ : g.ops_.back().out_fmt;
      push(std::move(op));
    } else if (auto* block = dynamic_cast<nn::CapsBlockLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      push(compile_conv_caps(block->conv1(), ls, scheme, last, weights));
      const int x1 = last;
      push(compile_conv_caps(block->conv2(), ls, scheme, last, weights));
      push(compile_conv_caps(block->conv3(), ls, scheme, last, weights));
      const int x3 = last;
      if (block->routed_skip()) {
        const auto* routed =
            dynamic_cast<const nn::RoutedConvCapsLayer*>(&block->skip_layer());
        QCAPS_CHECK_MSG(routed != nullptr,
                        layer.name() << ": routed skip is not ConvCaps3D");
        push(compile_conv_caps3d(*routed, ls, scheme, x1, weights));
      } else {
        const auto* skip =
            dynamic_cast<const nn::ConvCapsLayer*>(&block->skip_layer());
        QCAPS_CHECK_MSG(skip != nullptr,
                        layer.name() << ": skip is not a ConvCaps layer");
        push(compile_conv_caps(*skip, ls, scheme, x1, weights));
      }
      // Both branches carry the block's activation format (one spec entry
      // governs the whole block); residual_add rejects operands on
      // different grids.
      QuantizedOp add;
      add.kind = QOpKind::kResidualAdd;
      add.input = x3;
      add.input2 = last;
      add.source = layer.name();
      add.out_fmt = g.ops_[static_cast<std::size_t>(x3)].out_fmt;
      push(std::move(add));
    } else if (auto* caps = dynamic_cast<nn::ConvCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      push(compile_conv_caps(*caps, ls, scheme, last, weights));
    } else if (auto* routed =
                   dynamic_cast<nn::RoutedConvCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      push(compile_conv_caps3d(*routed, ls, scheme, last, weights));
    } else {
      QCAPS_CHECK_MSG(false, "quantized-graph compiler does not support layer "
                                 << layer.name());
    }
  }
  QCAPS_CHECK_MSG(w == spec.layers.size(),
                  "spec has " << spec.layers.size() << " entries but only " << w
                              << " weighted layers were compiled");
  QCAPS_CHECK_MSG(!g.ops_.empty(), "cannot compile an empty network");
  // Each layer ends where the next weighted layer starts, so the unweighted
  // nodes after a weighted layer (L1's ReLU, the flatten) belong to it.
  for (std::size_t l = 1; l < layer_start.size(); ++l)
    g.layer_end_.push_back(layer_start[l] - 1);
  g.layer_end_.push_back(static_cast<int>(g.ops_.size()) - 1);
  if (track_saturation) g.sat_ = std::make_shared<SatCounters>(g.ops_.size());
  g.init_profile();
  g.fuse();
  // Last, so the grouped vote panels are allocated after fuse()'s scratch.
  // The allocations are the same in either order, but in this one glibc's
  // heap layout kept deep_search_1t's peak RSS about 2 MB lower (4-vCPU
  // Xeon, GCC 12.2, Release).
  g.plan();
  return g;
}

QuantizedGraph QuantizedGraph::from_ops(std::vector<QuantizedOp> ops,
                                        fixed::FixedFormat input_fmt,
                                        bool track_saturation) {
  QCAPS_CHECK_MSG(!ops.empty(), "cannot build an empty graph");
  QCAPS_CHECK_MSG(input_fmt.valid(),
                  "invalid input format " << input_fmt.to_string());
  common::retain_heap();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const QuantizedOp& op = ops[i];
    QCAPS_CHECK_MSG(op.input >= -1 && op.input < static_cast<int>(i),
                    "op " << i << " consumes value " << op.input
                          << " which is not an earlier node");
    QCAPS_CHECK_MSG(op.input2 >= -1 && op.input2 < static_cast<int>(i),
                    "op " << i << " consumes value " << op.input2
                          << " which is not an earlier node");
  }
  QuantizedGraph g;
  g.ops_ = std::move(ops);
  // Fusion annotations never survive a round trip through an op list: any
  // graph rebuilt from ops() (or from disk — the serializer always writes
  // the unfused form) starts as the unfused twin. The .qcg loader runs
  // fuse() explicitly after this.
  for (QuantizedOp& op : g.ops_) {
    op.fused_relu = false;
    op.fused_away = false;
  }
  g.input_fmt_ = input_fmt;
  g.layer_end_ = {static_cast<int>(g.ops_.size()) - 1};
  g.plan();
  if (track_saturation) g.sat_ = std::make_shared<SatCounters>(g.ops_.size());
  g.init_profile();
  return g;
}

void QuantizedGraph::plan() {
  const std::size_t n = ops_.size();
  std::vector<fixed::FixedFormat> fmt(n);
  storage_.assign(n, Storage::kInt16);
  last_use_.assign(n + 1, -1);
  for (std::size_t i = 0; i < n; ++i) {
    QuantizedOp& op = ops_[i];
    const bool layout = op.kind == QOpKind::kRelu || op.kind == QOpKind::kFlatten;
    fmt[i] = !layout        ? op.out_fmt
             : op.input < 0 ? input_fmt_
                            : fmt[static_cast<std::size_t>(op.input)];
    storage_[i] = storage_for(fmt[i]);
    if (op.kind == QOpKind::kConvCaps3d)
      op.grouped_cache = std::make_shared<const QGemmOperandCache>(
          make_grouped_cache(op.type_weights, op.type_caches));
    // Every node reads `input`; only the residual add reads `input2`.
    last_use_[static_cast<std::size_t>(op.input + 1)] = static_cast<int>(i);
    if (op.kind == QOpKind::kResidualAdd)
      last_use_[static_cast<std::size_t>(op.input2 + 1)] = static_cast<int>(i);
  }
  // A layer boundary is a cut when no value before it is read after it, so
  // a run starting at the next layer needs nothing but the boundary value.
  for (std::size_t l = 0; l + 1 < layer_end_.size(); ++l) {
    const int cut = layer_end_[l];
    for (int v = -1; v < cut; ++v)
      QCAPS_CHECK_MSG(last_use_[static_cast<std::size_t>(v + 1)] <= cut,
                      "value " << v << " is read by node "
                               << last_use_[static_cast<std::size_t>(v + 1)]
                               << ", past the layer boundary at node "
                               << cut);
  }
}

void QuantizedGraph::fuse() {
  if (fused_) return;
  fused_ = true;
  // A relu folds into its producing conv only when the conv's value has no
  // other reader — any second consumer must see the pre-relu activation.
  std::vector<int> consumers(ops_.size(), 0);
  for (const QuantizedOp& op : ops_) {
    if (op.input >= 0) ++consumers[static_cast<std::size_t>(op.input)];
    if (op.input2 >= 0) ++consumers[static_cast<std::size_t>(op.input2)];
  }
  for (QuantizedOp& op : ops_) {
    if (op.kind == QOpKind::kRelu && op.input >= 0) {
      const std::size_t p = static_cast<std::size_t>(op.input);
      QuantizedOp& prod = ops_[p];
      // relu(clamp(v, qmin, qmax)) == clamp(v, max(qmin, 0), qmax) on the
      // symmetric grid, so raising the conv requant's lower clamp to the
      // zero point reproduces the relu element-exactly on every path. The
      // formats must match: a relu that also changes format would need a
      // second rescale the fused clamp cannot express.
      if (prod.kind == QOpKind::kConv2d && !prod.fused_relu &&
          consumers[p] == 1 && prod.out_fmt == op.out_fmt) {
        prod.fused_relu = true;
        op.fused_away = true;
        if (prof_) prof_->fused_from[p] = op.source;
      }
    }
  }
}

namespace {

const char* qop_kind_name(QOpKind k) {
  switch (k) {
    case QOpKind::kConv2d: return "conv2d";
    case QOpKind::kRelu: return "relu";
    case QOpKind::kRescale: return "rescale";
    case QOpKind::kPrimaryCaps: return "primary";
    case QOpKind::kVoteTransform: return "votes";
    case QOpKind::kDynamicRouting: return "routing";
    case QOpKind::kConvCaps: return "convcaps";
    case QOpKind::kConvCaps3d: return "convcaps3d";
    case QOpKind::kResidualAdd: return "residual";
    case QOpKind::kFlatten: return "flatten";
  }
  return "unknown";
}

// QCAPS_QGRAPH_PROFILE: unset or "0" disables; "1" dumps to stderr; any
// other value is the dump file path.
const char* profile_target() {
  const char* e = std::getenv("QCAPS_QGRAPH_PROFILE");
  if (e == nullptr || std::strcmp(e, "0") == 0) return nullptr;
  return e;
}

}  // namespace

QuantizedGraph::NodeProfile::~NodeProfile() {
  std::FILE* f = stderr;
  bool close = false;
  if (!target.empty() && target != "1") {
    if (std::FILE* fp = std::fopen(target.c_str(), "w")) {
      f = fp;
      close = true;
    }
  }
  std::fprintf(f, "{\"nodes\": [");
  for (std::size_t i = 0; i < source.size(); ++i) {
    std::fprintf(
        f, "%s\n {\"index\":%zu,\"source\":\"%s\",\"kind\":\"%s\",\"ns\":%lld,"
           "\"bytes\":%lld,\"fused_from\":[%s%s%s]}",
        i == 0 ? "" : ",", i, source[i].c_str(), kind[i].c_str(),
        static_cast<long long>(ns[i].load(std::memory_order_relaxed)),
        static_cast<long long>(bytes[i].load(std::memory_order_relaxed)),
        fused_from[i].empty() ? "" : "\"", fused_from[i].c_str(),
        fused_from[i].empty() ? "" : "\"");
  }
  // Per-op-kind aggregate, heaviest kind first: where the graph's time goes
  // at a glance (a fused-away node keeps its kind but accumulates ~0 ns, so
  // folded relu rows visibly drain out of this table).
  struct KindRow {
    std::string name;
    std::int64_t nodes = 0;
    std::int64_t total_ns = 0;
  };
  std::vector<KindRow> rows;
  std::int64_t graph_ns = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const std::int64_t t = ns[i].load(std::memory_order_relaxed);
    graph_ns += t;
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const KindRow& r) { return r.name == kind[i]; });
    if (it == rows.end()) {
      rows.push_back({kind[i], 1, t});
    } else {
      ++it->nodes;
      it->total_ns += t;
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const KindRow& a, const KindRow& b) {
                     return a.total_ns > b.total_ns;
                   });
  std::fprintf(f, "\n],\n \"kinds\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double pct =
        graph_ns > 0 ? 100.0 * static_cast<double>(rows[i].total_ns) /
                           static_cast<double>(graph_ns)
                     : 0.0;
    std::fprintf(f,
                 "%s\n {\"kind\":\"%s\",\"nodes\":%lld,\"ns\":%lld,"
                 "\"pct\":%.1f}",
                 i == 0 ? "" : ",", rows[i].name.c_str(),
                 static_cast<long long>(rows[i].nodes),
                 static_cast<long long>(rows[i].total_ns), pct);
  }
  std::fprintf(f, "\n]}\n");
  if (close) std::fclose(f);
}

void QuantizedGraph::init_profile() {
  const char* target = profile_target();
  if (target == nullptr) return;
  prof_ = std::make_shared<NodeProfile>(ops_.size());
  prof_->target = target;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    prof_->source[i] = ops_[i].source;
    prof_->kind[i] = qop_kind_name(ops_[i].kind);
  }
}

QTensor QuantizedGraph::forward(const tensor::Tensor& images) const {
  QCAPS_CHECK_MSG(!ops_.empty(), "forward on an empty graph");
  QCAPS_CHECK_MSG(images.ndim() == 4, "expected [B, C, H, W] images");
  // Only the class capsules leave as int64 (lengths, the classifiers and the
  // artifact digests read QTensor::raw).
  return run_layers(QActivation::from_float(images, input_fmt_), 0,
                    num_layers())
      .widen();
}

QActivation QuantizedGraph::run_layers(QActivation x, std::size_t first,
                                       std::size_t last) const {
  QCAPS_CHECK_MSG(first < last && last <= layer_end_.size(),
                  "layer range [" << first << ", " << last << ") of a "
                                  << layer_end_.size() << "-layer graph");
  const int begin = first == 0 ? 0 : layer_end_[first - 1] + 1;
  const int end = layer_end_[last - 1] + 1;
  const Storage entry = begin == 0
                            ? storage_for(input_fmt_)
                            : storage_[static_cast<std::size_t>(begin - 1)];
  QCAPS_CHECK_MSG(x.storage() == entry,
                  "layer " << first << " input held in "
                           << storage_name(x.storage()) << ", planned "
                           << storage_name(entry));
  // Value v lives in vals[v + 1], the network input in vals[0]. The range
  // starts from the value of node begin - 1 and, the boundary being a cut,
  // reads no value before it.
  std::vector<QActivation> vals(ops_.size() + 1);
  const auto val = [&](int v) -> QActivation& {
    return vals[static_cast<std::size_t>(v + 1)];
  };
  const auto last_read = [&](int v) {
    return last_use_[static_cast<std::size_t>(v + 1)];
  };
  val(begin - 1) = std::move(x);
  for (int i = begin; i < end; ++i) {
    const QuantizedOp& op = ops_[static_cast<std::size_t>(i)];
    const QActivation& in = val(op.input);
    QActivation& y = val(i);
    const auto t0 = prof_ ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    switch (op.kind) {
      case QOpKind::kConv2d:
        y = conv2d(in, op.weight, op.bias, op.stride, op.pad, op.out_fmt,
                   &op.wcache, op.fused_relu);
        break;
      case QOpKind::kRelu:
        // Steal the input when this is its last use (the common case: relu
        // directly follows its conv) instead of deep-copying the activation.
        // The run owns every value it can steal: a value the caller keeps
        // enters as a copy.
        if (last_read(op.input) == i)
          y = std::move(val(op.input));
        else
          y = in;
        // Folded into the producing conv's requant clamp: the value already
        // is relu(conv(...)); this node just forwards it.
        if (!op.fused_away) relu(y);
        break;
      case QOpKind::kRescale:
        y = rescale(in, op.out_fmt);
        break;
      case QOpKind::kPrimaryCaps:
        y = exec_primary_caps(op, in);
        break;
      case QOpKind::kVoteTransform:
        QCAPS_CHECK_MSG(in.dim(1) == op.in_types && in.dim(2) == op.in_dim,
                        op.source << ": capsule list shape mismatch");
        y = vote_transform(in, op.weight, op.out_fmt, &op.wcache);
        break;
      case QOpKind::kDynamicRouting:
        y = dynamic_routing(in, op.iterations, op.out_fmt, op.dr_fmt);
        break;
      case QOpKind::kConvCaps:
        y = conv_caps(in, op.weight, op.bias, op.stride, op.pad, op.out_dim,
                      op.mid_fmt, op.out_fmt, &op.wcache);
        break;
      case QOpKind::kConvCaps3d:
        y = exec_conv_caps3d(op, in);
        break;
      case QOpKind::kResidualAdd:
        y = residual_add(in, val(op.input2));
        break;
      case QOpKind::kFlatten:
        y = exec_flatten(op, in);
        break;
    }
    const std::size_t node = static_cast<std::size_t>(i);
    QCAPS_CHECK_MSG(y.storage() == storage_[node],
                    op.source << ": value held in "
                              << storage_name(y.storage()) << ", planned "
                              << storage_name(storage_[node]));
    if (prof_) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      prof_->ns[node].fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count(),
          std::memory_order_relaxed);
      prof_->bytes[node].fetch_add(y.bytes(), std::memory_order_relaxed);
    }
    // Requant-saturation accounting: count produced raws sitting exactly on
    // the output format's rails. Anything requantized (conv, rescale,
    // squash, routing, residual add) can only reach a rail by clamping —
    // or by landing on it exactly, which is indistinguishable and rare.
    // kRelu and kFlatten never requantize, so they are left uncounted
    // (relu also steals its input, which may already be freed). A conv with
    // a fused relu counts only the high rail: its raised lower clamp makes
    // legitimate relu zeros, which sit above the (negative) low rail, so
    // the same two-sided compare never counts them. The count reads the
    // value's own container, under the team for large values; it touches
    // only relaxed atomics, so replica pools can run it concurrently.
    if (sat_ && op.kind != QOpKind::kRelu && op.kind != QOpKind::kFlatten) {
      sat_->saturated[node].fetch_add(count_at_rails(y),
                                      std::memory_order_relaxed);
      sat_->total[node].fetch_add(static_cast<std::uint64_t>(y.numel()),
                                  std::memory_order_relaxed);
    }
    // Intermediates are freed after their last reader, so the peak working
    // set stays at a couple of layer activations instead of the whole
    // (batched) value list.
    if (last_read(op.input) == i) val(op.input) = QActivation();
    if (op.kind == QOpKind::kResidualAdd && last_read(op.input2) == i)
      val(op.input2) = QActivation();
  }
  return std::move(val(end - 1));
}

std::vector<NodeSaturation> QuantizedGraph::saturation() const {
  std::vector<NodeSaturation> out(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    out[i].source = ops_[i].source;
    out[i].kind = ops_[i].kind;
    if (sat_) {
      out[i].saturated = sat_->saturated[i].load(std::memory_order_relaxed);
      out[i].total = sat_->total[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double QuantizedGraph::saturation_rate() const {
  std::uint64_t saturated = 0, total = 0;
  if (sat_) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      saturated += sat_->saturated[i].load(std::memory_order_relaxed);
      total += sat_->total[i].load(std::memory_order_relaxed);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(saturated) /
                          static_cast<double>(total);
}

std::vector<int> QuantizedGraph::predict_batch(
    const tensor::Tensor& images, std::vector<float>* scores) const {
  return nn::classify_lengths(lengths(forward(images)), scores);
}

std::int64_t QuantizedGraph::weight_bits() const {
  std::int64_t bits = 0;
  for (const auto& op : ops_) bits += op.weight_bits();
  return bits;
}

}  // namespace qcaps::qengine
