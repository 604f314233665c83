// Generic quantized-graph executor: compile any supported nn::Network plus a
// calibrated core::NetworkQuantSpec into a flat list of integer ops, then run
// batched [B, ...] forwards end-to-end in fixed-point arithmetic.
//
// Both model families of the paper deploy through QuantizedGraph::compile:
// instead of a hand-rolled layer sequence per architecture, the compiler
// walks the trained network once, quantizes every weight into a QTensor
// (folding eval-mode batch-norm into the preceding convolution), builds the
// persistent packed-operand caches the qgemm backend consumes, and emits
// QuantizedOp nodes that the interpreter
// executes with the operators of src/qengine. A compiled graph is a value
// type: copies carry their own packed weight caches, which is exactly what
// the serving worker-pool replication wants. The one deliberately shared
// piece of state is the saturation-counter block: copies of one compiled
// graph aggregate their requant-saturation counts into a single set of
// atomics, so a pool of per-worker replicas reports one coherent per-node
// saturation picture (see saturation() below). Building a graph (compile or
// from_ops, and so the .qcg loader) pins the process's heap thresholds once
// (common::retain_heap), as an nn::Network's first forward does: forwards
// allocate and free their activations, and with glibc's dynamic thresholds
// the heap was handed back to the OS after each one.
//
// Supported layers: Conv2dLayer, ReluLayer, PrimaryCapsLayer, FCCapsLayer,
// FlattenCapsLayer, ConvCapsLayer, RoutedConvCapsLayer, and CapsBlockLayer
// (expanded into its four convolutions plus a raw fixed-point residual add)
// — i.e. both CapsNet families of the paper.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/quant_spec.hpp"
#include "nn/batch_norm.hpp"
#include "qengine/qengine.hpp"

namespace qcaps::qengine {

// NOTE: the enumerator order below is FROZEN — the .qcg model format
// (io/format.hpp) stores these values on disk. Append new kinds at the end
// and bump kQcgVersion; never reorder.
enum class QOpKind {
  kConv2d,         ///< integer conv + fused bias (+ packed-weight cache)
  kRelu,           ///< max(0, x) on raw values
  kRescale,        ///< format change; compile() emits none, a .qcg node
                   ///< runs standalone as qengine::rescale
  kPrimaryCaps,    ///< conv -> channel-grouped capsule list -> squash
  kVoteTransform,  ///< u [B,Nin,Din] * W -> j-major votes [B,Nout,Nin,Dout]
  kDynamicRouting, ///< votes -> routed capsules [B,Nout,Dout]
  kConvCaps,       ///< conv (BN folded) + per-capsule squash (conv_caps)
  kConvCaps3d,     ///< per-type vote convs -> j-major votes -> routing
  kResidualAdd,    ///< saturating raw add of two same-format values
  kFlatten,        ///< [B,T*D,H,W] capsule fmap -> [B,T*H*W,D] capsule list
};

/// One node of the compiled graph. Ops form a flat SSA-like list: node i
/// produces value i; `input` (and `input2` for the residual add) name the
/// consumed value indices, with -1 meaning the quantized network input.
struct QuantizedOp {
  QOpKind kind{};
  int input = -1;
  int input2 = -1;
  std::string source;  ///< originating layer name (diagnostics)

  // Weights (quantized at compile time) and their packed qgemm caches.
  QTensor weight, bias;
  QGemmOperandCache wcache;
  std::vector<QTensor> type_weights;           ///< kConvCaps3d: per input type
  std::vector<QGemmOperandCache> type_caches;  ///< kConvCaps3d

  std::int64_t stride = 1, pad = 0;

  fixed::FixedFormat out_fmt{1, 15};  ///< format of the produced value
  fixed::FixedFormat mid_fmt{1, 15};  ///< wide pre-squash format (caps convs)
  fixed::FixedFormat dr_fmt{1, 15};   ///< routing width (QDR)
  int iterations = 0;                 ///< routing iterations

  std::int64_t caps_types = 0, caps_dim = 0;  ///< kPrimaryCaps / kFlatten
  std::int64_t in_types = 0, in_dim = 0;      ///< caps convolutions
  std::int64_t out_types = 0, out_dim = 0;

  /// kConvCaps3d: the per-type packed vote weights concatenated into one
  /// image (make_grouped_cache), the operand of its grouped vote
  /// convolutions. Rebuilt from the type caches whenever a graph is
  /// (compile, from_ops); never serialized. Shared, not copied: the serving
  /// pool's N replicas of one graph all point at the same panels.
  std::shared_ptr<const QGemmOperandCache> grouped_cache;

  // ---- fusion annotations (in-memory only; see QuantizedGraph::fuse) ----
  // Never serialized: the .qcg op list is always the unfused graph, and
  // from_ops() clears these fields, so any round trip through ops() or disk
  // yields the unfused twin by construction.
  bool fused_relu = false;  ///< kConv2d: apply the following ReLU as the
                            ///< requant's clamp-lo (element-exact)
  bool fused_away = false;  ///< kRelu folded into its producing conv; at
                            ///< run time it aliases its input unchanged

  /// Storage cost of this node's quantized parameters.
  std::int64_t weight_bits() const;
};

/// Requant-saturation observability for one graph node: how many of the
/// values it produced sat exactly on its output format's representable
/// rails (raw_min / raw_max) — i.e. were (or are indistinguishable from)
/// clamped by the fixed-point requantization. A persistently high rate on a
/// node is the classic too-few-integer-bits failure mode of aggressive
/// (<= 4-bit) Q-CapsNets configurations: accuracy collapses with no error
/// raised anywhere. Counters accumulate across forwards and across all
/// copies of one compiled graph (the serving pool's replicas).
struct NodeSaturation {
  std::string source;            ///< originating layer (QuantizedOp::source)
  QOpKind kind{};
  std::uint64_t saturated = 0;   ///< values observed at a format rail
  std::uint64_t total = 0;       ///< values observed in total

  double rate() const {
    return total == 0 ? 0.0
                      : static_cast<double>(saturated) /
                            static_cast<double>(total);
  }
};

/// Cross-compilation cache of quantized, packed weights. A mixed-precision
/// search compiles hundreds of candidate graphs from ONE frozen trained
/// network; most candidates share per-layer weight specs with earlier ones
/// (Algorithm 2 perturbs one suffix at a time), so their quantized weights
/// and packed qgemm panels are byte-identical. Entries are keyed by
/// (layer name, weight format, rounding scheme) — with the FP32 master
/// weights and batch-norm statistics frozen, that key fully determines the
/// quantized bytes. Never share one cache across different trained networks
/// or across training steps. Not thread-safe; one compiling thread at a time.
class QGraphWeightCache {
 public:
  struct Entry {
    QTensor weight, bias;
    QGemmOperandCache wcache;
    std::vector<QTensor> type_weights;
    std::vector<QGemmOperandCache> type_caches;
  };

  /// Null on miss; bumps hits() on success.
  const Entry* find(const std::string& key) const;
  void put(std::string key, Entry entry);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }

 private:
  std::unordered_map<std::string, Entry> entries_;
  mutable std::uint64_t hits_ = 0;
};

class QuantizedGraph {
 public:
  QuantizedGraph() = default;

  /// Compile `net` (trained, eval-ready) under `spec`. The spec must cover
  /// net's weighted layers (core::check_spec_covers); integer bits should
  /// already be calibrated (core::Evaluator::calibrate_spec). Weights are
  /// quantized with spec.scheme; execution rescales round-to-nearest, like
  /// the hand-rolled deployments before it. Eval-mode batch-norm is folded
  /// into the preceding convolution's weights and bias before quantization;
  /// folded weights may exceed the spec's weight range, so their integer
  /// bits widen just enough to represent the folded values (fractional
  /// widths — the searched quantity — are never touched).
  ///
  /// `weights`, when given, reuses quantized+packed weight tensors across
  /// compilations of the SAME trained network (see QGraphWeightCache).
  /// `track_saturation = false` skips the per-op requant-saturation scan —
  /// the right trade for throwaway search graphs; serving graphs keep it
  /// (the guardrails in serve/ read these counters).
  static QuantizedGraph compile(nn::Network& net,
                                const core::NetworkQuantSpec& spec,
                                QGraphWeightCache* weights = nullptr,
                                bool track_saturation = true);

  /// Rebuild a graph from an already-materialized op list — the .qcg
  /// deserializer's entry point (io/model_serializer.hpp). Validates the
  /// SSA discipline (every input names an earlier value or the network
  /// input); callers are responsible for the ops' internal consistency
  /// (weights packed, formats valid), which the serializer checks while
  /// parsing.
  static QuantizedGraph from_ops(std::vector<QuantizedOp> ops,
                                 fixed::FixedFormat input_fmt,
                                 bool track_saturation = true);

  /// Graph-level fusion pass over the compiled op list. Annotates in place —
  /// no node is added, removed, or renamed, so saturation()/profile layouts
  /// and the serialized form are untouched: a kRelu whose producer is a
  /// kConv2d with no other consumer and the same output format folds into
  /// the conv's requant clamp (the relu node stays but becomes an alias of
  /// its input at run time). Fused execution is bit-identical to unfused
  /// (golden-locked). compile() and the .qcg loader always call this; a
  /// graph from from_ops() alone is the unfused reference. Idempotent.
  void fuse();
  /// True once fuse() has run on this graph.
  bool fused() const { return fused_; }

  /// Integer forward: images [B, C, H, W] in [0, 1] -> class capsules
  /// [B, Ncls, D] in the final activation format. The full range of
  /// run_layers().
  QTensor forward(const tensor::Tensor& images) const;

  /// The graph's layers: compile() makes one per weighted network layer
  /// (spec entry), holding its nodes and the unweighted nodes after it up to
  /// the next weighted layer (the ReLU after L1, the flatten before the
  /// class capsules). No node reads a value from before its layer's input,
  /// so each layer boundary is a cut. A graph built by from_ops() is one
  /// layer.
  std::size_t num_layers() const { return layer_end_.size(); }

  /// Ranged run: layers [first, last) on `x`, the value entering layer
  /// `first`. That is the quantized images
  /// (QActivation::from_float(images, input_format())) for first == 0, and
  /// otherwise what a run ending at layer first - 1 returned. Returns the
  /// value leaving layer last - 1 (for the last layer, the class capsules
  /// forward() widens). `x` is consumed: the range frees or steals it like
  /// any value, so a caller that keeps a value passes a copy. Chained runs
  /// are bit-identical to forward().
  QActivation run_layers(QActivation x, std::size_t first,
                         std::size_t last) const;

  /// Batched argmax-of-length classification (see Network::predict_batch).
  /// Integer arithmetic is order-exact, so the result is bit-identical to B
  /// separate calls.
  std::vector<int> predict_batch(const tensor::Tensor& images,
                                 std::vector<float>* scores = nullptr) const;

  /// Total bits of the deployed weights (storage check).
  std::int64_t weight_bits() const;

  const std::vector<QuantizedOp>& ops() const { return ops_; }
  fixed::FixedFormat input_format() const { return input_fmt_; }

  /// The activation storage plan: the container of each node's value (one
  /// entry per op, in op order), read from the value formats alone. kRelu
  /// and kFlatten keep their input's format; every other node produces its
  /// out_fmt. forward() holds each value in exactly this container.
  const std::vector<Storage>& value_storage() const { return storage_; }
  bool empty() const { return ops_.empty(); }

  /// Per-node saturation snapshot (one entry per op, in op order). Layout
  /// and squash-free nodes (kRelu, kFlatten) are counted as zero-total.
  /// Shared across copies: any replica's forward() feeds the same counters.
  std::vector<NodeSaturation> saturation() const;

  /// Aggregate saturated/total over every counted node (0.0 when nothing
  /// has been observed yet).
  double saturation_rate() const;

 private:
  /// Relaxed-atomic counter block shared by every copy of one compilation.
  /// std::atomic<u64> value-initializes to zero, so sizing the vectors is
  /// all the setup the counters need.
  struct SatCounters {
    std::vector<std::atomic<std::uint64_t>> saturated;
    std::vector<std::atomic<std::uint64_t>> total;
    explicit SatCounters(std::size_t n) : saturated(n), total(n) {}
  };

  /// Opt-in per-node profile (QCAPS_QGRAPH_PROFILE): wall time and produced
  /// bytes per node (the container bytes of its value: storage_for of its
  /// format), shared across copies like the saturation block. The
  /// last copy's destructor dumps machine-readable JSON — one record per
  /// node with index/source/kind/ns/bytes/fused_from — to stderr
  /// (QCAPS_QGRAPH_PROFILE=1) or to the file the variable names.
  struct NodeProfile {
    std::vector<std::string> source;
    std::vector<std::string> kind;
    std::vector<std::string> fused_from;  ///< sources folded in ("" = none)
    std::vector<std::atomic<std::int64_t>> ns;
    std::vector<std::atomic<std::int64_t>> bytes;
    std::string target;  ///< "1" or "" -> stderr, otherwise a file path
    explicit NodeProfile(std::size_t n)
        : source(n), kind(n), fused_from(n), ns(n), bytes(n) {}
    ~NodeProfile();  // emits the JSON dump
  };

  /// Build prof_ when QCAPS_QGRAPH_PROFILE enables it (compile / from_ops).
  void init_profile();

  /// Derive the per-graph execution tables from ops_, input_fmt_ and
  /// layer_end_ (compile / from_ops): the storage plan, the liveness table,
  /// the check that every layer boundary is a cut, and each ConvCaps3d
  /// node's grouped vote operand.
  void plan();

  std::vector<QuantizedOp> ops_;
  fixed::FixedFormat input_fmt_{1, 15};
  std::vector<int> layer_end_;  ///< last node of each layer
  std::vector<Storage> storage_;  ///< value_storage()
  /// Last node reading each value, the network input first (index v + 1
  /// for value v); -1 when nothing reads it.
  std::vector<int> last_use_;
  bool fused_ = false;
  std::shared_ptr<SatCounters> sat_;
  std::shared_ptr<NodeProfile> prof_;
};

// ---- standalone op implementations ----------------------------------------
// Exposed so tests can exercise the new integer capabilities directly.

/// Saturating raw addition of two same-shape, same-format values — the
/// CapsBlock residual connection in fixed point, over their shared
/// container. (Both operands sit on the same grid, so the sum is on-grid;
/// only the range clip can act.)
QActivation residual_add(const QActivation& a, const QActivation& b);

/// Fold eval-mode batch-norm into conv weights/bias:
///   w'[f,..] = w[f,..] * gamma_f / sqrt(var_f + eps)
///   b'[f]    = (b[f] - mean_f) * gamma_f / sqrt(var_f + eps) + beta_f
/// `bias` may be empty (treated as zeros). Returns {w', b'} in FP32.
struct FoldedConv {
  tensor::Tensor weight;
  tensor::Tensor bias;
};
FoldedConv fold_batch_norm(const tensor::Tensor& weight,
                           const tensor::Tensor& bias,
                           const nn::BatchNorm2d& bn);

}  // namespace qcaps::qengine
