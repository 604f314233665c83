#include "core/qgraph_evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "nn/network.hpp"

namespace qcaps::core {

namespace {
// keys[l]: everything that determines a compiled graph's output through
// layer l — rounding scheme, quantization toggles, and the calibrated widths
// of layers 0…l. The last key covers the whole spec: the memo key.
std::vector<std::string> prefix_keys(const NetworkQuantSpec& spec) {
  QCAPS_CHECK(!spec.layers.empty());
  std::ostringstream os;
  os << static_cast<int>(spec.scheme) << '|' << spec.quantize_weights
     << spec.quantize_activations << spec.quantize_routing;
  std::vector<std::string> keys;
  for (const auto& l : spec.layers) {
    os << '|' << l.qw_int << '.' << l.qw_frac << ',' << l.qa_int << '.'
       << l.qa_frac << ',' << l.qdr_int << '.' << l.qdr_frac;
    keys.push_back(os.str());
  }
  return keys;
}

// Layer l's output is kept when 1 <= l <= L - 2. Layer 0's output (DeepCaps'
// L1, the widest activation) would save only the cheapest layer, and nothing
// follows the last layer.
bool stored_cut(std::size_t l, std::size_t num_layers) {
  return l >= 1 && l + 2 <= num_layers;
}

// Storage cap of the packed qgemm tier: calibrated specs with any operand
// wordlength beyond this fall back to the fake-quant reference path.
constexpr int kMaxGraphWordlength = 16;

int ceil_log2(std::int64_t v) {
  return v <= 1 ? 0
               : 64 - std::countl_zero(static_cast<std::uint64_t>(v - 1));
}
}  // namespace

QGraphEvaluator::QGraphEvaluator(nn::Network& net,
                                 const data::Dataset& test_set,
                                 std::int64_t eval_samples,
                                 std::int64_t batch_size, QGraphEvalConfig cfg)
    : Evaluator(net, test_set, eval_samples, batch_size),
      cfg_(std::move(cfg)) {
  QCAPS_CHECK(cfg_.eval_batch >= 1);
}

bool QGraphEvaluator::packed_tier_ok(const NetworkQuantSpec& c) const {
  const auto& sizes = memory().layers();
  if (sizes.size() != c.layers.size()) return false;
  for (std::size_t i = 0; i < c.layers.size(); ++i) {
    const auto& l = c.layers[i];
    const int wl_w = l.weight_wordlength();
    const int wl_a = l.act_wordlength();
    const int wl_dr = l.dr_format().wordlength();
    if (std::max({wl_w, wl_a, wl_dr}) > kMaxGraphWordlength)
      return false;
    // Exact int32 accumulation over the layer's reduction depth k: operands
    // bounded by 2^(wl-1), so sum_k |a||b| needs (wl_w-1)+(wl_a-1)+log2(k)
    // bits. Past 30 the packed kernels refuse and the graph would run the
    // exact-int64 scalar tier — slower than fake-quant, so not worth it.
    const std::int64_t k =
        sizes[i].activations > 0
            ? std::max<std::int64_t>(1, sizes[i].macs / sizes[i].activations)
            : 1;
    if ((wl_w - 1) + (wl_a - 1) + ceil_log2(k) > 30) return false;
  }
  return true;
}

float QGraphEvaluator::evaluate(const NetworkQuantSpec& spec) {
  return evaluate_impl(spec, /*acc_floor=*/0.0f);
}

float QGraphEvaluator::evaluate_bounded(const NetworkQuantSpec& spec,
                                        float acc_floor) {
  return evaluate_impl(spec, acc_floor);
}

template <typename ChunkFn>
float QGraphEvaluator::bounded_accuracy(float acc_floor, ChunkFn&& correct_in,
                                        bool* truncated) const {
  // Same subset contract as nn::evaluate: the FIRST eval_samples_ images in
  // contiguous batches.
  const std::int64_t total = eval_samples_;
  std::int64_t correct = 0;
  for (std::int64_t lo = 0; lo < total; lo += cfg_.eval_batch) {
    const std::int64_t hi = std::min(lo + cfg_.eval_batch, total);
    correct += correct_in(lo, hi);
    if (acc_floor > 0.0f && hi < total) {
      // Provable miss: even if every remaining sample were classified
      // correctly the floor is unreachable. The bound is >= the true
      // accuracy and < the floor, so the caller's verdict is exact.
      const float bound = static_cast<float>(correct + (total - hi)) /
                          static_cast<float>(total);
      if (bound < acc_floor) {
        *truncated = true;
        return bound;
      }
    }
  }
  *truncated = false;
  return total > 0 ? static_cast<float>(correct) / static_cast<float>(total)
                   : 0.0f;
}

std::vector<int> QGraphEvaluator::classify_chunk(
    const qengine::QuantizedGraph& graph, const CutEntry* base,
    std::size_t depth, CutEntry& cur, std::int64_t lo, std::int64_t hi) {
  const std::size_t num_layers = graph.num_layers();
  const auto c = static_cast<std::size_t>(lo / cfg_.eval_batch);
  auto& mine = cur.chunks[c];
  mine.assign(num_layers, nullptr);
  qengine::QActivation x;
  std::size_t first = 0;
  if (base != nullptr && !base->chunks[c].empty()) {
    // This candidate's cuts through layer `depth` are the base's.
    std::copy_n(base->chunks[c].begin() + 1, depth, mine.begin() + 1);
    first = depth + 1;
    ++cut_resumes_;
    x = *mine[depth];  // a copy: the run consumes its input
  } else {
    std::vector<std::int64_t> idx(static_cast<std::size_t>(hi - lo));
    std::iota(idx.begin(), idx.end(), lo);
    x = qengine::QActivation::from_float(test_.batch(idx),
                                         graph.input_format());
  }
  for (std::size_t l = first; l < num_layers; ++l) {
    x = graph.run_layers(std::move(x), l, l + 1);
    if (stored_cut(l, num_layers))
      mine[l] = std::make_shared<const qengine::QActivation>(x);
  }
  return nn::classify_lengths(qengine::lengths(x.widen()));
}

float QGraphEvaluator::evaluate_impl(const NetworkQuantSpec& spec,
                                     float acc_floor) {
  NetworkQuantSpec calibrated = spec;
  calibrate_spec(calibrated);
  std::vector<std::string> keys = prefix_keys(calibrated);
  const std::string key = keys.back();
  // Memoized values are always full evaluations, so they serve bounded and
  // unbounded calls alike.
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }

  const auto count_correct = [&](const std::vector<int>& pred,
                                 std::int64_t lo) {
    std::int64_t correct = 0;
    for (std::size_t k = 0; k < pred.size(); ++k)
      if (pred[k] == test_.labels[static_cast<std::size_t>(lo) + k]) ++correct;
    return correct;
  };

  const bool graph_ok =
      calibrated.scheme == fixed::RoundingScheme::kRoundToNearest &&
      calibrated.quantize_weights && calibrated.quantize_activations &&
      packed_tier_ok(calibrated);

  bool truncated = false;
  float acc;
  if (!graph_ok) {
    // Candidates the packed integer tier cannot serve (non-RTN schemes,
    // wide probes, partial quantization) score on the fake-quant reference
    // path — with the same chunked early exit.
    ++fake_quant_fallbacks_;
    apply_spec(net_, calibrated);
    acc = bounded_accuracy(
        acc_floor,
        [&](std::int64_t lo, std::int64_t hi) {
          std::vector<std::int64_t> idx(static_cast<std::size_t>(hi - lo));
          std::iota(idx.begin(), idx.end(), lo);
          const tensor::Tensor out =
              net_.forward(test_.batch(idx), nn::Phase::kEval);
          return count_correct(nn::Network::predict(out), lo);
        },
        &truncated);
    net_.clear_quantization();
  } else {
    const qengine::QuantizedGraph graph = qengine::QuantizedGraph::compile(
        net_, calibrated, &wcache_, /*track_saturation=*/false);
    ++graphs_compiled_;
    // The cached candidate whose keys match deepest is the base this one
    // resumes from. It stays, as the most recent beside this candidate
    // (with no match, the most recent one stays), and the other one goes.
    const std::size_t num_layers = keys.size();
    std::size_t keep = 0, depth = 0;
    for (std::size_t e = 0; e < cuts_.size(); ++e) {
      std::size_t d = 0;
      while (stored_cut(d + 1, num_layers) &&
             cuts_[e].keys[d + 1] == keys[d + 1])
        ++d;
      if (d > depth) {
        keep = e;
        depth = d;
      }
    }
    if (cuts_.size() == 2)
      cuts_.erase(cuts_.begin() + static_cast<std::ptrdiff_t>(1 - keep));
    CutEntry cur;
    cur.keys = std::move(keys);
    cur.chunks.resize(static_cast<std::size_t>(
        (eval_samples_ + cfg_.eval_batch - 1) / cfg_.eval_batch));
    const CutEntry* base = depth > 0 ? &cuts_.front() : nullptr;
    acc = bounded_accuracy(
        acc_floor,
        [&](std::int64_t lo, std::int64_t hi) {
          return count_correct(
              classify_chunk(graph, base, depth, cur, lo, hi), lo);
        },
        &truncated);
    cuts_.insert(cuts_.begin(), std::move(cur));
  }
  if (truncated) ++truncated_evals_;
  acc = record(calibrated, acc, truncated);
  if (!truncated) memo_.emplace(key, acc);
  return acc;
}

}  // namespace qcaps::core
