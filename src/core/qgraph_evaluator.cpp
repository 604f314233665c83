#include "core/qgraph_evaluator.hpp"

#include <algorithm>
#include <bit>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/server.hpp"

namespace qcaps::core {

namespace {
// Memo key: everything that determines a compiled graph's output — rounding
// scheme, quantization toggles, and the six calibrated per-layer widths.
std::string memo_key(const NetworkQuantSpec& spec) {
  std::ostringstream os;
  os << static_cast<int>(spec.scheme) << '|' << spec.quantize_weights
     << spec.quantize_activations << spec.quantize_routing;
  for (const auto& l : spec.layers)
    os << '|' << l.qw_int << '.' << l.qw_frac << ',' << l.qa_int << '.'
       << l.qa_frac << ',' << l.qdr_int << '.' << l.qdr_frac;
  return os.str();
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

QGraphEvaluator::~QGraphEvaluator() = default;

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

float QGraphEvaluator::evaluate_impl(const NetworkQuantSpec& spec,
                                     float acc_floor) {
  NetworkQuantSpec calibrated = spec;
  calibrate_spec(calibrated);
  const std::string key = memo_key(calibrated);
  // Memoized values are always full evaluations, so they serve bounded and
  // unbounded calls alike.
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }

  const auto batch_indices = [](std::int64_t lo, std::int64_t hi) {
    std::vector<std::int64_t> idx;
    idx.reserve(static_cast<std::size_t>(hi - lo));
    for (std::int64_t i = lo; i < hi; ++i) idx.push_back(i);
    return idx;
  };
  const auto count_correct = [&](const std::vector<int>& pred,
                                 const std::vector<std::int64_t>& idx) {
    std::int64_t correct = 0;
    for (std::size_t k = 0; k < pred.size(); ++k)
      if (pred[k] == test_.labels[static_cast<std::size_t>(idx[k])]) ++correct;
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
          const auto idx = batch_indices(lo, hi);
          const tensor::Tensor out =
              net_.forward(test_.batch(idx), nn::Phase::kEval);
          return count_correct(nn::Network::predict(out), idx);
        },
        &truncated);
    net_.clear_quantization();
  } else {
    qengine::QuantizedGraph graph = qengine::QuantizedGraph::compile(
        net_, calibrated, &wcache_, /*track_saturation=*/false);
    ++graphs_compiled_;
    if (cfg_.workers > 1) {
      acc = evaluate_served(std::move(graph));
    } else {
      acc = bounded_accuracy(
          acc_floor,
          [&](std::int64_t lo, std::int64_t hi) {
            const auto idx = batch_indices(lo, hi);
            return count_correct(graph.predict_batch(test_.batch(idx)), idx);
          },
          &truncated);
    }
  }
  if (truncated) ++truncated_evals_;
  acc = record(calibrated, acc, truncated);
  if (!truncated) memo_.emplace(key, acc);
  return acc;
}

float QGraphEvaluator::evaluate_served(qengine::QuantizedGraph graph) {
  if (!server_) server_ = std::make_unique<serve::InferenceServer>();
  // One short-lived model per candidate graph; remove_model() makes the
  // registration turnover cheap and keeps the server's map small.
  const std::string model = "search-cand-" + std::to_string(served_models_++);
  serve::ServerConfig scfg;
  scfg.max_batch = cfg_.eval_batch;
  scfg.num_workers = cfg_.workers;
  // Partition the machine between the workers instead of oversubscribing
  // each worker's OpenMP team over all cores.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) scfg.intra_op_threads = std::max(1, hw / cfg_.workers);
  scfg.batch_window = std::chrono::microseconds(100);
  server_->add_model(model,
                     std::make_unique<serve::QuantizedBackend>(
                         model, std::move(graph)),
                     scfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(eval_samples_));
  for (std::int64_t i = 0; i < eval_samples_; ++i)
    futures.push_back(server_->submit(model, test_.image(i)));
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < eval_samples_; ++i)
    if (futures[static_cast<std::size_t>(i)].get().prediction.label ==
        test_.labels[static_cast<std::size_t>(i)])
      ++correct;
  server_->remove_model(model);
  return eval_samples_ > 0
             ? static_cast<float>(correct) / static_cast<float>(eval_samples_)
             : 0.0f;
}

}  // namespace qcaps::core
