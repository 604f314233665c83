// deep_offline_2t: a closed loop of back-to-back batch-16 classifications,
// int8 (mmap-loaded `.qcg`) and fp32 (nn::Network) batches interleaved so
// both see the same host state.
#include <fstream>

#include "bench.hpp"
#include "io/model_serializer.hpp"
#include "qengine/qgraph.hpp"

namespace qbench {

namespace {

constexpr std::int64_t kBatch = 16;
constexpr std::int64_t kImages = 256;
constexpr int kSetupReps = 7;
constexpr int kWarmupBatches = 4;

/// Batch predictions equal the batch's per-image predictions.
bool batch_matches_singles(const tensor::Tensor& batch, auto&& predict) {
  const std::vector<int> together = predict(batch);
  for (std::int64_t i = 0; i < batch.dim(0); ++i) {
    tensor::Tensor x(
        tensor::Shape{1, batch.dim(1), batch.dim(2), batch.dim(3)});
    const std::int64_t n = x.numel();
    std::copy(batch.data() + i * n, batch.data() + (i + 1) * n, x.data());
    if (predict(x).at(0) != together[static_cast<std::size_t>(i)]) return false;
  }
  return true;
}

}  // namespace

void run_offline(const Args& a) {
  Report r;
  Tracer tr(!a.trace.empty());
  const data::Dataset images = seeded_images(kImages, a.seed, 1);
  std::vector<tensor::Tensor> batches;
  for (std::int64_t lo = 0; lo < kImages; lo += kBatch)
    batches.push_back(rows(images, lo, lo + kBatch));

  // Declared first so it is destroyed last: in a traced run its per-node
  // profile is the dump left on disk.
  qcaps::qengine::QuantizedGraph g;
  std::unique_ptr<nn::Network> net;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    g = qcaps::io::load_graph(a.qcg);
    net = load_fp32(a.checkpoint);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  for (int i = 0; i < kWarmupBatches; ++i) {
    (void)g.predict_batch(batches[static_cast<std::size_t>(i)]);
    (void)net->predict_batch(batches[static_cast<std::size_t>(i)]);
  }

  std::vector<double> int8_ms, fp32_ms;
  const auto int8_batch = [&](const tensor::Tensor& x) {
    Tracer::Scope s(tr, "qengine.predict_batch");
    const auto t0 = Clock::now();
    (void)g.predict_batch(x);
    int8_ms.push_back(ms_between(t0, Clock::now()));
  };
  const auto fp32_batch = [&](const tensor::Tensor& x) {
    Tracer::Scope s(tr, "nn.predict_batch");
    const auto t0 = Clock::now();
    (void)net->predict_batch(x);
    fp32_ms.push_back(ms_between(t0, Clock::now()));
  };
  // Whole rounds of one int8 and one fp32 batch; the order flips every round.
  const auto start = Clock::now();
  std::int64_t round = 0;
  while (ms_between(start, Clock::now()) < a.seconds * 1e3) {
    Tracer::Scope s(tr, "offline.round");
    const auto& x = batches[static_cast<std::size_t>(round) % batches.size()];
    if (round % 2 == 0) {
      int8_batch(x);
      fp32_batch(x);
    } else {
      fp32_batch(x);
      int8_batch(x);
    }
    ++round;
  }
  r.attempted = 2 * round;
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("setup_s", median(setup_s));
  r.set("int8_ms", median(int8_ms) / kBatch);
  r.set("fp32_ms", median(fp32_ms) / kBatch);
  double pct = 0;
  r.set("int8_tail_ms", tail_percentile(int8_ms, &pct) / kBatch);
  r.set("int8_tail_pct", pct);
  r.set("int8_batches", static_cast<double>(int8_ms.size()));
  r.set("w_mem_x", 32.0 * static_cast<double>(net->param_count()) /
                       static_cast<double>(g.weight_bits()));
  r.set("qengine.profiled_images",
        static_cast<double>((kWarmupBatches + round) * kBatch));

  // Output checks, untimed, on a separately loaded graph.
  {
    const auto check = qcaps::io::load_graph(a.qcg);
    const auto int8_predict = [&](const tensor::Tensor& x) {
      return check.predict_batch(x);
    };
    const auto fp32_predict = [&](const tensor::Tensor& x) {
      return net->predict_batch(x);
    };
    std::vector<std::int64_t> oracle;
    std::ifstream in(a.oracle);
    for (std::int64_t v = 0; in >> v;) oracle.push_back(v);
    r.check("int8 class capsules bit-identical to the scalar-tier recompute",
            !oracle.empty() && int8_raw_scores(a.qcg, a.seed) == oracle);
    r.check("int8 batch predictions equal per-image predictions",
            batch_matches_singles(batches[0], int8_predict));
    r.check("fp32 batch predictions equal per-image predictions",
            batch_matches_singles(batches[0], fp32_predict));
    const data::Dataset pinned = pinned_test_set();
    r.set("int8_acc", accuracy(pinned, int8_predict));
    r.set("fp32_acc", accuracy(pinned, fp32_predict));
    if (tr.enabled()) probe_layers(a, *net, kBatch, tr, r);
  }
  tr.write(a.trace);
  r.print();
}

}  // namespace qbench
