// Serving throughput / latency benchmark — the end-to-end counterpart of the
// kernel microbenchmarks in bench_kernels.cpp.
//
// One server hosts every (model, batch-cap) configuration; each is driven
// closed-loop by a single submitter thread that keeps a bounded window of
// requests in flight (2x the batch cap — arrivals stall when the window is
// full, so tail latencies are capped-concurrency numbers, not open-loop
// ones), and reports images/sec plus worker-measured enqueue-to-fulfilment
// latency percentiles. The batch-1
// row is the no-batching baseline; the speedup at larger B is the
// served-throughput value of cross-request batching (one strided
// gemm_batch / qgemm_batch_scatter per coalesced batch instead of per
// request).
//
// Models are randomly initialized: the forward-pass cost (and therefore the
// throughput) of a capsule network does not depend on the weight values.
//
// Usage:
//   serve_bench [--model=fp32|quant|both] [--batch-sizes=1,2,4,8,16,32,64]
//               [--requests=256] [--workers=1] [--window-us=2000]
//               [--reps=3] [--compute-batch-int8=8] [--json=serve_bench.json]
//
// QCAPS_BENCH_FAST=1 (or --fast) cuts the request count for CI smoke runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/quant_spec.hpp"
#include "models/shallow_caps.hpp"
#include "serve/model_backend.hpp"
#include "serve/server.hpp"

namespace {

using namespace qcaps;

struct SweepResult {
  std::string model;
  std::int64_t max_batch = 0;
  int workers = 0;
  int inflight = 0;  ///< in-flight window of the submitter
  double images_per_sec = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_batch = 0.0;
};

// Nearest-rank percentile: the smallest element with at least p of the
// sample at or below it (ceil(p*n) - 1 as a 0-based index).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size())) - 1.0;
  const auto idx = static_cast<std::size_t>(
      std::clamp<double>(rank, 0.0, static_cast<double>(v.size()) - 1.0));
  return v[idx];
}

std::vector<std::int64_t> parse_batch_sizes(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) out.push_back(std::stoll(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// One measured pass: a single submitter thread with a bounded in-flight
// window (2 * max_batch outstanding — closed-loop with capped concurrency),
// so the comparison across batch caps measures serving work, not
// client-thread scheduling. Latencies are worker-measured enqueue ->
// fulfilment times.
SweepResult run_once(serve::InferenceServer& server,
                     const std::string& model_name,
                     const std::vector<tensor::Tensor>& images,
                     std::int64_t max_batch, int workers,
                     std::int64_t total_requests) {
  const std::int64_t inflight_cap = std::max<std::int64_t>(2 * max_batch, 4);
  std::deque<std::future<serve::InferenceResult>> inflight;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(total_requests));

  const serve::ModelStats before = server.stats(model_name);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < total_requests; ++i) {
    if (static_cast<std::int64_t>(inflight.size()) >= inflight_cap) {
      latencies.push_back(inflight.front().get().latency_ms);
      inflight.pop_front();
    }
    inflight.push_back(server.submit(
        model_name, images[static_cast<std::size_t>(i) % images.size()]));
  }
  while (!inflight.empty()) {
    latencies.push_back(inflight.front().get().latency_ms);
    inflight.pop_front();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  SweepResult r;
  r.model = model_name;
  r.max_batch = max_batch;
  r.workers = workers;
  r.inflight = static_cast<int>(inflight_cap);
  r.images_per_sec = static_cast<double>(latencies.size()) / wall_s;
  r.p50_ms = percentile(latencies, 0.50);
  r.p95_ms = percentile(latencies, 0.95);
  r.p99_ms = percentile(latencies, 0.99);
  // Batching of THIS pass, not the model's lifetime cumulative average.
  const serve::ModelStats after = server.stats(model_name);
  const std::uint64_t pass_batches = after.batches - before.batches;
  r.mean_batch = pass_batches == 0
                     ? 0.0
                     : static_cast<double>(after.images - before.images) /
                           static_cast<double>(pass_batches);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::string model_sel = args.get("model", "both");
  const std::vector<std::int64_t> batch_sizes =
      parse_batch_sizes(args.get("batch-sizes", "1,2,4,8,16,32,64"));
  const bool fast = bench::fast_mode() || args.get_bool("fast", false);
  const std::int64_t requests =
      args.get_int("requests", fast ? 48 : 256);
  const int workers = args.get_int("workers", 1);
  const std::int64_t window_us = args.get_int("window-us", 2000);
  const int reps = args.get_int("reps", fast ? 1 : 3);
  // The integer path's cache-optimal compute tile (see docs/serving.md);
  // 0 disables slicing.
  const std::int64_t compute_batch_int8 = args.get_int("compute-batch-int8", 8);
  const std::string json_path = args.get("json", "");

  // One trained-shape ShallowCaps prototype; serving replicas share its
  // (random) parameters so fp32 and quantized rows serve the same model.
  const auto mcfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(42);
  const auto proto = models::build_shallow_caps(mcfg, rng);

  // A Q1.6 uniform spec: int8-range operands, the qgemm fast path.
  core::NetworkQuantSpec spec =
      core::NetworkQuantSpec::uniform(3, 6, fixed::RoundingScheme::kRoundToNearest);

  common::Rng img_rng(7);
  std::vector<tensor::Tensor> images;
  for (int i = 0; i < 64; ++i)
    images.push_back(
        tensor::Tensor::uniform({mcfg.in_channels, mcfg.in_size, mcfg.in_size},
                                img_rng, 0.0f, 1.0f));

  // One server hosts every (model, batch-cap) configuration as a separate
  // registered model with its own worker pool; the rep loop is OUTERMOST and
  // interleaved across configurations so machine noise lands on every row
  // equally instead of biasing whichever config ran during a quiet moment.
  serve::InferenceServer server;
  struct ConfigRow {
    std::string name;
    std::string model;
    std::int64_t max_batch;
  };
  std::vector<ConfigRow> configs;
  for (const std::int64_t b : batch_sizes) {
    serve::ServerConfig cfg;
    cfg.max_batch = b;
    cfg.batch_window = std::chrono::microseconds(b > 1 ? window_us : 0);
    cfg.num_workers = workers;
    if (model_sel == "fp32" || model_sel == "both") {
      const std::string name = "shallowcaps-fp32@b" + std::to_string(b);
      server.add_model(name,
                       std::make_unique<serve::NetworkBackend>(
                           "shallowcaps-fp32",
                           [&mcfg, net = proto.get()] {
                             return models::replicate_shallow_caps(mcfg, *net);
                           }),
                       cfg);
      configs.push_back({name, "shallowcaps-fp32", b});
    }
    if (model_sel == "quant" || model_sel == "both") {
      const std::string name = "shallowcaps-int8@b" + std::to_string(b);
      serve::ServerConfig qcfg = cfg;
      qcfg.compute_batch = compute_batch_int8;
      server.add_model(name, std::make_unique<serve::QuantizedBackend>(
                                 "shallowcaps-int8", *proto, spec),
                       qcfg);
      configs.push_back({name, "shallowcaps-int8", b});
    }
  }

  std::vector<SweepResult> results(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {  // warmup every replica
    run_once(server, configs[i].name, images, configs[i].max_batch, workers,
             std::min<std::int64_t>(requests, 2 * configs[i].max_batch));
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SweepResult r = run_once(server, configs[i].name, images,
                               configs[i].max_batch, workers, requests);
      r.model = configs[i].model;
      if (r.images_per_sec > results[i].images_per_sec) results[i] = r;
    }
  }
  server.shutdown();

  std::printf("%-18s %6s %8s %9s %10s %9s %9s %9s %11s\n", "model", "batch",
              "workers", "inflight", "imgs/s", "p50 ms", "p95 ms", "p99 ms",
              "mean batch");
  for (const auto& r : results)
    std::printf("%-18s %6lld %8d %9d %10.1f %9.3f %9.3f %9.3f %11.2f\n",
                r.model.c_str(), static_cast<long long>(r.max_batch),
                r.workers, r.inflight, r.images_per_sec, r.p50_ms, r.p95_ms,
                r.p99_ms, r.mean_batch);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "  {\"model\": \"%s\", \"max_batch\": %lld, \"workers\": %d,"
                   " \"inflight\": %d, \"images_per_sec\": %.2f,"
                   " \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,"
                   " \"mean_batch\": %.2f}%s\n",
                   r.model.c_str(), static_cast<long long>(r.max_batch),
                   r.workers, r.inflight, r.images_per_sec, r.p50_ms, r.p95_ms,
                   r.p99_ms, r.mean_batch, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
