// deep_serve_1t: an open loop of single-image requests on a seeded Poisson
// schedule against one InferenceServer hosting the int8 model (added from
// the `.qcg` path) and the fp32 model, in alternating int8/fp32 phases.
// Latency runs from each request's scheduled send time to the moment its
// result reaches the client.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <optional>
#include <random>
#include <thread>

#include "bench.hpp"
#include "io/model_serializer.hpp"
#include "models/deep_caps.hpp"
#include "serve/server.hpp"

namespace qbench {

namespace {

// Offered load in both phases: int8 and fp32 requests take ~3-4 ms today,
// so each pool is idle between most requests.
constexpr double kRatePerS = 12.0;
constexpr double kPhaseS = 1.0;  // int8 and fp32 phases alternate
constexpr std::int64_t kImages = 256;
constexpr int kSetupReps = 5;
constexpr int kWarmupPerModel = 32;

namespace serve = qcaps::serve;

/// Times each coalesced batch of the wrapped backend (traced runs only).
class TimingBackend final : public serve::ModelBackend {
 public:
  struct Log {
    std::mutex mu;  // guards the vectors
    std::vector<double> compute_ms;
    std::vector<std::int64_t> sizes;
  };
  TimingBackend(std::unique_ptr<serve::ModelBackend> inner, const char* span,
                Tracer& tr, std::shared_ptr<Log> log)
      : inner_(std::move(inner)), span_(span), tr_(tr), log_(std::move(log)) {}

  const std::string& name() const override { return inner_->name(); }
  std::vector<serve::Prediction> predict_batch(
      const tensor::Tensor& images) override {
    Tracer::Scope s(tr_, span_);
    const auto t0 = Clock::now();
    auto out = inner_->predict_batch(images);
    const double ms = ms_between(t0, Clock::now());
    std::lock_guard<std::mutex> lk(log_->mu);
    log_->compute_ms.push_back(ms);
    log_->sizes.push_back(images.dim(0));
    return out;
  }
  std::unique_ptr<serve::ModelBackend> clone() const override {
    return std::make_unique<TimingBackend>(inner_->clone(), span_, tr_, log_);
  }

 private:
  std::unique_ptr<serve::ModelBackend> inner_;
  const char* span_;
  Tracer& tr_;
  std::shared_ptr<Log> log_;
};

struct Sent {
  std::int64_t id = 0;
  std::int64_t image = 0;
  Clock::time_point scheduled, sent;
  std::future<serve::InferenceResult> result;
};

struct Done {
  std::int64_t image = 0;
  int label = -1;
  bool ok = false;
  double latency_ms = 0;  ///< scheduled send -> result at the client
  double server_ms = 0;   ///< enqueue -> fulfilment, worker-measured
  double late_ms = 0;     ///< generator lateness
};

/// Hands sent requests to one model's collector thread in send order.
class Pipe {
 public:
  void push(std::optional<Sent> s) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(std::move(s));
    }
    cv_.notify_one();
  }
  std::optional<Sent> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty(); });
    auto s = std::move(q_.front());
    q_.pop_front();
    return s;
  }

 private:
  std::mutex mu_;  // guards q_
  std::condition_variable cv_;
  std::deque<std::optional<Sent>> q_;
};

void collect(Pipe& pipe, Tracer& tr, std::vector<Done>& done) {
  while (auto s = pipe.pop()) {
    Done d;
    d.image = s->image;
    d.late_ms = ms_between(s->scheduled, s->sent);
    try {
      const serve::InferenceResult res = s->result.get();
      const auto t1 = Clock::now();
      d.ok = true;
      d.label = res.prediction.label;
      d.latency_ms = ms_between(s->scheduled, t1);
      d.server_ms = res.latency_ms;
      tr.add("client.request", s->scheduled, t1, s->id);
    } catch (const std::exception&) {
      d.ok = false;
    }
    done.push_back(d);
  }
}

double sys_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(ru.ru_stime.tv_usec) / 1e3;
}

}  // namespace

void run_serve(const Args& a) {
  Report r;
  Tracer tr(!a.trace.empty());
  const data::Dataset images = seeded_images(kImages, a.seed, 2);
  const auto logs = std::array{std::make_shared<TimingBackend::Log>(),
                               std::make_shared<TimingBackend::Log>()};
  const char* names[2] = {"int8", "fp32"};

  // The fp32 net outlives the server: its replicator copies from it.
  std::unique_ptr<nn::Network> net;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    net = load_fp32(a.checkpoint);
    server = std::make_unique<serve::InferenceServer>();
    if (tr.enabled()) {
      // What add_model(name, qcg_path) does, with the timing wrapper.
      server->add_model(
          names[0],
          std::make_unique<TimingBackend>(
              std::make_unique<serve::QuantizedBackend>(
                  names[0], qcaps::io::load_graph(a.qcg)),
              "qengine.predict_batch", tr, logs[0]));
    } else {
      server->add_model(names[0], a.qcg);
    }
    nn::Network& trained = *net;
    auto fp32 = std::make_unique<serve::NetworkBackend>(names[1], [&trained] {
      return qcaps::models::replicate_deep_caps(
          qcaps::models::DeepCapsConfig::experiment(32, 3), trained);
    });
    if (tr.enabled())
      server->add_model(names[1],
                        std::make_unique<TimingBackend>(
                            std::move(fp32), "nn.predict_batch", tr, logs[1]));
    else
      server->add_model(names[1], std::move(fp32));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  for (int m = 0; m < 2; ++m)
    for (int i = 0; i < kWarmupPerModel; ++i)
      (void)server->submit(names[m], images.image(i % kImages)).get();
  for (const auto& log : logs) {
    std::lock_guard<std::mutex> lk(log->mu);
    log->compute_ms.clear();
    log->sizes.clear();
  }

  // The seeded schedule: Poisson arrivals, image picks, model by phase.
  std::mt19937_64 rng(a.seed);
  std::exponential_distribution<double> gap(kRatePerS);
  std::uniform_int_distribution<std::int64_t> pick(0, kImages - 1);
  std::vector<double> at_s;
  for (double t = gap(rng); t < a.seconds; t += gap(rng)) at_s.push_back(t);
  // Whole int8+fp32 phase pairs only.
  const double span_s =
      2 * kPhaseS * std::max(1.0, std::floor(a.seconds / (2 * kPhaseS)));
  while (!at_s.empty() && at_s.back() >= span_s) at_s.pop_back();

  Pipe pipes[2];
  std::vector<Done> done[2];
  std::thread collectors[2];
  for (int m = 0; m < 2; ++m)
    collectors[m] = std::thread(collect, std::ref(pipes[m]), std::ref(tr),
                                std::ref(done[m]));
  // Ends and joins the collectors on every way out of the send loop.
  struct JoinCollectors {
    Pipe* pipes;
    std::thread* threads;
    ~JoinCollectors() {
      for (int m = 0; m < 2; ++m) {
        pipes[m].push(std::nullopt);
        threads[m].join();
      }
    }
  };
  const double sys0 = sys_cpu_ms();
  {
    const JoinCollectors join{pipes, collectors};
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t k = 0; k < at_s.size(); ++k) {
      const int m = static_cast<int>(std::floor(at_s[k] / kPhaseS)) % 2;
      Sent s;
      s.id = static_cast<std::int64_t>(k);
      s.image = pick(rng);
      s.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(at_s[k]));
      std::this_thread::sleep_until(s.scheduled);
      s.sent = Clock::now();
      s.result = server->submit(names[m], images.image(s.image));
      pipes[m].push(std::move(s));
    }
  }
  const double sys_ms = sys_cpu_ms() - sys0;
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("setup_s", median(setup_s));

  r.attempted = static_cast<std::int64_t>(at_s.size());
  std::vector<double> late;
  bool all_ok = true;
  for (int m = 0; m < 2; ++m) {
    std::vector<double> lat;
    double mean_lat = 0, mean_server = 0;
    for (const Done& d : done[m]) {
      all_ok = all_ok && d.ok;
      r.failed += d.ok ? 0 : 1;
      if (!d.ok) continue;
      lat.push_back(d.latency_ms);
      late.push_back(d.late_ms);
      mean_lat += d.latency_ms;
      mean_server += d.server_ms;
    }
    if (lat.empty()) continue;
    mean_lat /= static_cast<double>(lat.size());
    mean_server /= static_cast<double>(lat.size());
    const std::string n = names[m];
    double pct = 0;
    r.set(n + "_ms", median(lat));
    r.set(n + "_tail_ms", tail_percentile(lat, &pct));
    r.set(n + "_tail_pct", pct);
    r.set(n + "_requests", static_cast<double>(lat.size()));
    r.set("serve.client_ms." + n, mean_lat - mean_server);
    if (tr.enabled()) {
      std::lock_guard<std::mutex> lk(logs[m]->mu);
      const auto& c = logs[m]->compute_ms;
      const auto& sz = logs[m]->sizes;
      double images_seen = 0, weighted = 0, sum_ms = 0;
      for (std::size_t b = 0; b < c.size(); ++b) {
        images_seen += static_cast<double>(sz[b]);
        weighted += c[b] * static_cast<double>(sz[b]);
        sum_ms += c[b];
      }
      // Each request waits for its whole batch's compute.
      const auto batches = static_cast<double>(c.size());
      r.set("serve.compute_ms." + n, sum_ms / batches);
      r.set("serve.mean_batch." + n, images_seen / batches);
      r.set("serve.wait_ms." + n, mean_server - weighted / images_seen);
    }
  }
  r.set("generator_late_p50_ms", median(late));
  r.set("generator_late_max_ms",
        late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  r.set("serve.sys_cpu_ms_per_req", sys_ms / static_cast<double>(at_s.size()));
  r.set("qengine.profiled_images",
        static_cast<double>(kWarmupPerModel + done[0].size()));
  r.set("w_mem_x",
        32.0 * static_cast<double>(net->param_count()) /
            static_cast<double>(qcaps::io::inspect(a.qcg).weight_bits));
  r.check("every request completed", all_ok);

  // Served predictions against direct predict_batch of the same models.
  {
    const auto direct_int8 = qcaps::io::load_graph(a.qcg);
    std::vector<int> want[2];
    for (std::int64_t lo = 0; lo < kImages; lo += 64) {
      const tensor::Tensor x = rows(images, lo, std::min(kImages, lo + 64));
      for (const int p : direct_int8.predict_batch(x)) want[0].push_back(p);
      for (const int p : net->predict_batch(x)) want[1].push_back(p);
    }
    bool same = true;
    for (int m = 0; m < 2; ++m)
      for (const Done& d : done[m])
        same = same && d.label == want[m][static_cast<std::size_t>(d.image)];
    r.check("every served prediction equals direct predict_batch", same);
    if (tr.enabled()) probe_layers(a, *net, 1, tr, r);
  }
  // Destroy the server (and its int8 graph's per-node profile) last.
  server->shutdown();
  server.reset();
  tr.write(a.trace);
  r.print();
}

}  // namespace qbench
