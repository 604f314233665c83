#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "data/synth.hpp"
#include "io/model_serializer.hpp"
#include "models/deep_caps.hpp"
#include "nn/serialize.hpp"
#include "qengine/qgraph.hpp"
#include "tensor/gemm.hpp"
#include "tensor/qgemm.hpp"

namespace qbench {

data::Dataset pinned_test_set() {
  qcaps::data::SynthConfig cfg;
  cfg.train_size = Recipe::kTrainSize;
  cfg.test_size = Recipe::kTestSize;
  cfg.seed = Recipe::kDataSeed;
  // make_cifar_split's test half, without synthesizing the training half.
  return qcaps::data::make_synth_cifar(cfg.test_size, cfg.seed + 0x7e57);
}

std::unique_ptr<nn::Network> load_fp32(const std::string& checkpoint) {
  qcaps::common::Rng rng(Recipe::kInitSeed);
  auto net = qcaps::models::build_deep_caps(
      qcaps::models::DeepCapsConfig::experiment(32, 3), rng);
  QCAPS_CHECK_MSG(qcaps::nn::load_params(*net, checkpoint),
                  "missing checkpoint " << checkpoint);
  return net;
}

core::NetworkQuantSpec int8_spec(nn::Network& net) {
  const data::Dataset calib = pinned_test_set();
  core::Evaluator probe(net, calib);  // calibrates integer bits
  auto spec = core::NetworkQuantSpec::uniform(
      core::spec_layer_names(net).size(), 7,
      qcaps::fixed::RoundingScheme::kRoundToNearest);
  probe.calibrate_spec(spec);
  for (auto& l : spec.layers) {
    l.qw_frac = 8 - l.qw_int;
    l.qa_frac = 8 - l.qa_int;
    l.qdr_frac = 8 - l.qdr_int;
  }
  return spec;
}

data::Dataset seeded_images(std::int64_t n, std::uint64_t seed,
                            std::uint64_t stream) {
  return qcaps::data::make_synth_cifar(
      n, seed * 0x9e3779b97f4a7c15ULL + stream * 0x632be59bd9b4e019ULL + 1);
}

tensor::Tensor rows(const data::Dataset& ds, std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> idx;
  for (std::int64_t i = lo; i < hi; ++i) idx.push_back(i);
  return ds.batch(idx);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_percentile(std::vector<double> v, double* pct) {
  if (v.size() < 40) return 0.0;
  std::sort(v.begin(), v.end());
  // Highest whole percentile p with at least ten samples above its rank.
  const double n = static_cast<double>(v.size());
  int p = 99;
  while (p > 50 && n - std::ceil(n * p / 100.0) < 10) --p;
  const auto rank = static_cast<std::size_t>(std::ceil(n * p / 100.0)) - 1;
  if (pct != nullptr) *pct = p;
  return v[rank];
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Report::Report()
    : labels{{"gemm_kernel", qcaps::tensor::gemm_kernel_name()},
             {"qgemm_kernel", qcaps::tensor::qgemm_kernel_name()},
             {"compiler", __VERSION__}} {}

void Report::print() const {
  std::printf("{\"attempted\": %lld, \"failed\": %lld, \"checks\": [",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < checks.size(); ++i)
    std::printf("%s{\"what\": \"%s\", \"ok\": %s}", i == 0 ? "" : ", ",
                checks[i].first.c_str(), checks[i].second ? "true" : "false");
  std::printf("], \"values\": {");
  bool first = true;
  for (const auto& [name, v] : values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}, \"labels\": {");
  first = true;
  for (const auto& [name, v] : labels) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(), v.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- tracer ----------------------------------------------------------------

namespace {
thread_local int tl_open_span = -1;
}

double Tracer::since_epoch(Clock::time_point t) const {
  return ms_between(epoch_, t);
}

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  if (!t_.enabled_) return;
  std::lock_guard<std::mutex> lk(t_.mu_);
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(
      {name, t_.since_epoch(Clock::now()), 0.0, tl_open_span, -1});
  saved_parent_ = tl_open_span;
  tl_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  std::lock_guard<std::mutex> lk(t_.mu_);
  t_.spans_[static_cast<std::size_t>(index_)].t1_ms =
      t_.since_epoch(Clock::now());
  tl_open_span = saved_parent_;
}

void Tracer::add(const char* name, Clock::time_point t0, Clock::time_point t1,
                 std::int64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(
      {name, since_epoch(t0), since_epoch(t1), tl_open_span, request});
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  out << "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"t0\": %.4f, \"t1\": %.4f, "
                  "\"parent\": %d, \"request\": %lld}",
                  i == 0 ? "" : ",", s.name.c_str(), s.t0_ms, s.t1_ms,
                  s.parent, static_cast<long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
}

// ---- per-layer probes ------------------------------------------------------

namespace {

/// Median wall ms of `fn` over calls until ~`budget_ms` has passed (>= 3).
template <typename Fn>
double median_ms(Fn&& fn, double budget_ms) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 3 || ms_between(start, Clock::now()) < budget_ms) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

// The dominant conv-caps GEMM of the int8 DeepCaps graph: B2's 3x3 ConvCaps
// (8 types x 4-D = 32 channels in and out) over a 16x16 grid for a batch of
// 16 images — M = 32 output channels, K = 32*3*3, N = 16*16*16 pixels.
constexpr std::int64_t kGemmM = 32, kGemmK = 288, kGemmN = 4096;

void probe_tensor(Tracer& tr, Report& r) {
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
  qcaps::common::Rng rng(7);
  std::vector<std::int8_t> qa(kGemmM * kGemmK), qb(kGemmK * kGemmN);
  for (auto& v : qa) v = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
  for (auto& v : qb) v = static_cast<std::int8_t>(rng.uniform_index(255)) - 127;
  std::vector<std::int32_t> qc(kGemmM * kGemmN);
  qcaps::tensor::QGemmRequant rq;
  rq.shift = 8;
  rq.qmin = -128;
  rq.qmax = 127;
  std::vector<float> fa(qa.begin(), qa.end()), fb(qb.begin(), qb.end());
  std::vector<float> fc(kGemmM * kGemmN);
  const auto kN = qcaps::tensor::Trans::kN;
  const double macs = static_cast<double>(kGemmM * kGemmK * kGemmN);
  double q_ms = 0, f_ms = 0;
  {
    Tracer::Scope s(tr, "tensor.qgemm");
    q_ms = median_ms(
        [&] {
          qcaps::tensor::qgemm(kN, kN, kGemmM, kGemmN, kGemmK, qa.data(),
                               kGemmK, qb.data(), kGemmN, qc.data(), kGemmN,
                               rq);
        },
        300);
  }
  {
    Tracer::Scope s(tr, "tensor.gemm");
    f_ms = median_ms(
        [&] {
          qcaps::tensor::gemm_ex(kN, kN, kGemmM, kGemmN, kGemmK, fa.data(),
                                 kGemmK, fb.data(), kGemmN, fc.data(), kGemmN,
                                 false);
        },
        300);
  }
  omp_set_num_threads(team);
  r.set("tensor.qgemm_gmacs", macs / (q_ms * 1e6));
  r.set("tensor.gemm_gmacs", macs / (f_ms * 1e6));
  r.set("tensor.gemm_mmacs_per_call", macs / 1e6);
  // Bytes a call must touch at least: both operands and the output once.
  r.set("tensor.qgemm_kib_per_call",
        static_cast<double>(kGemmM * kGemmK + kGemmK * kGemmN +
                            4 * kGemmM * kGemmN) / 1024.0);
  r.set("tensor.gemm_kib_per_call",
        4.0 * static_cast<double>(kGemmM * kGemmK + kGemmK * kGemmN +
                                  kGemmM * kGemmN) / 1024.0);
}

}  // namespace

void probe_layers(const Args& a, nn::Network& net, std::int64_t batch,
                  Tracer& tr, Report& r) {
  Tracer::Scope probe(tr, "probe");
  probe_tensor(tr, r);

  r.set("io.qcg_kib",
        static_cast<double>(std::filesystem::file_size(a.qcg)) / 1024.0);
  {
    Tracer::Scope s(tr, "io.load_graph");
    r.set("io.load_ms", median_ms([&] { (void)qcaps::io::load_graph(a.qcg); },
                                  100));
  }

  const core::NetworkQuantSpec spec = int8_spec(net);
  {
    Tracer::Scope s(tr, "qengine.compile");
    r.set("qengine.compile_ms",
          median_ms(
              [&] {
                (void)qcaps::qengine::QuantizedGraph::compile(
                    net, spec, nullptr, false);
              },
              300));
  }

  const data::Dataset images = seeded_images(batch, a.seed, 99);
  const tensor::Tensor x = rows(images, 0, batch);
  const auto g = qcaps::io::load_graph(a.qcg);
  const double cpu0 = process_cpu_ms();
  int forwards = 0;
  {
    Tracer::Scope s(tr, "qengine.forward");
    r.set("qengine.forward_ms", median_ms(
                                    [&] {
                                      (void)g.predict_batch(x);
                                      ++forwards;
                                    },
                                    300));
  }
  r.set("qengine.cpu_ms_per_img", (process_cpu_ms() - cpu0) /
                                      static_cast<double>(forwards * batch));
  {
    Tracer::Scope s(tr, "nn.forward");
    r.set("nn.forward_ms",
          median_ms([&] { (void)net.predict_batch(x); }, 300));
  }
  {
    // One image at the workload's team size: where batch < threads, the
    // fp32 conv GEMMs open nested OpenMP teams.
    const tensor::Tensor x1 = rows(images, 0, 1);
    Tracer::Scope s(tr, "nn.forward_b1");
    r.set("nn.forward_b1_ms",
          median_ms([&] { (void)net.predict_batch(x1); }, 300));
  }
  // Each top-level layer's forward, chained as Network::forward does, and
  // summed per quantization group: "L1-conv" and "L1-relu" are L1, and the
  // capsule flatten that feeds the class capsules counts to L6.
  std::map<std::string, std::vector<double>> group_ms;
  for (int rep = 0; rep < 5; ++rep) {
    std::map<std::string, double> this_rep;
    tensor::Tensor h = x;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      qcaps::nn::Layer& layer = net.layer(i);
      std::string group = layer.name().substr(0, layer.name().find('-'));
      if (group == "flatten") group = "L6";
      Tracer::Scope s(tr, "nn.layer");
      const auto t0 = Clock::now();
      h = layer.forward(h, qcaps::nn::Phase::kEval);
      this_rep[group] += ms_between(t0, Clock::now());
    }
    for (const auto& [group, ms] : this_rep) group_ms[group].push_back(ms);
  }
  for (const auto& [group, t] : group_ms)
    r.set("nn.layer_ms." + group, median(t));
}

}  // namespace qbench
