// Shared pieces of the benchmark binary: the pinned fixture, the result
// record every mode prints, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/quant_spec.hpp"
#include "data/dataset.hpp"
#include "nn/network.hpp"

namespace qbench {

namespace core = qcaps::core;
namespace data = qcaps::data;
namespace nn = qcaps::nn;
namespace tensor = qcaps::tensor;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- the pinned fixture ----------------------------------------------------

/// Recipe of the committed checkpoint (`train` mode remakes it).
struct Recipe {
  static constexpr std::int64_t kTrainSize = 1500;
  static constexpr std::int64_t kTestSize = 384;
  static constexpr std::uint64_t kDataSeed = 1;  // data::SynthConfig default
  static constexpr std::uint64_t kInitSeed = 13;
  static constexpr int kEpochs = 4;
};

/// Untimed preparation: the calibration/accuracy set is the recipe's test
/// split, independent of the run seed.
data::Dataset pinned_test_set();

/// Fresh DeepCaps (experiment config, 32x32x3) with the checkpoint loaded.
std::unique_ptr<nn::Network> load_fp32(const std::string& checkpoint);

/// The benchmark's 8-bit spec: round-to-nearest, integer bits calibrated on
/// the pinned test set, every weight/activation/routing word exactly 8 bits.
core::NetworkQuantSpec int8_spec(nn::Network& net);

/// Seeded workload images (synthetic CIFAR-10 stand-in). `stream` keeps the
/// workloads' image sets apart for one run seed.
data::Dataset seeded_images(std::int64_t n, std::uint64_t seed,
                            std::uint64_t stream);

/// Rows [lo, hi) of a dataset as one [B, C, H, W] batch.
tensor::Tensor rows(const data::Dataset& ds, std::int64_t lo,
                    std::int64_t hi);

/// Share of `ds` that `predict` (batch -> labels) classifies correctly,
/// in chunks of `chunk` images.
template <typename Predict>
float accuracy(const data::Dataset& ds, Predict&& predict,
               std::int64_t chunk = 64) {
  std::int64_t correct = 0;
  for (std::int64_t lo = 0; lo < ds.size(); lo += chunk) {
    const std::int64_t hi = std::min(ds.size(), lo + chunk);
    const std::vector<int> pred = predict(rows(ds, lo, hi));
    for (std::int64_t i = lo; i < hi; ++i)
      correct += pred[static_cast<std::size_t>(i - lo)] ==
                 ds.labels[static_cast<std::size_t>(i)];
  }
  return static_cast<float>(correct) / static_cast<float>(ds.size());
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// The highest percentile with at least ten samples beyond it (0 if fewer
/// than forty samples: that would be no tail).
double tail_percentile(std::vector<double> v, double* pct = nullptr);

double process_cpu_ms();
double peak_rss_mb();

// ---- result record ---------------------------------------------------------

/// What one mode prints as its last stdout line: a JSON object of named
/// measurements and output checks. run.py names, units and gates them.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> values;
  std::map<std::string, std::string> labels;  ///< host context

  Report();
  void set(const std::string& name, double value) { values[name] = value; }
  void check(const std::string& what, bool ok) {
    checks.emplace_back(what, ok);
  }
  void print() const;
};

// ---- tracing ---------------------------------------------------------------

/// In-memory spans (name, start, end, parent, request id), written out at
/// the end of a traced run. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  struct Span {
    std::string name;
    double t0_ms = 0, t1_ms = 0;  ///< since the tracer's epoch
    int parent = -1;
    std::int64_t request = -1;
  };

  /// Scoped span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// Record a finished span explicitly (e.g. a request timed from its
  /// scheduled send on another thread).
  void add(const char* name, Clock::time_point t0, Clock::time_point t1,
           std::int64_t request = -1);

  void write(const std::string& path) const;

 private:
  double since_epoch(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// ---- modes -----------------------------------------------------------------

struct Args {
  std::string mode;
  std::string checkpoint;
  std::string qcg;
  std::string out;      ///< mode-specific output file
  std::string oracle;   ///< scalar-tier score file (offline)
  std::string trace;    ///< traced run: span dump path ("" = untraced)
  std::uint64_t seed = 1;
  double seconds = 10;
};

/// Raw int8 class-capsule output of the first offline images: what the
/// scalar-tier oracle process dumps and the offline workload recomputes.
std::vector<std::int64_t> int8_raw_scores(const std::string& qcg,
                                          std::uint64_t seed);

void run_train(const Args& a);
void run_prepare(const Args& a);
void run_scores(const Args& a);
void run_offline(const Args& a);
void run_serve(const Args& a);
void run_search(const Args& a);

/// Per-layer probes of the traced runs, each timed around public calls:
/// one-thread GEMM rates at the dominant conv-caps shape, `.qcg` load,
/// graph compile, and per-layer fp32 forward at `batch` images.
void probe_layers(const Args& a, nn::Network& net, std::int64_t batch,
                  Tracer& tr, Report& r);

}  // namespace qbench
