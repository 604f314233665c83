// Paper Fig. 12: Q-CapsNets on DeepCaps / CIFAR10 — per-layer (per-block)
// fractional bits and memory reductions, including the Q4 (Path A) and Q5
// (Path B accuracy model) operating points.
//
// Expected shape (paper): ~6x weight-memory reduction at ~0.15% accuracy
// loss on Path A; the routed block and L6 tolerate lower QDR than Qa; an
// extreme budget (last legend row, 19.76x) collapses accuracy to chance.
#include <algorithm>
#include <cstdio>

#include "accel/systolic.hpp"
#include "bench_util.hpp"
#include "core/evaluator.hpp"
#include "hwmodel/cost_model.hpp"
#include "qengine/qgraph.hpp"

namespace {

// Integer-deployment accuracy of `net` under `spec` over the whole test
// set, in bounded batches (a whole-set forward would hold every layer's
// activations for the whole set at once; chunking is bit-exact since
// integer execution is order-exact per sample).
float integer_accuracy(qcaps::nn::Network& net,
                       const qcaps::core::NetworkQuantSpec& spec,
                       const qcaps::data::Dataset& test) {
  using namespace qcaps;
  const auto deployed = qengine::QuantizedGraph::compile(net, spec);
  constexpr std::int64_t kChunk = 64;
  int correct = 0;
  for (std::int64_t b0 = 0; b0 < test.size(); b0 += kChunk) {
    std::vector<std::int64_t> idx;
    for (std::int64_t i = b0; i < std::min(test.size(), b0 + kChunk); ++i)
      idx.push_back(i);
    const auto pred = deployed.predict_batch(test.batch(idx));
    for (std::size_t i = 0; i < pred.size(); ++i)
      if (pred[i] == test.labels[idx[i]]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(test.size());
}

}  // namespace

int main() {
  using namespace qcaps;
  std::printf("=== Fig. 12 — DeepCaps on synth-CIFAR10 ===\n\n");
  const data::DataSplit split = bench::cifar_split();
  auto trained = bench::deep_on(split, "cifar", data::AugmentPolicy::cifar10());
  std::printf("FP32 accuracy: %.2f%% (paper: 91.26%% on real CIFAR10)\n\n",
              trained.fp32_accuracy * 100.0f);

  core::Evaluator probe(*trained.net, split.test, 256);
  const std::int64_t fp32_bits = probe.memory().weight_bits_fp32();

  // ---- Path A: budget 0.25x FP32, tolerance 0.3% --------------------------
  core::FrameworkConfig cfg_a;
  cfg_a.acc_tolerance = 0.003;
  cfg_a.memory_budget_bits = static_cast<std::int64_t>(0.25 * static_cast<double>(fp32_bits));
  cfg_a.eval_samples = 256;
  cfg_a.verbose = false;
  const core::FrameworkResult res_a =
      core::run_qcapsnets(*trained.net, split.test, cfg_a);
  std::printf("--- Path A run (budget 25%% of FP32) ---\n%s\n",
              core::report(res_a, probe.memory()).c_str());

  // ---- Path B: extreme budget (5% of FP32) --------------------------------
  core::FrameworkConfig cfg_b = cfg_a;
  cfg_b.memory_budget_bits = static_cast<std::int64_t>(0.05 * static_cast<double>(fp32_bits));
  const core::FrameworkResult res_b =
      core::run_qcapsnets(*trained.net, split.test, cfg_b);
  std::printf("--- Path B run (budget 5%% of FP32) ---\n%s\n",
              core::report(res_b, probe.memory()).c_str());

  std::printf("--- summary (Fig. 12 legend format) ---\n");
  if (res_a.model_satisfied)
    bench::print_model_row("DeepCaps", "synth-CIFAR10", "[Q4] satisfied",
                           *res_a.model_satisfied);
  if (res_b.model_accuracy)
    bench::print_model_row("DeepCaps", "synth-CIFAR10", "[Q5] accuracy",
                           *res_b.model_accuracy);
  if (res_b.model_memory)
    bench::print_model_row("DeepCaps", "synth-CIFAR10", "extreme memory",
                           *res_b.model_memory);

  // ---- integer deployment: quantized DeepCaps wordlength sweep ------------
  //
  // Run the real fixed-point engine (quantized-graph executor: BN folded,
  // ConvCaps3D votes, residual adds) at uniform wordlengths, and project
  // each onto the CapsAcc-style 16x16 array with the clock calibrated to
  // this machine's measured int8 qgemm rate (BENCH_kernels.json — the PR-4
  // host-calibration constants, see docs/performance.md).
  std::printf("\n--- integer engine + accelerator sweep (calibrated clock) "
              "---\n");
  accel::SystolicConfig acfg;
  acfg.clock_ghz = hwmodel::calibrated_clock_ghz(
      hwmodel::measured_host_rates().int8_gemm, acfg.macs_per_cycle());
  const std::int64_t in_elems = split.test.channels() * split.test.height() *
                                split.test.width();
  std::printf("array clock %.2f GHz; %10s %10s %14s %12s\n", acfg.clock_ghz,
              "bits", "acc", "latency (us)", "energy (uJ)");
  for (const int bits : {8, 6, 5, 4}) {
    core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
        6, bits, fixed::RoundingScheme::kRoundToNearest);
    probe.calibrate_spec(spec);
    const float acc = integer_accuracy(*trained.net, spec, split.test);
    const auto wls = accel::workloads_from_spec(probe.memory(), spec, in_elems);
    const auto t = accel::simulate_network(acfg, wls);
    std::printf("%32d %9.2f%% %14.1f %12.2f\n", bits, 100.0f * acc,
                t.latency_us(acfg), t.total_pj / 1e6);
  }
  return 0;
}
