// End-to-end deployment: search a quantization with the Q-CapsNets
// framework, then run the winning spec on the integer-only inference engine
// and on the systolic-array accelerator model — the full "paper pipeline"
// from trained FP32 model to edge-deployable fixed-point CapsNet.
//
// Both model families run the search TWICE — once on the fake-quant
// reference evaluator and once on the qgraph-backed integer evaluator
// (compiled graphs, packed-weight reuse, memoization) — and the run reports
// the selected models, their agreement, and the wall-clock speedup. With
// --pareto-json=PATH every evaluated point (accuracy, memory, hwmodel
// energy) is written as the Pareto-front artifact the CI search-smoke job
// uploads (schema: docs/search.md).
//
// Compiled-model artifacts (docs/model_format.md): --export-qcg=PATH saves
// the deployed ShallowCaps graph as a versioned .qcg image; --load-qcg=PATH
// skips search + training entirely and serves straight from a zero-copy
// mmap of a previously exported artifact — the production cold-start path.
//
// Usage: quantized_deployment [--budget-frac=0.25] [--tol=0.002] [--fast]
//                             [--skip-deepcaps] [--pareto-json=PATH]
//                             [--export-qcg=PATH] [--load-qcg=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "accel/systolic.hpp"
#include "common/cli.hpp"
#include "core/framework.hpp"
#include "core/pareto.hpp"
#include "core/qgraph_evaluator.hpp"
#include "data/synth.hpp"
#include "hwmodel/cost_model.hpp"
#include "io/model_serializer.hpp"
#include "models/model_cache.hpp"
#include "qengine/qgraph.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const qcaps::core::QuantizedModel* selected_model(
    const qcaps::core::FrameworkResult& res) {
  if (res.model_satisfied) return &*res.model_satisfied;
  if (res.model_accuracy) return &*res.model_accuracy;
  return &*res.model_memory;
}

struct FamilySearch {
  qcaps::core::FrameworkResult reference, qgraph;
  double reference_seconds = 0.0, qgraph_seconds = 0.0;
  std::string reference_json, qgraph_json;
  double speedup() const { return reference_seconds / qgraph_seconds; }
};

// Run the framework on both backends over one trained family and collect the
// comparison + Pareto traces.
FamilySearch search_both_backends(const std::string& family, qcaps::nn::Network& net,
                                  const qcaps::data::Dataset& test,
                                  qcaps::core::FrameworkConfig fcfg) {
  using namespace qcaps;
  FamilySearch out;
  const std::vector<std::string> layer_names = core::spec_layer_names(net);

  core::SearchTrace trace;
  fcfg.trace = &trace;

  const auto meta_for = [&](const char* backend, double wall,
                            const core::FrameworkResult& res,
                            std::int64_t memo_hits, std::int64_t cut_resumes) {
    core::TraceJsonMeta m;
    m.model = family;
    m.backend = backend;
    m.acc_fp32 = res.acc_fp32;
    m.acc_target = res.acc_target;
    m.selected_accuracy = selected_model(res)->accuracy;
    m.selected_scheme = fixed::scheme_name(res.selected_scheme);
    m.wall_seconds = wall;
    m.evaluations = res.total_evaluations;
    m.memo_hits = memo_hits;
    m.cut_resumes = cut_resumes;
    m.layer_names = layer_names;
    return m;
  };

  {
    core::Evaluator eval(net, test, fcfg.eval_samples, fcfg.batch_size);
    const auto t0 = Clock::now();
    out.reference = core::run_qcapsnets(eval, fcfg);
    out.reference_seconds = seconds_since(t0);
    out.reference_json = core::trace_to_json(
        trace,
        meta_for("fake_quant", out.reference_seconds, out.reference, 0, 0));
    net.clear_quantization();
  }
  trace.clear();
  {
    core::QGraphEvalConfig qcfg;
    qcfg.eval_batch = fcfg.batch_size;
    core::QGraphEvaluator eval(net, test, fcfg.eval_samples, fcfg.batch_size,
                               qcfg);
    const auto t0 = Clock::now();
    out.qgraph = core::run_qcapsnets(eval, fcfg);
    out.qgraph_seconds = seconds_since(t0);
    out.qgraph_json = core::trace_to_json(
        trace,
        meta_for("qgraph", out.qgraph_seconds, out.qgraph, eval.memo_hits(),
                 eval.cut_resumes()));
    std::printf(
        "  [qgraph] %lld graphs compiled, %lld memo hits, %lld wide-spec "
        "fallbacks, %lld early-exit evals, %lld chunk forwards resumed from "
        "cached cuts, weight cache %zu entries / %llu hits\n",
        static_cast<long long>(eval.graphs_compiled()),
        static_cast<long long>(eval.memo_hits()),
        static_cast<long long>(eval.fake_quant_fallbacks()),
        static_cast<long long>(eval.truncated_evals()),
        static_cast<long long>(eval.cut_resumes()),
        eval.weight_cache().size(),
        static_cast<unsigned long long>(eval.weight_cache().hits()));
    net.clear_quantization();
  }

  const auto* ref = selected_model(out.reference);
  const auto* qg = selected_model(out.qgraph);
  std::printf("  %-12s %-10s %-8s %-10s %-10s\n", "backend", "scheme", "path",
              "acc", "seconds");
  std::printf("  %-12s %-10s %-8s %9.2f%% %10.2f\n", "fake-quant",
              fixed::scheme_name(out.reference.selected_scheme).c_str(),
              out.reference.path == core::ExitPath::kSatisfied ? "A" : "B",
              ref->accuracy * 100.0f, out.reference_seconds);
  std::printf("  %-12s %-10s %-8s %9.2f%% %10.2f\n", "qgraph",
              fixed::scheme_name(out.qgraph.selected_scheme).c_str(),
              out.qgraph.path == core::ExitPath::kSatisfied ? "A" : "B",
              qg->accuracy * 100.0f, out.qgraph_seconds);
  std::printf("  search speedup: %.2fx, selected-model accuracy gap: %.2f%%\n",
              out.speedup(), (qg->accuracy - ref->accuracy) * 100.0f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qcaps;
  const common::CliArgs args(argc, argv);
  const bool fast = args.get_bool("fast", false);

  data::SynthConfig dcfg;
  dcfg.train_size = fast ? 1200 : 2000;
  dcfg.test_size = fast ? 256 : 512;
  const data::DataSplit split = data::make_digits_split(dcfg);
  const std::int64_t eval_samples = fast ? 256 : 384;

  // Artifact fast path: serve a previously exported .qcg — no training, no
  // search, no re-quantization. This is what a production replica does at
  // process start.
  const std::string load_qcg = args.get("load-qcg", "");
  if (!load_qcg.empty()) {
    const io::QcgInfo info = io::inspect(load_qcg);
    const auto t0 = Clock::now();
    const qengine::QuantizedGraph g = io::load_graph(load_qcg);
    std::printf("loaded %s: format v%u, %u nodes, tier int%u, %lld weight "
                "bits, input %s (%.1f ms)\n",
                load_qcg.c_str(), info.version, info.node_count,
                info.tier_bits, static_cast<long long>(info.weight_bits),
                g.input_format().to_string().c_str(),
                1e3 * seconds_since(t0));
    int correct = 0;
    std::int64_t total = 0;
    for (std::int64_t b0 = 0; b0 < split.test.size(); b0 += 64) {
      std::vector<std::int64_t> idx;
      for (std::int64_t i = b0; i < std::min(split.test.size(), b0 + 64); ++i)
        idx.push_back(i);
      const auto pred = g.predict_batch(split.test.batch(idx));
      for (std::size_t i = 0; i < pred.size(); ++i)
        if (pred[i] == split.test.labels[idx[i]]) ++correct;
      total += static_cast<std::int64_t>(pred.size());
    }
    std::printf("artifact accuracy on the synthetic test set: %.2f%%\n",
                100.0 * correct / static_cast<double>(total));
    return 0;
  }
  // Fast mode trains smaller fixtures; a separate cache tag keeps them from
  // colliding with the full-mode "digits" fixtures.
  const std::string cache_tag = fast ? "digits-fast" : "digits";

  nn::TrainConfig tcfg;
  tcfg.epochs = fast ? 2 : 3;
  tcfg.augment = data::AugmentPolicy::mnist();
  auto trained = models::get_trained_shallow_caps(split, cache_tag, tcfg);
  std::printf("FP32 accuracy: %.2f%%\n\n", trained.fp32_accuracy * 100.0f);

  // 1) Search — fake-quant reference vs the qgraph deployment path.
  core::Evaluator probe(*trained.net, split.test, eval_samples);
  core::FrameworkConfig fcfg;
  fcfg.acc_tolerance = args.get_double("tol", 0.002);
  fcfg.memory_budget_bits = static_cast<std::int64_t>(
      args.get_double("budget-frac", 0.25) *
      static_cast<double>(probe.memory().weight_bits_fp32()));
  fcfg.eval_samples = eval_samples;
  fcfg.verbose = false;
  // Start at 16-bit operands: every probe stays inside the packed int16
  // qgemm tier (the paper's searched wordlengths live well below this).
  fcfg.init_frac = 15;
  // Fast (CI) mode compares the backends on round-to-nearest only — the
  // deployment scheme, and the one the packed requant implements natively.
  // TRN/SR integer execution is scalar-exact and would time the fallback
  // path, not the graph. Full mode keeps all three schemes.
  if (fast) fcfg.schemes = {fixed::RoundingScheme::kRoundToNearest};
  std::printf("=== ShallowCaps search: fake-quant vs qgraph backend ===\n");
  const FamilySearch shallow =
      search_both_backends("shallow_caps", *trained.net, split.test, fcfg);
  const core::FrameworkResult& result = shallow.qgraph;
  std::printf("\n%s\n", core::report(result, probe.memory()).c_str());
  const core::QuantizedModel* chosen = selected_model(result);

  // 2) Deploy on the integer engine.
  core::NetworkQuantSpec spec = chosen->spec;
  core::Evaluator calib(*trained.net, split.test, eval_samples);
  calib.calibrate_spec(spec);
  const auto deployed = qengine::QuantizedGraph::compile(*trained.net, spec);
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < split.test.size(); ++i) idx.push_back(i);
  const auto pred = deployed.predict_batch(split.test.batch(idx));
  int correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == split.test.labels[i]) ++correct;
  std::printf("integer engine: accuracy %.2f%% (%lld weight bits, "
              "%.2fx below FP32)\n",
              100.0 * correct / static_cast<double>(pred.size()),
              static_cast<long long>(deployed.weight_bits()),
              static_cast<double>(calib.memory().weight_bits_fp32()) /
                  static_cast<double>(deployed.weight_bits()));

  // 2b) Export the deployed graph as a compiled-model artifact.
  const std::string export_qcg = args.get("export-qcg", "");
  if (!export_qcg.empty()) {
    io::SaveOptions sopts;
    sopts.in_channels = split.test.channels();
    sopts.in_h = split.test.height();
    sopts.in_w = split.test.width();
    io::save_graph(deployed, export_qcg, sopts);
    const io::QcgInfo info = io::inspect(export_qcg);
    std::printf("exported %s: %llu bytes, %u nodes, tier int%u\n",
                export_qcg.c_str(),
                static_cast<unsigned long long>(info.file_size),
                info.node_count, info.tier_bits);
  }

  // 3) Accelerator estimate for the deployed wordlengths. The array clock is
  // calibrated so 16x16 PEs sustain this machine's measured int8 qgemm rate
  // (BENCH_kernels.json) — latencies below read on the host's scale.
  accel::SystolicConfig acfg;
  acfg.clock_ghz = hwmodel::calibrated_clock_ghz(
      hwmodel::measured_host_rates().int8_gemm, acfg.macs_per_cycle());
  const auto wls = accel::workloads_from_spec(
      calib.memory(), spec, split.test.channels() * split.test.height() *
                                 split.test.width());
  const auto timing = accel::simulate_network(acfg, wls);
  const auto fp32_wls = accel::workloads_from_spec(
      calib.memory(),
      core::NetworkQuantSpec::uniform(spec.layers.size(), 31, spec.scheme),
      split.test.channels() * split.test.height() * split.test.width());
  const auto fp32_t = accel::simulate_network(acfg, fp32_wls);
  std::printf("\naccelerator (16x16 systolic):\n%s", accel::to_table(acfg, timing).c_str());
  std::printf("vs 32-bit: %.1fx energy, %.1fx latency\n",
              fp32_t.total_pj / timing.total_pj,
              static_cast<double>(fp32_t.total_cycles) /
                  static_cast<double>(timing.total_cycles));

  // 4) The second model family: DeepCaps through the same dual-backend
  // search, then a wordlength sweep on the integer engine + calibrated
  // accelerator clock.
  std::vector<const FamilySearch*> searches{&shallow};
  FamilySearch deep_search;
  if (!args.get_bool("skip-deepcaps", false)) {
    std::printf("\n=== DeepCaps (quantized-graph executor) ===\n");
    nn::TrainConfig dtcfg;
    dtcfg.epochs = fast ? 2 : 3;
    auto deep = models::get_trained_deep_caps(split, cache_tag, dtcfg);
    std::printf("FP32 accuracy: %.2f%%\n", deep.fp32_accuracy * 100.0f);

    core::Evaluator dprobe(*deep.net, split.test, eval_samples);
    core::FrameworkConfig dfcfg = fcfg;
    dfcfg.memory_budget_bits = static_cast<std::int64_t>(
        args.get_double("budget-frac", 0.25) *
        static_cast<double>(dprobe.memory().weight_bits_fp32()));
    // DeepCaps evaluations are ~20x ShallowCaps; fast mode trims the scheme
    // library and the subset so the smoke job stays in CI budget.
    if (fast) {
      dfcfg.schemes = {fixed::RoundingScheme::kRoundToNearest};
      dfcfg.eval_samples = 128;
    }
    std::printf("--- search: fake-quant vs qgraph backend ---\n");
    deep_search =
        search_both_backends("deep_caps", *deep.net, split.test, dfcfg);
    searches.push_back(&deep_search);

    core::Evaluator dcalib(*deep.net, split.test, eval_samples);
    const std::int64_t in_elems = split.test.channels() *
                                  split.test.height() * split.test.width();
    std::printf("%10s %10s %14s %14s %12s\n", "bits", "acc", "W-bits",
                "latency (us)", "energy (uJ)");
    for (const int bits : {8, 6, 5}) {
      core::NetworkQuantSpec dspec = core::NetworkQuantSpec::uniform(
          6, bits, fixed::RoundingScheme::kRoundToNearest);
      dcalib.calibrate_spec(dspec);
      const auto ddep = qengine::QuantizedGraph::compile(*deep.net, dspec);
      // Bounded batches: the int64 activations make a whole-set forward
      // needlessly large, and chunking is bit-exact (order-exact per sample).
      int dcorrect = 0;
      std::int64_t dtotal = 0;
      for (std::int64_t b0 = 0; b0 < split.test.size(); b0 += 64) {
        std::vector<std::int64_t> didx;
        for (std::int64_t i = b0; i < std::min(split.test.size(), b0 + 64);
             ++i)
          didx.push_back(i);
        const auto dpred = ddep.predict_batch(split.test.batch(didx));
        for (std::size_t i = 0; i < dpred.size(); ++i)
          if (dpred[i] == split.test.labels[didx[i]]) ++dcorrect;
        dtotal += static_cast<std::int64_t>(dpred.size());
      }
      const auto dwls =
          accel::workloads_from_spec(dcalib.memory(), dspec, in_elems);
      const auto dt = accel::simulate_network(acfg, dwls);
      std::printf("%10d %9.2f%% %14lld %14.1f %12.2f\n", bits,
                  100.0 * dcorrect / static_cast<double>(dtotal),
                  static_cast<long long>(ddep.weight_bits()),
                  dt.latency_us(acfg), dt.total_pj / 1e6);
    }
  }

  // 5) Pareto-front artifact: one run document per (family, backend) plus
  // the wall-clock comparison (schema: docs/search.md).
  const std::string pareto_path = args.get("pareto-json", "");
  if (!pareto_path.empty()) {
    std::ofstream os(pareto_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", pareto_path.c_str());
      return 1;
    }
    os << "{\n\"schema_version\": 1,\n\"runs\": [\n";
    for (std::size_t i = 0; i < searches.size(); ++i) {
      os << searches[i]->reference_json << ",\n"
         << searches[i]->qgraph_json
         << (i + 1 < searches.size() ? ",\n" : "\n");
    }
    os << "],\n\"comparisons\": [\n";
    const char* names[] = {"shallow_caps", "deep_caps"};
    for (std::size_t i = 0; i < searches.size(); ++i) {
      const FamilySearch& fs = *searches[i];
      os << "{\"model\": \"" << names[i]
         << "\", \"reference_seconds\": " << fs.reference_seconds
         << ", \"qgraph_seconds\": " << fs.qgraph_seconds
         << ", \"speedup\": " << fs.speedup()
         << ", \"reference_accuracy\": " << selected_model(fs.reference)->accuracy
         << ", \"qgraph_accuracy\": " << selected_model(fs.qgraph)->accuracy
         << "}" << (i + 1 < searches.size() ? ",\n" : "\n");
    }
    os << "]\n}\n";
    std::printf("\nwrote Pareto artifact: %s\n", pareto_path.c_str());
  }
  return 0;
}
