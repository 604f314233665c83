// qcg_tool — produce, inspect, and verify compiled-model artifacts
// (docs/model_format.md). This is the binary the artifact-compat CI job
// drives: it exports a .qcg from the deterministic trained fixture, proves
// the mmap-loaded graph serves bit-identically to the direct compiled path,
// and regenerates the committed golden artifact when the format version
// bumps.
//
// Subcommands:
//   export OUT [--fast] [--frac=6]   train-or-load the ShallowCaps fixture,
//                                    calibrate a uniform spec, compile, save
//   info FILE                        print the validated header, the
//                                    fusion annotations and the activation
//                                    storage plan of the loaded graph
//   verify FILE [--serve]            load (full checksum), forward a
//                                    deterministic probe batch, print the
//                                    raw-output digest + predictions;
//                                    --serve additionally round-trips the
//                                    probes through a 2-worker
//                                    InferenceServer pool fed by 4 client
//                                    threads and demands bit-equality with
//                                    the direct path (exit 1 on mismatch)
//   golden OUT                       write the tiny fixed-seed golden model
//                                    (tests/golden/shallow_caps_v1.qcg)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "core/evaluator.hpp"
#include "data/synth.hpp"
#include "io/model_serializer.hpp"
#include "models/model_cache.hpp"
#include "models/shallow_caps.hpp"
#include "nn/trainer.hpp"
#include "serve/server.hpp"

namespace {

using namespace qcaps;

// Deterministic probe batch: every pixel is k/256 for integer k — exact
// binary fractions, so quantization to any activation format is
// round-free-deterministic and the integer forward is bit-stable across
// platforms, compilers, and kernel tiers.
tensor::Tensor probe_batch(std::int64_t b, std::int64_t c, std::int64_t h,
                           std::int64_t w) {
  tensor::Tensor t({b, c, h, w});
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>((i * 31 + 7) % 256) / 256.0f;
  return t;
}

// FNV-1a over the forward pass's raw int64 outputs (+ their format).
std::uint64_t digest_raw(const qengine::QTensor& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(t.fmt.qi));
  mix(static_cast<std::uint64_t>(t.fmt.qf));
  for (const std::int64_t v : t.raw) mix(static_cast<std::uint64_t>(v));
  return h;
}

constexpr std::int64_t kProbeBatch = 8;

const char* family_name(io::QcgFamily f) {
  switch (f) {
    case io::QcgFamily::kShallowCaps: return "shallow_caps";
    case io::QcgFamily::kDeepCaps: return "deep_caps";
    default: return "unknown";
  }
}

int cmd_info(const std::string& path) {
  const io::QcgInfo info = io::inspect(path);
  std::printf("%s:\n", path.c_str());
  std::printf("  format version : %u\n", info.version);
  std::printf("  family         : %s\n", family_name(info.family));
  std::printf("  tier           : int%u\n", info.tier_bits);
  std::printf("  nodes          : %u\n", info.node_count);
  std::printf("  input format   : %s\n", info.input_fmt.to_string().c_str());
  std::printf("  weight bits    : %lld\n",
              static_cast<long long>(info.weight_bits));
  std::printf("  input extent   : %lldx%lldx%lld\n",
              static_cast<long long>(info.in_channels),
              static_cast<long long>(info.in_h),
              static_cast<long long>(info.in_w));
  std::printf("  file size      : %llu bytes\n",
              static_cast<unsigned long long>(info.file_size));
  // Fusion is an in-memory property (the artifact itself is always the
  // unfused op list): load the graph the way a server would and report what
  // the pass annotated.
  const qengine::QuantizedGraph g = io::load_graph(path);
  int relu_folds = 0;
  for (const auto& op : g.ops()) relu_folds += op.fused_away ? 1 : 0;
  std::printf("  fusion         : %d relu folds\n", relu_folds);
  // The activation storage plan: the container each node's value is held
  // in, picked from its format's wordlength.
  const std::vector<qengine::Storage> plan = g.value_storage();
  int count[3] = {0, 0, 0};
  std::string wide;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++count[static_cast<int>(plan[i])];
    if (plan[i] == qengine::Storage::kInt8) continue;
    wide += "\n    node " + std::to_string(i) + " " + g.ops()[i].source + " " +
            g.ops()[i].out_fmt.to_string() + " " +
            qengine::storage_name(plan[i]);
  }
  std::printf("  activations    : %d int8, %d int16, %d int64 nodes "
              "(input %s)\n",
              count[0], count[1], count[2],
              qengine::storage_name(qengine::storage_for(g.input_format())));
  if (!wide.empty())
    std::printf("  wider than 8 bits:%s\n", wide.c_str());
  return 0;
}

int cmd_verify(const std::string& path, const common::CliArgs& args) {
  const io::QcgInfo info = io::inspect(path);
  if (info.in_channels <= 0 || info.in_h <= 0 || info.in_w <= 0) {
    std::fprintf(stderr,
                 "%s records no input extent; cannot synthesize probes\n",
                 path.c_str());
    return 1;
  }
  const qengine::QuantizedGraph g = io::load_graph(path);
  const tensor::Tensor probes =
      probe_batch(kProbeBatch, info.in_channels, info.in_h, info.in_w);
  const qengine::QTensor out = g.forward(probes);
  const std::vector<int> direct = g.predict_batch(probes);
  std::printf("digest  : %016" PRIx64 "\n", digest_raw(out));
  std::printf("predict :");
  for (const int p : direct) std::printf(" %d", p);
  std::printf("\n");

  if (!args.get_bool("serve", false)) return 0;

  // Serve the artifact through a multi-worker pool (all replicas share the
  // one mapped weight image) and demand bit-equality with the direct path.
  serve::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  serve::InferenceServer server;
  server.add_model("qcg", path, cfg);
  constexpr int kClients = 4;
  std::vector<int> served(static_cast<std::size_t>(kProbeBatch), -1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&server, &probes, &served, c] {
      for (std::int64_t i = c; i < kProbeBatch; i += kClients) {
        tensor::Tensor img({probes.dim(1), probes.dim(2), probes.dim(3)});
        std::memcpy(img.data(), probes.data() + i * img.numel(),
                    sizeof(float) * static_cast<std::size_t>(img.numel()));
        served[static_cast<std::size_t>(i)] =
            server.submit("qcg", std::move(img)).get().prediction.label;
      }
    });
  for (auto& t : clients) t.join();
  server.shutdown();
  for (std::int64_t i = 0; i < kProbeBatch; ++i) {
    if (served[static_cast<std::size_t>(i)] !=
        direct[static_cast<std::size_t>(i)]) {
      std::fprintf(stderr,
                   "served prediction mismatch at probe %lld: %d != %d\n",
                   static_cast<long long>(i),
                   served[static_cast<std::size_t>(i)],
                   direct[static_cast<std::size_t>(i)]);
      return 1;
    }
  }
  std::printf("serve   : %d probes bit-exact across %d workers / %d clients\n",
              static_cast<int>(kProbeBatch), cfg.num_workers, kClients);
  return 0;
}

int cmd_export(const std::string& out, const common::CliArgs& args) {
  const bool fast = args.get_bool("fast", false);
  data::SynthConfig dcfg;
  dcfg.train_size = fast ? 1200 : 2000;
  dcfg.test_size = fast ? 256 : 512;
  const data::DataSplit split = data::make_digits_split(dcfg);
  nn::TrainConfig tcfg;
  tcfg.epochs = fast ? 2 : 3;
  tcfg.augment = data::AugmentPolicy::mnist();
  // Same tags as quantized_deployment, so CI reuses its cached fixtures.
  auto trained = models::get_trained_shallow_caps(
      split, fast ? "digits-fast" : "digits", tcfg);
  std::printf("fixture: FP32 accuracy %.2f%% (%s)\n",
              trained.fp32_accuracy * 100.0f,
              trained.from_cache ? "cached" : "trained");

  const int frac = args.get_int("frac", 6);
  core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, frac, fixed::RoundingScheme::kRoundToNearest);
  core::Evaluator calib(*trained.net, split.test, fast ? 256 : 384);
  calib.calibrate_spec(spec);
  const qengine::QuantizedGraph g = qengine::QuantizedGraph::compile(
      *trained.net, spec);

  io::SaveOptions sopts;
  sopts.in_channels = split.test.channels();
  sopts.in_h = split.test.height();
  sopts.in_w = split.test.width();
  io::save_graph(g, out, sopts);
  const io::QcgInfo info = io::inspect(out);
  std::printf("exported %s: %llu bytes, %u nodes, tier int%u, %lld weight "
              "bits\n",
              out.c_str(), static_cast<unsigned long long>(info.file_size),
              info.node_count, info.tier_bits,
              static_cast<long long>(info.weight_bits));
  return 0;
}

int cmd_golden(const std::string& out) {
  // The committed backward-compat fixture: a deliberately tiny ShallowCaps
  // (~7k parameters, ~tens of KB on disk) with FIXED-SEED random init — no
  // training, so regeneration is reproducible from source alone. The baked
  // digest in tests/test_serialize_qcg.cpp locks the forward bit-exactly.
  models::ShallowCapsConfig cfg;
  cfg.in_size = 16;
  cfg.conv_channels = 8;
  cfg.conv_kernel = 5;
  cfg.primary_types = 2;
  cfg.primary_dim = 4;
  cfg.primary_kernel = 5;
  cfg.primary_stride = 2;
  cfg.digit_dim = 4;
  common::Rng rng(20260808);
  auto net = models::build_shallow_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const qengine::QuantizedGraph g = qengine::QuantizedGraph::compile(*net,
                                                                     spec);
  io::SaveOptions sopts;
  sopts.in_channels = 1;
  sopts.in_h = cfg.in_size;
  sopts.in_w = cfg.in_size;
  io::save_graph(g, out, sopts);

  const tensor::Tensor probes = probe_batch(kProbeBatch, 1, cfg.in_size,
                                            cfg.in_size);
  const qengine::QTensor fwd = g.forward(probes);
  const std::vector<int> pred = g.predict_batch(probes);
  std::printf("golden %s written\n", out.c_str());
  std::printf("digest  : %016" PRIx64 "\n", digest_raw(fwd));
  std::printf("predict :");
  for (const int p : pred) std::printf(" %d", p);
  std::printf("\n");
  return 0;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s export OUT [--fast] [--frac=N]\n"
               "       %s info FILE\n"
               "       %s verify FILE [--serve]\n"
               "       %s golden OUT\n",
               prog, prog, prog, prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto& pos = args.positional();
  if (pos.size() < 2) return usage(args.program().c_str());
  const std::string& cmd = pos[0];
  const std::string& file = pos[1];
  try {
    if (cmd == "export") return cmd_export(file, args);
    if (cmd == "info") return cmd_info(file);
    if (cmd == "verify") return cmd_verify(file, args);
    if (cmd == "golden") return cmd_golden(file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(args.program().c_str());
}
