// Tests for the compiled-model artifact format (io/format.hpp,
// io/model_serializer.hpp, io/mmap_file.hpp):
//
//  * round-trip bit-exactness — an exported-then-loaded graph must
//    reproduce the direct compiled graph raw-for-raw, for both model
//    families (ShallowCaps, DeepCaps) and both packed qgemm tiers
//    (int8, int16), through mmap and plain-read loading alike;
//  * zero-copy sharing — loaded weights are views into one mapped image;
//    graph copies (the serving pool's replicas) duplicate pointers, not
//    panels, and hollow weights carry no raw int64 grid at all;
//  * rejection — truncation, checksum corruption, version/arch/magic
//    mismatch each fail with their typed error before any weight is
//    trusted, and the read path's failpoints inject cleanly;
//  * serving — a pool started from a .qcg path serves bit-identically to
//    the direct compiled graph under multi-client load;
//  * golden — the committed tests/golden/shallow_caps_v1.qcg (fixed-seed,
//    regenerable via `qcg_tool golden`) still loads and still produces the
//    baked forward digest: the backward-compatibility lock a format bump
//    must consciously re-bake.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/quant_spec.hpp"
#include "io/model_serializer.hpp"
#include "models/deep_caps.hpp"
#include "models/shallow_caps.hpp"
#include "qengine/qgraph.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace qcaps::io {
namespace {

using qengine::QOpKind;
using qengine::QuantizedGraph;

struct FailpointGuard {
  ~FailpointGuard() { common::failpoint_disarm_all(); }
};

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// The tiny fixed-seed ShallowCaps used throughout (and, at seed 20260808 /
// frac 6, byte-identical to what `qcg_tool golden` commits).
qengine::QuantizedGraph tiny_shallow(int frac, std::uint64_t seed = 20260808) {
  models::ShallowCapsConfig cfg;
  cfg.in_size = 16;
  cfg.conv_channels = 8;
  cfg.conv_kernel = 5;
  cfg.primary_types = 2;
  cfg.primary_dim = 4;
  cfg.primary_kernel = 5;
  cfg.primary_stride = 2;
  cfg.digit_dim = 4;
  common::Rng rng(seed);
  auto net = models::build_shallow_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      3, frac, fixed::RoundingScheme::kRoundToNearest);
  return QuantizedGraph::compile(*net, spec);
}

// Probe pixels are exact binary fractions (k/256): quantization to any
// activation format is deterministic, so forwards are bit-stable.
tensor::Tensor probes(std::int64_t b, std::int64_t c, std::int64_t hw) {
  tensor::Tensor t({b, c, hw, hw});
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>((i * 31 + 7) % 256) / 256.0f;
  return t;
}

std::uint64_t fnv1a_digest(const qengine::QTensor& t) {
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

void expect_bit_identical(const QuantizedGraph& a, const QuantizedGraph& b,
                          const tensor::Tensor& x) {
  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_EQ(a.ops()[i].kind, b.ops()[i].kind) << "op " << i;
    EXPECT_EQ(a.ops()[i].source, b.ops()[i].source) << "op " << i;
  }
  EXPECT_EQ(a.input_format().qi, b.input_format().qi);
  EXPECT_EQ(a.input_format().qf, b.input_format().qf);
  EXPECT_EQ(a.weight_bits(), b.weight_bits());
  const qengine::QTensor ya = a.forward(x);
  const qengine::QTensor yb = b.forward(x);
  ASSERT_EQ(ya.raw.size(), yb.raw.size());
  EXPECT_EQ(ya.fmt.qi, yb.fmt.qi);
  EXPECT_EQ(ya.fmt.qf, yb.fmt.qf);
  for (std::size_t i = 0; i < ya.raw.size(); ++i)
    ASSERT_EQ(ya.raw[i], yb.raw[i]) << "raw output " << i;
  EXPECT_EQ(a.predict_batch(x), b.predict_batch(x));
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

// Patch one header field and re-seal the header CRC so validation reaches
// the field under test instead of tripping the integrity check first.
void patch_header_u32(std::vector<std::uint8_t>& img, std::size_t offset,
                      std::uint32_t value) {
  std::memcpy(img.data() + offset, &value, sizeof(value));
  const std::uint32_t crc = crc32(img.data(), offsetof(QcgHeader, header_crc32));
  std::memcpy(img.data() + offsetof(QcgHeader, header_crc32), &crc,
              sizeof(crc));
}

// Set one field of node `node` (at byte `field` of its record) and re-seal
// the payload and header CRCs, so validation reaches the field under test.
template <typename T>
std::vector<std::uint8_t> patch_node(std::vector<std::uint8_t> img,
                                     std::size_t node, std::size_t field,
                                     T value) {
  QcgHeader h;
  std::memcpy(&h, img.data(), sizeof h);
  std::memcpy(img.data() + h.nodes_offset + node * sizeof(QcgNodeRecord) +
                  field,
              &value, sizeof value);
  const std::size_t nodes = static_cast<std::size_t>(h.nodes_offset);
  h.payload_crc32 = crc32(img.data() + nodes, img.size() - nodes);
  std::memcpy(img.data(), &h, sizeof h);
  h.header_crc32 = crc32(img.data(), offsetof(QcgHeader, header_crc32));
  std::memcpy(img.data(), &h, sizeof h);
  return img;
}

// ---- round-trip bit-exactness ----------------------------------------------

TEST(QcgRoundTrip, ShallowCapsInt8Tier) {
  const QuantizedGraph direct = tiny_shallow(/*frac=*/6);
  const std::string path = tmp_path("rt_shallow_i8.qcg");
  save_graph(direct, path);
  const QuantizedGraph loaded = load_graph(path);
  expect_bit_identical(direct, loaded, probes(4, 1, 16));
  EXPECT_EQ(inspect(path).tier_bits, 8u);
}

TEST(QcgRoundTrip, ShallowCapsInt16Tier) {
  // frac 12 pushes weight magnitudes past the int8 container: the artifact
  // must carry (and the loader must rebuild) the int16 panels.
  const QuantizedGraph direct = tiny_shallow(/*frac=*/12);
  const std::string path = tmp_path("rt_shallow_i16.qcg");
  save_graph(direct, path);
  const QuantizedGraph loaded = load_graph(path);
  expect_bit_identical(direct, loaded, probes(4, 1, 16));
  EXPECT_EQ(inspect(path).tier_bits, 16u);
}

TEST(QcgRoundTrip, DeepCapsAllOpKinds) {
  // The full DeepCaps op vocabulary: conv, relu, conv-caps, the 3D-routed
  // block, residual adds, flatten, votes, dynamic routing.
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(77);
  auto net = models::build_deep_caps(cfg, rng);
  const auto spec = core::NetworkQuantSpec::uniform(
      6, 8, fixed::RoundingScheme::kRoundToNearest);
  const QuantizedGraph direct = QuantizedGraph::compile(*net, spec);
  const std::string path = tmp_path("rt_deep.qcg");
  save_graph(direct, path);
  const QuantizedGraph loaded = load_graph(path);
  expect_bit_identical(direct, loaded, probes(2, 1, 28));
  EXPECT_EQ(inspect(path).family, QcgFamily::kDeepCaps);
}

TEST(QcgRoundTrip, PlainReadMatchesMmap) {
  const QuantizedGraph direct = tiny_shallow(/*frac=*/6);
  const std::string path = tmp_path("rt_nommap.qcg");
  save_graph(direct, path);
  LoadOptions no_mmap;
  no_mmap.use_mmap = false;
  expect_bit_identical(load_graph(path), load_graph(path, no_mmap),
                       probes(4, 1, 16));
}

TEST(QcgRoundTrip, InspectReportsHeader) {
  const QuantizedGraph g = tiny_shallow(/*frac=*/6);
  SaveOptions sopts;
  sopts.in_channels = 1;
  sopts.in_h = 16;
  sopts.in_w = 16;
  const std::string path = tmp_path("rt_inspect.qcg");
  save_graph(g, path, sopts);
  const QcgInfo info = inspect(path);
  EXPECT_EQ(info.version, kQcgVersion);
  EXPECT_EQ(info.family, QcgFamily::kShallowCaps);
  EXPECT_EQ(info.node_count, g.ops().size());
  EXPECT_EQ(info.weight_bits, g.weight_bits());
  EXPECT_EQ(info.input_fmt.qi, g.input_format().qi);
  EXPECT_EQ(info.input_fmt.qf, g.input_format().qf);
  EXPECT_EQ(info.in_channels, 1);
  EXPECT_EQ(info.in_h, 16);
  EXPECT_EQ(info.in_w, 16);
}

// ---- zero-copy sharing ------------------------------------------------------

TEST(QcgZeroCopy, ReplicasShareOneWeightImage) {
  const std::string path = tmp_path("zc_shared.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  const QuantizedGraph loaded = load_graph(path);
  const QuantizedGraph replica = loaded;  // what the serving pool clones
  std::size_t views = 0, hollow = 0;
  for (std::size_t i = 0; i < loaded.ops().size(); ++i) {
    const auto& a = loaded.ops()[i];
    const auto& b = replica.ops()[i];
    if (a.wcache.i8_view != nullptr) {
      ++views;
      // The copy points at the SAME mapped panel — no duplication.
      EXPECT_EQ(a.wcache.i8_view, b.wcache.i8_view) << "op " << i;
    }
    if (a.wcache.i16_view != nullptr) {
      ++views;
      EXPECT_EQ(a.wcache.i16_view, b.wcache.i16_view) << "op " << i;
    }
    // Fast-path-guaranteed weights load hollow: format + shape, no grid.
    if (tensor::shape_numel(a.weight.shape) > 0 && a.weight.raw.empty())
      ++hollow;
  }
  EXPECT_GT(views, 0u) << "no packed panels were shared by view";
  EXPECT_GT(hollow, 0u) << "no weight loaded hollow";
  // Both replicas still execute (and agree) after the original handle of the
  // mapping went out of scope at load_graph return — ownership is shared.
  const tensor::Tensor x = probes(2, 1, 16);
  EXPECT_EQ(loaded.predict_batch(x), replica.predict_batch(x));
}

// ---- rejection --------------------------------------------------------------

TEST(QcgReject, TruncatedFile) {
  const std::string path = tmp_path("rj_trunc.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  std::vector<std::uint8_t> img = slurp(path);
  const std::string cut = tmp_path("rj_trunc_cut.qcg");
  // Mid-payload truncation: header intact, file shorter than it declares.
  img.resize(img.size() / 2);
  spit(cut, img);
  EXPECT_THROW(load_graph(cut), CorruptError);
  // Sub-header truncation: not even a header to validate.
  img.resize(sizeof(QcgHeader) / 2);
  spit(cut, img);
  EXPECT_THROW(load_graph(cut), CorruptError);
}

TEST(QcgReject, CorruptPayloadChecksum) {
  const std::string path = tmp_path("rj_crc.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  std::vector<std::uint8_t> img = slurp(path);
  img[img.size() - 3] ^= 0x40;  // one bit deep inside the weight blob
  spit(path, img);
  EXPECT_THROW(load_graph(path), CorruptError);
  // The cold-start fast path skips the payload scan by contract — it must
  // still pass header validation.
  LoadOptions trusting;
  trusting.verify_checksum = false;
  EXPECT_NO_THROW(load_graph(path, trusting));
}

TEST(QcgReject, WrongVersion) {
  const std::string path = tmp_path("rj_version.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  std::vector<std::uint8_t> img = slurp(path);
  patch_header_u32(img, offsetof(QcgHeader, version), kQcgVersion + 7);
  spit(path, img);
  EXPECT_THROW(load_graph(path), VersionError);
  EXPECT_THROW(inspect(path), VersionError);
}

TEST(QcgReject, WrongArch) {
  const std::string path = tmp_path("rj_arch.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  std::vector<std::uint8_t> img = slurp(path);
  patch_header_u32(img, offsetof(QcgHeader, endian_tag), 0x04030201u);
  spit(path, img);
  EXPECT_THROW(load_graph(path), ArchError);
}

TEST(QcgReject, BadMagic) {
  const std::string path = tmp_path("rj_magic.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  std::vector<std::uint8_t> img = slurp(path);
  patch_header_u32(img, offsetof(QcgHeader, magic), 0x46424347u);
  spit(path, img);
  EXPECT_THROW(load_graph(path), BadMagicError);
}

TEST(QcgReject, CorruptHeaderChecksum) {
  const std::string path = tmp_path("rj_hcrc.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  std::vector<std::uint8_t> img = slurp(path);
  // Flip a header byte WITHOUT re-sealing: integrity check must fire.
  img[offsetof(QcgHeader, node_count)] ^= 0x01;
  spit(path, img);
  EXPECT_THROW(load_graph(path), CorruptError);
}

TEST(QcgReject, FailpointsOnReadPath) {
  FailpointGuard guard;
  const std::string path = tmp_path("rj_failpoint.qcg");
  save_graph(tiny_shallow(/*frac=*/6), path);
  common::FailpointSpec boom;
  boom.max_hits = 1;
  common::failpoint_arm("io.qcg.open", boom);
  EXPECT_THROW(load_graph(path), common::FailpointError);
  common::failpoint_arm("io.qcg.validate", boom);
  EXPECT_THROW(load_graph(path), common::FailpointError);
  EXPECT_NO_THROW(load_graph(path));  // both sites exhausted
}

TEST(QcgReject, NodeGeometryForwardCannotRun) {
  // Node fields and weight shapes forward() divides by or indexes with: each
  // patched artifact must fail to load with CorruptError instead of
  // crashing a forward.
  using R = QcgNodeRecord;
  using T = QcgTensorRef;
  const std::size_t present = offsetof(R, weight) + offsetof(T, present);
  const std::string path = tmp_path("rj_geometry.qcg");
  const auto expect_corrupt = [&path](const std::vector<std::uint8_t>& img,
                                      const char* what) {
    spit(path, img);
    EXPECT_THROW(load_graph(path), CorruptError) << what;
  };

  const std::string golden_path =
      std::string(QCAPS_GOLDEN_DIR) + "/shallow_caps_v1.qcg";
  const std::vector<std::uint8_t> golden = slurp(golden_path);
  const QuantizedGraph shallow = load_graph(golden_path);
  ASSERT_EQ(shallow.ops().size(), 5u);
  ASSERT_EQ(shallow.ops()[0].kind, QOpKind::kConv2d);
  ASSERT_EQ(shallow.ops()[2].kind, QOpKind::kPrimaryCaps);
  ASSERT_EQ(shallow.ops()[3].kind, QOpKind::kVoteTransform);
  // Re-sealing an unchanged value loads: the CRCs are not what rejects.
  spit(path, patch_node(golden, 0, offsetof(R, stride),
                        shallow.ops()[0].stride));
  EXPECT_NO_THROW(load_graph(path));
  expect_corrupt(patch_node(golden, 0, offsetof(R, stride), std::int64_t{0}),
                 "conv2d stride 0");
  expect_corrupt(patch_node(golden, 0, offsetof(R, pad), std::int64_t{-1}),
                 "conv2d pad -1");
  expect_corrupt(
      patch_node(golden, 0, offsetof(R, pad), std::int64_t{1} << 61),
      "conv2d pad past any padded extent");
  expect_corrupt(patch_node(golden, 2, offsetof(R, stride), std::int64_t{0}),
                 "primary caps stride 0");
  expect_corrupt(patch_node(golden, 2, offsetof(R, caps_dim), std::int64_t{0}),
                 "primary caps dim 0");
  for (const std::size_t node : {0, 2, 3})
    expect_corrupt(patch_node(golden, node, present, std::uint32_t{0}),
                   "weighted node without its weight");
  expect_corrupt(patch_node(golden, 2, offsetof(R, caps_types),
                            shallow.ops()[2].caps_types + 1),
                 "primary caps with more capsules than filters");
  // A layout node keeps its input's format; one that claims another would
  // misstate the format (and so the container) its consumers read.
  ASSERT_EQ(shallow.ops()[1].kind, QOpKind::kRelu);
  expect_corrupt(patch_node(golden, 1, offsetof(R, out_qi),
                            shallow.ops()[1].out_fmt.qi + 1),
                 "relu that changes its value's format");
  const std::int64_t short_bias = shallow.ops()[2].weight.shape[0] - 1;
  expect_corrupt(
      patch_node(patch_node(golden, 2, offsetof(R, bias) + offsetof(T, dims),
                            short_bias),
                 2, offsetof(R, bias) + offsetof(T, numel), short_bias),
      "bias shorter than the filter count");

  // The DeepCaps kinds: capsule convolutions, the routed skip, the flatten.
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(77);
  auto net = models::build_deep_caps(cfg, rng);
  const std::string deep_path = tmp_path("rj_geometry_deep.qcg");
  save_graph(QuantizedGraph::compile(
                 *net, core::NetworkQuantSpec::uniform(
                           6, 8, fixed::RoundingScheme::kRoundToNearest)),
             deep_path);
  const std::vector<std::uint8_t> deep = slurp(deep_path);
  const QuantizedGraph deep_graph = load_graph(deep_path);
  const auto first = [&deep_graph](QOpKind kind) {
    const auto& ops = deep_graph.ops();
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (ops[i].kind == kind) return i;
    ADD_FAILURE() << "no node of kind " << static_cast<int>(kind);
    return std::size_t{0};
  };
  const std::size_t caps = first(QOpKind::kConvCaps);
  const std::size_t caps3d = first(QOpKind::kConvCaps3d);
  const std::size_t flat = first(QOpKind::kFlatten);
  expect_corrupt(patch_node(deep, caps, offsetof(R, pad), std::int64_t{-1}),
                 "convcaps pad -1");
  expect_corrupt(patch_node(deep, caps, offsetof(R, out_dim), std::int64_t{0}),
                 "convcaps out dim 0");
  expect_corrupt(patch_node(deep, caps, present, std::uint32_t{0}),
                 "convcaps without its weight");
  expect_corrupt(
      patch_node(deep, caps3d, offsetof(R, stride), std::int64_t{0}),
      "convcaps3d stride 0");
  expect_corrupt(
      patch_node(deep, caps3d, offsetof(R, pad),
                 deep_graph.ops()[caps3d].type_weights.front().shape[2]),
      "convcaps3d pad as wide as its kernel");
  expect_corrupt(
      patch_node(deep, caps3d, offsetof(R, out_dim), std::int64_t{0}),
      "convcaps3d out dim 0");
  expect_corrupt(
      patch_node(deep, caps3d, offsetof(R, type_count), std::uint32_t{0}),
      "convcaps3d without per-type weights");
  expect_corrupt(
      patch_node(deep, caps3d, offsetof(R, in_types), std::int64_t{0}),
      "convcaps3d with no input types");
  expect_corrupt(patch_node(deep, caps3d, offsetof(R, in_types),
                            deep_graph.ops()[caps3d].in_types + 1),
                 "convcaps3d with more input types than weights");
  expect_corrupt(patch_node(deep, caps3d, offsetof(R, out_types),
                            deep_graph.ops()[caps3d].out_types + 1),
                 "convcaps3d with more output capsules than vote filters");
  expect_corrupt(patch_node(deep, caps3d, offsetof(R, in_dim),
                            deep_graph.ops()[caps3d].in_dim + 1),
                 "convcaps3d input dim past its vote weights");
  expect_corrupt(patch_node(deep, flat, offsetof(R, caps_dim), std::int64_t{0}),
                 "flatten caps dim 0");
}

TEST(QcgReject, HollowWeightWhoseFormatsLeaveThePackedPath) {
  // The golden conv (node 0) and vote (node 3) weights are stored hollow.
  // A 36-bit output format (out_qi 30) is past the qgemm requant, so either
  // node would take its int64 fallback and read the raw values the file
  // does not carry: the load re-applies the hollow rule and rejects it.
  using R = QcgNodeRecord;
  const std::string golden_path =
      std::string(QCAPS_GOLDEN_DIR) + "/shallow_caps_v1.qcg";
  const std::vector<std::uint8_t> golden = slurp(golden_path);
  const QuantizedGraph shallow = load_graph(golden_path);
  ASSERT_EQ(shallow.ops()[0].kind, QOpKind::kConv2d);
  ASSERT_EQ(shallow.ops()[3].kind, QOpKind::kVoteTransform);
  const std::string path = tmp_path("rj_hollow.qcg");
  for (const std::size_t node : {0, 3}) {
    SCOPED_TRACE("node " + std::to_string(node));
    ASSERT_TRUE(shallow.ops()[node].weight.raw.empty());  // hollow
    spit(path, patch_node(golden, node, offsetof(R, out_qi), std::int32_t{30}));
    try {
      load_graph(path);
      ADD_FAILURE() << "a hollow weight off the packed path loaded";
    } catch (const CorruptError& e) {
      EXPECT_NE(std::string(e.what()).find("hollow"), std::string::npos)
          << e.what();
    }
  }
}

// ---- serving from an artifact ----------------------------------------------

TEST(QcgServe, PoolFromArtifactMatchesDirectUnderLoad) {
  const QuantizedGraph direct = tiny_shallow(/*frac=*/6);
  const std::string path = tmp_path("sv_pool.qcg");
  save_graph(direct, path);

  constexpr std::int64_t kImages = 24;
  const tensor::Tensor batch = probes(kImages, 1, 16);
  const std::vector<int> want = direct.predict_batch(batch);

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.num_workers = 2;
  cfg.batch_window = std::chrono::microseconds(200);
  serve::InferenceServer server;
  server.add_model("qcg", path, cfg);  // mmap-load, replicas share the image

  constexpr int kClients = 4;
  std::vector<int> got(static_cast<std::size_t>(kImages), -1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&server, &batch, &got, c] {
      serve::InferenceClient client(server, "qcg");
      const std::int64_t per = batch.numel() / kImages;
      for (std::int64_t i = c; i < kImages; i += kClients) {
        tensor::Tensor img({batch.dim(1), batch.dim(2), batch.dim(3)});
        std::memcpy(img.data(), batch.data() + i * per,
                    sizeof(float) * static_cast<std::size_t>(per));
        got[static_cast<std::size_t>(i)] =
            client.classify(img).prediction.label;
      }
    });
  for (auto& t : clients) t.join();
  const serve::ModelStats stats = server.stats("qcg");
  server.shutdown();
  EXPECT_EQ(got, want);
  EXPECT_EQ(stats.images, static_cast<std::uint64_t>(kImages));
}

// ---- the committed golden artifact ------------------------------------------

// Baked by `qcg_tool golden` (fixed seed 20260808, uniform 1.6 spec): the
// FNV-1a digest of the forward raw outputs on the standard probe batch, and
// the predictions themselves. Integer forwards are bit-stable across
// platforms and compilers, so these constants hold everywhere. A format
// version bump must regenerate the golden AND consciously re-bake these.
constexpr std::uint64_t kGoldenDigest = 0x885e069f40c14644ull;
constexpr int kGoldenPredictions[8] = {3, 3, 3, 3, 3, 3, 3, 3};

TEST(QcgGolden, CommittedArtifactStillLoadsBitExact) {
  const std::string path =
      std::string(QCAPS_GOLDEN_DIR) + "/shallow_caps_v1.qcg";
  const QcgInfo info = inspect(path);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.family, QcgFamily::kShallowCaps);
  EXPECT_EQ(info.tier_bits, 8u);
  const QuantizedGraph g = load_graph(path);
  const tensor::Tensor x = probes(8, 1, 16);
  EXPECT_EQ(fnv1a_digest(g.forward(x)), kGoldenDigest);
  const std::vector<int> pred = g.predict_batch(x);
  ASSERT_EQ(pred.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(pred[i], kGoldenPredictions[i]) << "probe " << i;
  // And it matches a from-source recompile of the same fixed-seed model —
  // the artifact is regenerable, not an opaque binary.
  expect_bit_identical(tiny_shallow(/*frac=*/6), g, x);
}

TEST(QcgGolden, Crc32AgreesAtEveryDispatchLevel) {
  // The scalar level runs the slice-by-8 software CRC-32C, the vector levels
  // the SSE4.2 instruction; both must give the same values, on the golden
  // file and on every length around the 8-byte chunk, and the golden file
  // must load at every level.
  const std::string path =
      std::string(QCAPS_GOLDEN_DIR) + "/shallow_caps_v1.qcg";
  const std::vector<std::uint8_t> golden = slurp(path);
  ASSERT_GT(golden.size(), 128u);
  const auto crcs = [&golden] {
    std::vector<std::uint32_t> out = {crc32(golden.data(), golden.size())};
    for (std::size_t len = 0; len <= 17; ++len) {
      out.push_back(crc32(golden.data() + 1, len));  // unaligned too
      out.push_back(crc32(golden.data() + 64, len, /*seed=*/0x9E3779B9u));
    }
    return out;
  };
  std::vector<std::uint32_t> scalar;
  const tensor::Tensor x = probes(8, 1, 16);
  testutil::for_each_isa([&](common::Isa level) {
    if (level == common::Isa::kScalar)
      scalar = crcs();
    else
      EXPECT_EQ(crcs(), scalar);
    EXPECT_EQ(crc32("123456789", 9), 0xE3069283u);  // the CRC-32C check value
    const QuantizedGraph g = load_graph(path);
    EXPECT_EQ(fnv1a_digest(g.forward(x)), kGoldenDigest);
  });
  ASSERT_EQ(scalar.size(), 37u);
  EXPECT_EQ(scalar[1], 0u);  // the empty buffer at seed 0
}

}  // namespace
}  // namespace qcaps::io
