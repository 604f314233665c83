// Google-benchmark microbenchmarks of the computational kernels underlying
// the Q-CapsNets experiments: GEMM, convolution, dynamic routing (FP32 vs
// quantized), the fake quantizer per rounding scheme, and the bit-accurate
// hardware unit simulations.
#include <benchmark/benchmark.h>

#include <algorithm>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/quant_spec.hpp"
#include "fixed/quantizer.hpp"
#include "hwmodel/units.hpp"
#include "io/model_serializer.hpp"
#include "qengine/qgraph.hpp"
#include "models/deep_caps.hpp"
#include "models/shallow_caps.hpp"
#include "nn/routing.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/qgemm.hpp"

namespace {

using namespace qcaps;

// items_per_second on every dense kernel counts multiply-accumulates, so the
// reported rate reads directly as MAC/s (2x for FLOP/s).

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  common::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetLabel(tensor::gemm_kernel_name());
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// The seed repo's i-k-j GEMM loop, kept verbatim as the fixed baseline the
// packed backend is measured against (acceptance: BM_Matmul >= 3x this at
// n=256, single thread).
void seed_gemm_ikj(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  std::fill(c, c + m * n, 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void BM_MatmulSeedRef(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  common::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    seed_gemm_ikj(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulSeedRef)->Arg(64)->Arg(128)->Arg(256);

// Quantized counterpart of BM_Matmul: int8 operands, exact int32
// accumulation, fused requantization back to an int8-range grid. Reported
// items_per_second is int8 MAC/s, directly comparable to BM_Matmul's fp32
// MAC/s (acceptance: >= 2x at n = 256).
void BM_QGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  common::Rng rng(1);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  for (auto& v : a)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  for (auto& v : b)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  tensor::QGemmRequant rq;
  rq.shift = 8;
  rq.qmin = -128;
  rq.qmax = 127;
  for (auto _ : state) {
    tensor::qgemm(tensor::Trans::kN, tensor::Trans::kN, n, n, n, a.data(), n,
                  b.data(), n, c.data(), n, rq);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(tensor::qgemm_kernel_name());
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_QGemm)->Arg(64)->Arg(128)->Arg(256);

// The int16 tier that carries wide fixed-point formats (e.g. Q8.8
// activations) through the same microkernel.
void BM_QGemm16(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  common::Rng rng(2);
  std::vector<std::int16_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int16_t> b(static_cast<std::size_t>(n * n));
  for (auto& v : a)
    v = static_cast<std::int16_t>(static_cast<int>(rng.uniform_index(4096)) - 2048);
  for (auto& v : b)
    v = static_cast<std::int16_t>(static_cast<int>(rng.uniform_index(4096)) - 2048);
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  tensor::QGemmRequant rq;
  rq.shift = 8;
  rq.qmin = -32768;
  rq.qmax = 32767;
  for (auto _ : state) {
    tensor::qgemm(tensor::Trans::kN, tensor::Trans::kN, n, n, n, a.data(), n,
                  b.data(), n, c.data(), n, rq);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(tensor::qgemm_kernel_name());
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_QGemm16)->Arg(256);

// The int8 direct convolution (QGemmDirect::run_tiles, B gathered from a
// padded copy) on DeepCaps' 3x3, pad-1 capsule-block geometries: plane and
// stride, channels in and out, and enough images for 256 output columns
// where planes are small. The VNNI tier packs the 16-column halves of the
// stride-1 32x32 and 16x16 convs from one image row and the others from a
// window of a few rows. Items are MACs.
struct DirectConvGeom {
  const char* name;
  std::int64_t c, hw, f, stride, images;
};
constexpr DirectConvGeom kDirectConvGeoms[] = {
    {"32x32/s1", 32, 32, 32, 1, 1}, {"32x32/s2", 32, 32, 32, 2, 1},
    {"16x16/s1", 32, 16, 32, 1, 1}, {"16x16/s2", 32, 16, 64, 2, 1},
    {"8x8/s1", 64, 8, 64, 1, 4},    {"4x4/s1", 64, 4, 64, 1, 16}};

void BM_QGemmDirect(benchmark::State& state) {
  const DirectConvGeom& g = kDirectConvGeoms[state.range(0)];
  constexpr std::int64_t kk = 3, pad = 1;
  const std::int64_t wp = g.hw + 2 * pad, img = g.c * wp * wp;
  const std::int64_t out = (wp - kk) / g.stride + 1;
  std::vector<std::int64_t> tap, col;
  for (std::int64_t ci = 0; ci < g.c; ++ci)
    for (std::int64_t ky = 0; ky < kk; ++ky)
      for (std::int64_t kx = 0; kx < kk; ++kx)
        tap.push_back((ci * wp + ky) * wp + kx);
  for (std::int64_t i = 0; i < g.images; ++i)
    for (std::int64_t y = 0; y < out; ++y)
      for (std::int64_t x = 0; x < out; ++x)
        col.push_back(i * img + (y * wp + x) * g.stride);
  const auto k = static_cast<std::int64_t>(tap.size());
  const auto n = static_cast<std::int64_t>(col.size());
  common::Rng rng(10);
  std::vector<std::int8_t> data(static_cast<std::size_t>(img * g.images));
  std::vector<std::int8_t> a(static_cast<std::size_t>(g.f * k));
  for (auto& v : data)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  for (auto& v : a)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  tensor::QGemmRequant rq;
  rq.shift = 10;
  rq.qmin = -128;
  rq.qmax = 127;
  const tensor::QGemmDirect<std::int8_t> gemm(a.data(), g.f, k, rq);
  const tensor::QGemmGatherB<std::int8_t> b{data.data(), tap.data(),
                                            col.data()};
  std::int64_t sink = 0;
  const tensor::QGemmTileFn consume =
      [&](std::int64_t, std::int64_t nr, const std::int32_t* tile,
          std::int64_t) { sink += tile[0] + nr; };
  for (auto _ : state) {
    gemm.run_tiles(b, 0, n, consume);
    benchmark::DoNotOptimize(sink);
  }
  state.SetLabel(std::string(g.name) + " " + tensor::qgemm_kernel_name());
  state.SetItemsProcessed(state.iterations() * g.f * k * n);
}
BENCHMARK(BM_QGemmDirect)->DenseRange(0, 5);

// ShallowCaps L3 vote product as the quantized engine runs it
// (qengine::vote_transform): one strided int8 qgemm_batch_scatter over the
// input types, whose requant epilogue stores each vote straight into the
// int8 j-major [B, Nout, Nin, Dout] routing layout.
void BM_QGemmBatchVotes(benchmark::State& state) {
  const std::int64_t bsz = 16, nin = 512, din = 8, nout = 10, dout = 16;
  const std::int64_t jd = nout * dout;
  common::Rng rng(3);
  std::vector<std::int8_t> u(static_cast<std::size_t>(bsz * nin * din));
  std::vector<std::int8_t> w(static_cast<std::size_t>(nin * jd * din));
  for (auto& v : u)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  for (auto& v : w)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  std::vector<std::int8_t> votes(static_cast<std::size_t>(bsz * nin * jd));
  tensor::QGemmRequant rq;
  rq.shift = 6;
  rq.qmin = -128;
  rq.qmax = 127;
  tensor::QGemmScatterDst<std::int8_t> sd;
  sd.dst = votes.data();
  sd.row_stride = nout * nin * dout;  // per image
  sd.col_inner = dout;
  sd.col_outer_stride = nin * dout;   // per output type
  sd.col_inner_stride = 1;            // per vote component
  sd.batch_stride = dout;             // per input type
  for (auto _ : state) {
    tensor::qgemm_batch_scatter(tensor::Trans::kN, tensor::Trans::kT, bsz, jd,
                                din, u.data(), nin * din, din, w.data(), din,
                                jd * din, nin, rq, sd);
    benchmark::DoNotOptimize(votes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * bsz * nin * jd * din);
}
BENCHMARK(BM_QGemmBatchVotes);

// DeepCaps L6 vote transform: 512 input capsules of dim 8 voting for 10
// class capsules of dim 32, batch 16 — one strided GEMM per input capsule.
void BM_GemmBatchDeepCapsVotes(benchmark::State& state) {
  const std::int64_t bsz = 16, nin = 512, din = 8, jd = 10 * 32;
  common::Rng rng(9);
  const tensor::Tensor x = tensor::Tensor::randn({bsz, nin, din}, rng);
  const tensor::Tensor w = tensor::Tensor::randn({nin, jd, din}, rng);
  tensor::Tensor votes({bsz, nin, jd});
  for (auto _ : state) {
    tensor::gemm_batch(tensor::Trans::kN, tensor::Trans::kT, bsz, jd, din,
                       x.data(), nin * din, din, w.data(), din, jd * din,
                       votes.data(), nin * jd, jd, nin, /*accumulate=*/false);
    benchmark::DoNotOptimize(votes.data());
  }
  state.SetItemsProcessed(state.iterations() * bsz * nin * jd * din);
}
BENCHMARK(BM_GemmBatchDeepCapsVotes);

// End-to-end batched classification on the experiment ShallowCaps — the
// per-forward work the inference server's workers execute. The batch-1 row
// is the no-batching baseline; larger batches show the served-throughput
// gain from coalescing (items_per_second = images/sec). Random weights:
// capsule-network forward cost does not depend on the trained values.
void BM_PredictBatchFp32(benchmark::State& state) {
  const std::int64_t b = state.range(0);
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(20);
  auto net = models::build_shallow_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->predict_batch(images));
  }
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_PredictBatchFp32)->Arg(1)->Arg(4)->Arg(16);

// Integer deployment counterpart (Q1.6 uniform spec: int8 qgemm tier for
// conv and votes, packed weights cached across calls).
void BM_PredictBatchInt8(benchmark::State& state) {
  const std::int64_t b = state.range(0);
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(21);
  auto net = models::build_shallow_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const auto qmodel = qengine::QuantizedGraph::compile(*net, spec);
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qmodel.predict_batch(images));
  }
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_PredictBatchInt8)->Arg(1)->Arg(4)->Arg(16);

// DeepCaps counterparts (the second model family the serving stack runs):
// the fp32 reference forward and the quantized-graph deployment — BN folded
// into the block convolutions, ConvCaps3D votes routed per position, all
// conv/vote products on the packed integer GEMM with cached weights.
void BM_PredictBatchDeepCapsFp32(benchmark::State& state) {
  const std::int64_t b = state.range(0);
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(22);
  auto net = models::build_deep_caps(cfg, rng);
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->predict_batch(images));
  }
  state.SetLabel(tensor::gemm_kernel_name());
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_PredictBatchDeepCapsFp32)->Arg(1)->Arg(4)->Arg(16);

void BM_PredictBatchDeepCapsInt8(benchmark::State& state) {
  const std::int64_t b = state.range(0);
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(23);
  auto net = models::build_deep_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      6, 6, fixed::RoundingScheme::kRoundToNearest);
  const auto qmodel = qengine::QuantizedGraph::compile(*net, spec);
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qmodel.predict_batch(images));
  }
  state.SetLabel(tensor::qgemm_kernel_name());
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_PredictBatchDeepCapsInt8)->Arg(1)->Arg(4)->Arg(16);

// Cold start: what it costs to get a servable integer graph into memory.
// Recompile quantizes + packs every weight from the FP32 network;
// mmap-load maps the pre-exported .qcg artifact and points the packed
// caches into the read-only image (bench/coldstart_bench.cpp drives the
// same comparison end to end with medians and the speedup ratio).
std::string coldstart_artifact_path() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") +
         "/qcaps_bench_coldstart.qcg";
}

void BM_ColdStartRecompile(benchmark::State& state) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(24);
  auto net = models::build_shallow_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qengine::QuantizedGraph::compile(*net, spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdStartRecompile);

void BM_ColdStartMmapLoad(benchmark::State& state) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(24);
  auto net = models::build_shallow_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const std::string path = coldstart_artifact_path();
  io::save_graph(qengine::QuantizedGraph::compile(*net, spec), path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::load_graph(path));
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_ColdStartMmapLoad);

void BM_Conv2d(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  common::Rng rng(2);
  const tensor::Tensor input = tensor::Tensor::randn({8, c, 20, 20}, rng);
  const tensor::Tensor weight = tensor::Tensor::randn({c, c, 3, 3}, rng);
  const tensor::Tensor bias = tensor::Tensor::randn({c}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::conv2d_forward(input, weight, bias, 1, 1));
  }
  // batch * F * outH * outW * C * K * K multiply-accumulates per call.
  state.SetItemsProcessed(state.iterations() * 8 * c * 20 * 20 * c * 3 * 3);
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(32)->Arg(64);

// MACs per routing iteration: s-accumulation + agreement, each R*Nin*Nout*D.
std::int64_t routing_macs(std::int64_t r, std::int64_t nin, std::int64_t nout,
                          std::int64_t d, int iters) {
  return static_cast<std::int64_t>(iters) * 2 * r * nin * nout * d;
}

void BM_RoutingFp32(benchmark::State& state) {
  const std::int64_t nin = state.range(0);
  common::Rng rng(3);
  // j-major votes [R, Nout, Nin, D] — the layout the caps layers emit.
  const tensor::Tensor votes = tensor::Tensor::randn({32, 10, nin, 16}, rng);
  nn::DynamicRouting routing;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing.forward(votes, 3, false, nn::RoutingQuantPoints{}));
  }
  state.SetLabel(tensor::caps_kernel_name());
  state.SetItemsProcessed(state.iterations() * routing_macs(32, nin, 10, 16, 3));
}
BENCHMARK(BM_RoutingFp32)->Arg(72)->Arg(144)->Arg(288);

void BM_RoutingQuantized(benchmark::State& state) {
  const std::int64_t nin = state.range(0);
  common::Rng rng(4);
  const tensor::Tensor votes = tensor::Tensor::randn({32, 10, nin, 16}, rng);
  const fixed::Quantizer act(fixed::FixedFormat(1, 6),
                             fixed::RoundingScheme::kRoundToNearest);
  const fixed::Quantizer dr(fixed::FixedFormat(2, 3),
                            fixed::RoundingScheme::kRoundToNearest);
  nn::RoutingQuantPoints qp;
  qp.activations = &act;
  qp.routing = &dr;
  nn::DynamicRouting routing;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.forward(votes, 3, false, qp));
  }
  state.SetItemsProcessed(state.iterations() * routing_macs(32, nin, 10, 16, 3));
}
BENCHMARK(BM_RoutingQuantized)->Arg(72)->Arg(144)->Arg(288);

void BM_Quantizer(benchmark::State& state) {
  const auto scheme = static_cast<fixed::RoundingScheme>(state.range(0));
  common::Rng rng(5);
  const tensor::Tensor t = tensor::Tensor::randn({1 << 18}, rng);
  const fixed::Quantizer q(fixed::FixedFormat(1, 6), scheme, 9);
  for (auto _ : state) {
    tensor::Tensor copy = t;
    q.apply(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_Quantizer)
    ->Arg(static_cast<int>(fixed::RoundingScheme::kTruncation))
    ->Arg(static_cast<int>(fixed::RoundingScheme::kRoundToNearest))
    ->Arg(static_cast<int>(fixed::RoundingScheme::kStochastic));

void BM_MacUnitSim(benchmark::State& state) {
  const fixed::FixedFormat op(2, 10), res(6, 10);
  common::Rng rng(6);
  std::vector<hwmodel::FixedNum> a, b;
  for (int i = 0; i < 256; ++i) {
    a.push_back(hwmodel::FixedNum::from_double(rng.uniform(-1.0f, 1.0f), op));
    b.push_back(hwmodel::FixedNum::from_double(rng.uniform(-1.0f, 1.0f), op));
  }
  for (auto _ : state) {
    hwmodel::MacUnit mac(op, res);
    for (int i = 0; i < 256; ++i) mac.mac(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(mac.result());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MacUnitSim);

void BM_SquashUnitSim(benchmark::State& state) {
  const fixed::FixedFormat io(2, 10);
  hwmodel::SquashUnit unit(io);
  common::Rng rng(7);
  std::vector<hwmodel::FixedNum> s;
  for (int i = 0; i < 16; ++i)
    s.push_back(hwmodel::FixedNum::from_double(rng.uniform(-1.0f, 1.0f), io));
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.apply(s));
  }
}
BENCHMARK(BM_SquashUnitSim);

// The batched integer squash gain the int8 capsule convs run: 2048 squared
// norms, one B2 node's capsules per image (8 types on a 16x16 plane), drawn
// from the DeepCaps band (bit widths 15-31) at 24 fractional bits. An item is
// one capsule, so 1e9 / items_per_second is ns per capsule.
void BM_SquashGainRaw(benchmark::State& state) {
  constexpr std::int64_t kCapsules = 2048;
  const hwmodel::SquashUnit unit(fixed::FixedFormat(2, 10), 24);
  common::Rng rng(9);
  std::vector<std::int64_t> nsq(kCapsules), gain(kCapsules);
  for (auto& v : nsq) {
    const std::uint64_t top = std::uint64_t{1}
                              << (14 + rng.uniform_index(17));
    v = static_cast<std::int64_t>(top | (rng.next_u64() & (top - 1)));
  }
  for (auto _ : state) {
    unit.gain_raw_n(nsq.data(), gain.data(), kCapsules);
    benchmark::DoNotOptimize(gain.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCapsules);
  state.SetLabel(tensor::caps_kernel_name());
}
BENCHMARK(BM_SquashGainRaw);

void BM_SoftmaxUnitSim(benchmark::State& state) {
  const fixed::FixedFormat io(3, 10);
  hwmodel::SoftmaxUnit unit(io);
  common::Rng rng(8);
  std::vector<hwmodel::FixedNum> logits;
  for (int i = 0; i < 10; ++i)
    logits.push_back(hwmodel::FixedNum::from_double(rng.uniform(-3.0f, 3.0f), io));
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.apply(logits));
  }
}
BENCHMARK(BM_SoftmaxUnitSim);

}  // namespace

BENCHMARK_MAIN();
