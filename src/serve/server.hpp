// InferenceServer — batched, multi-model serving on top of the fast GEMM
// substrate.
//
// Architecture (one "pool" per registered model):
//
//   clients ──push──▶ RequestQueue ──pop_batch──▶ Batcher ──▶ worker threads
//                     (FIFO, bounded,             (stacks to   (each owns a
//                      close-to-drain)            [B,C,H,W])   model replica)
//
// Each worker loops: take the next coalesced batch, run one batched forward
// on its private model replica, fulfil the per-request promises. Because a
// batch of B single-image requests becomes ONE forward pass, the capsule
// vote products execute as a single strided gemm_batch /
// qgemm_batch_scatter call and the conv + routing loops parallelize across
// the whole batch — this is where the kernel-level speedups of the packed
// backends turn into served throughput (see bench/serve_bench.cpp and
// docs/serving.md for numbers).
//
// Knobs (ServerConfig): max_batch, the coalescing window, workers per model,
// queue capacity (backpressure), and the per-worker OpenMP team size so
// multi-worker pools can partition cores instead of oversubscribing them.
//
// Robustness (docs/robustness.md):
//   * requests carry SubmitOptions — a priority class and a relative
//     deadline; expired requests are failed with DeadlineError before any
//     compute is spent, and a shed watermark refuses sub-high-priority work
//     at the door (OverloadError) once queue depth crosses it.
//   * workers are supervised: an exception escaping the per-batch isolation
//     (e.g. a fault injected via QCAPS_FAILPOINT("serve.worker.batch"))
//     fails only the in-flight batch with WorkerCrashError — a retryable
//     error — then the worker restarts in place and the pool keeps serving.
//   * quantized backends export per-node requant-saturation counters through
//     stats(); an optional threshold flags a model whose outputs clamp too
//     often (the silent-accuracy-collapse mode of <= 4-bit configs).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/model_backend.hpp"
#include "serve/request_queue.hpp"

namespace qcaps::serve {

struct ServerConfig {
  std::int64_t max_batch = 16;
  /// Compute-tile size: a coalesced batch is run through the model in
  /// slices of at most this many images. 0 = one forward for the whole
  /// batch. Coalescing (max_batch) amortizes queue/wakeup overhead and
  /// should track the offered concurrency; the compute tile should track
  /// the model's cache-optimal micro-batch (the quantized ShallowCaps path
  /// peaks at 4-8 on a 2 MB L2 — see docs/serving.md). Slicing never
  /// changes results: every forward is bit-deterministic across batch
  /// splits.
  std::int64_t compute_batch = 0;
  /// How long a worker holds a batch's first request while more coalesce.
  std::chrono::microseconds batch_window{200};
  /// Worker threads (model replicas) for this model.
  int num_workers = 1;
  /// OpenMP threads each worker's kernels may use; 0 keeps the runtime
  /// default. With several workers, split the cores between them.
  int intra_op_threads = 0;
  /// Request-queue capacity; 0 = unbounded, otherwise push() blocks when
  /// full (backpressure instead of unbounded memory growth).
  std::size_t queue_capacity = 0;
  /// Overload shedding: queue depth at which sub-kHigh submissions fail
  /// fast with OverloadError instead of queueing. 0 disables shedding.
  std::size_t shed_watermark = 0;
  /// Saturation guardrail: when > 0 and the backend reports requant
  /// saturation, an aggregate rate above this threshold sets
  /// ModelStats::saturation_flagged and warn-logs once per pool.
  double saturation_threshold = 0.0;
};

/// Snapshot of one model pool's counters.
struct ModelStats {
  std::uint64_t requests = 0;  ///< images accepted into the queue
  std::uint64_t images = 0;    ///< images classified
  std::uint64_t batches = 0;   ///< coalesced batches served (a batch may
                               ///< run as several compute-tile forwards)
  std::int64_t max_batch_seen = 0;
  double mean_batch = 0.0;  ///< images / batches

  // Robustness counters.
  std::uint64_t shed = 0;             ///< refused at the shed watermark
  std::uint64_t expired = 0;          ///< failed with DeadlineError pre-compute
  std::uint64_t worker_restarts = 0;  ///< crashes survived by supervision
  std::size_t queue_depth = 0;        ///< requests waiting right now

  // Requant-saturation observability (quantized backends; empty/0 for FP32).
  std::vector<qengine::NodeSaturation> node_saturation;
  double saturation_rate = 0.0;    ///< aggregate over all nodes
  bool saturation_flagged = false; ///< rate > cfg.saturation_threshold (> 0)
};

class InferenceServer {
 public:
  InferenceServer() = default;
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Register a model and start its worker pool. The prototype backend
  /// serves worker 0; workers 1..N-1 run clone() replicas built here, before
  /// any thread starts. Throws if the name is taken or the server stopped.
  void add_model(const std::string& name,
                 std::unique_ptr<ModelBackend> backend,
                 const ServerConfig& cfg = {});

  /// Register a compiled-model artifact: mmap-load the `.qcg` at `qcg_path`
  /// (io/model_serializer.hpp) into a QuantizedBackend and start its pool.
  /// All worker replicas share the file's single read-only weight image —
  /// cold start costs one map + validate, not N re-quantization passes.
  /// Throws the io format errors (BadMagicError, VersionError, ArchError,
  /// CorruptError) on an artifact this build must not trust.
  void add_model(const std::string& name, const std::string& qcg_path,
                 const ServerConfig& cfg = {});

  /// Enqueue one [C, H, W] image (a leading batch dim of 1 is accepted and
  /// squeezed) for `model`; the future resolves when its batch completes.
  /// `opts` carries the request's priority class and relative deadline.
  /// Throws OverloadError when shed at the watermark and DeadlineError when
  /// the deadline passes while blocked on a full queue.
  std::future<InferenceResult> submit(const std::string& model,
                                      tensor::Tensor image,
                                      const SubmitOptions& opts = {});

  ModelStats stats(const std::string& model) const;
  std::vector<std::string> model_names() const;

  /// Graceful stop: queues close, workers drain every pending request, then
  /// join. Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct ModelPool {
    ServerConfig cfg;
    RequestQueue queue;
    std::vector<std::unique_ptr<ModelBackend>> replicas;  // one per worker
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> images{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::int64_t> max_batch_seen{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> worker_restarts{0};
    std::atomic<bool> saturation_warned{false};

    explicit ModelPool(const ServerConfig& c)
        : cfg(c), queue(c.queue_capacity, c.shed_watermark) {}
  };

  static void worker_main(ModelPool& pool, ModelBackend& backend);
  static void serve_batch(ModelPool& pool, ModelBackend& backend,
                          Batch& batch);

  ModelPool& pool_for(const std::string& model) const;

  mutable std::mutex mu_;  // guards pools_ map shape; pools themselves are
                           // internally synchronized
  std::map<std::string, std::unique_ptr<ModelPool>> pools_;
  bool stopped_ = false;
};

}  // namespace qcaps::serve
