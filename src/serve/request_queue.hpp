// Thread-safe request queue — the front door of the inference server.
//
// Producers (client threads) push single images and receive a future for the
// classification; consumers (the per-model worker pool) pop *batches*: the
// first request is waited for, then up to `window` is spent letting further
// concurrent requests coalesce into the same batch so the capsule vote
// products downstream run as one strided gemm_batch / qgemm_batch_scatter
// call instead of N separate ones.
//
// Semantics:
//   * FIFO within a priority class — requests carry a monotone sequence
//     number assigned under the queue lock; pop_batch drains the highest
//     non-empty class first (kHigh before kNormal before kLow) and strictly
//     front-to-back within each class. With a single class (the default)
//     this is the strict FIFO of the original queue.
//   * deadlines — a request may carry an absolute deadline. pop_batch never
//     hands an expired request to a consumer: expired requests are failed
//     with DeadlineError (promise set outside the queue lock) before any
//     compute is spent on them. A push blocked on capacity whose deadline
//     passes while waiting throws DeadlineError instead of queueing work
//     that could only expire.
//   * bounded or unbounded — a non-zero capacity makes push() block while
//     the queue is full (backpressure), never dropping accepted requests.
//   * overload shedding — with a non-zero shed watermark, a push *below*
//     Priority::kHigh while total depth >= watermark fails fast with
//     OverloadError instead of blocking the producer: under sustained
//     overload, low-priority work is refused at the door so high-priority
//     latency stays bounded by the (watermark-bounded) queue depth.
//   * graceful shutdown — close() rejects new pushes but leaves everything
//     already queued poppable; pop_batch returns an empty vector only when
//     the queue is closed *and* drained, which is the workers' exit signal.
//     close() also wakes every producer blocked on a *full* queue: their
//     push() throws qcaps::Error instead of deadlocking on capacity that
//     will never free up (no consumer outlives close+drain) — see
//     RequestQueue.CloseWhileFullWakesBlockedProducers in test_serve.cpp.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "tensor/tensor.hpp"

namespace qcaps::serve {

// ---- failure taxonomy ------------------------------------------------------
//
// RetryableError marks failures where the request itself was fine but the
// serving fabric dropped it — a crashed worker, an overloaded queue. Clients
// may re-submit (InferenceClient does, with bounded exponential backoff).
// DeadlineError is terminal: the caller's budget is spent either way.

/// Base class of failures a client may meaningfully retry.
class RetryableError : public qcaps::Error {
 public:
  using qcaps::Error::Error;
};

/// Request shed at admission because the queue crossed its watermark.
class OverloadError : public RetryableError {
 public:
  using RetryableError::RetryableError;
};

/// In-flight batch lost because its worker crashed (the pool restarts the
/// worker; the requests themselves were never computed).
class WorkerCrashError : public RetryableError {
 public:
  using RetryableError::RetryableError;
};

/// Deadline expired before the request's batch reached compute.
class DeadlineError : public qcaps::Error {
 public:
  using qcaps::Error::Error;
};

// ---- request types ---------------------------------------------------------

/// Admission/scheduling class. kHigh is never shed and is popped first.
enum class Priority : int { kLow = 0, kNormal = 1, kHigh = 2 };
inline constexpr int kNumPriorities = 3;

/// Per-request options carried from submit() through the queue to the
/// batcher.
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Relative deadline: fail the request (DeadlineError) if its batch has
  /// not reached compute within this budget. Zero = no deadline.
  std::chrono::microseconds timeout{0};
};

/// One classification: argmax class and the winning capsule's length.
struct Prediction {
  int label = -1;
  float score = 0.0f;
};

/// What a client's future resolves to.
struct InferenceResult {
  Prediction prediction;
  std::uint64_t sequence = 0;    ///< FIFO position assigned at enqueue
  std::int64_t batch_size = 0;   ///< size of the coalesced batch it rode in
  double latency_ms = 0.0;       ///< enqueue -> fulfilment, worker-measured
};

/// One queued image plus the promise its client is waiting on.
struct InferenceRequest {
  tensor::Tensor image;  ///< [C, H, W]
  std::promise<InferenceResult> result;
  std::uint64_t sequence = 0;
  Priority priority = Priority::kNormal;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Absolute deadline; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
  bool expired(std::chrono::steady_clock::time_point now) const {
    return deadline <= now;
  }
};

class RequestQueue {
 public:
  /// `capacity` == 0 means unbounded; otherwise push() blocks while full.
  /// `shed_watermark` == 0 disables shedding; otherwise sub-kHigh pushes
  /// fail with OverloadError while total depth >= shed_watermark.
  explicit RequestQueue(std::size_t capacity = 0,
                        std::size_t shed_watermark = 0)
      : capacity_(capacity), shed_watermark_(shed_watermark) {}

  /// Enqueue one image; returns the future the batch worker will fulfil.
  /// Blocks while a bounded queue is full (until the request's deadline,
  /// when it has one). Throws qcaps::Error when closed, OverloadError when
  /// shed, DeadlineError when the deadline passes while blocked.
  std::future<InferenceResult> push(tensor::Tensor image,
                                    const SubmitOptions& opts = {});

  /// Pop 1..max_batch requests (priority-class order, FIFO within a class).
  /// Blocks until a request is available; once the first is in hand, waits
  /// up to `window` for more to coalesce (a zero window returns whatever is
  /// immediately available). Requests found expired are failed with
  /// DeadlineError instead of being returned; `expired_out`, when non-null,
  /// is incremented per expired request. Returns an empty vector iff the
  /// queue is closed and fully drained.
  std::vector<InferenceRequest> pop_batch(
      std::int64_t max_batch,
      std::chrono::microseconds window = std::chrono::microseconds{0},
      std::uint64_t* expired_out = nullptr);

  /// Reject all future pushes and wake every waiter — including producers
  /// blocked on a full queue, whose push() throws. Queued requests remain
  /// poppable so workers can drain before exiting.
  void close();

  bool closed() const;
  std::size_t size() const;
  std::uint64_t total_pushed() const;
  /// Requests refused at admission by the shed watermark.
  std::uint64_t total_shed() const;

 private:
  std::size_t total_size_locked() const;

  const std::size_t capacity_;
  const std::size_t shed_watermark_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// One FIFO deque per priority class, indexed by static_cast<int>.
  std::array<std::deque<InferenceRequest>, kNumPriorities> queues_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t shed_ = 0;
  bool closed_ = false;
};

}  // namespace qcaps::serve
