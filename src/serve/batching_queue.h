// Dynamic micro-batching of concurrent forecast requests.
//
// Producers Submit() a request and get a future; consumers (server worker
// threads) call NextBatch(), which coalesces queued requests into batches
// bounded by max_batch and max_delay: a batch is released as soon as
// max_batch requests are waiting, or when the oldest request has waited
// max_delay, whichever comes first. A stream request (stream_id >= 0) at
// the head is released at once and alone, so an idle worker never sits
// out max_delay and stream traffic runs as singleton batches (the
// incremental stream-cache path) however requests happen to queue; it
// rides a larger batch only behind a one-shot head. Overload is
// handled by shedding, not queueing without bound: a Submit beyond
// `capacity` and any request whose deadline expires while still queued are
// answered immediately with `degraded = true` and no forecast. Requests
// that execute are answered with the forecast; batching never changes
// their bytes (per-sample kernel independence, see DESIGN.md "Serving").

#ifndef STWA_SERVE_BATCHING_QUEUE_H_
#define STWA_SERVE_BATCHING_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace stwa {
namespace serve {

/// Outcome of one forecast request.
struct Response {
  /// Forecast [N, U, F] in raw flow units; empty when the request was
  /// shed.
  Tensor forecast;
  /// True when a forecast was produced.
  bool ok = false;
  /// True when the shedding policy affected this response (queue
  /// overflow or deadline expiry before execution).
  bool degraded = false;
  /// Human-readable reason when !ok.
  std::string error;
  /// Time spent queued before execution started (or before shedding).
  double queue_micros = 0.0;
  /// Model time for the batch this request rode in (0 when shed).
  double compute_micros = 0.0;
  /// Number of requests in that batch (0 when shed).
  int64_t batch_size = 0;
};

/// One queued forecast request.
struct Request {
  int64_t id = 0;
  /// Input window [N, H, F], raw scale.
  Tensor window;
  /// Stream identity for incremental serving (serve/stream_cache.h):
  /// stream_id >= 0 marks the request as belonging to a live stream whose
  /// window advances one step per observation; `anchor` is the stream
  /// position of this window (StreamState::anchor()). stream_id < 0 is a
  /// plain one-shot forecast — no cache interaction.
  int64_t stream_id = -1;
  int64_t anchor = -1;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Execution must start before this point or the request is shed.
  std::chrono::steady_clock::time_point deadline;
  std::promise<Response> promise;
};

/// Batching/shedding policy knobs.
struct BatchingOptions {
  /// Largest micro-batch handed to a worker.
  int64_t max_batch = 8;
  /// Longest a one-shot request may wait for companions before its batch
  /// is released anyway. Stream requests at the head of the queue do not
  /// wait (see the file comment), so this applies to one-shot requests
  /// only.
  std::chrono::microseconds max_delay{2000};
  /// Queue bound; Submits beyond it are shed immediately.
  int64_t capacity = 1024;
};

/// Thread-safe request queue with micro-batch assembly and shedding.
class BatchingQueue {
 public:
  explicit BatchingQueue(BatchingOptions options);

  /// Enqueues a request; the future resolves when a worker executes or
  /// sheds it. `deadline_budget` bounds the in-queue wait.
  std::future<Response> Submit(Tensor window,
                               std::chrono::microseconds deadline_budget);

  /// Enqueues a stream request (see Request::stream_id). Same shedding
  /// semantics; at the head of the queue it is released at once as a
  /// batch of one, and the stream identity rides along so the executing
  /// worker can take the incremental path.
  std::future<Response> Submit(Tensor window, int64_t stream_id,
                               int64_t anchor,
                               std::chrono::microseconds deadline_budget);

  /// Blocks until a batch is ready (per the policy above) and pops it.
  /// Expired requests are shed (their futures resolved) as they are
  /// encountered. Returns an empty vector only after Shutdown() once the
  /// queue has drained.
  std::vector<Request> NextBatch();

  /// Wakes all waiters; NextBatch returns remaining requests, then empty.
  void Shutdown();

  int64_t submitted() const;
  int64_t shed() const;
  int64_t queue_depth() const;

 private:
  /// Resolves `req` as shed with `reason`. Caller holds no promise after.
  void ShedLocked(Request& req, const std::string& reason);

  BatchingOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool shutdown_ = false;
  int64_t next_id_ = 0;
  int64_t submitted_ = 0;
  int64_t shed_ = 0;
};

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_BATCHING_QUEUE_H_
