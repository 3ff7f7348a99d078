#include "serve/batching_queue.h"

#include <algorithm>

#include "common/check.h"

namespace stwa {
namespace serve {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point since,
                   std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - since).count();
}

}  // namespace

BatchingQueue::BatchingQueue(BatchingOptions options) : options_(options) {
  STWA_CHECK(options_.max_batch >= 1, "max_batch must be >= 1");
  STWA_CHECK(options_.capacity >= 1, "capacity must be >= 1");
}

void BatchingQueue::ShedLocked(Request& req, const std::string& reason) {
  Response resp;
  resp.ok = false;
  resp.degraded = true;
  resp.error = reason;
  resp.queue_micros =
      MicrosSince(req.enqueue_time, std::chrono::steady_clock::now());
  ++shed_;
  req.promise.set_value(std::move(resp));
}

std::future<Response> BatchingQueue::Submit(
    Tensor window, std::chrono::microseconds deadline_budget) {
  return Submit(std::move(window), /*stream_id=*/-1, /*anchor=*/-1,
                deadline_budget);
}

std::future<Response> BatchingQueue::Submit(
    Tensor window, int64_t stream_id, int64_t anchor,
    std::chrono::microseconds deadline_budget) {
  Request req;
  req.window = std::move(window);
  req.stream_id = stream_id;
  req.anchor = anchor;
  req.enqueue_time = std::chrono::steady_clock::now();
  req.deadline = req.enqueue_time + deadline_budget;
  std::future<Response> future = req.promise.get_future();

  std::lock_guard<std::mutex> lock(mutex_);
  req.id = next_id_++;
  ++submitted_;
  if (shutdown_) {
    ShedLocked(req, "server shutting down");
    return future;
  }
  if (static_cast<int64_t>(queue_.size()) >= options_.capacity) {
    ShedLocked(req, "queue full (capacity " +
                        std::to_string(options_.capacity) + ")");
    return future;
  }
  queue_.push_back(std::move(req));
  cv_.notify_one();
  return future;
}

std::vector<Request> BatchingQueue::NextBatch() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    // Shed every queued request whose deadline already passed: executing
    // it would waste model time the still-live requests need.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->deadline <= now) {
        ShedLocked(*it, "deadline expired after " +
                            std::to_string(static_cast<int64_t>(
                                MicrosSince(it->enqueue_time, now))) +
                            "us in queue");
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (queue_.empty()) {
      if (shutdown_) return {};
      cv_.wait(lock);
      continue;
    }
    const bool full = static_cast<int64_t>(queue_.size()) >=
                      options_.max_batch;
    // A stream request at the head never waits for companions and never
    // takes any: batched, it would only bypass its stream-cache entry. It
    // leaves at once and alone, so stream traffic runs as singletons
    // whatever the timing, and never captures a plan per batch size.
    const bool stream_head = queue_.front().stream_id >= 0;
    const auto flush_at = queue_.front().enqueue_time + options_.max_delay;
    if (full || stream_head || now >= flush_at || shutdown_) {
      const int64_t take =
          stream_head ? 1
                      : std::min<int64_t>(static_cast<int64_t>(queue_.size()),
                                          options_.max_batch);
      std::vector<Request> batch;
      batch.reserve(static_cast<size_t>(take));
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      return batch;
    }
    // Wake at whichever edge comes first: the flush point of the oldest
    // request or the earliest deadline (so expiry sheds promptly).
    auto wake_at = flush_at;
    for (const Request& r : queue_) wake_at = std::min(wake_at, r.deadline);
    cv_.wait_until(lock, wake_at);
  }
}

void BatchingQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

int64_t BatchingQueue::submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

int64_t BatchingQueue::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

int64_t BatchingQueue::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(queue_.size());
}

}  // namespace serve
}  // namespace stwa
