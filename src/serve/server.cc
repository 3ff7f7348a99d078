#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "common/check.h"
#include "runtime/parallel.h"

namespace stwa {
namespace serve {
namespace {

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

void ServerStats::Merge(const ServerStats& other) {
  const double batch_requests =
      mean_batch * static_cast<double>(batches) +
      other.mean_batch * static_cast<double>(other.batches);
  submitted += other.submitted;
  completed += other.completed;
  shed += other.shed;
  batches += other.batches;
  mean_batch =
      batches > 0 ? batch_requests / static_cast<double>(batches) : 0.0;
  latency.Merge(other.latency);
  stream_cache.Merge(other.stream_cache);
}

Server::Server(const std::string& checkpoint_path, ServerOptions options)
    : options_(options), queue_(options.batching) {
  STWA_CHECK(options_.workers >= 1, "need at least one worker");
  for (int i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->session = InferenceSession::Open(checkpoint_path,
                                             options_.session);
    workers_.push_back(std::move(worker));
  }
  // Resolve the stream cache before any worker can pop a request.
  if (options_.cache) {
    cache_ = options_.cache;
  } else if (StreamCacheEnabled()) {
    cache_ = std::make_shared<StreamCache>(options_.generation);
    cache_owner_ = true;
  }
  for (auto& worker : workers_) {
    Worker& w = *worker;
    w.thread = std::thread([this, &w] { WorkerLoop(w); });
  }
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.Shutdown();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::future<Response> Server::Submit(Tensor window) {
  return Submit(std::move(window), options_.default_deadline);
}

std::future<Response> Server::Submit(
    Tensor window, std::chrono::microseconds deadline_budget) {
  const ServingInfo& inf = info();
  STWA_CHECK(window.rank() == 3 &&
                 window.dim(0) == inf.num_sensors &&
                 window.dim(1) == inf.settings.history &&
                 window.dim(2) == inf.num_features,
             "Submit expects a raw window [", inf.num_sensors, ", ",
             inf.settings.history, ", ", inf.num_features, "], got ",
             ShapeToString(window.shape()));
  return queue_.Submit(std::move(window), deadline_budget);
}

std::future<Response> Server::Submit(Tensor window, int64_t stream_id,
                                     int64_t anchor) {
  const ServingInfo& inf = info();
  STWA_CHECK(window.rank() == 3 &&
                 window.dim(0) == inf.num_sensors &&
                 window.dim(1) == inf.settings.history &&
                 window.dim(2) == inf.num_features,
             "Submit expects a raw window [", inf.num_sensors, ", ",
             inf.settings.history, ", ", inf.num_features, "], got ",
             ShapeToString(window.shape()));
  STWA_CHECK(stream_id >= 0, "stream ids are non-negative, got ",
             stream_id);
  return queue_.Submit(std::move(window), stream_id, anchor,
                       options_.default_deadline);
}

const ServingInfo& Server::info() const {
  return workers_.front()->session->info();
}

void Server::WorkerLoop(Worker& worker) {
  // Fleet shard workers keep their kernels serial: the process-level
  // parallelism is across shards/requests, not inside one small forward.
  std::optional<runtime::ScopedSerialRegion> serial;
  if (options_.serial_kernels) serial.emplace();
  const ServingInfo& inf = worker.session->info();
  const int64_t sample = inf.num_sensors * inf.settings.history *
                         inf.num_features;
  const int64_t out_sample = inf.num_sensors * inf.settings.horizon *
                             inf.num_features;
  // Staging batch reused across iterations per batch size (pooled buffer;
  // re-allocated only when the batch size changes or the previous buffer
  // is still referenced by an in-flight tensor).
  Tensor staging;
  for (;;) {
    std::vector<Request> batch = queue_.NextBatch();
    if (batch.empty()) return;  // shutdown + drained
    const auto exec_start = std::chrono::steady_clock::now();
    const int64_t b = static_cast<int64_t>(batch.size());
    // A stream-tagged request executing alone takes the incremental path;
    // stream requests that ride a larger batch (queued behind a one-shot
    // head; see batching_queue.h) fall back to the stacked forward (still
    // correct — the cache is consulted next time they arrive alone) and
    // are counted as bypasses.
    const bool incremental =
        cache_ != nullptr && b == 1 && batch[0].stream_id >= 0;
    if (!incremental) {
      const Shape batch_shape{b, inf.num_sensors, inf.settings.history,
                              inf.num_features};
      if (staging.shape() != batch_shape || staging.use_count() > 1) {
        staging = Tensor::Uninit(batch_shape);
      }
      for (int64_t i = 0; i < b; ++i) {
        std::memcpy(staging.data() + i * sample, batch[i].window.data(),
                    sizeof(float) * static_cast<size_t>(sample));
        if (cache_ && batch[i].stream_id >= 0) cache_->CountBypass();
      }
    }

    Response failure;
    Tensor out;
    try {
      if (incremental) {
        out = worker.session->ForecastStream(
            batch[0].window, batch[0].stream_id, batch[0].anchor,
            cache_.get(), options_.generation);  // [N, U, F] raw
      } else {
        out = worker.session->Forecast(staging);  // [B, N, U, F] raw
      }
    } catch (const std::exception& e) {
      failure.ok = false;
      failure.error = e.what();
    }
    const auto exec_end = std::chrono::steady_clock::now();
    const double compute_micros = MicrosBetween(exec_start, exec_end);

    for (int64_t i = 0; i < b; ++i) {
      Response resp = failure;
      if (failure.error.empty()) {
        if (incremental) {
          // Already [N, U, F]; hand the tensor over without a copy (cache
          // hits share the cached buffer — safe, responses are read-only).
          resp.forecast = std::move(out);
        } else {
          Tensor forecast = Tensor::Uninit(
              {inf.num_sensors, inf.settings.horizon, inf.num_features});
          std::memcpy(forecast.data(), out.data() + i * out_sample,
                      sizeof(float) * static_cast<size_t>(out_sample));
          resp.forecast = std::move(forecast);
        }
        resp.ok = true;
      }
      resp.queue_micros = MicrosBetween(batch[i].enqueue_time, exec_start);
      resp.compute_micros = compute_micros;
      resp.batch_size = b;
      const double total =
          MicrosBetween(batch[i].enqueue_time, exec_end);
      // Stats before the promise: a caller woken by the future must see
      // its own request already counted in Stats().
      {
        std::lock_guard<std::mutex> lock(worker.stats_mutex);
        if (failure.error.empty()) {
          worker.latency.Record(total);
          ++worker.completed;
        }
      }
      batch[i].promise.set_value(std::move(resp));
    }
    {
      std::lock_guard<std::mutex> lock(worker.stats_mutex);
      ++worker.batches;
      worker.batch_requests += b;
    }
  }
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.submitted = queue_.submitted();
  stats.shed = queue_.shed();
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->stats_mutex);
    stats.completed += worker->completed;
    stats.batches += worker->batches;
    stats.mean_batch += static_cast<double>(worker->batch_requests);
    stats.latency.Merge(worker->latency);
  }
  stats.mean_batch =
      stats.batches > 0 ? stats.mean_batch / static_cast<double>(
                                                 stats.batches)
                        : 0.0;
  // Only the cache's owner folds its counters — a fleet profile shares
  // one cache across shards and folds it exactly once at profile level.
  if (cache_owner_ && cache_) stats.stream_cache = cache_->Stats();
  return stats;
}

}  // namespace serve
}  // namespace stwa
