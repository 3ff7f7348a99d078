// Batched low-latency forecast server.
//
// N worker threads sit behind one BatchingQueue. Each worker owns a
// private InferenceSession opened from the same checkpoint (identical
// weights, no shared mutable model state), pops a micro-batch, stacks the
// request windows into one [B, N, H, F] tensor, runs a single forward
// pass on the shared execution runtime (src/runtime), and resolves each
// request's future with its row of the output. Because every kernel in
// the library computes each output element from one sample's data in a
// fixed order, a request's forecast bytes are independent of the batch it
// rode in, the worker that ran it, and the thread count — see DESIGN.md
// "Serving" for the determinism argument.

#ifndef STWA_SERVE_SERVER_H_
#define STWA_SERVE_SERVER_H_

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metrics/latency.h"
#include "serve/batching_queue.h"
#include "serve/inference_session.h"
#include "serve/stream_cache.h"

namespace stwa {
namespace serve {

/// Server configuration.
struct ServerOptions {
  /// Worker threads (each with a private model replica).
  int workers = 1;
  BatchingOptions batching;
  /// Per-worker session configuration (precision tier etc.). Every
  /// worker session is opened with the same config, so responses stay
  /// worker-independent.
  SessionConfig session;
  /// Default in-queue deadline for Submit() without an explicit budget.
  std::chrono::microseconds default_deadline{1'000'000};
  /// When true, worker threads run their model kernels serially
  /// (runtime::ScopedSerialRegion): the fleet layer runs many shard
  /// servers in one process and parallelises across requests, so the
  /// per-kernel pool dispatch is pure contention there. Outputs are
  /// bit-identical either way (ParallelFor determinism contract).
  bool serial_kernels = false;
  /// Externally owned per-stream activation cache (serve/stream_cache.h);
  /// the fleet layer shares one cache across a profile's shards and reload
  /// generations, and folds its stats itself. Null: the server creates and
  /// owns a private cache when StreamCacheEnabled(), and folds its stats
  /// into Stats(). With a cache, stream-tagged Submits that execute as
  /// singleton batches take InferenceSession::ForecastStream —
  /// byte-identical to the cold path, memcmp-enforced.
  std::shared_ptr<StreamCache> cache;
  /// Weights generation this server serves (tags cache entries; the fleet
  /// layer passes the model version so reloads never read stale entries).
  uint64_t generation = 1;
};

/// Aggregated serving statistics.
struct ServerStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t batches = 0;
  /// Mean executed batch size (0 when no batch ran yet).
  double mean_batch = 0.0;
  /// End-to-end latency (submit -> response) of completed requests.
  metrics::LatencyHistogram latency;
  /// Stream-cache counters (zeros when the cache is off or owned
  /// elsewhere — the owner folds them exactly once).
  StreamCacheStats stream_cache;

  /// Folds `other` into this snapshot (counters add, histograms merge,
  /// mean_batch re-weighted by batch count). The fleet layer uses this to
  /// accumulate stats across shards and across retired generations.
  void Merge(const ServerStats& other);
};

/// Thread-safe forecast server over a frozen checkpoint.
class Server {
 public:
  /// Opens `workers` sessions from a metadata-only checkpoint (see
  /// InferenceSession::Open) and starts the worker threads.
  Server(const std::string& checkpoint_path, ServerOptions options);

  /// Stops and joins the workers; pending requests are shed.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a forecast for `window` [N, H, F] (raw scale) with the
  /// default deadline.
  std::future<Response> Submit(Tensor window);

  /// Enqueues with an explicit in-queue deadline budget.
  std::future<Response> Submit(Tensor window,
                               std::chrono::microseconds deadline_budget);

  /// Enqueues a forecast for one live stream: `stream_id` names the
  /// stream, `anchor` is its window position (StreamState::anchor()).
  /// When the stream cache is on and the request executes alone, the
  /// worker takes the incremental path — same bytes, fewer flops.
  std::future<Response> Submit(Tensor window, int64_t stream_id,
                               int64_t anchor);

  /// The stream cache this server consults (null when disabled).
  StreamCache* stream_cache() const { return cache_.get(); }

  /// Merged statistics snapshot (histograms merged across workers).
  ServerStats Stats() const;

  /// Checkpoint metadata the server is running.
  const ServingInfo& info() const;

  /// Stops accepting work and joins the workers (idempotent).
  void Stop();

 private:
  struct Worker {
    std::unique_ptr<InferenceSession> session;
    std::thread thread;
    mutable std::mutex stats_mutex;
    metrics::LatencyHistogram latency;
    int64_t completed = 0;
    int64_t batches = 0;
    int64_t batch_requests = 0;
  };

  void WorkerLoop(Worker& worker);

  ServerOptions options_;
  BatchingQueue queue_;
  /// Stream cache in use: options_.cache when provided, else a private
  /// one (created when StreamCacheEnabled()).
  std::shared_ptr<StreamCache> cache_;
  /// True when cache_ was self-created — then Stats() folds its counters.
  bool cache_owner_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_SERVER_H_
