// One fleet serving profile: a named (city x precision) deployment of a
// serving checkpoint, sharded and hot-reloadable.
//
// A profile serves `tiles` independent districts of its checkpoint's
// N-sensor graph (ShardRouter), so the global stream count is tiles * N.
// Each shard owns one serve::Server (its own BatchingQueue and worker
// pool); the per-tile StreamState rings live in the profile and survive
// reloads, so a swap never loses warm-up.
//
// Hot reload is generation-based. A Generation bundles a monotone version
// number with the checkpoint's ServingInfo and the shard servers built
// from it. Reload builds the *next* generation completely — opening the
// sessions is the validation; a bad file throws before anything is
// swapped — then exchanges the generation pointer under a writer lock and
// retires the old one. Forecast submissions hold the reader lock across
// the enqueue, so every request observed by the old generation is already
// in its queues when the swap happens; retiring calls Server::Stop(),
// whose queue shutdown executes (not sheds) the remaining requests.
// Drain-before-retire: requests enqueued against generation G complete on
// G's weights even after G+1 is published, and nothing is dropped.

#ifndef STWA_FLEET_PROFILE_H_
#define STWA_FLEET_PROFILE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "fleet/shard_router.h"
#include "serve/server.h"
#include "serve/stream_cache.h"
#include "serve/stream_state.h"
#include "simd/lowp.h"

namespace stwa {
namespace fleet {

/// Static configuration of one profile (from the fleet config file).
struct FleetProfileConfig {
  /// Routing key clients prepend to protocol lines (e.g. "cityA").
  std::string name;
  /// Serving checkpoint path (serve/checkpoint.h).
  std::string checkpoint;
  /// Districts served (copies of the checkpoint's sensor graph).
  int64_t tiles = 1;
  /// Shard count; tiles are split in balanced contiguous ranges.
  int64_t shards = 1;
  /// Worker threads per shard server.
  int workers = 1;
  /// Per-shard batching policy (serve/batching_queue.h). Tile forecasts
  /// are stream requests, which never wait for max_delay_us; it applies
  /// to one-shot requests only.
  int64_t max_batch = 8;
  int64_t max_delay_us = 2000;
  int64_t capacity = 4096;
  /// Default in-queue deadline for forecasts.
  int64_t deadline_us = 1'000'000;
  /// Weight precision tier for the shard sessions.
  simd::Precision precision = simd::Precision::kFp32;
  /// Run shard worker kernels serially (see ServerOptions::serial_kernels);
  /// on by default because a fleet node parallelises across shards.
  bool serial_kernels = true;
};

/// One immutable deployment of a checkpoint: version + metadata + the
/// shard servers answering with exactly these weights.
struct Generation {
  /// Monotone per-profile reload counter (1 = the initial load).
  int64_t version = 0;
  serve::ServingInfo info;
  /// On-disk format version word of the loaded file (nn/serialize).
  uint32_t format_version = 0;
  std::string checkpoint_path;
  std::vector<std::unique_ptr<serve::Server>> shards;
};

/// Timings and provenance of one completed hot reload.
struct ReloadResult {
  /// Generation number now serving.
  int64_t version = 0;
  /// ckpt_version metadata of the new file (producer provenance).
  int64_t ckpt_version = 0;
  /// Time building + validating the new generation (old one serving).
  double prepare_us = 0.0;
  /// Writer-lock hold time of the pointer swap — the only window where a
  /// forecast submission can block on the reload.
  double swap_us = 0.0;
  /// Time draining and retiring the old generation's queues.
  double drain_us = 0.0;
};

/// A sharded, hot-reloadable serving profile. Thread-safe.
class ModelProfile {
 public:
  /// Loads the checkpoint and starts generation 1 (shards * workers
  /// sessions). Throws on a bad checkpoint or config.
  explicit ModelProfile(FleetProfileConfig config);
  ~ModelProfile();

  ModelProfile(const ModelProfile&) = delete;
  ModelProfile& operator=(const ModelProfile&) = delete;

  const FleetProfileConfig& config() const { return config_; }
  const ShardRouter& router() const { return router_; }

  /// Checkpoint dims fixed for the profile's lifetime (a reload must
  /// match them; the horizon may change).
  int64_t num_sensors() const { return n_; }
  int64_t history() const { return history_; }
  int64_t features() const { return features_; }

  /// Snapshot of the serving generation's metadata.
  serve::ServingInfo Info() const;

  /// Serving generation number.
  int64_t Version() const;

  /// Appends one timestep for every sensor of `tile` ([N, F] row-major).
  void PushTile(int64_t tile, const std::vector<float>& observation);

  /// Appends one observation for global sensor `g` in
  /// [0, router().global_sensors()).
  void PushSensor(int64_t g, const float* values);

  /// True once every sensor of `tile` has a full history window.
  bool TileReady(int64_t tile) const;

  /// Warm-up progress of `tile` (smallest per-sensor count).
  int64_t TileMinFilled(int64_t tile) const;

  /// Enqueues a forecast for `tile` on its owning shard with the
  /// config deadline. Requires TileReady(tile).
  std::future<serve::Response> ForecastTile(int64_t tile);

  /// Swaps in `path` as the next generation (see file comment for the
  /// drain guarantee). Throws on a bad file — the old generation keeps
  /// serving. Concurrent reloads are serialized.
  ReloadResult Reload(const std::string& path);

  /// Per-shard statistics, each merged with that shard's retired
  /// generations (continuity across reloads).
  std::vector<serve::ServerStats> ShardStats() const;

  /// All shards merged into one snapshot, including the profile-level
  /// stream-cache counters (the profile owns the cache, so they are
  /// folded exactly once here, not per shard).
  serve::ServerStats Stats() const;

  /// The profile's shared stream cache (null when globally disabled). One
  /// cache spans all shards and survives reloads: worker outputs are
  /// interchangeable by the determinism contract, and Reload invalidates
  /// by generation so entries never outlive their weights.
  serve::StreamCache* stream_cache() const { return stream_cache_.get(); }

 private:
  std::shared_ptr<Generation> BuildGeneration(const std::string& path,
                                              int64_t version);

  FleetProfileConfig config_;
  ShardRouter router_;
  int64_t n_ = 0;
  int64_t history_ = 0;
  int64_t features_ = 0;

  /// Shared across every shard of every generation; entries are tagged
  /// with the generation that wrote them. Null when
  /// serve::StreamCacheEnabled() was false at profile construction.
  std::shared_ptr<serve::StreamCache> stream_cache_;

  /// Guards gen_ swaps: forecasts hold it shared across the enqueue, a
  /// reload holds it exclusive only for the pointer exchange.
  mutable std::shared_mutex gen_mutex_;
  std::shared_ptr<Generation> gen_;

  /// Serializes reloads (builds happen outside gen_mutex_).
  std::mutex reload_mutex_;

  /// Tile rings, indexed by tile; guarded per shard.
  std::vector<serve::StreamState> tile_states_;
  mutable std::vector<std::unique_ptr<std::mutex>> shard_mutexes_;

  /// Stats of retired generations, per shard, plus generations still
  /// draining (their completions are merged live until the drain
  /// finishes, so Stats() never transiently under-reports mid-reload).
  /// Both guarded by retired_mutex_.
  mutable std::mutex retired_mutex_;
  std::vector<serve::ServerStats> retired_;
  std::vector<std::shared_ptr<Generation>> retiring_;
};

}  // namespace fleet
}  // namespace stwa

#endif  // STWA_FLEET_PROFILE_H_
