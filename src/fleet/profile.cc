#include "fleet/profile.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "nn/serialize.h"
#include "serve/checkpoint.h"

namespace stwa {
namespace fleet {
namespace {

double Micros(const Stopwatch& sw) { return sw.ElapsedSeconds() * 1e6; }

}  // namespace

ModelProfile::ModelProfile(FleetProfileConfig config)
    : config_(std::move(config)),
      router_(serve::ReadServingInfo(config_.checkpoint).num_sensors,
              config_.tiles, config_.shards) {
  STWA_CHECK(!config_.name.empty(), "fleet profile needs a name");
  STWA_CHECK(config_.workers >= 1, "profile '", config_.name,
             "' needs at least one worker per shard");
  // One cache for all shards and generations (see header). Created before
  // the first generation so BuildGeneration can inject it.
  if (serve::StreamCacheEnabled()) {
    stream_cache_ = std::make_shared<serve::StreamCache>(/*generation=*/1);
  }
  gen_ = BuildGeneration(config_.checkpoint, /*version=*/1);
  n_ = gen_->info.num_sensors;
  history_ = gen_->info.settings.history;
  features_ = gen_->info.num_features;
  tile_states_.reserve(static_cast<size_t>(config_.tiles));
  for (int64_t t = 0; t < config_.tiles; ++t) {
    tile_states_.emplace_back(n_, history_, features_);
  }
  shard_mutexes_.reserve(static_cast<size_t>(config_.shards));
  for (int64_t k = 0; k < config_.shards; ++k) {
    shard_mutexes_.push_back(std::make_unique<std::mutex>());
  }
  retired_.resize(static_cast<size_t>(config_.shards));
}

ModelProfile::~ModelProfile() {
  std::shared_ptr<Generation> gen;
  {
    std::unique_lock<std::shared_mutex> lock(gen_mutex_);
    gen = std::move(gen_);
  }
  if (gen) {
    for (auto& shard : gen->shards) shard->Stop();
  }
}

std::shared_ptr<Generation> ModelProfile::BuildGeneration(
    const std::string& path, int64_t version) {
  auto gen = std::make_shared<Generation>();
  gen->version = version;
  gen->checkpoint_path = path;
  gen->format_version = nn::PeekCheckpointFormatVersion(path);
  gen->info = serve::ReadServingInfo(path);
  if (version > 1) {
    // The tile rings outlive the swap, so the replacement file must
    // describe the same stream geometry (the horizon may change).
    STWA_CHECK(gen->info.num_sensors == n_ &&
                   gen->info.settings.history == history_ &&
                   gen->info.num_features == features_,
               "reload of profile '", config_.name, "' from '", path,
               "' changes the stream geometry: serving [N=", n_,
               ", H=", history_, ", F=", features_, "], file [N=",
               gen->info.num_sensors, ", H=", gen->info.settings.history,
               ", F=", gen->info.num_features, "]");
  }
  serve::ServerOptions options;
  options.workers = config_.workers;
  options.batching.max_batch = config_.max_batch;
  options.batching.max_delay = std::chrono::microseconds(config_.max_delay_us);
  options.batching.capacity = config_.capacity;
  options.session.precision = config_.precision;
  options.default_deadline = std::chrono::microseconds(config_.deadline_us);
  options.serial_kernels = config_.serial_kernels;
  // Shards share the profile cache and present the generation version as
  // their cache tag. The profile creates its cache under the same switch a
  // server checks, so a null profile cache leaves shards cache-free.
  options.cache = stream_cache_;
  options.generation = static_cast<uint64_t>(version);
  gen->shards.reserve(static_cast<size_t>(config_.shards));
  for (int64_t k = 0; k < config_.shards; ++k) {
    gen->shards.push_back(std::make_unique<serve::Server>(path, options));
  }
  return gen;
}

serve::ServingInfo ModelProfile::Info() const {
  std::shared_lock<std::shared_mutex> lock(gen_mutex_);
  return gen_->info;
}

int64_t ModelProfile::Version() const {
  std::shared_lock<std::shared_mutex> lock(gen_mutex_);
  return gen_->version;
}

void ModelProfile::PushTile(int64_t tile,
                            const std::vector<float>& observation) {
  STWA_CHECK(tile >= 0 && tile < router_.tiles(), "tile ", tile,
             " out of range [0, ", router_.tiles(), ")");
  std::lock_guard<std::mutex> lock(
      *shard_mutexes_[static_cast<size_t>(router_.TileToShard(tile))]);
  tile_states_[static_cast<size_t>(tile)].Push(observation);
}

void ModelProfile::PushSensor(int64_t g, const float* values) {
  STWA_CHECK(g >= 0 && g < router_.global_sensors(), "global sensor ", g,
             " out of range [0, ", router_.global_sensors(), ")");
  const int64_t tile = router_.SensorToTile(g);
  std::lock_guard<std::mutex> lock(
      *shard_mutexes_[static_cast<size_t>(router_.TileToShard(tile))]);
  tile_states_[static_cast<size_t>(tile)].PushSensor(router_.SensorInTile(g),
                                                     values);
}

bool ModelProfile::TileReady(int64_t tile) const {
  STWA_CHECK(tile >= 0 && tile < router_.tiles(), "tile ", tile,
             " out of range [0, ", router_.tiles(), ")");
  std::lock_guard<std::mutex> lock(
      *shard_mutexes_[static_cast<size_t>(router_.TileToShard(tile))]);
  return tile_states_[static_cast<size_t>(tile)].ready();
}

int64_t ModelProfile::TileMinFilled(int64_t tile) const {
  STWA_CHECK(tile >= 0 && tile < router_.tiles(), "tile ", tile,
             " out of range [0, ", router_.tiles(), ")");
  std::lock_guard<std::mutex> lock(
      *shard_mutexes_[static_cast<size_t>(router_.TileToShard(tile))]);
  return tile_states_[static_cast<size_t>(tile)].min_filled();
}

std::future<serve::Response> ModelProfile::ForecastTile(int64_t tile) {
  STWA_CHECK(tile >= 0 && tile < router_.tiles(), "tile ", tile,
             " out of range [0, ", router_.tiles(), ")");
  const int64_t shard = router_.TileToShard(tile);
  Tensor window;
  int64_t anchor = -1;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mutexes_[static_cast<size_t>(shard)]);
    const serve::StreamState& state = tile_states_[static_cast<size_t>(tile)];
    STWA_CHECK(state.ready(), "tile ", tile, " of profile '", config_.name,
               "' is still warming up (", state.min_filled(), " of ",
               history_, " steps)");
    window = state.Window().Reshape({n_, history_, features_});
    anchor = state.anchor();
  }
  // Holding the reader lock across the enqueue is the drain guarantee:
  // the reload's writer lock cannot be acquired until this request is in
  // its queue, and the retire path executes queued requests. The tile
  // index is the stream id: tiles advance one observation at a time, the
  // exact overlap the stream cache reuses.
  std::shared_lock<std::shared_mutex> lock(gen_mutex_);
  return gen_->shards[static_cast<size_t>(shard)]->Submit(
      std::move(window), /*stream_id=*/tile, anchor);
}

ReloadResult ModelProfile::Reload(const std::string& path) {
  std::lock_guard<std::mutex> serialize(reload_mutex_);
  ReloadResult result;
  Stopwatch prepare;
  std::shared_ptr<Generation> next = BuildGeneration(path, Version() + 1);
  result.prepare_us = Micros(prepare);
  result.version = next->version;
  result.ckpt_version = next->info.ckpt_version;

  std::shared_ptr<Generation> old;
  Stopwatch swap;
  {
    std::unique_lock<std::shared_mutex> lock(gen_mutex_);
    // Flush the stream cache inside the swap's writer section: no
    // new-generation request can run before the flush, so no entry
    // computed on the old weights is ever served after it. Old-generation
    // workers still draining present old tags and simply miss.
    if (stream_cache_) {
      stream_cache_->Invalidate(static_cast<uint64_t>(next->version));
    }
    old = std::move(gen_);
    gen_ = std::move(next);
  }
  result.swap_us = Micros(swap);

  // While the old generation drains, a concurrent Stats() must still see
  // its completions (the last in-flight futures resolve *during* the
  // Stop() below) — so it stays visible in retiring_ until its final
  // numbers are folded into retired_, in one critical section.
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    retiring_.push_back(old);
  }
  Stopwatch drain;
  for (auto& shard : old->shards) shard->Stop();
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    for (size_t k = 0; k < old->shards.size(); ++k) {
      retired_[k].Merge(old->shards[k]->Stats());
    }
    retiring_.erase(std::find(retiring_.begin(), retiring_.end(), old));
  }
  old.reset();
  result.drain_us = Micros(drain);
  return result;
}

std::vector<serve::ServerStats> ModelProfile::ShardStats() const {
  std::vector<serve::ServerStats> stats(
      static_cast<size_t>(config_.shards));
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    for (size_t k = 0; k < stats.size(); ++k) stats[k] = retired_[k];
    for (const auto& gen : retiring_) {
      for (size_t k = 0; k < gen->shards.size(); ++k) {
        stats[k].Merge(gen->shards[k]->Stats());
      }
    }
  }
  std::shared_lock<std::shared_mutex> lock(gen_mutex_);
  for (size_t k = 0; k < gen_->shards.size(); ++k) {
    stats[k].Merge(gen_->shards[k]->Stats());
  }
  return stats;
}

serve::ServerStats ModelProfile::Stats() const {
  serve::ServerStats merged;
  for (const serve::ServerStats& shard : ShardStats()) merged.Merge(shard);
  // Shards are non-owners (their stream_cache sections are zero); the
  // profile folds the shared cache exactly once.
  if (stream_cache_) merged.stream_cache = stream_cache_->Stats();
  return merged;
}

}  // namespace fleet
}  // namespace stwa
