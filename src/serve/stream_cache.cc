#include "serve/stream_cache.h"

#include <utility>

namespace stwa {
namespace serve {
namespace {

bool g_stream_cache_mode = true;

}  // namespace

bool StreamCacheEnabled() { return g_stream_cache_mode; }

void SetStreamCacheMode(bool enabled) { g_stream_cache_mode = enabled; }

void StreamCacheStats::Merge(const StreamCacheStats& other) {
  output_hits += other.output_hits;
  shift_hits += other.shift_hits;
  misses += other.misses;
  stale_rejected += other.stale_rejected;
  bypass += other.bypass;
  flushes += other.flushes;
  entries += other.entries;
  bytes += other.bytes;
}

int64_t StreamCache::EntryBytes(const Entry& e) const {
  int64_t elems = e.window.size() + e.output.size();
  for (const Tensor& s : e.segments) elems += s.size();
  return elems * static_cast<int64_t>(sizeof(float));
}

bool StreamCache::Lookup(int64_t stream_id, uint64_t generation,
                         simd::Precision precision, Entry* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(stream_id);
  if (it == entries_.end()) return false;
  if (it->second.generation != generation ||
      it->second.precision != precision) {
    ++stats_.stale_rejected;
    return false;
  }
  *out = it->second;
  return true;
}

void StreamCache::Update(int64_t stream_id, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(stream_id);
  if (it != entries_.end()) {
    stats_.bytes -= EntryBytes(it->second);
    it->second = std::move(entry);
    stats_.bytes += EntryBytes(it->second);
    return;
  }
  stats_.bytes += EntryBytes(entry);
  entries_.emplace(stream_id, std::move(entry));
  stats_.entries = static_cast<int64_t>(entries_.size());
}

void StreamCache::Invalidate(uint64_t new_generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  generation_ = new_generation;
  ++stats_.flushes;
  stats_.entries = 0;
  stats_.bytes = 0;
}

uint64_t StreamCache::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

void StreamCache::CountOutputHit() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.output_hits;
}

void StreamCache::CountShiftHit() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.shift_hits;
}

void StreamCache::CountMiss() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
}

void StreamCache::CountBypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bypass;
}

StreamCacheStats StreamCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamCacheStats out = stats_;
  out.entries = static_cast<int64_t>(entries_.size());
  return out;
}

}  // namespace serve
}  // namespace stwa
