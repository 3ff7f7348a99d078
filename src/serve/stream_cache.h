// Per-stream activation cache for incremental sliding-window inference.
//
// Live forecast streams advance one observation at a time, so consecutive
// windows of one stream overlap in H-1 of their H columns. The cache holds,
// per stream id:
//
//   * the raw window and raw-scale output of the last answered forecast —
//     a repeat request at the same anchor whose window bytes still match
//     is answered without touching the model (output hit);
//   * the full-window values of the plan's sliced frontier steps
//     (ir/time_slice.h) — when the next request's anchor is exactly one
//     step ahead and the H-1 overlapping columns memcmp-match, the session
//     recomputes only the newest column, splices it onto these values and
//     replays just the window-global tail (shift hit).
//
// Anchors are a routing heuristic, never a correctness carrier: every hit
// is gated by a byte comparison of the actual window contents, so a
// client that rewinds, skips or rewrites history degrades to a miss, not
// a wrong answer.
//
// Invalidation: entries are tagged with the (weights) generation and the
// precision tier they were computed under. A lookup presents the caller's
// tags; any mismatch rejects the entry (counted stale_rejected) without
// serving it. fleet::ModelProfile::Reload — which is also the path
// online::OnlineLearner publishes ride — calls Invalidate(new_generation)
// at swap: flush everything, retag. Workers still draining on the old
// generation present old tags and simply miss, answering on the old
// weights as the drain contract requires; zero stale reads either way.
//
// Thread-safe: one cache is shared by all workers of a server (and by all
// shards of a fleet profile — the determinism contract makes every
// worker's bytes interchangeable).
//
// Switch: SetStreamCacheMode(false) disables the whole path (servers and
// fleet profiles constructed afterwards never create a cache).

#ifndef STWA_SERVE_STREAM_CACHE_H_
#define STWA_SERVE_STREAM_CACHE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "simd/lowp.h"
#include "tensor/tensor.h"

namespace stwa {
namespace serve {

/// Counters for the streaming cache (ServerStats / fleet stats surface
/// these as sc_* fields).
struct StreamCacheStats {
  /// Repeat forecast answered straight from the cached output.
  int64_t output_hits = 0;
  /// Shift-by-one reuse: one new column computed, global tail replayed.
  int64_t shift_hits = 0;
  /// Stream seen but no reusable entry (first contact, overlap mismatch,
  /// anchor gap) — full compute, entry refreshed.
  int64_t misses = 0;
  /// Entries rejected for a generation/precision tag mismatch. Stale
  /// entries are never served; this counts how many lookups hit one.
  int64_t stale_rejected = 0;
  /// Requests that skipped the cache entirely (no stream id, batched
  /// rides, unplannable session, rng in the plan).
  int64_t bypass = 0;
  /// Invalidate() calls (hot reloads / online publishes).
  int64_t flushes = 0;
  /// Live entries.
  int64_t entries = 0;
  /// Bytes held by live entries (windows + outputs + segments).
  int64_t bytes = 0;

  void Merge(const StreamCacheStats& other);
};

/// Shared, mutex-guarded per-stream entry store. See file comment.
class StreamCache {
 public:
  /// One stream's cached state. Tensors are shared handles; `window` is
  /// always a private copy (it is the lookup key and must not alias
  /// caller-mutable storage).
  struct Entry {
    /// Stream position the entry was computed at (StreamState::anchor()).
    int64_t anchor = -1;
    /// Weights generation the entry was computed under.
    uint64_t generation = 0;
    /// Precision tier the entry was computed under.
    simd::Precision precision = simd::Precision::kFp32;
    /// Raw input window [1, N, H, F] — the byte-compared key.
    Tensor window;
    /// Raw-scale forecast [N, U, F].
    Tensor output;
    /// Full-window values of the plan's frontier steps, in
    /// TimeSliceInfo::frontier_steps order (normalised domain). Empty when
    /// the producing call had no incremental plan — output hits still work.
    std::vector<Tensor> segments;
  };

  explicit StreamCache(uint64_t generation = 1) : generation_(generation) {}

  /// Copies stream `stream_id`'s entry into *out when one exists and its
  /// tags match the caller's; returns false otherwise. A tag mismatch
  /// counts stale_rejected and leaves the entry in place (a worker still
  /// draining on the old generation may legitimately keep using it).
  bool Lookup(int64_t stream_id, uint64_t generation,
              simd::Precision precision, Entry* out);

  /// Installs/overwrites the entry for `stream_id`.
  void Update(int64_t stream_id, Entry entry);

  /// Flushes every entry and moves the cache to `new_generation`.
  /// Called at the hot-reload swap point, before new-generation workers
  /// take traffic.
  void Invalidate(uint64_t new_generation);

  /// Generation tag for new entries (ServerOptions carries the value the
  /// workers present; this accessor is for owners that manage both).
  uint64_t generation() const;

  // Outcome counters — the session classifies its own path.
  void CountOutputHit();
  void CountShiftHit();
  void CountMiss();
  void CountBypass();

  StreamCacheStats Stats() const;

 private:
  int64_t EntryBytes(const Entry& e) const;

  mutable std::mutex mutex_;
  uint64_t generation_;
  std::unordered_map<int64_t, Entry> entries_;
  StreamCacheStats stats_;
};

/// True when streaming-cache use is globally enabled: the default, unless
/// SetStreamCacheMode(false) was called. Servers and fleet profiles read
/// this once at construction.
bool StreamCacheEnabled();

/// The in-process stream-cache switch (A/B tests and benches).
void SetStreamCacheMode(bool enabled);

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_STREAM_CACHE_H_
