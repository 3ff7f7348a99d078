#include "tensor/buffer_pool.h"

#include <algorithm>
#include <mutex>

#include "common/string_util.h"

namespace stwa {
namespace pool {
namespace {

// Smallest bucket: 256 floats (1 KiB). Tiny buffers bucket together so the
// scalar-heavy autograd tape still hits the same free list.
constexpr int64_t kMinBucketElements = 256;
// Buckets cover capacities 2^8 .. 2^55 floats — effectively unbounded.
constexpr int kNumBuckets = 48;
// Default cap on idle pooled bytes; STWA_POOL_MAX_BYTES overrides.
constexpr uint64_t kMaxPooledBytes = 1ull << 30;  // 1 GiB

// Bucket index for a request of n floats: smallest power-of-two capacity
// >= max(n, kMinBucketElements).
int BucketIndex(int64_t n) {
  int64_t cap = kMinBucketElements;
  int idx = 0;
  while (cap < n) {
    cap <<= 1;
    ++idx;
  }
  return idx;
}

int64_t BucketCapacity(int idx) { return kMinBucketElements << idx; }

struct Pool {
  std::mutex mu;
  // Raw pointers: ownership passes to the shared_ptr deleter on acquire and
  // back to the free list on release.
  std::vector<FloatBuffer*> free_lists[kNumBuckets];
  bool enabled = true;
  uint64_t max_pooled_bytes = kMaxPooledBytes;
  PoolStats stats;
};

// Leaky singleton: never destroyed, so buffer releases during static
// destruction (e.g. globals holding Tensors) stay safe.
Pool& GetPool() {
  static Pool* p = [] {
    Pool* pool = new Pool;
    pool->max_pooled_bytes = static_cast<uint64_t>(GetEnvIntOr(
        "STWA_POOL_MAX_BYTES", static_cast<int64_t>(kMaxPooledBytes)));
    return pool;
  }();
  return *p;
}

// Returns the buffer to its bucket's free list (or frees it when the pool
// is full or disabled).
struct PooledDeleter {
  int bucket;
  void operator()(FloatBuffer* v) const {
    Pool& p = GetPool();
    const uint64_t bytes = BucketCapacity(bucket) * sizeof(float);
    std::lock_guard<std::mutex> lock(p.mu);
    p.stats.outstanding_buffers--;
    p.stats.outstanding_bytes -= bytes;
    if (p.enabled && p.stats.pooled_bytes + bytes <= p.max_pooled_bytes) {
      p.free_lists[bucket].push_back(v);
      p.stats.pooled_bytes += bytes;
    } else {
      delete v;
    }
  }
};

}  // namespace

std::shared_ptr<FloatBuffer> Acquire(int64_t n) {
  if (n <= 0) return std::make_shared<FloatBuffer>();
  Pool& p = GetPool();
  const int bucket = BucketIndex(n);
  if (bucket >= kNumBuckets) {
    // Beyond the largest bucket: plain heap allocation, not recycled.
    std::lock_guard<std::mutex> lock(p.mu);
    ++p.stats.requests;
    ++p.stats.misses;
    return std::make_shared<FloatBuffer>(n);
  }
  const int64_t cap = BucketCapacity(bucket);
  const uint64_t bytes = cap * sizeof(float);
  FloatBuffer* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    ++p.stats.requests;
    if (p.enabled && !p.free_lists[bucket].empty()) {
      raw = p.free_lists[bucket].back();
      p.free_lists[bucket].pop_back();
      p.stats.pooled_bytes -= bytes;
      ++p.stats.hits;
    } else {
      ++p.stats.misses;
    }
    p.stats.outstanding_buffers++;
    p.stats.outstanding_bytes += bytes;
    p.stats.peak_outstanding_bytes =
        std::max(p.stats.peak_outstanding_bytes, p.stats.outstanding_bytes);
  }
  if (raw == nullptr) raw = new FloatBuffer(cap);
  return std::shared_ptr<FloatBuffer>(raw, PooledDeleter{bucket});
}

bool Enabled() {
  Pool& p = GetPool();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.enabled;
}

void SetEnabled(bool enabled) {
  Pool& p = GetPool();
  std::vector<FloatBuffer*> drained;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.enabled = enabled;
    if (!enabled) {
      for (auto& list : p.free_lists) {
        for (FloatBuffer* v : list) drained.push_back(v);
        list.clear();
      }
      p.stats.pooled_bytes = 0;
    }
  }
  for (FloatBuffer* v : drained) delete v;
}

PoolStats Stats() {
  Pool& p = GetPool();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.stats;
}

void ResetStats() {
  Pool& p = GetPool();
  std::lock_guard<std::mutex> lock(p.mu);
  p.stats.requests = 0;
  p.stats.hits = 0;
  p.stats.misses = 0;
  p.stats.peak_outstanding_bytes = p.stats.outstanding_bytes;
}

void Trim() {
  Pool& p = GetPool();
  std::vector<FloatBuffer*> drained;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    for (auto& list : p.free_lists) {
      for (FloatBuffer* v : list) drained.push_back(v);
      list.clear();
    }
    p.stats.pooled_bytes = 0;
  }
  for (FloatBuffer* v : drained) delete v;
}

}  // namespace pool
}  // namespace stwa
