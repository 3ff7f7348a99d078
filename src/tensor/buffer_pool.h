// Pooled tensor-buffer storage.
//
// Every Tensor buffer is acquired from a process-wide, size-bucketed
// free-list pool. Returning a buffer (when the last shared_ptr reference
// dies) pushes it back onto its bucket's free list instead of freeing it,
// so steady-state training loops recycle the same handful of buffers
// instead of hammering the allocator once per tensor op.
//
// Properties:
//   * thread-safe: one mutex guards the free lists (tensor allocation is
//     main-thread dominated; workers only run kernels over pre-allocated
//     buffers, so contention is negligible);
//   * size-bucketed: requests round up to the next power of two, with a
//     floor of kMinBucketElements, so close-but-unequal sizes share lists;
//   * bounded: at most kMaxPooledBytes (overridable via
//     STWA_POOL_MAX_BYTES) sit idle in free lists; beyond that, returned
//     buffers are freed;
//   * observable: per-process hit/miss/outstanding-byte counters
//     (pool::Stats()) feed the bench allocation columns;
//   * optional: pool::SetEnabled(false) bypasses recycling entirely for
//     A/B runs — every acquire heap-allocates and every release frees.
//     Training results are bit-identical either way: recycled buffers
//     carry stale bytes, but every kernel writes each output element
//     before it can be read (see DESIGN.md "Memory management").
//
// Determinism: which physical buffer a tensor gets never influences the
// values computed into it, and buffers are acquired/released only from the
// orchestrating thread, so the pool preserves the runtime's bit-determinism
// guarantee at any thread count.

#ifndef STWA_TENSOR_BUFFER_POOL_H_
#define STWA_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

namespace stwa {
namespace pool {

/// Minimal aligned std allocator: every allocation starts on an
/// `Alignment`-byte boundary (default 64 = one cache line, and a full
/// AVX-512 vector). Tensor buffers use it so SIMD kernels see aligned
/// bases on every bucket — pooled or not — and so buffers never straddle
/// a cache line start. Kernels still issue unaligned load instructions
/// (values cannot depend on alignment), so pool-on/off stays
/// bit-identical; alignment only removes the split-line penalty.
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    // aligned_alloc requires the size to be a multiple of the alignment.
    const std::size_t bytes =
        (n * sizeof(T) + Alignment - 1) / Alignment * Alignment;
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// Backing storage type of every Tensor buffer: a float vector whose data
/// begins on a 64-byte boundary.
using FloatBuffer = std::vector<float, AlignedAllocator<float>>;

/// Snapshot of the pool's counters since process start (or ResetStats).
struct PoolStats {
  /// Total buffer requests routed through Acquire (pooled or not).
  uint64_t requests = 0;
  /// Requests served from a free list (no heap allocation).
  uint64_t hits = 0;
  /// Requests that had to heap-allocate (pool empty for that bucket, pool
  /// disabled, or zero-size request served without allocation).
  uint64_t misses = 0;
  /// Buffers currently checked out to live tensors.
  uint64_t outstanding_buffers = 0;
  /// Bytes currently checked out to live tensors (bucket capacities).
  uint64_t outstanding_bytes = 0;
  /// High-water mark of outstanding_bytes.
  uint64_t peak_outstanding_bytes = 0;
  /// Bytes currently idle in free lists.
  uint64_t pooled_bytes = 0;
};

/// Acquires a buffer with room for at least `n` floats. The vector's size()
/// is >= n (bucket capacity); contents are unspecified — callers must write
/// every element they read. Never returns nullptr; n == 0 yields an empty
/// buffer.
std::shared_ptr<FloatBuffer> Acquire(int64_t n);

/// True when recycling is active (default unless SetEnabled(false)).
bool Enabled();

/// Switches recycling on/off at runtime (used by A/B tests). Outstanding
/// buffers from the previous mode drain correctly either way.
void SetEnabled(bool enabled);

/// Counter snapshot.
PoolStats Stats();

/// Zeroes the request/hit/miss counters and the peak watermark (outstanding
/// and pooled byte gauges are preserved — they track live state).
void ResetStats();

/// Frees every idle buffer in the free lists (outstanding buffers are
/// unaffected and still return to the pool when released).
void Trim();

}  // namespace pool
}  // namespace stwa

#endif  // STWA_TENSOR_BUFFER_POOL_H_
