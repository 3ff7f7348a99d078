// Shared parallel execution runtime.
//
// A single persistent worker pool backs every parallel kernel in the
// library. ParallelFor splits an index range into contiguous chunks and
// runs them on the pool; each output element is computed by exactly one
// chunk with the same per-element operation order as the serial loop, so
// results are bit-identical across thread counts (see DESIGN.md
// "Execution runtime" for the determinism contract).
//
// Dispatch is built for streams of short regions: the pool publishes each
// region in one reusable slot that borrows the caller's body (no
// allocation, no std::function copy), and both helpers and the caller spin
// for about 50 us before parking on a condition variable, so back-to-back
// regions neither wake a sleeping thread nor sleep on the join.
//
// Thread count resolution, in priority order:
//   1. runtime::SetNumThreads(n) (e.g. from train::TrainConfig)
//   2. the STWA_NUM_THREADS environment variable
//   3. std::thread::hardware_concurrency()
// At threads == 1 every ParallelFor runs inline on the calling thread —
// the serial fallback used by the determinism tests.

#ifndef STWA_RUNTIME_PARALLEL_H_
#define STWA_RUNTIME_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace stwa {
namespace runtime {

/// Grain floor shared by every ParallelFor call site: a chunk should hold
/// at least this many elementwise-op-equivalents (multiply-adds for GEMM
/// rows). Kernels with a per-item cost take their grain from Grain.
constexpr int64_t kMinChunkWork = 16384;

/// Grain for indices that cost `work_per_index` op-equivalents each:
/// enough of them that one chunk holds about kMinChunkWork, and at least
/// one. The one grain rule of every ParallelFor with a per-item cost.
constexpr int64_t Grain(int64_t work_per_index) {
  return std::max<int64_t>(1, kMinChunkWork /
                                  std::max<int64_t>(1, work_per_index));
}

/// Number of threads the pool currently targets (>= 1).
int NumThreads();

/// Resizes the worker pool. n < 1 resets to the environment/hardware
/// default. Safe to call between parallel regions; not from inside one.
void SetNumThreads(int n);

/// Thread count implied by STWA_NUM_THREADS / hardware_concurrency,
/// ignoring any SetNumThreads override.
int DefaultNumThreads();

/// True while the calling thread is executing inside a ParallelFor chunk.
bool InParallelRegion();

/// Runs fn(0) .. fn(count - 1) on the worker pool and blocks until every
/// call has finished (deterministic join: the caller never resumes while a
/// region body is still running). Unlike ParallelFor there is no range
/// splitting — each index is one indivisible task (an execution-plan
/// region, ir/regions.h). Bodies run with the nested-parallelism flag set,
/// so kernels inside a region fall back to their serial paths — which
/// compute the same bits by the ParallelFor determinism contract. Runs
/// inline on the calling thread (ascending order) when count <= 1, the
/// pool has one thread, or the caller is already inside a parallel region.
/// Exceptions from fn are rethrown on the calling thread.
void RunRegions(int64_t count, const std::function<void(int64_t)>& fn);

/// RAII that pins the calling thread to serial kernel execution for its
/// lifetime: every ParallelFor and RunRegions on this thread runs inline,
/// exactly as if it were nested inside a parallel region. Fleet shard
/// workers use this so K shards x W workers parallelise *across* requests
/// instead of contending for the shared pool on every small kernel; the
/// ParallelFor determinism contract makes the outputs bit-identical either
/// way. Nests safely (restores the previous state).
class ScopedSerialRegion {
 public:
  ScopedSerialRegion();
  ~ScopedSerialRegion();
  ScopedSerialRegion(const ScopedSerialRegion&) = delete;
  ScopedSerialRegion& operator=(const ScopedSerialRegion&) = delete;

 private:
  bool prev_;
};

namespace detail {

/// Pool size mirror (0 = pool not created yet) and the nested-region flag,
/// exposed so the ParallelFor fast path inlines into kernel call sites —
/// small tensors must not pay a cross-TU call to decide "run serial".
extern std::atomic<int> pool_size;
extern thread_local bool in_parallel_region;

/// Creates the pool if needed and returns its size. Out-of-line slow path.
int ResolvePoolSize();

/// True when a range of `range` indices at the given grain is worth
/// dispatching to the pool (multi-thread pool, non-nested caller).
inline bool ShouldParallelize(int64_t range, int64_t grain) {
  if (range <= grain || in_parallel_region) return false;
  const int size = pool_size.load(std::memory_order_relaxed);
  return (size == 0 ? ResolvePoolSize() : size) > 1;
}

/// Type-erased call of a borrowed range body: body(begin, end).
using RangeThunk = void (*)(const void* body, int64_t begin, int64_t end);

template <typename Body>
void InvokeRange(const void* body, int64_t begin, int64_t end) {
  (*static_cast<Body*>(const_cast<void*>(body)))(begin, end);
}

/// Pool dispatch behind ShouldParallelize; `body` is only borrowed for the
/// duration of the (blocking) call.
void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const void* body, RangeThunk call);

}  // namespace detail

/// Runs fn over [begin, end) in contiguous chunks of at least `grain`
/// indices. Runs inline when the range is empty, fits in one grain, the
/// pool has a single thread, or the caller is already inside a parallel
/// region (nested parallelism degrades to serial). Neither path copies fn
/// or allocates. Exceptions thrown by fn are rethrown on the calling thread.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (!detail::ShouldParallelize(end - begin, grain)) {
    fn(begin, end);
    return;
  }
  detail::ParallelForImpl(begin, end, grain, &fn,
                          &detail::InvokeRange<std::remove_reference_t<Fn>>);
}

}  // namespace runtime
}  // namespace stwa

#endif  // STWA_RUNTIME_PARALLEL_H_
