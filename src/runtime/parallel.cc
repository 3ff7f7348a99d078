#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"

namespace stwa {
namespace runtime {
namespace {

/// How long a helper polls for the next region, and the caller for the
/// join, before parking on a condition variable. A forecast issues a
/// region every ~50 us, so within one forecast nobody sleeps; an idle pool
/// parks within one budget. 50 and 200 us measured alike on serve_batch.
constexpr auto kSpinBudget = std::chrono::microseconds(50);

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `ready` for up to kSpinBudget; false when the budget ran out.
template <typename Pred>
bool SpinUntil(Pred ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (int i = 1;; ++i) {
    if (ready()) return true;
    CpuRelax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}

/// Persistent worker pool with one reusable region slot. Run() fills the
/// slot with a borrowed body and opens it; helpers enter the open slot and
/// claim chunk indices from its atomic counter alongside the caller.
///
/// Slot invariant: `slot_` packs the open bit with the number of helpers
/// inside. A helper enters only by a CAS that sees the slot open, and Run()
/// closes it and returns only once no helper is inside, so a helper that
/// wakes late finds the slot closed and never touches a finished region's
/// body, and the next region may overwrite the slot fields.
class ThreadPool {
 public:
  using ChunkThunk = void (*)(const void* ctx, int64_t chunk);

  explicit ThreadPool(int threads) : target_threads_(std::max(1, threads)) {
    for (int i = 0; i < target_threads_ - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_.store(true, std::memory_order_relaxed);
    }
    job_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  int size() const { return target_threads_; }

  /// Runs `call(ctx, chunk)` for every chunk in [0, num_chunks); blocks
  /// until all chunks finish. The calling thread participates.
  void Run(int64_t num_chunks, const void* ctx, ChunkThunk call) {
    // One region at a time: concurrent Run() callers queue up here.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    ctx_ = ctx;
    call_ = call;
    total_ = num_chunks;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    slot_.store(kOpen, std::memory_order_release);  // publishes the fields
    {
      // Orders the bump against a parking helper's predicate check.
      std::lock_guard<std::mutex> lock(mutex_);
      generation_.fetch_add(1, std::memory_order_release);
    }
    job_cv_.notify_all();  // no syscall while every helper still spins
    Drain();
    // Every chunk is claimed, so once the slot is closed and empty, every
    // chunk has finished.
    slot_.fetch_and(~kOpen, std::memory_order_acq_rel);
    const auto joined = [&] {
      return slot_.load(std::memory_order_acquire) == 0;
    };
    if (!SpinUntil(joined)) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, joined);
    }
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  static constexpr uint64_t kOpen = 1;
  static constexpr uint64_t kEntered = 2;  // one helper inside the slot

  void Drain() {
    detail::in_parallel_region = true;
    for (;;) {
      const int64_t chunk = next_.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= total_) break;
      try {
        call_(ctx_, chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
    detail::in_parallel_region = false;
  }

  bool TryEnter() {
    uint64_t state = slot_.load(std::memory_order_acquire);
    while (state & kOpen) {
      if (slot_.compare_exchange_weak(state, state + kEntered,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void Leave() {
    if (slot_.fetch_sub(kEntered, std::memory_order_acq_rel) == kEntered) {
      // Closed and now empty: wake the caller if it parked. The lock
      // orders the notify against its predicate check.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    const auto posted = [&] {
      return generation_.load(std::memory_order_acquire) != seen ||
             shutdown_.load(std::memory_order_relaxed);
    };
    for (;;) {
      if (!SpinUntil(posted)) {
        std::unique_lock<std::mutex> lock(mutex_);
        job_cv_.wait(lock, posted);
      }
      if (shutdown_.load(std::memory_order_relaxed)) return;
      seen = generation_.load(std::memory_order_acquire);
      if (TryEnter()) {
        Drain();
        Leave();
      }
    }
  }

  const int target_threads_;
  std::mutex run_mutex_;

  // The region slot. The plain fields are written by Run() while the slot
  // is closed and empty, and read only by threads inside it.
  const void* ctx_ = nullptr;
  ChunkThunk call_ = nullptr;
  int64_t total_ = 0;
  std::exception_ptr error_;  // first chunk failure; written under mutex_
  std::atomic<int64_t> next_{0};
  std::atomic<uint64_t> slot_{0};  // kOpen | helpers inside * kEntered

  // Parking. generation_ is bumped under mutex_ once per region.
  std::mutex mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> shutdown_{false};

  std::vector<std::thread> workers_;  // last: the threads use every member
};

std::mutex g_pool_mutex;
std::shared_ptr<ThreadPool> g_pool;  // guarded by g_pool_mutex

std::shared_ptr<ThreadPool> Pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_shared<ThreadPool>(DefaultNumThreads());
    detail::pool_size.store(g_pool->size(), std::memory_order_relaxed);
  }
  return g_pool;
}

}  // namespace

namespace detail {

std::atomic<int> pool_size{0};
thread_local bool in_parallel_region = false;

int ResolvePoolSize() { return Pool()->size(); }

}  // namespace detail

int DefaultNumThreads() {
  const int64_t env = GetEnvIntOr("STWA_NUM_THREADS", 0);
  if (env >= 1) return static_cast<int>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int NumThreads() { return Pool()->size(); }

void SetNumThreads(int n) {
  STWA_CHECK(!detail::in_parallel_region,
             "SetNumThreads inside a parallel region");
  const int threads = n < 1 ? DefaultNumThreads() : n;
  std::shared_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool && g_pool->size() == threads) return;
    old = std::move(g_pool);  // destroyed (workers joined) outside the lock
    g_pool = std::make_shared<ThreadPool>(threads);
    detail::pool_size.store(threads, std::memory_order_relaxed);
  }
}

bool InParallelRegion() { return detail::in_parallel_region; }

ScopedSerialRegion::ScopedSerialRegion() : prev_(detail::in_parallel_region) {
  detail::in_parallel_region = true;
}

ScopedSerialRegion::~ScopedSerialRegion() {
  detail::in_parallel_region = prev_;
}

void RunRegions(int64_t count, const std::function<void(int64_t)>& fn) {
  if (count <= 0) return;
  std::shared_ptr<ThreadPool> pool = Pool();
  if (count == 1 || pool->size() == 1 || detail::in_parallel_region) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Each task index is claimed by exactly one thread and Run() blocks until
  // the last task's body returns, so the join is deterministic; task bodies
  // inherit the in_parallel_region flag from Drain(), which keeps nested
  // kernels serial.
  pool->Run(count, &fn, [](const void* ctx, int64_t i) {
    (*static_cast<const std::function<void(int64_t)>*>(ctx))(i);
  });
}

namespace detail {

void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const void* body, RangeThunk call) {
  const int64_t range = end - begin;
  std::shared_ptr<ThreadPool> pool = Pool();
  if (pool->size() == 1 || detail::in_parallel_region) {  // pool shrank meanwhile
    call(body, begin, end);
    return;
  }
  // At most 4 chunks per thread for load balancing, at least `grain`
  // indices per chunk. Every output index belongs to exactly one chunk and
  // chunk-local iteration order matches the serial loop, so the result is
  // bit-identical to running the body over [begin, end) directly.
  const int64_t max_chunks =
      std::min<int64_t>(static_cast<int64_t>(pool->size()) * 4,
                        (range + grain - 1) / grain);
  struct Chunks {
    int64_t begin, end, chunk_size;
    const void* body;
    RangeThunk call;
  };
  const int64_t chunk_size = (range + max_chunks - 1) / max_chunks;
  const int64_t num_chunks = (range + chunk_size - 1) / chunk_size;
  const Chunks chunks{begin, end, chunk_size, body, call};
  pool->Run(num_chunks, &chunks, [](const void* ctx, int64_t chunk) {
    const Chunks& c = *static_cast<const Chunks*>(ctx);
    const int64_t b = c.begin + chunk * c.chunk_size;
    const int64_t e = std::min(c.end, b + c.chunk_size);
    if (b < e) c.call(c.body, b, e);
  });
}

}  // namespace detail

}  // namespace runtime
}  // namespace stwa
