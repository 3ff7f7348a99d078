// Tests for the parallel execution runtime (src/runtime) and the
// NoGradMode autograd switch.
//
// The determinism contract is the load-bearing property: every parallel
// kernel must produce results bit-identical to the threads=1 serial path,
// and to a hand-written naive reference, regardless of thread count.
// Running this binary under STWA_NUM_THREADS=1 and again at the default
// exercises both sides of the contract (the tests also switch thread
// counts explicitly via SetNumThreads).

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/no_grad.h"
#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"

namespace stwa {
namespace {

/// True when the tensors have the same shape and bit-identical contents.
bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  // Empty tensors have no storage; memcmp must not see their null data.
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

// --- ParallelFor mechanics ------------------------------------------------

TEST(ParallelForTest, EmptyRangeCallsNothing) {
  std::atomic<int> calls{0};
  runtime::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  runtime::ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  std::atomic<int> calls{0};
  int64_t seen_begin = -1;
  int64_t seen_end = -1;
  runtime::ParallelFor(2, 10, 100, [&](int64_t b, int64_t e) {
    ++calls;
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2);
  EXPECT_EQ(seen_end, 10);
}

TEST(ParallelForTest, GrainDividesTheChunkFloorAndStaysPositive) {
  // Chunk boundaries follow this rule, so the bit-identity contracts of
  // every kernel that uses it rest on these values.
  static_assert(runtime::kMinChunkWork == 16384);
  EXPECT_EQ(runtime::Grain(0), 16384);
  EXPECT_EQ(runtime::Grain(1), 16384);
  EXPECT_EQ(runtime::Grain(4), 4096);
  EXPECT_EQ(runtime::Grain(1000), 16);
  EXPECT_EQ(runtime::Grain(16384), 1);
  EXPECT_EQ(runtime::Grain(int64_t{1} << 40), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  runtime::SetNumThreads(4);
  const int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  runtime::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  runtime::SetNumThreads(0);
}

TEST(ParallelForTest, NestedCallsDegradeToSerial) {
  runtime::SetNumThreads(4);
  std::atomic<int> inner_chunks{0};
  runtime::ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
    EXPECT_TRUE(runtime::InParallelRegion());
    // A nested region must run inline as one chunk per outer call.
    int local = 0;
    runtime::ParallelFor(0, 1000, 1, [&](int64_t, int64_t) { ++local; });
    EXPECT_EQ(local, 1);
    inner_chunks += local;
    (void)b;
    (void)e;
  });
  EXPECT_FALSE(runtime::InParallelRegion());
  EXPECT_GE(inner_chunks.load(), 1);
  runtime::SetNumThreads(0);
}

TEST(ParallelForTest, PropagatesExceptions) {
  runtime::SetNumThreads(4);
  EXPECT_THROW(
      runtime::ParallelFor(0, 1000, 1,
                           [&](int64_t b, int64_t) {
                             if (b >= 0) {
                               STWA_FAIL("chunk failure at ", b);
                             }
                           }),
      stwa::Error);
  runtime::SetNumThreads(0);
}

TEST(ParallelForTest, SetNumThreadsRoundTrips) {
  runtime::SetNumThreads(3);
  EXPECT_EQ(runtime::NumThreads(), 3);
  runtime::SetNumThreads(1);
  EXPECT_EQ(runtime::NumThreads(), 1);
  runtime::SetNumThreads(0);  // back to the environment default
  EXPECT_EQ(runtime::NumThreads(), runtime::DefaultNumThreads());
}

// --- Pool dispatch: spin-then-park and the reusable region slot ----------

/// Runs ParallelFor over [0, n) at grain 1 and returns true when every
/// index was visited exactly once.
bool ParallelForCoversOnce(int64_t n) {
  std::vector<int> hits(n, 0);
  runtime::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) {
    if (h != 1) return false;
  }
  return true;
}

/// RunRegions counterpart of ParallelForCoversOnce.
bool RunRegionsCoversOnce(int64_t count) {
  std::vector<int> hits(count, 0);
  runtime::RunRegions(count, [&](int64_t i) { ++hits[i]; });
  for (int h : hits) {
    if (h != 1) return false;
  }
  return true;
}

double ProcessCpuMillis() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

TEST(PoolDispatchTest, IdlePoolParks) {
  runtime::SetNumThreads(4);
  ASSERT_TRUE(ParallelForCoversOnce(1000));
  // Three helpers that kept spinning would burn ~150 ms of CPU here; parked
  // helpers burn none once their ~50 us budget runs out.
  const double before = ProcessCpuMillis();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(ProcessCpuMillis() - before, 10.0);
  runtime::SetNumThreads(0);
}

TEST(PoolDispatchTest, SlotReuseAfterThrowAcrossTwoCallers) {
  runtime::SetNumThreads(4);
  EXPECT_THROW(runtime::ParallelFor(0, 64, 1,
                                    [](int64_t, int64_t) {
                                      STWA_FAIL("chunk failure");
                                    }),
               stwa::Error);
  EXPECT_THROW(runtime::RunRegions(4,
                                   [](int64_t i) {
                                     if (i == 2) STWA_FAIL("region failure");
                                   }),
               stwa::Error);
  // Back-to-back regions of varied chunk counts from two callers at once:
  // no region may see another's body, counters or error.
  std::atomic<int> failures{0};
  auto burst = [&](int salt) {
    try {
      for (int i = 0; i < 1000; ++i) {
        const bool ok = i % 2 == 0
                            ? ParallelForCoversOnce(1 + (i * 7 + salt) % 97)
                            : RunRegionsCoversOnce(2 + (i + salt) % 11);
        if (!ok) ++failures;
      }
    } catch (...) {
      ++failures;
    }
  };
  std::thread other(burst, 3);
  burst(0);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  runtime::SetNumThreads(0);
}

TEST(PoolDispatchTest, ResizeJoinsSpinningHelpers) {
  for (int threads : {4, 2, 4}) {
    runtime::SetNumThreads(threads);
    ASSERT_EQ(runtime::NumThreads(), threads);
    // The resize lands right after a burst, while helpers still spin.
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(ParallelForCoversOnce(257)) << threads << " " << i;
      ASSERT_TRUE(RunRegionsCoversOnce(9)) << threads << " " << i;
    }
  }
  runtime::SetNumThreads(0);
}

// --- Parallel kernels == serial kernels ----------------------------------

/// Runs `compute` at 1 thread and at 4 threads and expects bit-identical
/// outputs.
template <typename ComputeFn>
void ExpectThreadInvariant(ComputeFn&& compute) {
  runtime::SetNumThreads(1);
  Tensor serial = compute();
  runtime::SetNumThreads(4);
  Tensor parallel = compute();
  runtime::SetNumThreads(0);
  EXPECT_TRUE(BitIdentical(serial, parallel));
}

TEST(ParallelKernelTest, ElementwiseMatchesSerial) {
  Rng rng(11);
  for (const Shape& shape :
       {Shape{}, Shape{1}, Shape{3}, Shape{64, 33}, Shape{2, 7, 5, 3}}) {
    Tensor a = Tensor::Randn(shape, rng);
    Tensor b = Tensor::Randn(shape, rng);
    ExpectThreadInvariant([&] { return ops::Add(a, b); });
    ExpectThreadInvariant([&] { return ops::Mul(a, b); });
    ExpectThreadInvariant([&] { return ops::Tanh(a); });
    ExpectThreadInvariant([&] { return ops::Sigmoid(a); });
  }
}

TEST(ParallelKernelTest, EmptyTensorsSurvive) {
  Tensor a(Shape{0});
  Tensor b(Shape{0});
  ExpectThreadInvariant([&] { return ops::Add(a, b); });
  ExpectThreadInvariant([&] { return ops::Relu(a); });
  Tensor m(Shape{0, 5});
  Tensor n(Shape{5, 3});
  ExpectThreadInvariant([&] { return ops::MatMul(m, n); });
}

TEST(ParallelKernelTest, BroadcastBinaryMatchesSerial) {
  Rng rng(12);
  Tensor a = Tensor::Randn({8, 1, 6}, rng);
  Tensor b = Tensor::Randn({1, 5, 6}, rng);
  ExpectThreadInvariant([&] { return ops::Add(a, b); });
  ExpectThreadInvariant([&] { return ops::Div(a, b); });
  Tensor scalar = Tensor::Randn({1}, rng);
  Tensor big = Tensor::Randn({4, 100, 9}, rng);
  ExpectThreadInvariant([&] { return ops::Mul(big, scalar); });
}

TEST(ParallelKernelTest, MatMulMatchesNaiveReference) {
  Rng rng(13);
  for (auto [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {1, 1, 1}, {3, 5, 2}, {17, 300, 9}, {64, 64, 64}}) {
    Tensor a = Tensor::Randn({m, k}, rng);
    Tensor b = Tensor::Randn({k, n}, rng);
    // Naive i-k-j reference: identical accumulation order to the blocked
    // kernel (k ascending per output element).
    Tensor ref(Shape{m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = a.data()[i * k + kk];
        if (aik == 0.0f) continue;
        for (int64_t j = 0; j < n; ++j) {
          ref.data()[i * n + j] += aik * b.data()[kk * n + j];
        }
      }
    }
    runtime::SetNumThreads(4);
    EXPECT_TRUE(BitIdentical(ref, ops::MatMul(a, b)));
    runtime::SetNumThreads(0);
    ExpectThreadInvariant([&] { return ops::MatMul(a, b); });
  }
}

TEST(ParallelKernelTest, BatchedMatMulMatchesSerial) {
  Rng rng(14);
  Tensor a = Tensor::Randn({6, 4, 9, 7}, rng);
  Tensor b = Tensor::Randn({6, 4, 7, 5}, rng);
  ExpectThreadInvariant([&] { return ops::MatMul(a, b); });
  // Broadcast batch dims and a shared rank-2 operand.
  Tensor c = Tensor::Randn({1, 4, 9, 7}, rng);
  ExpectThreadInvariant([&] { return ops::MatMul(c, b); });
  Tensor d = Tensor::Randn({7, 5}, rng);
  ExpectThreadInvariant([&] { return ops::MatMul(a, d); });
}

TEST(ParallelKernelTest, SoftmaxReductionsPermuteMatchSerial) {
  Rng rng(15);
  Tensor a = Tensor::Randn({33, 20, 17}, rng);
  ExpectThreadInvariant([&] { return ops::SoftmaxLast(a); });
  for (int64_t axis = 0; axis < 3; ++axis) {
    ExpectThreadInvariant([&] { return ops::Sum(a, axis); });
    ExpectThreadInvariant([&] { return ops::Mean(a, axis, true); });
    ExpectThreadInvariant([&] { return ops::Max(a, axis); });
  }
  ExpectThreadInvariant([&] { return ops::Permute(a, {2, 0, 1}); });
  ExpectThreadInvariant([&] { return ops::TransposeLast2(a); });
  Tensor row(Shape{1, 1});
  row.data()[0] = 3.0f;
  ExpectThreadInvariant([&] { return ops::SoftmaxLast(row); });
}

// --- NoGradMode ----------------------------------------------------------

TEST(NoGradModeTest, OpsUnderNoGradBuildNoTape) {
  ag::Var w = ag::Parameter(Tensor(Shape{2, 2}, 1.5f));
  ASSERT_TRUE(ag::GradEnabled());
  {
    ag::NoGradMode no_grad;
    EXPECT_FALSE(ag::GradEnabled());
    ag::Var y = ag::MeanAll(ag::Mul(w, w));
    // The result is a detached constant: no grad flow, Backward is a
    // checked error rather than a silent no-op.
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_THROW(y.Backward(), stwa::Error);
  }
  EXPECT_TRUE(ag::GradEnabled());
  // Recording resumes after the scope: the same graph now backprops.
  ag::Var y = ag::MeanAll(ag::Mul(w, w));
  EXPECT_TRUE(y.requires_grad());
  y.Backward();
  EXPECT_FLOAT_EQ(w.grad().data()[0], 2.0f * 1.5f / 4.0f);
}

TEST(NoGradModeTest, ScopesNest) {
  {
    ag::NoGradMode outer;
    {
      ag::NoGradMode inner;
      EXPECT_FALSE(ag::GradEnabled());
    }
    // Still disabled: the outer scope is alive.
    EXPECT_FALSE(ag::GradEnabled());
  }
  EXPECT_TRUE(ag::GradEnabled());
}

TEST(NoGradModeTest, ForwardValuesUnchanged) {
  Rng rng(16);
  Tensor xt = Tensor::Randn({4, 6}, rng);
  ag::Var w = ag::Parameter(Tensor::Randn({6, 3}, rng));
  ag::Var x(xt);
  Tensor with_grad = ag::MatMul(x, w).value();
  Tensor without_grad;
  {
    ag::NoGradMode no_grad;
    without_grad = ag::MatMul(x, w).value();
  }
  EXPECT_TRUE(BitIdentical(with_grad, without_grad));
}

}  // namespace
}  // namespace stwa
