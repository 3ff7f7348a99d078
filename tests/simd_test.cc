// SIMD kernel layer tests (src/simd).
//
// Covers the determinism contract from DESIGN.md §4e:
//   * the ragged-tail helpers (LoadPartial / StorePartial / MaskFirstN)
//     against their scalar definition byte for byte, including tails that
//     end on the last readable float before a PROT_NONE page;
//   * GEMM (NN / NT / TN) against a naive reference over a shape grid that
//     exercises every tail case and both the row and packed kernels. On
//     every tier every comparison is BIT-exact: NN/TN (and NT on the
//     packed path) against a k-ascending simd::MulAddRef chain — the
//     kernels promise that exact accumulation order regardless of
//     blocking — and the NT row kernel against a mirror of its fixed lane
//     accumulators and ReduceAdd tree;
//   * batched MatMul vs the rank-2 entry point (row kernel vs packed
//     kernel must agree bitwise);
//   * vectorized transcendentals (Exp/Tanh/Sigmoid) against libm under
//     tolerance, with exactness pinned at x = 0;
//   * elementwise / softmax / reduction kernels against scalar references;
//   * bit-identity across thread counts, including a short end-to-end
//     ST-WA Fit at 1 vs 4 workers.

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "common/rng.h"
#include "data/traffic_generator.h"
#include "runtime/parallel.h"
#include "simd/gemm.h"
#include "simd/simd.h"
#include "simd/vec_math.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace stwa {
namespace {

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(),
                                       static_cast<size_t>(a.size()) *
                                           sizeof(float)) == 0);
}

// --- Ragged-tail helpers ---------------------------------------------------

constexpr int64_t kW = simd::Vec::kWidth;

std::array<float, kW> Lanes(simd::Vec v) {
  std::array<float, kW> out;
  v.Store(out.data());
  return out;
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

const std::vector<float> kPads = {0.0f, -0.0f,
                                  -std::numeric_limits<float>::infinity(),
                                  std::numeric_limits<float>::quiet_NaN()};

TEST(SimdTailTest, HelpersMatchScalarDefinitionBitwise) {
  std::array<float, kW> src;
  for (int64_t i = 0; i < kW; ++i) src[i] = 1.5f - static_cast<float>(i);
  src[0] = -0.0f;  // a live -0 lane must survive as -0, too
  const simd::Vec v = simd::Vec::Load(src.data());
  for (int64_t n = 0; n <= kW; ++n) {
    for (float pad : kPads) {
      const std::array<float, kW> loaded =
          Lanes(simd::LoadPartial(src.data(), n, pad));
      const std::array<float, kW> masked =
          Lanes(simd::MaskFirstN(v, n, pad));
      for (int64_t i = 0; i < kW; ++i) {
        const float want = i < n ? src[i] : pad;
        EXPECT_TRUE(SameBits(loaded[i], want))
            << "LoadPartial n=" << n << " pad=" << pad << " lane " << i;
        EXPECT_TRUE(SameBits(masked[i], want))
            << "MaskFirstN n=" << n << " fill=" << pad << " lane " << i;
      }
    }
  }
}

TEST(SimdTailTest, StorePartialLeavesFloatsPastNUntouched) {
  std::array<float, kW> src;
  for (int64_t i = 0; i < kW; ++i) src[i] = 0.25f * static_cast<float>(i + 1);
  const simd::Vec v = simd::Vec::Load(src.data());
  const float sentinel = std::bit_cast<float>(0x7FC0BEEFu);  // a NaN payload
  for (int64_t n = 0; n <= kW; ++n) {
    std::array<float, 3 * kW> dst;
    dst.fill(sentinel);
    simd::StorePartial(v, dst.data() + kW, n);
    for (int64_t i = 0; i < 3 * kW; ++i) {
      const bool live = i >= kW && i < kW + n;
      EXPECT_TRUE(SameBits(dst[i], live ? src[i - kW] : sentinel))
          << "n=" << n << " slot " << i;
    }
  }
}

TEST(SimdTailTest, TailEndingAtProtectedPageNeitherFaultsNorWrites) {
  // Two pages; the second is PROT_NONE. A tail of n floats that ends on
  // the last float of the readable page must load and store without
  // touching the guard page (a full-width access would fault).
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  void* mem = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  ASSERT_EQ(mprotect(static_cast<char*>(mem) + page, page, PROT_NONE), 0);
  float* end = reinterpret_cast<float*>(static_cast<char*>(mem) + page);
  for (int64_t i = 1; i <= kW; ++i) end[-i] = static_cast<float>(i);
  std::array<float, kW> ones;
  ones.fill(1.0f);
  const simd::Vec v = simd::Vec::Load(ones.data());
  for (int64_t n = 0; n <= kW; ++n) {
    for (float pad : kPads) {
      const std::array<float, kW> loaded =
          Lanes(simd::LoadPartial(end - n, n, pad));
      for (int64_t i = 0; i < kW; ++i) {
        EXPECT_TRUE(SameBits(loaded[i], i < n ? end[i - n] : pad))
            << "n=" << n << " lane " << i;
      }
    }
  }
  for (int64_t n = 0; n <= kW; ++n) {
    simd::StorePartial(v, end - n, n);
    for (int64_t i = 1; i <= kW; ++i) {
      // The last n slots now hold 1.0; earlier tails were shorter, so
      // the slots before them still hold their initial values.
      const float want = i <= n ? 1.0f : static_cast<float>(i);
      EXPECT_EQ(end[-i], want) << "n=" << n << " slot end-" << i;
    }
  }
  ASSERT_EQ(munmap(mem, 2 * page), 0);
}

// --- Naive GEMM references ------------------------------------------------
// Accumulate with simd::MulAddRef in ascending-k order: on the active tier
// that is the exact chain the NN/TN kernels promise per output element, so
// those comparisons can be bitwise on SIMD builds.

Tensor RefMatMul(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                 int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = simd::MulAddRef(a.data()[i * k + kk], b.data()[kk * n + j],
                              acc);
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

Tensor RefMatMulNT(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                   int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = simd::MulAddRef(a.data()[i * k + kk], b.data()[j * k + kk],
                              acc);
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

// Mirrors GemmRowsNT's dot kernel lane for lane: the product for index kk
// lands in lane kk mod kW of accumulator (kk / kW) mod 4 inside the
// 4*kW-wide blocks, and of accumulator 0 in the trailing kW-wide blocks
// and the zero-padded tail (fma(0, 0, acc) runs on the pad lanes too).
// The accumulators are summed lane-wise as (a0 + a1) + (a2 + a3) and the
// lanes reduced in ReduceAdd's fixed tree.
float ReduceAddRef(const float* t) {
  if constexpr (kW == 8) {
    return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]));
  } else if constexpr (kW == 4) {
    return (t[0] + t[1]) + (t[2] + t[3]);
  } else {
    return t[0];
  }
}

Tensor RefMatMulNTLanes(const Tensor& a, const Tensor& b, int64_t m,
                        int64_t n, int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* ar = a.data() + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* br = b.data() + j * k;
      float acc[4][kW] = {};
      int64_t kk = 0;
      for (; kk + 4 * kW <= k; kk += 4 * kW) {
        for (int64_t q = 0; q < 4; ++q) {
          for (int64_t l = 0; l < kW; ++l) {
            const int64_t x = kk + q * kW + l;
            acc[q][l] = simd::MulAddRef(ar[x], br[x], acc[q][l]);
          }
        }
      }
      for (; kk + kW <= k; kk += kW) {
        for (int64_t l = 0; l < kW; ++l) {
          acc[0][l] = simd::MulAddRef(ar[kk + l], br[kk + l], acc[0][l]);
        }
      }
      if (kk < k) {
        for (int64_t l = 0; l < kW; ++l) {
          const bool live = kk + l < k;
          acc[0][l] = simd::MulAddRef(live ? ar[kk + l] : 0.0f,
                                      live ? br[kk + l] : 0.0f, acc[0][l]);
        }
      }
      float lanes[kW];
      for (int64_t l = 0; l < kW; ++l) {
        lanes[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
      }
      c.data()[i * n + j] = ReduceAddRef(lanes);
    }
  }
  return c;
}

Tensor RefMatMulTN(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                   int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = simd::MulAddRef(a.data()[kk * m + i], b.data()[kk * n + j],
                              acc);
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

// Dimensions straddling every vector width, the 6-row microkernel tile and
// the packed-path threshold (64^3 and 65^3 take the packed kernel on every
// tier; small shapes take the row kernel).
const std::vector<int64_t> kDims = {1, 2, 3, 7, 8, 9, 16, 17, 64, 65};

TEST(SimdGemmTest, MatMul2DMatchesReferenceOverGrid) {
  Rng rng(101);
  for (int64_t m : kDims) {
    for (int64_t n : kDims) {
      for (int64_t k : kDims) {
        Tensor a = Tensor::Randn({m, k}, rng);
        Tensor b = Tensor::Randn({k, n}, rng);
        EXPECT_TRUE(BitIdentical(RefMatMul(a, b, m, n, k),
                                 ops::MatMul(a, b)))
            << "NN " << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST(SimdGemmTest, TransposedVariantsMatchReferenceOverGrid) {
  Rng rng(102);
  for (int64_t m : kDims) {
    for (int64_t n : kDims) {
      for (int64_t k : kDims) {
        Tensor a = Tensor::Randn({m, k}, rng);       // NT lhs: [m, k]
        Tensor bt = Tensor::Randn({n, k}, rng);      // NT rhs: [n, k]
        Tensor at = Tensor::Randn({k, m}, rng);      // TN lhs: [k, m]
        Tensor b = Tensor::Randn({k, n}, rng);       // TN rhs: [k, n]
        // The NT row kernel sums k in fixed lane accumulators; the packed
        // path keeps the k-ascending chain. Both are bit-exact against the
        // reference for the path the shape takes; TN keeps the scalar
        // chain on either path.
        const Tensor nt_ref = simd::GemmUsesPackedPath(m, n, k)
                                  ? RefMatMulNT(a, bt, m, n, k)
                                  : RefMatMulNTLanes(a, bt, m, n, k);
        EXPECT_TRUE(BitIdentical(nt_ref, ops::MatMulNT(a, bt)))
            << "NT " << m << "x" << n << "x" << k;
        EXPECT_TRUE(BitIdentical(RefMatMulTN(at, b, m, n, k),
                                 ops::MatMulTN(at, b)))
            << "TN " << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST(SimdGemmTest, BatchedMatMulBitMatchesRank2Kernel) {
  // The batched driver dispatches per-row GemmRows* kernels while the
  // rank-2 entry point may take the packed kernel; both must produce the
  // same bits (identical per-element accumulation chains). The last rows
  // are the serving shapes: the 12-wide forecast head and the window
  // attention products over windows of 3 and 2.
  //
  // Batched NT, with a batched or a shared rank-2 B, stays on the lane
  // kernel even where rank-2 NT takes the packed path (64^3), so its
  // slices match the lane-tree reference. Batched TN keeps the
  // k-ascending chain on every route.
  Rng rng(103);
  const auto slice = [](const Tensor& t, int64_t s, int64_t rows,
                        int64_t cols) {
    return ops::Slice(t, 0, s, 1).Reshape({rows, cols});
  };
  for (auto [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {5, 7, 3}, {64, 64, 64}, {65, 33, 17}, {64, 256, 12},
           {1, 8, 3}, {1, 8, 2}, {1, 3, 8}, {1, 2, 8}}) {
    Tensor a = Tensor::Randn({2, m, k}, rng);
    Tensor b = Tensor::Randn({2, k, n}, rng);
    Tensor bt = Tensor::Randn({2, n, k}, rng);
    Tensor at = Tensor::Randn({2, k, m}, rng);
    Tensor bt2 = Tensor::Randn({n, k}, rng);
    Tensor b2 = Tensor::Randn({k, n}, rng);
    Tensor batched = ops::MatMul(a, b);
    Tensor nt = ops::MatMulNT(a, bt);
    Tensor nt_shared = ops::MatMulNT(a, bt2);
    Tensor tn = ops::MatMulTN(at, b);
    Tensor tn_shared = ops::MatMulTN(at, b2);
    for (int64_t s = 0; s < 2; ++s) {
      const std::string where = std::to_string(m) + "x" + std::to_string(k) +
                                "x" + std::to_string(n) + " slice " +
                                std::to_string(s);
      Tensor as = slice(a, s, m, k);
      Tensor ats = slice(at, s, k, m);
      EXPECT_TRUE(BitIdentical(ops::MatMul(as, slice(b, s, k, n)),
                               slice(batched, s, m, n)))
          << "NN " << where;
      EXPECT_TRUE(BitIdentical(RefMatMulNTLanes(as, slice(bt, s, n, k), m,
                                                n, k),
                               slice(nt, s, m, n)))
          << "NT " << where;
      EXPECT_TRUE(BitIdentical(RefMatMulNTLanes(as, bt2, m, n, k),
                               slice(nt_shared, s, m, n)))
          << "NT shared B " << where;
      EXPECT_TRUE(BitIdentical(RefMatMulTN(ats, slice(b, s, k, n), m, n, k),
                               slice(tn, s, m, n)))
          << "TN " << where;
      EXPECT_TRUE(BitIdentical(RefMatMulTN(ats, b2, m, n, k),
                               slice(tn_shared, s, m, n)))
          << "TN shared B " << where;
    }
  }
}

TEST(SimdVecMathTest, TranscendentalsTrackLibm) {
  // Dense sweep over the numerically interesting range plus the clamp
  // edges of the vectorized exp.
  std::vector<float> xs;
  for (float x = -12.0f; x <= 12.0f; x += 0.037f) xs.push_back(x);
  for (float x : {-90.0f, -87.4f, 80.0f, 88.0f, 89.0f}) xs.push_back(x);
  Tensor t(Shape{static_cast<int64_t>(xs.size())}, xs);

  Tensor e = ops::Exp(t);
  Tensor th = ops::Tanh(t);
  Tensor sg = ops::Sigmoid(t);
  for (size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    const double re = std::exp(static_cast<double>(x));
    if (re < 1e37) {  // skip overflow-to-inf comparisons
      EXPECT_NEAR(e.data()[i], re, 2e-6 * re + 1e-37) << "exp(" << x << ")";
    }
    EXPECT_NEAR(th.data()[i], std::tanh(static_cast<double>(x)), 2e-6)
        << "tanh(" << x << ")";
    EXPECT_NEAR(sg.data()[i],
                1.0 / (1.0 + std::exp(-static_cast<double>(x))), 2e-6)
        << "sigmoid(" << x << ")";
  }

  // Exactness at the identity points several tests and modules rely on.
  Tensor zero(Shape{3});
  EXPECT_EQ(ops::Exp(zero).data()[0], 1.0f);
  EXPECT_EQ(ops::Sigmoid(zero).data()[0], 0.5f);
  EXPECT_EQ(ops::Tanh(zero).data()[0], 0.0f);
}

TEST(SimdElementwiseTest, ExactOpsBitMatchScalarReference) {
  // +, -, *, /, min/max, abs, relu, sqrt are correctly rounded per lane,
  // so the vectorized kernels must reproduce the scalar results bitwise.
  Rng rng(104);
  for (int64_t size : {1, 7, 8, 9, 31, 1000}) {
    Tensor a = Tensor::Randn({size}, rng);
    Tensor b = ops::AddScalar(Tensor::Randn({size}, rng), 3.0f);  // no /0
    Tensor sum = ops::Add(a, b);
    Tensor prod = ops::Mul(a, b);
    Tensor quot = ops::Div(a, b);
    Tensor relu = ops::Relu(a);
    for (int64_t i = 0; i < size; ++i) {
      EXPECT_EQ(sum.data()[i], a.data()[i] + b.data()[i]);
      EXPECT_EQ(prod.data()[i], a.data()[i] * b.data()[i]);
      EXPECT_EQ(quot.data()[i], a.data()[i] / b.data()[i]);
      EXPECT_EQ(relu.data()[i], a.data()[i] > 0.0f ? a.data()[i] : 0.0f);
    }
  }
}

TEST(SimdSoftmaxReductionTest, AgreeWithScalarReferences) {
  Rng rng(105);
  // Rows both below the vector width (scalar row path) and well above it.
  for (int64_t last : {2, 3, 8, 17, 64}) {
    Tensor a = Tensor::Randn({5, last}, rng);
    Tensor y = ops::SoftmaxLast(a);
    Tensor s = ops::Sum(a, 1);
    Tensor mx = ops::Max(a, 1);
    for (int64_t r = 0; r < 5; ++r) {
      const float* row = a.data() + r * last;
      float m = row[0];
      for (int64_t j = 1; j < last; ++j) m = std::max(m, row[j]);
      // Max selection is exact in any order.
      EXPECT_EQ(mx.data()[r], m);
      double den = 0.0, total = 0.0;
      for (int64_t j = 0; j < last; ++j) {
        den += std::exp(static_cast<double>(row[j] - m));
        total += row[j];
      }
      EXPECT_NEAR(s.data()[r], total, 1e-5 * (1.0 + std::fabs(total)));
      double ysum = 0.0;
      for (int64_t j = 0; j < last; ++j) {
        const double want = std::exp(static_cast<double>(row[j] - m)) / den;
        EXPECT_NEAR(y.data()[r * last + j], want, 1e-5);
        ysum += y.data()[r * last + j];
      }
      EXPECT_NEAR(ysum, 1.0, 1e-5);
    }
  }
  // Reducing a non-last axis (inner > 1) exercises the columnwise path.
  Tensor b = Tensor::Randn({4, 9, 6}, rng);
  Tensor s0 = ops::Sum(b, 0);
  for (int64_t i = 0; i < 9 * 6; ++i) {
    float acc = 0.0f;
    for (int64_t o = 0; o < 4; ++o) acc += b.data()[o * 9 * 6 + i];
    EXPECT_EQ(s0.data()[i], acc);  // serial order preserved: bit-exact
  }
}

class ThreadRestore {
 public:
  ~ThreadRestore() { runtime::SetNumThreads(0); }
};

TEST(SimdDeterminismTest, KernelsBitIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  Rng rng(106);
  Tensor a = Tensor::Randn({65, 65}, rng);
  Tensor b = Tensor::Randn({65, 65}, rng);
  Tensor big = Tensor::Randn({37, 129}, rng);
  auto run_all = [&] {
    std::vector<Tensor> outs;
    outs.push_back(ops::MatMul(a, b));
    outs.push_back(ops::MatMulNT(a, b));
    outs.push_back(ops::MatMulTN(a, b));
    outs.push_back(ops::SoftmaxLast(big));
    outs.push_back(ops::Tanh(big));
    outs.push_back(ops::Sigmoid(big));
    outs.push_back(ops::Sum(big, 1));
    outs.push_back(ops::Mul(a, b));
    return outs;
  };
  runtime::SetNumThreads(1);
  std::vector<Tensor> ref = run_all();
  runtime::SetNumThreads(4);
  std::vector<Tensor> out = run_all();
  ASSERT_EQ(ref.size(), out.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(BitIdentical(ref[i], out[i])) << "kernel " << i;
  }
}

// End-to-end: a short ST-WA training run must produce bit-identical
// losses and metrics at 1 vs 4 worker threads with the SIMD kernels
// active (ragged ParallelFor chunk tails are handled with partial-vector
// loads, never scalar remainder loops — see simd/simd.h).
TEST(SimdDeterminismTest, TrainingBitIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  data::GeneratorOptions o;
  o.num_roads = 2;
  o.sensors_per_road = 2;
  o.num_days = 5;
  o.steps_per_day = 96;
  o.seed = 77;
  data::TrafficDataset dataset = data::GenerateTraffic(o);

  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 3;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  settings.seed = 7;

  train::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.stride = 4;
  config.eval_stride = 4;

  std::vector<std::vector<double>> histories;
  std::vector<double> maes;
  for (int threads : {1, 4}) {
    config.num_threads = threads;
    auto model = baselines::MakeModel("ST-WA", dataset, settings);
    train::Trainer trainer(dataset, settings.history, settings.horizon,
                           config);
    train::TrainResult r = trainer.Fit(*model);
    histories.push_back(r.val_mae_history);
    maes.push_back(r.test.mae);
  }
  ASSERT_EQ(histories[0].size(), histories[1].size());
  for (size_t e = 0; e < histories[0].size(); ++e) {
    EXPECT_EQ(histories[0][e], histories[1][e]) << "epoch " << e;
  }
  EXPECT_EQ(maes[0], maes[1]);
}

}  // namespace
}  // namespace stwa
