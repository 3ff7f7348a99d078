// Tests for the reduced-precision serving tiers (simd/lowp.h,
// simd/gemm_lowp.h, tensor/lowp_cache.h): conversion error bounds,
// quantiser edge cases, kernel-vs-reference bit-exactness, the weight
// cache, MatMul routing and cross-thread determinism.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "simd/gemm_lowp.h"
#include "simd/lowp.h"
#include "tensor/lowp_cache.h"
#include "tensor/ops.h"

namespace stwa {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// bf16 conversion

TEST(LowpBf16Test, RoundTripErrorWithinHalfUlp) {
  // bf16 stores 7 explicit mantissa bits, so the RNE round-trip error is
  // at most half an ulp: 2^-8 relative for normal values.
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.Normal() * 100.0f;
    if (x == 0.0f) continue;
    const float back = F32FromBf16(Bf16FromF32(x));
    EXPECT_LE(std::abs(back - x), std::abs(x) * (1.0f / 256.0f)) << x;
  }
}

TEST(LowpBf16Test, ValuesWithShortMantissaAreExact) {
  // Anything representable in 8 mantissa bits survives the pack
  // unchanged.
  for (float x : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -96.0f, 1.5f, 0.15625f}) {
    EXPECT_EQ(F32FromBf16(Bf16FromF32(x)), x);
  }
}

TEST(LowpBf16Test, RoundToNearestEvenIsUnbiased) {
  // RNE rounds both ways, so over many values its mean signed error stays
  // far below the one-sided half-ulp bias a truncating pack would have
  // (about -2^-7 for values near 3, where the bf16 ulp is 2^-6).
  Rng rng(12);
  double rne_signed = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float x = rng.Normal() + 3.0f;  // positive-heavy
    rne_signed += F32FromBf16(Bf16FromF32(x)) - x;
  }
  EXPECT_LT(std::abs(rne_signed / n), 0.1 * std::ldexp(1.0, -7));
}

TEST(LowpBf16Test, NanStaysNanAndInfStaysInf) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(F32FromBf16(Bf16FromF32(nan))));
  EXPECT_EQ(F32FromBf16(Bf16FromF32(inf)), inf);
  EXPECT_EQ(F32FromBf16(Bf16FromF32(-inf)), -inf);
}

// ---------------------------------------------------------------------------
// int8 quantisation

TEST(LowpInt8Test, PerChannelRoundTripWithinHalfScale)  {
  // RNE quantisation: |x - dequant(quant(x))| <= scale / 2 for in-range x.
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> channel(64);
    float absmax = 0.0f;
    for (float& v : channel) {
      v = rng.Normal() * (trial + 1);
      absmax = std::max(absmax, std::abs(v));
    }
    const float scale = Int8Scale(absmax, kInt8QMax);
    ASSERT_GT(scale, 0.0f);
    for (float v : channel) {
      const int8_t q = QuantizeInt8(v, scale, kInt8QMax);
      EXPECT_LE(std::abs(v - static_cast<float>(q) * scale),
                scale * 0.5f + 1e-6f)
          << v;
    }
  }
}

TEST(LowpInt8Test, ZeroRangeChannelQuantisesToExactZero) {
  // A constant-zero channel has absmax 0 -> scale 0; the quantiser maps
  // everything to 0 and dequant reproduces the zero channel exactly,
  // without ever dividing by the scale.
  EXPECT_EQ(Int8Scale(0.0f, kInt8QMax), 0.0f);
  EXPECT_EQ(QuantizeInt8(0.0f, 0.0f, kInt8QMax), 0);
  EXPECT_EQ(QuantizeInt8(123.0f, 0.0f, kInt8QMax), 0);
}

TEST(LowpInt8Test, DenormalAndNonFiniteAbsmaxYieldZeroScale) {
  // A denormal absmax would underflow absmax/127 to 0 or a denormal —
  // either way the channel is treated as zero instead of producing inf
  // on dequant. Non-finite absmax (a corrupted weight) likewise.
  const float denormal = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(Int8Scale(denormal, kInt8QMax), 0.0f);
  EXPECT_EQ(Int8Scale(std::numeric_limits<float>::infinity(), kInt8QMax),
            0.0f);
  EXPECT_EQ(Int8Scale(std::numeric_limits<float>::quiet_NaN(), kInt8QMax),
            0.0f);
  EXPECT_EQ(Int8Scale(-1.0f, kInt8QMax), 0.0f);
}

TEST(LowpInt8Test, OverflowSaturatesAndNanQuantisesToZero) {
  const float scale = Int8Scale(1.0f, kInt8QMax);  // grid for [-1, 1]
  EXPECT_EQ(QuantizeInt8(1e30f, scale, kInt8QMax), 127);
  EXPECT_EQ(QuantizeInt8(-1e30f, scale, kInt8QMax), -127);
  EXPECT_EQ(QuantizeInt8(std::numeric_limits<float>::quiet_NaN(), scale,
                         kInt8QMax),
            0);
}

TEST(LowpInt8Test, ChannelScalesMatchAbsMaxFormula) {
  Rng rng(14);
  const int64_t k = 17, n = 9;
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : b) v = rng.Normal();
  b[3] = 0.0f;  // keep one extreme in play
  const std::vector<float> absmax = ChannelAbsMax(b.data(), k, n, false);
  const std::vector<float> scales = Int8ChannelScales(b.data(), k, n, false);
  ASSERT_EQ(absmax.size(), static_cast<size_t>(n));
  ASSERT_EQ(scales.size(), static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    float want = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      want = std::max(want, std::abs(b[static_cast<size_t>(kk * n + j)]));
    }
    EXPECT_EQ(absmax[static_cast<size_t>(j)], want);
    EXPECT_EQ(scales[static_cast<size_t>(j)], Int8Scale(want, kInt8QMax));
  }
}

// ---------------------------------------------------------------------------
// Kernel vs scalar reference bit-exactness

struct GemmCase {
  int64_t m, n, k;
};

// Shapes straddling the microkernel tile boundaries (MR multiples, NR
// multiples, ragged edges, odd k).
const GemmCase kCases[] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 8},
                           {12, 32, 4}, {13, 33, 17}, {7, 31, 33},
                           {24, 64, 40}, {5, 130, 3}};

TEST(LowpGemmTest, Bf16KernelBitExactVsReference) {
  Rng rng(15);
  for (const GemmCase& c : kCases) {
    std::vector<float> a(static_cast<size_t>(c.m * c.k));
    std::vector<float> b(static_cast<size_t>(c.k * c.n));
    for (float& v : a) v = rng.Normal();
    for (float& v : b) v = rng.Normal();
    const auto w = PackWeights(b.data(), c.k, c.n, false, Precision::kBf16,
                               nullptr);
    std::vector<float> got(static_cast<size_t>(c.m * c.n), -1.0f);
    std::vector<float> want(static_cast<size_t>(c.m * c.n), -2.0f);
    GemmLowp(a.data(), *w, got.data(), c.m, false);
    GemmBf16Ref(a.data(), *w, want.data(), c.m, false);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * got.size()),
              0)
        << c.m << "x" << c.n << "x" << c.k;
  }
}

TEST(LowpGemmTest, Int8KernelBitExactVsReference) {
  Rng rng(16);
  for (const GemmCase& c : kCases) {
    std::vector<float> a(static_cast<size_t>(c.m * c.k));
    std::vector<float> b(static_cast<size_t>(c.k * c.n));
    for (float& v : a) v = rng.Normal();
    for (float& v : b) v = rng.Normal();
    const auto w = PackWeights(b.data(), c.k, c.n, false, Precision::kInt8,
                               nullptr);
    std::vector<float> got(static_cast<size_t>(c.m * c.n), -1.0f);
    std::vector<float> want(static_cast<size_t>(c.m * c.n), -2.0f);
    GemmLowp(a.data(), *w, got.data(), c.m, false);
    GemmInt8Ref(a.data(), *w, want.data(), c.m, false);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * got.size()),
              0)
        << c.m << "x" << c.n << "x" << c.k;
  }
}

TEST(LowpGemmTest, TransposedOperandsBitExactVsReference) {
  Rng rng(17);
  const int64_t m = 13, n = 33, k = 21;
  std::vector<float> at(static_cast<size_t>(k * m));  // op(A) via trans_a
  std::vector<float> bt(static_cast<size_t>(n * k));  // op(B) via trans
  for (float& v : at) v = rng.Normal();
  for (float& v : bt) v = rng.Normal();
  for (const Precision tier : {Precision::kBf16, Precision::kInt8}) {
    const auto w = PackWeights(bt.data(), k, n, /*trans=*/true, tier,
                               nullptr);
    std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
    std::vector<float> want(static_cast<size_t>(m * n), -2.0f);
    GemmLowp(at.data(), *w, got.data(), m, /*trans_a=*/true);
    if (tier == Precision::kBf16) {
      GemmBf16Ref(at.data(), *w, want.data(), m, true);
    } else {
      GemmInt8Ref(at.data(), *w, want.data(), m, true);
    }
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * got.size()),
              0)
        << PrecisionName(tier);
  }
}

TEST(LowpGemmTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(18);
  const int64_t m = 96, n = 80, k = 64;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : a) v = rng.Normal();
  for (float& v : b) v = rng.Normal();
  for (const Precision tier : {Precision::kBf16, Precision::kInt8}) {
    const auto w = PackWeights(b.data(), k, n, false, tier, nullptr);
    std::vector<float> ref(static_cast<size_t>(m * n));
    runtime::SetNumThreads(1);
    GemmLowp(a.data(), *w, ref.data(), m, false);
    for (const int threads : {2, 4}) {
      runtime::SetNumThreads(threads);
      std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
      GemmLowp(a.data(), *w, got.data(), m, false);
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            sizeof(float) * got.size()),
                0)
          << PrecisionName(tier) << " at " << threads << " threads";
    }
    runtime::SetNumThreads(0);
  }
}

TEST(LowpGemmTest, BakedScalesReproduceComputedScalesBitExactly) {
  // The checkpoint bakes Int8ChannelScales at save; a session passes them
  // into PackWeights. Both routes must produce identical panels.
  Rng rng(19);
  const int64_t k = 40, n = 24, m = 9;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : a) v = rng.Normal();
  for (float& v : b) v = rng.Normal();
  const std::vector<float> baked = Int8ChannelScales(b.data(), k, n, false);
  const auto w_baked =
      PackWeights(b.data(), k, n, false, Precision::kInt8, &baked);
  const auto w_fresh =
      PackWeights(b.data(), k, n, false, Precision::kInt8, nullptr);
  std::vector<float> c_baked(static_cast<size_t>(m * n));
  std::vector<float> c_fresh(static_cast<size_t>(m * n));
  GemmLowp(a.data(), *w_baked, c_baked.data(), m, false);
  GemmLowp(a.data(), *w_fresh, c_fresh.data(), m, false);
  EXPECT_EQ(std::memcmp(c_baked.data(), c_fresh.data(),
                        sizeof(float) * c_baked.size()),
            0);
}

// ---------------------------------------------------------------------------
// Precision parsing / sizing

TEST(LowpPrecisionTest, NamesParseAndRoundTrip) {
  EXPECT_EQ(ParsePrecision("fp32"), Precision::kFp32);
  EXPECT_EQ(ParsePrecision("bf16"), Precision::kBf16);
  EXPECT_EQ(ParsePrecision("int8"), Precision::kInt8);
  EXPECT_STREQ(PrecisionName(Precision::kBf16), "bf16");
  EXPECT_THROW(ParsePrecision("fp16"), Error);
  EXPECT_THROW(ParsePrecision(""), Error);
}

}  // namespace
}  // namespace simd

// ---------------------------------------------------------------------------
// Weight cache + MatMul routing (tensor layer)

namespace lowp {
namespace {

TEST(LowpCacheTest, RegisterFindUnregister) {
  Rng rng(20);
  const int64_t k = 12, n = 20;
  Tensor b = Tensor::Randn({k, n}, rng);
  ASSERT_EQ(Find(b.data(), k, n, false), nullptr);
  const int64_t before = ActiveCount();
  Register(b.data(), simd::PackWeights(b.data(), k, n, false,
                                       simd::Precision::kBf16, nullptr));
  EXPECT_EQ(ActiveCount(), before + 1);
  EXPECT_GT(TotalPanelBytes(), 0);
  auto hit = Find(b.data(), k, n, false);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tier, simd::Precision::kBf16);
  // Any dimension or orientation mismatch is a miss, never a wrong hit.
  EXPECT_EQ(Find(b.data(), k + 1, n, false), nullptr);
  EXPECT_EQ(Find(b.data(), k, n - 1, false), nullptr);
  EXPECT_EQ(Find(b.data(), k, n, true), nullptr);
  Unregister(b.data());
  EXPECT_EQ(ActiveCount(), before);
  EXPECT_EQ(Find(b.data(), k, n, false), nullptr);
}

TEST(LowpCacheTest, MatMulRoutesThroughRegisteredPack) {
  Rng rng(21);
  const int64_t m = 10, k = 24, n = 18;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor fp32_out = ops::MatMul(a, b).Clone();

  const auto pack = simd::PackWeights(b.data(), k, n, false,
                                      simd::Precision::kBf16, nullptr);
  Tensor want = Tensor::Uninit({m, n});
  simd::GemmBf16Ref(a.data(), *pack, want.data(), m, false);

  Register(b.data(), pack);
  Tensor got = ops::MatMul(a, b);
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "rank-2 MatMul did not dispatch to the registered bf16 pack";
  Unregister(b.data());

  // After unregistering, the fp32 path is back, bit-for-bit.
  Tensor again = ops::MatMul(a, b);
  EXPECT_EQ(std::memcmp(again.data(), fp32_out.data(),
                        sizeof(float) * static_cast<size_t>(again.size())),
            0);
}

TEST(LowpCacheTest, BatchedMatMulWithRankTwoWeightRoutes) {
  // The nn::Linear pattern: x is [B, T, k], the weight is rank-2 [k, n].
  Rng rng(22);
  const int64_t batch = 3, t = 5, k = 16, n = 12;
  Tensor x = Tensor::Randn({batch, t, k}, rng);
  Tensor w = Tensor::Randn({k, n}, rng);
  const auto pack = simd::PackWeights(w.data(), k, n, false,
                                      simd::Precision::kInt8, nullptr);
  Tensor want = Tensor::Uninit({batch * t, n});
  simd::GemmInt8Ref(x.data(), *pack, want.data(), batch * t, false);

  Register(w.data(), pack);
  Tensor got = ops::MatMul(x, w);
  Unregister(w.data());
  ASSERT_EQ(got.shape(), (Shape{batch, t, n}));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "batched MatMul did not flatten onto the registered int8 pack";
}

TEST(LowpCacheTest, BatchedMatMulNTFlattensOntoTransposedPack) {
  // A shared [n, k] weight used as B^T: a rank-3 A flattens its batch
  // into one GEMM over the trans=true pack.
  Rng rng(23);
  const int64_t batch = 2, m = 7, k = 20, n = 9;
  Tensor x = Tensor::Randn({batch, m, k}, rng);
  Tensor w = Tensor::Randn({n, k}, rng);
  const auto pack = simd::PackWeights(w.data(), k, n, /*trans=*/true,
                                      simd::Precision::kBf16, nullptr);
  Tensor want = Tensor::Uninit({batch * m, n});
  simd::GemmBf16Ref(x.data(), *pack, want.data(), batch * m, false);

  Register(w.data(), pack);
  Tensor got = ops::MatMulNT(x, w);
  Unregister(w.data());
  ASSERT_EQ(got.shape(), (Shape{batch, m, n}));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "batched MatMulNT did not flatten onto the registered bf16 pack";
}

TEST(LowpCacheTest, Rank2MatMulTNRunsPackWithTransposedA) {
  // op(B) is B's natural [k, n] layout, so an NN pack serves rank-2 TN
  // with GemmLowp reading A transposed.
  Rng rng(24);
  const int64_t m = 11, k = 14, n = 10;
  Tensor at = Tensor::Randn({k, m}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  const auto pack = simd::PackWeights(b.data(), k, n, false,
                                      simd::Precision::kInt8, nullptr);
  Tensor want = Tensor::Uninit({m, n});
  simd::GemmInt8Ref(at.data(), *pack, want.data(), m, /*trans_a=*/true);

  Register(b.data(), pack);
  Tensor got = ops::MatMulTN(at, b);
  Unregister(b.data());
  ASSERT_EQ(got.shape(), (Shape{m, n}));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "rank-2 MatMulTN did not dispatch to the registered int8 pack";
}

TEST(LowpCacheTest, BatchedMatMulTNIgnoresRegisteredPack) {
  // A rank-3 A^T has no contiguous rows to flatten, so a registered pack
  // for B is not used and the product stays fp32.
  Rng rng(25);
  const int64_t batch = 2, m = 6, k = 13, n = 8;
  Tensor at = Tensor::Randn({batch, k, m}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor fp32_out = ops::MatMulTN(at, b).Clone();

  Register(b.data(), simd::PackWeights(b.data(), k, n, false,
                                       simd::Precision::kBf16, nullptr));
  Tensor got = ops::MatMulTN(at, b);
  Unregister(b.data());
  EXPECT_EQ(std::memcmp(got.data(), fp32_out.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "batched MatMulTN used the registered pack";
}

}  // namespace
}  // namespace lowp
}  // namespace stwa
