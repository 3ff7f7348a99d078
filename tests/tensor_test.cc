// Unit and property tests for the dense tensor and its kernels.

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace stwa {
namespace {

using ops::AllClose;

TEST(TensorBasics, DefaultConstructedIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
}

TEST(TensorBasics, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorBasics, FullFillsValue) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
}

TEST(TensorBasics, InitializerListIsOneD) {
  Tensor t{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(t.shape(), (Shape{3}));
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(TensorBasics, MultiIndexAccessRowMajor) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ((t({0, 0})), 0.0f);
  EXPECT_EQ((t({0, 2})), 2.0f);
  EXPECT_EQ((t({1, 0})), 3.0f);
  EXPECT_EQ((t({1, 2})), 5.0f);
}

TEST(TensorBasics, OutOfRangeIndexThrows) {
  Tensor t = Tensor::Zeros({2, 2});
  EXPECT_THROW((t({2, 0})), Error);
  EXPECT_THROW(t.at(4), Error);
}

TEST(TensorBasics, ValueCountMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), Error);
}

TEST(TensorBasics, NegativeDimThrows) {
  EXPECT_THROW(Tensor(Shape{-1, 2}), Error);
}

TEST(TensorBasics, SharedBufferCopySemantics) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = a;
  b.at(0) = 7.0f;
  EXPECT_EQ(a.at(0), 7.0f) << "copies alias the same buffer";
  Tensor c = a.Clone();
  c.at(1) = 9.0f;
  EXPECT_EQ(a.at(1), 0.0f) << "Clone must deep copy";
}

TEST(TensorBasics, ReshapeSharesBuffer) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b = a.Reshape({3, 2});
  EXPECT_EQ((b({2, 1})), 5.0f);
  b.at(0) = 42.0f;
  EXPECT_EQ(a.at(0), 42.0f);
  EXPECT_THROW(a.Reshape({4, 2}), Error);
}

TEST(TensorBasics, ItemRequiresSingleElement) {
  EXPECT_EQ(Tensor({1}, {3.5f}).item(), 3.5f);
  EXPECT_THROW(Tensor::Zeros({2}).item(), Error);
}

TEST(TensorBasics, ArangeAndEye) {
  Tensor r = Tensor::Arange(4, 1.0f, 0.5f);
  EXPECT_EQ(r.at(0), 1.0f);
  EXPECT_EQ(r.at(3), 2.5f);
  Tensor eye = Tensor::Eye(3);
  EXPECT_EQ((eye({1, 1})), 1.0f);
  EXPECT_EQ((eye({1, 2})), 0.0f);
}

TEST(TensorBasics, RandnIsDeterministicFromSeed) {
  Rng rng1(42);
  Rng rng2(42);
  Tensor a = Tensor::Randn({16}, rng1);
  Tensor b = Tensor::Randn({16}, rng2);
  EXPECT_TRUE(AllClose(a, b, 0.0f, 0.0f));
}

// --- Elementwise / broadcasting -------------------------------------------

TEST(TensorOps, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = ops::Add(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {11, 22, 33, 44})));
}

TEST(TensorOps, BroadcastRowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  Tensor c = ops::Add(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(TensorOps, BroadcastColumnVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({2, 1}, {100, 200});
  Tensor c = ops::Add(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {101, 102, 103, 204, 205, 206})));
}

TEST(TensorOps, BroadcastBothSides) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({1, 3}, {10, 20, 30});
  Tensor c = ops::Mul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {10, 20, 30, 20, 40, 60})));
}

TEST(TensorOps, BroadcastScalarTensor) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor s(Shape{}, 2.0f);
  Tensor c = ops::Mul(a, s);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {2, 4, 6, 8})));
}

TEST(TensorOps, IncompatibleBroadcastThrows) {
  EXPECT_THROW(ops::Add(Tensor::Zeros({2, 3}), Tensor::Zeros({2, 4})),
               Error);
}

TEST(TensorOps, SubDivMaximum) {
  Tensor a({3}, {4, 9, -2});
  Tensor b({3}, {2, 3, 5});
  EXPECT_TRUE(AllClose(ops::Sub(a, b), Tensor({3}, {2, 6, -7})));
  EXPECT_TRUE(AllClose(ops::Div(a, b), Tensor({3}, {2, 3, -0.4f})));
  EXPECT_TRUE(AllClose(ops::Maximum(a, b), Tensor({3}, {4, 9, 5})));
  EXPECT_TRUE(AllClose(ops::Minimum(a, b), Tensor({3}, {2, 3, -2})));
}

TEST(TensorOps, UnaryFunctions) {
  Tensor a({3}, {0.0f, 1.0f, -1.0f});
  EXPECT_TRUE(AllClose(ops::Relu(a), Tensor({3}, {0, 1, 0})));
  EXPECT_TRUE(AllClose(ops::Neg(a), Tensor({3}, {0, -1, 1})));
  EXPECT_TRUE(AllClose(ops::Abs(a), Tensor({3}, {0, 1, 1})));
  EXPECT_TRUE(AllClose(ops::Square(a), Tensor({3}, {0, 1, 1})));
  EXPECT_NEAR(ops::Exp(a).at(1), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(ops::Sigmoid(a).at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(ops::Tanh(a).at(2), std::tanh(-1.0f), 1e-6f);
}

// Randomised property sweep: broadcasting Add/Mul against a naive
// reference computed with explicit index arithmetic.
class BroadcastSweep : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastSweep, MatchesNaiveReference) {
  Rng rng(500 + GetParam());
  // Draw a random output shape of rank 1..4 with small extents, then
  // derive two input shapes by dropping leading axes / squashing random
  // axes to 1.
  const int64_t rank = 1 + rng.UniformInt(4);
  Shape out_shape(rank);
  for (int64_t d = 0; d < rank; ++d) out_shape[d] = 1 + rng.UniformInt(4);
  auto derive = [&]() {
    int64_t drop = rng.UniformInt(rank);
    Shape s(out_shape.begin() + drop, out_shape.end());
    for (auto& e : s) {
      if (rng.Uniform() < 0.3f) e = 1;
    }
    if (s.empty()) s.push_back(1);
    return s;
  };
  Shape sa = derive();
  Shape sb = derive();
  Tensor a = Tensor::Randn(sa, rng);
  Tensor b = Tensor::Randn(sb, rng);
  Shape result_shape = ops::BroadcastShapes(sa, sb);
  Tensor got = ops::Add(a, b);
  ASSERT_EQ(got.shape(), result_shape);

  // Naive reference: explicit coordinate mapping.
  auto fetch = [](const Tensor& t, const Shape& out,
                  const std::vector<int64_t>& coord) {
    const Shape& shape = t.shape();
    int64_t flat = 0;
    const int64_t offset = static_cast<int64_t>(out.size()) -
                           static_cast<int64_t>(shape.size());
    for (size_t d = 0; d < shape.size(); ++d) {
      const int64_t c = shape[d] == 1 ? 0 : coord[d + offset];
      flat = flat * shape[d] + c;
    }
    return t.at(flat);
  };
  const int64_t total = NumElements(result_shape);
  std::vector<int64_t> coord(result_shape.size(), 0);
  for (int64_t flat = 0; flat < total; ++flat) {
    int64_t rem = flat;
    for (int64_t d = static_cast<int64_t>(result_shape.size()) - 1; d >= 0;
         --d) {
      coord[d] = rem % result_shape[d];
      rem /= result_shape[d];
    }
    const float expected = fetch(a, result_shape, coord) +
                           fetch(b, result_shape, coord);
    ASSERT_NEAR(got.at(flat), expected, 1e-5f)
        << "shape a=" << ShapeToString(sa) << " b=" << ShapeToString(sb)
        << " flat=" << flat;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, BroadcastSweep,
                         ::testing::Range(0, 20));

// --- MatMul ------------------------------------------------------------

TEST(TensorOps, MatMul2DKnownValues) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(TensorOps, MatMulInnerMismatchThrows) {
  EXPECT_THROW(ops::MatMul(Tensor::Zeros({2, 3}), Tensor::Zeros({2, 3})),
               Error);
}

TEST(TensorOps, BatchedMatMulEqualBatches) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 3, 5}, rng);
  Tensor b = Tensor::Randn({4, 5, 2}, rng);
  Tensor c = ops::MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{4, 3, 2}));
  // Check batch 2 against the 2-D kernel.
  Tensor a2 = ops::Slice(a, 0, 2, 1).Reshape({3, 5});
  Tensor b2 = ops::Slice(b, 0, 2, 1).Reshape({5, 2});
  Tensor c2 = ops::Slice(c, 0, 2, 1).Reshape({3, 2});
  EXPECT_TRUE(AllClose(c2, ops::MatMul(a2, b2)));
}

TEST(TensorOps, MatMulNTMatchesTransposeThenMatMul) {
  Rng rng(11);
  Tensor a = Tensor::Randn({4, 3, 5}, rng);
  Tensor b = Tensor::Randn({4, 7, 5}, rng);
  Tensor fused = ops::MatMulNT(a, b);
  Tensor ref = ops::MatMul(a, ops::TransposeLast2(b));
  ASSERT_EQ(fused.shape(), (Shape{4, 3, 7}));
  EXPECT_TRUE(AllClose(fused, ref));
  // Odd inner extent exercises the scalar tail of the blocked dot.
  Tensor a2 = Tensor::Randn({3, 13}, rng);
  Tensor b2 = Tensor::Randn({6, 13}, rng);
  EXPECT_TRUE(AllClose(ops::MatMulNT(a2, b2),
                       ops::MatMul(a2, ops::TransposeLast2(b2))));
}

TEST(TensorOps, MatMulTNMatchesTransposeThenMatMul) {
  Rng rng(12);
  Tensor a = Tensor::Randn({4, 5, 3}, rng);
  Tensor b = Tensor::Randn({4, 5, 7}, rng);
  Tensor fused = ops::MatMulTN(a, b);
  Tensor ref = ops::MatMul(ops::TransposeLast2(a), b);
  ASSERT_EQ(fused.shape(), (Shape{4, 3, 7}));
  EXPECT_TRUE(AllClose(fused, ref));
}

TEST(TensorOps, MatMulNTSharedRank2Operand) {
  Rng rng(13);
  Tensor g = Tensor::Randn({3, 2, 5}, rng);
  Tensor w = Tensor::Randn({4, 5}, rng);  // shared across the batch
  Tensor fused = ops::MatMulNT(g, w);
  ASSERT_EQ(fused.shape(), (Shape{3, 2, 4}));
  EXPECT_TRUE(AllClose(fused, ops::MatMul(g, ops::TransposeLast2(w))));
}

TEST(TensorOps, MatMulNTInnerMismatchThrows) {
  EXPECT_THROW(ops::MatMulNT(Tensor::Zeros({2, 3}), Tensor::Zeros({4, 5})),
               Error);
  EXPECT_THROW(ops::MatMulTN(Tensor::Zeros({3, 2}), Tensor::Zeros({5, 4})),
               Error);
}

TEST(TensorOps, BatchedMatMulSharedRhs) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 2, 4}, rng);
  Tensor w = Tensor::Randn({4, 5}, rng);
  Tensor c = ops::MatMul(a, w);
  ASSERT_EQ(c.shape(), (Shape{3, 2, 5}));
  Tensor a0 = ops::Slice(a, 0, 1, 1).Reshape({2, 4});
  Tensor c0 = ops::Slice(c, 0, 1, 1).Reshape({2, 5});
  EXPECT_TRUE(AllClose(c0, ops::MatMul(a0, w)));
}

TEST(TensorOps, BatchedMatMulSharedLhs) {
  Rng rng(3);
  Tensor a = Tensor::Randn({2, 4}, rng);
  Tensor b = Tensor::Randn({3, 4, 5}, rng);
  Tensor c = ops::MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{3, 2, 5}));
  Tensor b1 = ops::Slice(b, 0, 1, 1).Reshape({4, 5});
  Tensor c1 = ops::Slice(c, 0, 1, 1).Reshape({2, 5});
  EXPECT_TRUE(AllClose(c1, ops::MatMul(a, b1)));
}

TEST(TensorOps, BatchedMatMulBroadcastBatchDims) {
  Rng rng(4);
  // [2, 1, 3, 4] x [1, 5, 4, 2] -> [2, 5, 3, 2]
  Tensor a = Tensor::Randn({2, 1, 3, 4}, rng);
  Tensor b = Tensor::Randn({1, 5, 4, 2}, rng);
  Tensor c = ops::MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 5, 3, 2}));
}

// Property sweep: batched MatMul equals per-slice rank-2 MatMul.
class MatMulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatMulSweep, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(100 + m * 7 + k * 3 + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = ops::MatMul(a, b);
  // Naive triple loop.
  Tensor expected(Shape{m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        acc += a({i, kk}) * b({kk, j});
      }
      expected({i, j}) = acc;
    }
  }
  EXPECT_TRUE(AllClose(c, expected, 1e-4f, 1e-4f))
      << "m=" << m << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 5),
                      std::make_tuple(8, 1, 8), std::make_tuple(5, 9, 3),
                      std::make_tuple(16, 16, 16), std::make_tuple(3, 32, 2),
                      std::make_tuple(33, 17, 9)));

// --- Structure ------------------------------------------------------------

TEST(TensorOps, TransposeLast2) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ((t({0, 1})), 4.0f);
  EXPECT_EQ((t({2, 0})), 3.0f);
}

TEST(TensorOps, PermuteRoundTrip) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 3, 4}, rng);
  Tensor p = ops::Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  Tensor back = ops::Permute(p, {1, 2, 0});
  EXPECT_TRUE(AllClose(back, a, 0.0f, 0.0f));
}

TEST(TensorOps, PermuteValues) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor p = ops::Permute(a, {1, 0});
  EXPECT_TRUE(AllClose(p, Tensor({2, 2}, {1, 3, 2, 4})));
}

TEST(TensorOps, InvalidPermutationThrows) {
  Tensor a = Tensor::Zeros({2, 2});
  EXPECT_THROW(ops::Permute(a, {0, 0}), Error);
  EXPECT_THROW(ops::Permute(a, {0}), Error);
}

TEST(TensorOps, ConcatAxis0And1) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({1, 2}, {5, 6});
  Tensor c0 = ops::Concat({a, b}, 0);
  EXPECT_TRUE(AllClose(c0, Tensor({3, 2}, {1, 2, 3, 4, 5, 6})));
  Tensor d({2, 1}, {7, 8});
  Tensor c1 = ops::Concat({a, d}, 1);
  EXPECT_TRUE(AllClose(c1, Tensor({2, 3}, {1, 2, 7, 3, 4, 8})));
}

TEST(TensorOps, ConcatMismatchThrows) {
  EXPECT_THROW(ops::Concat({Tensor::Zeros({2, 2}), Tensor::Zeros({2, 3})},
                           0),
               Error);
}

TEST(TensorOps, SliceMiddle) {
  Tensor a({2, 4}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor s = ops::Slice(a, 1, 1, 2);
  EXPECT_TRUE(AllClose(s, Tensor({2, 2}, {1, 2, 5, 6})));
  EXPECT_THROW(ops::Slice(a, 1, 3, 2), Error);
}

TEST(TensorOps, SliceConcatRoundTrip) {
  Rng rng(11);
  Tensor a = Tensor::Randn({3, 5, 2}, rng);
  Tensor s0 = ops::Slice(a, 1, 0, 2);
  Tensor s1 = ops::Slice(a, 1, 2, 3);
  Tensor joined = ops::Concat({s0, s1}, 1);
  EXPECT_TRUE(AllClose(joined, a, 0.0f, 0.0f));
}

TEST(TensorOps, StackAddsLeadingAxis) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  Tensor s = ops::Stack({a, b});
  EXPECT_TRUE(AllClose(s, Tensor({2, 2}, {1, 2, 3, 4})));
}

TEST(TensorOps, IndexSelectAndScatterAdd) {
  Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor sel = ops::IndexSelect0(a, {2, 0, 2});
  EXPECT_TRUE(AllClose(sel, Tensor({3, 2}, {5, 6, 1, 2, 5, 6})));

  Tensor dst = Tensor::Zeros({3, 2});
  ops::ScatterAddRows(dst, {2, 0, 2}, sel);
  EXPECT_TRUE(AllClose(dst, Tensor({3, 2}, {1, 2, 0, 0, 10, 12})));
  EXPECT_THROW(ops::IndexSelect0(a, {3}), Error);
}

// --- Reductions ---------------------------------------------------------

TEST(TensorOps, SumAllMeanAll) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(ops::SumAll(a).item(), 10.0f);
  EXPECT_EQ(ops::MeanAll(a).item(), 2.5f);
}

TEST(TensorOps, SumAxisKeepAndSqueeze) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = ops::Sum(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_TRUE(AllClose(s0, Tensor({3}, {5, 7, 9})));
  Tensor s1 = ops::Sum(a, 1, /*keepdims=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_TRUE(AllClose(s1, Tensor({2, 1}, {6, 15})));
  Tensor m1 = ops::Mean(a, -1);
  EXPECT_TRUE(AllClose(m1, Tensor({2}, {2, 5})));
}

TEST(TensorOps, MaxAndArgMax) {
  Tensor a({2, 3}, {1, 9, 3, 7, 5, 6});
  Tensor mx = ops::Max(a, 1);
  EXPECT_TRUE(AllClose(mx, Tensor({2}, {9, 7})));
  Tensor am = ops::ArgMaxLast(a);
  EXPECT_TRUE(AllClose(am, Tensor({2}, {1, 0})));
}

TEST(TensorOps, ReduceToShapeSumsBroadcastAxes) {
  Tensor g({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ops::ReduceToShape(g, {3});
  EXPECT_TRUE(AllClose(r, Tensor({3}, {5, 7, 9})));
  Tensor r2 = ops::ReduceToShape(g, {2, 1});
  EXPECT_TRUE(AllClose(r2, Tensor({2, 1}, {6, 15})));
  Tensor r3 = ops::ReduceToShape(g, {});
  EXPECT_EQ(r3.item(), 21.0f);
  Tensor same = ops::ReduceToShape(g, {2, 3});
  EXPECT_TRUE(AllClose(same, g, 0.0f, 0.0f));
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor a = Tensor::Randn({4, 7}, rng);
  Tensor s = ops::SoftmaxLast(a);
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int64_t j = 0; j < 7; ++j) total += s({r, j});
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorOps, SoftmaxIsShiftInvariantAndStable) {
  Tensor a({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor s = ops::SoftmaxLast(a);
  EXPECT_FALSE(std::isnan(s.at(0)));
  Tensor b({1, 3}, {0.0f, 1.0f, 2.0f});
  EXPECT_TRUE(AllClose(s, ops::SoftmaxLast(b), 1e-5f, 1e-6f));
}

TEST(TensorOps, AllCloseDetectsDifferences) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.1f});
  EXPECT_FALSE(AllClose(a, b, 1e-3f, 1e-3f));
  EXPECT_TRUE(AllClose(a, b, 0.1f, 0.0f));
  EXPECT_FALSE(AllClose(a, Tensor::Zeros({3})));
  EXPECT_NEAR(ops::MaxAbsDiff(a, b), 0.1f, 1e-6f);
}

// --- Rng -----------------------------------------------------------------

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    float u = rng.Uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(10);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    float x = rng.Normal();
    sum += x;
    sum_sq += static_cast<double>(x) * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(11);
  auto perm = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int64_t v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng rng(12);
  Rng child = rng.Fork();
  EXPECT_NE(rng.NextU64(), child.NextU64());
}

}  // namespace
}  // namespace stwa
