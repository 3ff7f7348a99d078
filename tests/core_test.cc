// Tests for the paper's core contribution: stochastic latents (Eq. 4-7),
// the parameter decoder (Eq. 8), window attention with proxies (Eq. 10-14),
// the proxy aggregator (Eq. 12-13), sensor correlation attention
// (Eq. 15-16), the full ST-WA model, and the memory model.

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "common/check.h"
#include "core/enhanced_models.h"
#include "core/latent.h"
#include "core/loss.h"
#include "core/mc_forecast.h"
#include "core/memory_model.h"
#include "core/param_decoder.h"
#include "core/proxy_aggregator.h"
#include "core/sensor_attention.h"
#include "core/stwa_model.h"
#include "core/window_attention.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace stwa {
namespace core {
namespace {

LatentConfig SmallLatentConfig() {
  LatentConfig c;
  c.num_sensors = 3;
  c.history = 4;
  c.features = 1;
  c.latent_dim = 5;
  c.encoder_hidden = 8;
  return c;
}

TEST(LatentTest, ThetaShape) {
  Rng rng(1);
  StLatent latent(SmallLatentConfig(), &rng);
  Rng noise(2);
  ag::Var x(Tensor::Randn({2, 3, 4, 1}, rng));
  ag::Var theta = latent.Forward(x, /*training=*/true, noise);
  EXPECT_EQ(theta.value().shape(), (Shape{2, 3, 5}));
  EXPECT_EQ(latent.last_kl().value().size(), 1);
}

TEST(LatentTest, EvalModeIsDeterministic) {
  Rng rng(3);
  StLatent latent(SmallLatentConfig(), &rng);
  Rng noise_a(11);
  Rng noise_b(99);
  ag::Var x(Tensor::Randn({2, 3, 4, 1}, rng));
  Tensor a = latent.Forward(x, /*training=*/false, noise_a).value();
  Tensor b = latent.Forward(x, /*training=*/false, noise_b).value();
  EXPECT_TRUE(ops::AllClose(a, b, 0.0f, 0.0f))
      << "eval mode must use the mean, independent of the noise stream";
}

TEST(LatentTest, TrainingSamplesVary) {
  Rng rng(4);
  StLatent latent(SmallLatentConfig(), &rng);
  Rng noise(5);
  ag::Var x(Tensor::Randn({2, 3, 4, 1}, rng));
  Tensor a = latent.Forward(x, /*training=*/true, noise).value();
  Tensor b = latent.Forward(x, /*training=*/true, noise).value();
  EXPECT_GT(ops::MaxAbsDiff(a, b), 1e-5f)
      << "reparameterised samples must differ across draws";
}

TEST(LatentTest, SpatialModeIgnoresInputWindow) {
  LatentConfig c = SmallLatentConfig();
  c.mode = LatentMode::kSpatial;
  Rng rng(6);
  StLatent latent(c, &rng);
  Rng noise(7);
  ag::Var x1(Tensor::Randn({1, 3, 4, 1}, rng));
  ag::Var x2(Tensor::Randn({1, 3, 4, 1}, rng));
  Tensor a = latent.Forward(x1, /*training=*/false, noise).value();
  Tensor b = latent.Forward(x2, /*training=*/false, noise).value();
  EXPECT_TRUE(ops::AllClose(a, b, 0.0f, 0.0f))
      << "z^(i) is input independent";
}

TEST(LatentTest, TemporalModeReactsToInputWindow) {
  Rng rng(8);
  StLatent latent(SmallLatentConfig(), &rng);
  Rng noise(9);
  ag::Var x1(Tensor::Randn({1, 3, 4, 1}, rng));
  ag::Var x2(Tensor::Randn({1, 3, 4, 1}, rng));
  Tensor a = latent.Forward(x1, /*training=*/false, noise).value();
  Tensor b = latent.Forward(x2, /*training=*/false, noise).value();
  EXPECT_GT(ops::MaxAbsDiff(a, b), 1e-5f)
      << "z_t^(i) must adapt to the recent window";
}

TEST(LatentTest, DeterministicVariantHasZeroKl) {
  LatentConfig c = SmallLatentConfig();
  c.stochastic = false;
  Rng rng(10);
  StLatent latent(c, &rng);
  Rng noise(11);
  ag::Var x(Tensor::Randn({1, 3, 4, 1}, rng));
  Tensor a = latent.Forward(x, /*training=*/true, noise).value();
  Tensor b = latent.Forward(x, /*training=*/true, noise).value();
  EXPECT_TRUE(ops::AllClose(a, b, 0.0f, 0.0f));
  EXPECT_EQ(latent.last_kl().value().item(), 0.0f);
}

TEST(LatentTest, KlPullsTowardStandardNormal) {
  // KL of exactly N(0, I) is 0; grows with |mean| and with var away from 1.
  ag::Var mean0(Tensor::Zeros({4}), true);
  ag::Var var1(Tensor::Ones({4}), true);
  EXPECT_NEAR(GaussianKlToStdNormal(mean0, var1).value().item(), 0.0f,
              1e-6f);
  ag::Var mean2(Tensor::Full({4}, 2.0f), true);
  EXPECT_GT(GaussianKlToStdNormal(mean2, var1).value().item(), 1.0f);
  ag::Var var_small(Tensor::Full({4}, 0.01f), true);
  EXPECT_GT(GaussianKlToStdNormal(mean0, var_small).value().item(), 1.0f);
}

TEST(LatentTest, AnalyticKlMatchesMonteCarlo) {
  // KL(N(m, s^2) || N(0,1)) estimated by sampling log q(z) - log p(z).
  const float m = 0.7f;
  const float s2 = 0.5f;
  ag::Var mean(Tensor({1}, {m}), true);
  ag::Var var(Tensor({1}, {s2}), true);
  const float analytic = GaussianKlToStdNormal(mean, var).value().item();
  Rng rng(12);
  double mc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const float z = m + std::sqrt(s2) * rng.Normal();
    const float logq = -0.5f * (std::log(2.0f * 3.14159265f * s2) +
                                (z - m) * (z - m) / s2);
    const float logp = -0.5f * (std::log(2.0f * 3.14159265f) + z * z);
    mc += logq - logp;
  }
  EXPECT_NEAR(analytic, mc / n, 0.02);
}

TEST(LatentTest, GradientsReachLatentParameters) {
  Rng rng(13);
  StLatent latent(SmallLatentConfig(), &rng);
  Rng noise(14);
  ag::Var x(Tensor::Randn({2, 3, 4, 1}, rng));
  ag::Var theta = latent.Forward(x, /*training=*/true, noise);
  ag::Var loss = ag::Add(ag::SumAll(ag::Square(theta)),
                         latent.last_kl());
  loss.Backward();
  for (const auto& [name, p] : latent.NamedParameters()) {
    EXPECT_GT(ops::SumAll(ops::Abs(p.grad())).item(), 0.0f)
        << name << " got no gradient";
  }
}

// --- Decoder ---------------------------------------------------------------

TEST(DecoderTest, OutputShapeAndParamComplexity) {
  DecoderConfig dc;
  dc.latent_dim = 6;
  dc.hidden1 = 8;
  dc.hidden2 = 12;
  Rng rng(15);
  ParamDecoder dec(dc, 3, 7, &rng);
  ag::Var theta(Tensor::Randn({2, 4, 6}, rng));
  EXPECT_EQ(dec.Forward(theta).value().shape(), (Shape{2, 4, 3, 7}));
  // O(k*m1 + m1*m2 + m2*rows*cols) + biases + base: independent of N.
  const int64_t expected = (6 * 8 + 8) + (8 * 12 + 12) + 12 * 21 + 21;
  EXPECT_EQ(dec.ParameterCount(), expected);
}

TEST(DecoderTest, DistinctThetasGiveDistinctParameters) {
  DecoderConfig dc;
  dc.latent_dim = 4;
  Rng rng(16);
  ParamDecoder dec(dc, 2, 3, &rng);
  Rng data_rng(17);
  ag::Var theta(Tensor::Randn({1, 2, 4}, data_rng));
  Tensor out = dec.Forward(theta).value();
  Tensor s0 = ops::Slice(out, 1, 0, 1);
  Tensor s1 = ops::Slice(out, 1, 1, 1);
  EXPECT_GT(ops::MaxAbsDiff(s0, s1), 1e-5f)
      << "different sensors must receive different generated parameters";
}

TEST(DecoderTest, GradCheckThroughDecoder) {
  DecoderConfig dc;
  dc.latent_dim = 3;
  dc.hidden1 = 4;
  dc.hidden2 = 5;
  Rng rng(18);
  ParamDecoder dec(dc, 2, 2, &rng);
  ag::Var theta(Tensor::Randn({1, 2, 3}, rng), true);
  std::vector<ag::Var> params = dec.Parameters();
  params.push_back(theta);
  auto res = ag::CheckGradients(
      [&] { return ag::SumAll(ag::Square(dec.Forward(theta))); }, params);
  EXPECT_TRUE(res.ok) << res.message;
}

// --- Proxy aggregator ---------------------------------------------------

TEST(AggregatorTest, MeanAggregatorAverages) {
  ProxyAggregator agg(AggregatorKind::kMean, 2);
  ag::Var h(Tensor({1, 1, 2, 2}, {1, 2, 3, 4}));
  Tensor out = agg.Forward(h).value();
  EXPECT_TRUE(ops::AllClose(out, Tensor({1, 1, 2}, {2, 3})));
  EXPECT_EQ(agg.ParameterCount(), 0);
}

TEST(AggregatorTest, WeightedGateIsBounded) {
  Rng rng(19);
  ProxyAggregator agg(AggregatorKind::kWeighted, 4, &rng);
  ag::Var h(Tensor::Randn({2, 3, 5, 4}, rng));
  Tensor out = agg.Forward(h).value();
  EXPECT_EQ(out.shape(), (Shape{2, 3, 4}));
  // Output magnitude cannot exceed the sum of |proxy| values (gates <= 1).
  Tensor bound = ops::Sum(ops::Abs(h.value()), 2);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_LE(std::fabs(out.at(i)), bound.at(i) + 1e-4f);
  }
}

TEST(AggregatorTest, SingleProxyWeightedStillGates) {
  Rng rng(20);
  ProxyAggregator agg(AggregatorKind::kWeighted, 3, &rng);
  ag::Var h(Tensor::Ones({1, 1, 1, 3}));
  Tensor out = agg.Forward(h).value();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_GT(out.at(i), 0.0f);
    EXPECT_LT(out.at(i), 1.0f);
  }
}

// --- Window attention -------------------------------------------------------

WindowAttentionConfig SmallWaConfig() {
  WindowAttentionConfig c;
  c.num_sensors = 2;
  c.input_len = 6;
  c.window = 3;
  c.proxies = 2;
  c.d_in = 1;
  c.d_model = 4;
  return c;
}

TEST(WindowAttentionTest, OutputShape) {
  Rng rng(21);
  WindowAttentionLayer layer(SmallWaConfig(), &rng);
  ag::Var x(Tensor::Randn({3, 2, 6, 1}, rng));
  EXPECT_EQ(layer.Forward(x).value().shape(), (Shape{3, 2, 2, 4}));
  EXPECT_EQ(layer.num_windows(), 2);
}

TEST(WindowAttentionTest, WindowMustDivideLength) {
  WindowAttentionConfig c = SmallWaConfig();
  c.window = 4;
  EXPECT_THROW(WindowAttentionLayer layer(c), Error);
}

TEST(WindowAttentionTest, StAwareRequiresProjections) {
  WindowAttentionConfig c = SmallWaConfig();
  c.st_aware = true;
  Rng rng(22);
  WindowAttentionLayer layer(c, &rng);
  ag::Var x(Tensor::Randn({1, 2, 6, 1}, rng));
  EXPECT_THROW(layer.Forward(x), Error);
  ag::Var k(Tensor::Randn({1, 2, 1, 4}, rng));
  ag::Var v(Tensor::Randn({1, 2, 1, 4}, rng));
  EXPECT_EQ(layer.Forward(x, k, v).value().shape(), (Shape{1, 2, 2, 4}));
}

TEST(WindowAttentionTest, StaticRejectsProjections) {
  Rng rng(23);
  WindowAttentionLayer layer(SmallWaConfig(), &rng);
  ag::Var x(Tensor::Randn({1, 2, 6, 1}, rng));
  ag::Var k(Tensor::Randn({1, 2, 1, 4}, rng));
  EXPECT_THROW(layer.Forward(x, k, k), Error);
}

TEST(WindowAttentionTest, FirstWindowMatchesManualProxyAttention) {
  // With p proxies and no previous window, window 0's output must equal
  // softmax(P_0 (x_0 K)^T / sqrt(d)) (x_0 V) followed by the aggregator.
  WindowAttentionConfig c = SmallWaConfig();
  c.aggregator = AggregatorKind::kMean;  // removes the gate network
  Rng rng(24);
  WindowAttentionLayer layer(c, &rng);
  ag::Var x(Tensor::Randn({1, 2, 6, 1}, rng));
  Tensor out = layer.Forward(x).value();  // [1, 2, 2, 4]

  // Recompute window 0 for sensor 0 by hand.
  auto named = layer.NamedParameters();
  Tensor proxy;  // [W, N, p, d]
  Tensor k_w;
  Tensor v_w;
  for (const auto& [name, p] : named) {
    if (name == "proxy") proxy = p.value();
    if (name == "k_static.weight") k_w = p.value();
    if (name == "v_static.weight") v_w = p.value();
  }
  ASSERT_FALSE(proxy.empty());
  Tensor x0 = ops::Slice(ops::Slice(x.value(), 1, 0, 1), 2, 0, 3)
                  .Reshape({3, 1});                      // [S, F]
  Tensor keys = ops::MatMul(x0, k_w);                    // [S, d]
  Tensor values = ops::MatMul(x0, v_w);                  // [S, d]
  Tensor p0 = ops::Slice(ops::Slice(proxy, 0, 0, 1), 1, 0, 1)
                  .Reshape({2, 4});                      // [p, d]
  Tensor scores = ops::MulScalar(
      ops::MatMul(p0, ops::TransposeLast2(keys)), 1.0f / 2.0f);
  Tensor h = ops::MatMul(ops::SoftmaxLast(scores), values);    // [p, d]
  Tensor manual = ops::Mean(h, 0);                             // [d]
  Tensor got = ops::Slice(ops::Slice(ops::Slice(out, 0, 0, 1), 1, 0, 1),
                          2, 0, 1)
                   .Reshape({4});
  EXPECT_TRUE(ops::AllClose(got, manual, 1e-4f, 1e-5f));
}

TEST(WindowAttentionTest, ChainPropagatesAcrossWindows) {
  // Perturbing window 0's input must change window 1's output (Eq. 14);
  // without chaining it could not, since attention is per window.
  Rng rng(25);
  WindowAttentionLayer layer(SmallWaConfig(), &rng);
  Tensor x1 = Tensor::Randn({1, 2, 6, 1}, rng);
  Tensor x2 = x1.Clone();
  x2({0, 0, 0, 0}) += 3.0f;  // perturb inside window 0
  Tensor y1 = layer.Forward(ag::Var(x1)).value();
  Tensor y2 = layer.Forward(ag::Var(x2)).value();
  Tensor w1_a = ops::Slice(y1, 2, 1, 1);
  Tensor w1_b = ops::Slice(y2, 2, 1, 1);
  EXPECT_GT(ops::MaxAbsDiff(w1_a, w1_b), 1e-6f)
      << "previous-window information must flow into the next window";
}

TEST(WindowAttentionTest, LaterWindowDoesNotLeakBackward) {
  Rng rng(26);
  WindowAttentionLayer layer(SmallWaConfig(), &rng);
  Tensor x1 = Tensor::Randn({1, 2, 6, 1}, rng);
  Tensor x2 = x1.Clone();
  x2({0, 0, 5, 0}) += 3.0f;  // perturb inside window 1
  Tensor y1 = layer.Forward(ag::Var(x1)).value();
  Tensor y2 = layer.Forward(ag::Var(x2)).value();
  Tensor w0_a = ops::Slice(y1, 2, 0, 1);
  Tensor w0_b = ops::Slice(y2, 2, 0, 1);
  EXPECT_LT(ops::MaxAbsDiff(w0_a, w0_b), 1e-6f)
      << "window 0 must not see window 1 (causal window chain)";
}

TEST(WindowAttentionTest, GradientsFlowToProxies) {
  Rng rng(27);
  WindowAttentionLayer layer(SmallWaConfig(), &rng);
  ag::Var x(Tensor::Randn({1, 2, 6, 1}, rng));
  ag::SumAll(ag::Square(layer.Forward(x))).Backward();
  for (const auto& [name, p] : layer.NamedParameters()) {
    EXPECT_GT(ops::SumAll(ops::Abs(p.grad())).item(), 0.0f)
        << name << " got no gradient";
  }
}

TEST(WindowAttentionTest, MultiHeadPreservesShapeAndDiffers) {
  WindowAttentionConfig c = SmallWaConfig();
  Rng rng1(91);
  WindowAttentionLayer single(c, &rng1);
  c.heads = 2;
  Rng rng2(91);
  WindowAttentionLayer multi(c, &rng2);
  Rng data_rng(92);
  ag::Var x(Tensor::Randn({2, 2, 6, 1}, data_rng));
  Tensor y1 = single.Forward(x).value();
  Tensor y2 = multi.Forward(x).value();
  EXPECT_EQ(y1.shape(), y2.shape());
  // Same parameters (same seed) but per-head softmax normalisation makes
  // the outputs differ.
  EXPECT_GT(ops::MaxAbsDiff(y1, y2), 1e-6f);
  EXPECT_EQ(single.ParameterCount(), multi.ParameterCount())
      << "heads reslice d; they add no parameters";
}

TEST(WindowAttentionTest, HeadsMustDivideModel) {
  WindowAttentionConfig c = SmallWaConfig();
  c.heads = 3;  // d_model = 4
  EXPECT_THROW(WindowAttentionLayer layer(c), Error);
}

TEST(WindowAttentionTest, MultiHeadGradientsFlow) {
  WindowAttentionConfig c = SmallWaConfig();
  c.heads = 2;
  Rng rng(93);
  WindowAttentionLayer layer(c, &rng);
  ag::Var x(Tensor::Randn({1, 2, 6, 1}, rng));
  ag::SumAll(ag::Square(layer.Forward(x))).Backward();
  for (const auto& [name, p] : layer.NamedParameters()) {
    EXPECT_GT(ops::SumAll(ops::Abs(p.grad())).item(), 0.0f)
        << name << " got no gradient";
  }
}

// Property sweep: window attention output shape over (S, p, heads).
class WaGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WaGeometrySweep, OutputShape) {
  auto [window, proxies, heads] = GetParam();
  WindowAttentionConfig c;
  c.num_sensors = 3;
  c.input_len = 12;
  c.window = window;
  c.proxies = proxies;
  c.d_in = 2;
  c.d_model = 8;
  c.heads = heads;
  Rng rng(200 + window * 10 + proxies * 3 + heads);
  WindowAttentionLayer layer(c, &rng);
  ag::Var x(Tensor::Randn({2, 3, 12, 2}, rng));
  Tensor out = layer.Forward(x).value();
  EXPECT_EQ(out.shape(), (Shape{2, 3, 12 / window, 8}));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WaGeometrySweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 12),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2)));

TEST(WindowAttentionTest, FullLayerGradCheck) {
  WindowAttentionConfig c;
  c.num_sensors = 2;
  c.input_len = 4;
  c.window = 2;
  c.proxies = 2;
  c.d_in = 1;
  c.d_model = 2;
  Rng rng(94);
  WindowAttentionLayer layer(c, &rng);
  ag::Var x(Tensor::Randn({1, 2, 4, 1}, rng), true);
  std::vector<ag::Var> params = layer.Parameters();
  params.push_back(x);
  auto res = ag::CheckGradients(
      [&] { return ag::SumAll(ag::Square(layer.Forward(x))); }, params);
  EXPECT_TRUE(res.ok) << res.message;
}

// Property sweep over latent mode x stochastic flag.
class LatentModeSweep
    : public ::testing::TestWithParam<std::tuple<LatentMode, bool>> {};

TEST_P(LatentModeSweep, ThetaShapeAndKlSign) {
  auto [mode, stochastic] = GetParam();
  LatentConfig c = SmallLatentConfig();
  c.mode = mode;
  c.stochastic = stochastic;
  Rng rng(95);
  StLatent latent(c, &rng);
  Rng noise(96);
  ag::Var x(Tensor::Randn({2, 3, 4, 1}, rng));
  ag::Var theta = latent.Forward(x, /*training=*/true, noise);
  EXPECT_EQ(theta.value().shape(), (Shape{2, 3, 5}));
  const float kl = latent.last_kl().value().item();
  if (stochastic) {
    EXPECT_GE(kl, 0.0f) << "KL divergence is non-negative";
  } else {
    EXPECT_EQ(kl, 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LatentModeSweep,
    ::testing::Combine(::testing::Values(LatentMode::kSpatial,
                                         LatentMode::kSpatioTemporal),
                       ::testing::Bool()));

// --- Sensor correlation attention ----------------------------------------

TEST(SensorAttentionTest, ShapeAndMixing) {
  Rng rng(28);
  SensorCorrelationAttention attn(4, /*st_aware=*/false, &rng);
  ag::Var h(Tensor::Randn({2, 5, 4}, rng));
  Tensor out = attn.Forward(h).value();
  EXPECT_EQ(out.shape(), (Shape{2, 5, 4}));
}

TEST(SensorAttentionTest, SensorsInfluenceEachOther) {
  Rng rng(29);
  SensorCorrelationAttention attn(4, /*st_aware=*/false, &rng);
  Tensor h1 = Tensor::Randn({1, 3, 4}, rng);
  Tensor h2 = h1.Clone();
  for (int64_t f = 0; f < 4; ++f) h2({0, 2, f}) += 2.0f;  // change sensor 2
  Tensor y1 = attn.Forward(ag::Var(h1)).value();
  Tensor y2 = attn.Forward(ag::Var(h2)).value();
  // Sensor 0's representation must change (it attends to sensor 2).
  Tensor s0_a = ops::Slice(y1, 1, 0, 1);
  Tensor s0_b = ops::Slice(y2, 1, 0, 1);
  EXPECT_GT(ops::MaxAbsDiff(s0_a, s0_b), 1e-6f);
}

TEST(SensorAttentionTest, RowsAreConvexCombinations) {
  // With softmax weights, each output lies within the convex hull of the
  // value vectors: the per-coordinate max over sensors bounds each output.
  Rng rng(30);
  SensorCorrelationAttention attn(3, /*st_aware=*/false, &rng);
  Tensor h = Tensor::Randn({1, 4, 3}, rng);
  Tensor out = attn.Forward(ag::Var(h)).value();
  Tensor mx = ops::Max(h, 1, true);   // [1, 1, 3]
  Tensor mn = ops::MulScalar(ops::Max(ops::Neg(h), 1, true), -1.0f);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t f = 0; f < 3; ++f) {
      EXPECT_LE((out({0, i, f})), (mx({0, 0, f})) + 1e-4f);
      EXPECT_GE((out({0, i, f})), (mn({0, 0, f})) - 1e-4f);
    }
  }
}

TEST(SensorAttentionTest, StAwareVariantUsesGeneratedThetas) {
  Rng rng(31);
  SensorCorrelationAttention attn(3, /*st_aware=*/true, &rng);
  ag::Var h(Tensor::Randn({1, 2, 3}, rng));
  EXPECT_THROW(attn.Forward(h), Error);
  ag::Var t1(Tensor::Randn({1, 2, 3, 3}, rng));
  ag::Var t2(Tensor::Randn({1, 2, 3, 3}, rng));
  EXPECT_EQ(attn.Forward(h, t1, t2).value().shape(), (Shape{1, 2, 3}));
  EXPECT_EQ(attn.ParameterCount(), 0) << "generated variant owns no thetas";
}

TEST(SensorAttentionTest, GradCheckStaticVariant) {
  Rng rng(97);
  SensorCorrelationAttention attn(3, /*st_aware=*/false, &rng);
  ag::Var h(Tensor::Randn({1, 3, 3}, rng), true);
  std::vector<ag::Var> params = attn.Parameters();
  params.push_back(h);
  auto res = ag::CheckGradients(
      [&] { return ag::SumAll(ag::Square(attn.Forward(h))); }, params);
  EXPECT_TRUE(res.ok) << res.message;
}

// --- Full model ----------------------------------------------------------

StwaConfig SmallModelConfig() {
  StwaConfig c;
  c.num_sensors = 4;
  c.history = 12;
  c.horizon = 3;
  c.window_sizes = {3, 2, 2};
  c.proxies = 1;
  c.d_model = 8;
  c.latent_dim = 4;
  c.encoder_hidden = 8;
  c.predictor_hidden = 16;
  return c;
}

TEST(StwaModelTest, ForwardShape) {
  Rng rng(32);
  StwaModel model(SmallModelConfig(), &rng);
  Tensor x = Tensor::Randn({2, 4, 12, 1}, rng);
  ag::Var pred = model.Forward(x, /*training=*/true);
  EXPECT_EQ(pred.value().shape(), (Shape{2, 4, 3, 1}));
  EXPECT_TRUE(model.RegularizationLoss().defined());
}

TEST(StwaModelTest, AllVariantsForwardAndName) {
  StwaConfig base = SmallModelConfig();
  const std::vector<std::pair<std::string, std::string>> variants = {
      {"WA-1", "WA-1"},          {"WA", "WA"},
      {"S-WA", "S-WA"},          {"ST-WA", "ST-WA"},
      {"Det-ST-WA", "Det-ST-WA"}, {"ST-WA-mean", "ST-WA(mean)"},
  };
  Rng data_rng(33);
  Tensor x = Tensor::Randn({1, 4, 12, 1}, data_rng);
  for (const auto& [key, expected_name] : variants) {
    Rng rng(34);
    StwaModel model(MakeVariantConfig(base, key), &rng);
    EXPECT_EQ(model.name(), expected_name);
    EXPECT_EQ(model.Forward(x, true).value().shape(), (Shape{1, 4, 3, 1}))
        << key;
  }
}

TEST(StwaModelTest, AgnosticVariantHasNoRegulariser) {
  Rng rng(35);
  StwaModel model(MakeVariantConfig(SmallModelConfig(), "WA"), &rng);
  Tensor x = Tensor::Randn({1, 4, 12, 1}, rng);
  model.Forward(x, true);
  EXPECT_FALSE(model.RegularizationLoss().defined());
}

TEST(StwaModelTest, StAwareHasMoreParamsThanAgnosticButNoNFactor) {
  StwaConfig base = SmallModelConfig();
  Rng r1(36);
  Rng r2(36);
  StwaModel agnostic(MakeVariantConfig(base, "WA"), &r1);
  StwaModel st(MakeVariantConfig(base, "ST-WA"), &r2);
  EXPECT_GT(st.ParameterCount(), agnostic.ParameterCount());
  // Doubling N must not double the ST parameters (only mu/logvar/proxies
  // scale with N, not the decoders).
  StwaConfig big = base;
  big.num_sensors = 8;
  Rng r3(36);
  StwaModel st_big(MakeVariantConfig(big, "ST-WA"), &r3);
  const int64_t delta = st_big.ParameterCount() - st.ParameterCount();
  // Extra cost per sensor: 2k (mu, logvar) + proxies (sum_l W_l * p * d).
  const int64_t per_sensor =
      2 * base.latent_dim + (4 + 2 + 1) * base.proxies * base.d_model;
  EXPECT_EQ(delta, 4 * per_sensor);
}

TEST(StwaModelTest, GradientsReachEveryParameter) {
  Rng rng(37);
  StwaModel model(SmallModelConfig(), &rng);
  Tensor x = Tensor::Randn({2, 4, 12, 1}, rng);
  Tensor y = Tensor::Randn({2, 4, 3, 1}, rng);
  ag::Var pred = model.Forward(x, true);
  ag::Var loss = ag::Add(ag::HuberLoss(pred, ag::Var(y)),
                         model.RegularizationLoss());
  loss.Backward();
  for (const auto& [name, p] : model.NamedParameters()) {
    EXPECT_GT(ops::SumAll(ops::Abs(p.grad())).item(), 0.0f)
        << name << " got no gradient";
  }
}

TEST(StwaModelTest, OverfitsTinyDataset) {
  // The full model must be able to memorise a single batch.
  Rng rng(38);
  StwaConfig c = SmallModelConfig();
  c.kl_weight = 0.0f;
  StwaModel model(c, &rng);
  Tensor x = Tensor::Randn({2, 4, 12, 1}, rng);
  Tensor y = ops::MulScalar(Tensor::Randn({2, 4, 3, 1}, rng), 0.5f);
  optim::Adam opt(model.Parameters(), 5e-3f);
  float first = -1.0f;
  float last = 0.0f;
  for (int step = 0; step < 150; ++step) {
    opt.ZeroGrad();
    ag::Var loss = ag::MseLoss(model.Forward(x, /*training=*/false),
                               ag::Var(y));
    loss.Backward();
    opt.Step();
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
  }
  EXPECT_LT(last, 0.15f * first)
      << "loss should drop by >85% when overfitting one batch (from "
      << first << " to " << last << ")";
}

TEST(StwaModelTest, GeneratedProjectionsVaryAcrossSensorsAndWindows) {
  Rng rng(39);
  StwaModel model(SmallModelConfig(), &rng);
  Rng data_rng(40);
  Tensor x1 = Tensor::Randn({1, 4, 12, 1}, data_rng);
  Tensor x2 = Tensor::Randn({1, 4, 12, 1}, data_rng);
  Tensor phi1 = model.GeneratedProjections(x1, 0);
  Tensor phi2 = model.GeneratedProjections(x2, 0);
  // [N, d_in*d]; with the input embedding the first layer's generated
  // projections are d_model x d_model.
  EXPECT_EQ(phi1.shape(), (Shape{4, 8 * 8}));
  // Spatial: different sensors get different matrices.
  EXPECT_GT(ops::MaxAbsDiff(ops::Slice(phi1, 0, 0, 1),
                            ops::Slice(phi1, 0, 1, 1)),
            1e-6f);
  // Temporal: the same sensor gets different matrices for different recent
  // windows — the heart of temporal-aware modeling.
  EXPECT_GT(ops::MaxAbsDiff(phi1, phi2), 1e-6f);
}

TEST(StwaModelTest, InvalidWindowConfigThrows) {
  StwaConfig c = SmallModelConfig();
  c.window_sizes = {5};  // does not divide 12
  EXPECT_THROW(StwaModel model(c), Error);
}

TEST(McForecastTest, MeanCloseToDeterministicAndSpreadPositive) {
  Rng rng(60);
  StwaConfig c = SmallModelConfig();
  StwaModel model(c, &rng);
  Rng data_rng(61);
  Tensor x = Tensor::Randn({1, 4, 12, 1}, data_rng);
  McForecast mc = MonteCarloForecast(model, x, 24);
  EXPECT_EQ(mc.mean.shape(), (Shape{1, 4, 3, 1}));
  EXPECT_EQ(mc.stddev.shape(), (Shape{1, 4, 3, 1}));
  EXPECT_EQ(mc.num_samples, 24);
  // Spread is strictly positive somewhere (latents are sampled).
  EXPECT_GT(ops::SumAll(mc.stddev).item(), 0.0f);
  // The ensemble mean should hover near the deterministic (latent-mean)
  // forecast.
  Tensor det = model.Forward(x, /*training=*/false).value();
  EXPECT_LT(ops::MaxAbsDiff(mc.mean, det), 1.0f);
}

TEST(McForecastTest, RejectsDeterministicModels) {
  Rng rng(62);
  StwaModel agnostic(MakeVariantConfig(SmallModelConfig(), "WA"), &rng);
  Tensor x = Tensor::Zeros({1, 4, 12, 1});
  EXPECT_THROW(MonteCarloForecast(agnostic, x, 4), Error);
  StwaModel det(MakeVariantConfig(SmallModelConfig(), "Det-ST-WA"), &rng);
  EXPECT_THROW(MonteCarloForecast(det, x, 4), Error);
  StwaModel ok(SmallModelConfig(), &rng);
  EXPECT_THROW(MonteCarloForecast(ok, x, 1), Error)
      << "a single sample has no spread";
}

// --- Enhanced models ------------------------------------------------------

EnhancedConfig SmallEnhancedConfig() {
  EnhancedConfig c;
  c.num_sensors = 3;
  c.history = 6;
  c.horizon = 2;
  c.d_model = 8;
  c.latent_dim = 4;
  c.encoder_hidden = 8;
  c.predictor_hidden = 16;
  c.num_layers = 2;
  return c;
}

TEST(EnhancedTest, GruVariantsForward) {
  for (LatentMode mode : {LatentMode::kNone, LatentMode::kSpatial,
                          LatentMode::kSpatioTemporal}) {
    EnhancedConfig c = SmallEnhancedConfig();
    c.latent_mode = mode;
    Rng rng(41);
    GruForecaster model(c, &rng);
    Tensor x = Tensor::Randn({2, 3, 6, 1}, rng);
    EXPECT_EQ(model.Forward(x, true).value().shape(), (Shape{2, 3, 2, 1}));
  }
}

TEST(EnhancedTest, AttVariantsForward) {
  for (LatentMode mode : {LatentMode::kNone, LatentMode::kSpatial,
                          LatentMode::kSpatioTemporal}) {
    EnhancedConfig c = SmallEnhancedConfig();
    c.latent_mode = mode;
    Rng rng(42);
    AttForecaster model(c, &rng);
    Tensor x = Tensor::Randn({2, 3, 6, 1}, rng);
    EXPECT_EQ(model.Forward(x, true).value().shape(), (Shape{2, 3, 2, 1}));
  }
}

TEST(EnhancedTest, NamesEncodeVariant) {
  EnhancedConfig c = SmallEnhancedConfig();
  Rng rng(43);
  EXPECT_EQ(GruForecaster(c, &rng).name(), "GRU");
  c.latent_mode = LatentMode::kSpatial;
  EXPECT_EQ(GruForecaster(c, &rng).name(), "GRU+S");
  c.latent_mode = LatentMode::kSpatioTemporal;
  EXPECT_EQ(AttForecaster(c, &rng).name(), "ATT+ST");
}

TEST(EnhancedTest, StVariantsProduceRegulariser) {
  EnhancedConfig c = SmallEnhancedConfig();
  c.latent_mode = LatentMode::kSpatioTemporal;
  Rng rng(44);
  GruForecaster model(c, &rng);
  Tensor x = Tensor::Randn({1, 3, 6, 1}, rng);
  model.Forward(x, true);
  ASSERT_TRUE(model.RegularizationLoss().defined());
  EXPECT_GE(model.RegularizationLoss().value().item(), 0.0f);
}

TEST(EnhancedTest, GruGradientsFlow) {
  EnhancedConfig c = SmallEnhancedConfig();
  c.latent_mode = LatentMode::kSpatioTemporal;
  Rng rng(45);
  GruForecaster model(c, &rng);
  Tensor x = Tensor::Randn({1, 3, 6, 1}, rng);
  ag::Var pred = model.Forward(x, true);
  ag::Add(ag::SumAll(ag::Square(pred)), model.RegularizationLoss())
      .Backward();
  for (const auto& [name, p] : model.NamedParameters()) {
    EXPECT_GT(ops::SumAll(ops::Abs(p.grad())).item(), 0.0f)
        << name << " got no gradient";
  }
}

// --- Memory model -----------------------------------------------------------

TEST(MemoryModelTest, CanonicalIsQuadraticWindowIsLinearInH) {
  MemoryWorkload w;
  w.sensors = 300;
  MemoryWorkload w2 = w;
  w2.history = w.history * 4;
  const double ca1 = CanonicalAttentionGb(w);
  const double ca2 = CanonicalAttentionGb(w2);
  const double wa1 = WindowAttentionGb(w, {3, 2, 2}, 1);
  MemoryWorkload w3 = w2;
  const double wa2 = WindowAttentionGb(w3, {3, 2, 2}, 1);
  // Quadratic growth ~16x (score term dominates); linear growth ~4x.
  EXPECT_GT(ca2 / ca1, 8.0);
  EXPECT_LT(wa2 / wa1, 5.0);
  EXPECT_LT(wa1, ca1);
}

TEST(MemoryModelTest, Table6OomPatternAtPaperScale) {
  // H = U = 72 at the paper's real sensor counts: EnhanceNet and STFGNN
  // exceed 16 GB only on PEMS07 (N = 883); AGCRN and ST-WA never do.
  auto workload = [](int64_t n) {
    MemoryWorkload w;
    w.sensors = n;
    w.history = 72;
    w.horizon = 72;
    return w;
  };
  for (int64_t n : {358, 307, 170}) {
    EXPECT_FALSE(WouldOom(EnhanceNetGb(workload(n)))) << "N=" << n;
    EXPECT_FALSE(WouldOom(FusionGraphGb(workload(n)))) << "N=" << n;
  }
  EXPECT_TRUE(WouldOom(EnhanceNetGb(workload(883))));
  EXPECT_TRUE(WouldOom(FusionGraphGb(workload(883))));
  for (int64_t n : {358, 307, 170, 883}) {
    EXPECT_FALSE(WouldOom(AdaptiveGraphGb(workload(n)))) << "N=" << n;
    EXPECT_FALSE(WouldOom(WindowAttentionGb(workload(n), {6, 6}, 2)))
        << "N=" << n;
  }
}

TEST(MemoryModelTest, SlidingWindowBetweenFullAndWindowAttention) {
  MemoryWorkload w;
  w.sensors = 300;
  w.history = 72;
  const double full = CanonicalAttentionGb(w);
  const double sliding = SlidingWindowAttentionGb(w, 12);
  const double window = WindowAttentionGb(w, {6, 6}, 2);
  EXPECT_LT(sliding, full);
  EXPECT_LT(window, sliding);
}

}  // namespace
}  // namespace core
}  // namespace stwa
