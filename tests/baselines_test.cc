// Tests for the eleven baseline models and the registry: construction,
// forward shapes, gradient flow, determinism, and light convergence checks.

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/agcrn.h"
#include "baselines/common.h"
#include "baselines/gwn.h"
#include "baselines/registry.h"
#include "baselines/stfgnn.h"
#include "baselines/var.h"
#include "common/check.h"
#include "data/traffic_generator.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace stwa {
namespace baselines {
namespace {

const data::TrafficDataset& SharedDataset() {
  static const data::TrafficDataset* dataset = [] {
    data::GeneratorOptions o;
    o.num_roads = 2;
    o.sensors_per_road = 3;
    o.num_days = 3;
    o.steps_per_day = 96;
    o.seed = 5;
    return new data::TrafficDataset(data::GenerateTraffic(o));
  }();
  return *dataset;
}

ModelSettings SmallSettings() {
  ModelSettings s;
  s.history = 12;
  s.horizon = 4;
  s.d_model = 8;
  s.num_layers = 2;
  s.predictor_hidden = 16;
  s.latent_dim = 4;
  return s;
}

// --- Common helpers -----------------------------------------------------

TEST(CommonTest, GraphMixAppliesAdjacency) {
  Tensor a({2, 2}, {0.0f, 1.0f, 1.0f, 0.0f});  // swap two nodes
  ag::Var h(Tensor({1, 2, 3}, {1, 2, 3, 4, 5, 6}));
  Tensor out = GraphMix(a, h).value();
  EXPECT_TRUE(ops::AllClose(out, Tensor({1, 2, 3}, {4, 5, 6, 1, 2, 3})));
}

TEST(CommonTest, TemporalConvLengthAndValues) {
  Rng rng(1);
  TemporalConv conv(1, 1, /*taps=*/2, /*dilation=*/1, &rng);
  // Set taps to [1], [2] and bias 0: out[t] = x[t] + 2 x[t+1].
  auto params = conv.NamedParameters();
  params[0].second.node()->value.CopyDataFrom(Tensor({1, 1}, {1.0f}));
  params[1].second.node()->value.CopyDataFrom(Tensor({1, 1}, {2.0f}));
  ag::Var x(Tensor({1, 1, 3, 1}, {1, 2, 3}));
  Tensor out = conv.Forward(x).value();
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 1}));
  EXPECT_EQ(out.at(0), 5.0f);   // 1 + 2*2
  EXPECT_EQ(out.at(1), 8.0f);   // 2 + 2*3
}

TEST(CommonTest, DilatedConvSkipsSteps) {
  Rng rng(2);
  TemporalConv conv(1, 1, /*taps=*/2, /*dilation=*/2, &rng);
  auto params = conv.NamedParameters();
  params[0].second.node()->value.CopyDataFrom(Tensor({1, 1}, {1.0f}));
  params[1].second.node()->value.CopyDataFrom(Tensor({1, 1}, {1.0f}));
  ag::Var x(Tensor({1, 1, 5, 1}, {1, 2, 3, 4, 5}));
  Tensor out = conv.Forward(x).value();
  EXPECT_EQ(out.shape(), (Shape{1, 1, 3, 1}));
  EXPECT_EQ(out.at(0), 4.0f);  // x[0] + x[2]
  EXPECT_EQ(out.at(2), 8.0f);  // x[2] + x[4]
}

TEST(CommonTest, TemporalConvTooShortThrows) {
  TemporalConv conv(1, 1, 4, 1);
  ag::Var x(Tensor::Zeros({1, 1, 3, 1}));
  EXPECT_THROW(conv.Forward(x), Error);
}

// --- Every model through the registry ------------------------------------

class ModelSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelSweep, ForwardShapeIsCorrect) {
  const data::TrafficDataset& d = SharedDataset();
  ModelSettings s = SmallSettings();
  auto model = MakeModel(GetParam(), d, s);
  Rng rng(3);
  Tensor x = Tensor::Randn({2, d.num_sensors(), s.history, 1}, rng);
  ag::Var pred = model->Forward(x, /*training=*/true);
  EXPECT_EQ(pred.value().shape(),
            (Shape{2, d.num_sensors(), s.horizon, 1}));
}

TEST_P(ModelSweep, GradientsFlowToEveryParameter) {
  const data::TrafficDataset& d = SharedDataset();
  ModelSettings s = SmallSettings();
  auto model = MakeModel(GetParam(), d, s);
  Rng rng(4);
  Tensor x = Tensor::Randn({1, d.num_sensors(), s.history, 1}, rng);
  ag::Var pred = model->Forward(x, /*training=*/true);
  ag::Var loss = ag::SumAll(ag::Square(pred));
  ag::Var reg = model->RegularizationLoss();
  if (reg.defined()) loss = ag::Add(loss, reg);
  loss.Backward();
  for (const auto& [name, p] : model->NamedParameters()) {
    EXPECT_GT(ops::SumAll(ops::Abs(p.grad())).item(), 0.0f)
        << GetParam() << ": " << name << " got no gradient";
  }
}

TEST_P(ModelSweep, EvalForwardIsDeterministic) {
  const data::TrafficDataset& d = SharedDataset();
  ModelSettings s = SmallSettings();
  auto model = MakeModel(GetParam(), d, s);
  Rng rng(5);
  Tensor x = Tensor::Randn({1, d.num_sensors(), s.history, 1}, rng);
  Tensor a = model->Forward(x, /*training=*/false).value();
  Tensor b = model->Forward(x, /*training=*/false).value();
  EXPECT_TRUE(ops::AllClose(a, b, 0.0f, 0.0f)) << GetParam();
}

TEST_P(ModelSweep, FewStepsReduceLossOnFixedBatch) {
  const data::TrafficDataset& d = SharedDataset();
  ModelSettings s = SmallSettings();
  auto model = MakeModel(GetParam(), d, s);
  Rng rng(6);
  Tensor x = Tensor::Randn({2, d.num_sensors(), s.history, 1}, rng);
  Tensor y = ops::MulScalar(Tensor::Randn({2, d.num_sensors(), s.horizon,
                                           1},
                                          rng),
                            0.5f);
  optim::Adam opt(model->Parameters(), 5e-3f);
  float first = 0.0f;
  float last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    opt.ZeroGrad();
    ag::Var loss = ag::MseLoss(model->Forward(x, /*training=*/false),
                               ag::Var(y));
    loss.Backward();
    opt.Step();
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
  }
  EXPECT_LT(last, first) << GetParam()
                         << " did not reduce the loss in 30 steps";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSweep,
    ::testing::Values("LongFormer", "DCRNN", "STGCN", "STG2Seq", "GWN",
                      "STSGCN", "ASTGNN", "STFGNN", "EnhanceNet", "AGCRN",
                      "meta-LSTM", "ST-WA", "S-WA", "WA", "WA-1",
                      "Det-ST-WA", "ST-WA-mean", "GRU", "GRU+S", "GRU+ST",
                      "ATT", "ATT+S", "ATT+ST", "VAR"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(MakeModel("NoSuchModel", SharedDataset(), SmallSettings()),
               Error);
}

TEST(RegistryTest, AllBaselineNamesAreConstructible) {
  for (const std::string& name : AllBaselineNames()) {
    EXPECT_NO_THROW(MakeModel(name, SharedDataset(), SmallSettings()))
        << name;
  }
  EXPECT_EQ(AllBaselineNames().size(), 11u) << "the paper has 11 baselines";
}

TEST(RegistryTest, SameSeedSameInit) {
  ModelSettings s = SmallSettings();
  auto a = MakeModel("DCRNN", SharedDataset(), s);
  auto b = MakeModel("DCRNN", SharedDataset(), s);
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(pa[i].value(), pb[i].value(), 0.0f, 0.0f));
  }
}

TEST(VarTest, IsExactlyLinear) {
  // f(a x1 + b x2) - f(0) == a (f(x1) - f(0)) + b (f(x2) - f(0)).
  BaselineConfig c;
  c.num_sensors = 3;
  c.history = 4;
  c.horizon = 2;
  Rng rng(50);
  VarModel model(c, &rng);
  Tensor zero = Tensor::Zeros({1, 3, 4, 1});
  Tensor x1 = Tensor::Randn({1, 3, 4, 1}, rng);
  Tensor x2 = Tensor::Randn({1, 3, 4, 1}, rng);
  Tensor f0 = model.Forward(zero, false).value();
  Tensor f1 = ops::Sub(model.Forward(x1, false).value(), f0);
  Tensor f2 = ops::Sub(model.Forward(x2, false).value(), f0);
  Tensor combo = ops::Add(ops::MulScalar(x1, 2.0f),
                          ops::MulScalar(x2, -0.5f));
  Tensor fc = ops::Sub(model.Forward(combo, false).value(), f0);
  Tensor expected = ops::Add(ops::MulScalar(f1, 2.0f),
                             ops::MulScalar(f2, -0.5f));
  EXPECT_TRUE(ops::AllClose(fc, expected, 1e-3f, 1e-4f));
}

// --- Model-specific behaviours ---------------------------------------------

TEST(GwnTest, AdaptiveAdjacencyIsRowStochastic) {
  BaselineConfig c;
  c.num_sensors = 5;
  c.history = 12;
  c.horizon = 3;
  c.d_model = 8;
  c.num_layers = 2;
  c.predictor_hidden = 16;
  Rng rng(7);
  GraphWaveNet gwn(c, &rng);
  Tensor adj = gwn.AdaptiveAdjacency();
  ASSERT_EQ(adj.shape(), (Shape{5, 5}));
  for (int64_t i = 0; i < 5; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_GE((adj({i, j})), 0.0f);
      row += adj({i, j});
    }
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(StfgnnTest, TemporalGraphConnectsSimilarProfiles) {
  // Two groups of sensors with very different daily profiles: the
  // similarity graph should connect within groups, not across.
  const int64_t n = 6;
  const int64_t spd = 48;
  Tensor values(Shape{n, spd * 2, 1});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t t = 0; t < spd * 2; ++t) {
      const float phase = 2.0f * 3.14159265f * (t % spd) / spd;
      values({i, t, 0}) =
          i < 3 ? std::sin(phase) : std::cos(2.0f * phase);
    }
  }
  Tensor g = TemporalSimilarityGraph(values, spd, /*top_k=*/2);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 3; j < 6; ++j) {
      EXPECT_EQ((g({i, j})), 0.0f) << i << "-" << j;
      EXPECT_EQ((g({j, i})), 0.0f) << j << "-" << i;
    }
  }
  // Each sensor has exactly top_k outgoing edges.
  for (int64_t i = 0; i < n; ++i) {
    float out_deg = 0.0f;
    for (int64_t j = 0; j < n; ++j) out_deg += g({i, j});
    EXPECT_EQ(out_deg, 2.0f);
  }
}

TEST(AgcrnTest, PerSensorWeightsDriveDistinctBehaviour) {
  BaselineConfig c;
  c.num_sensors = 4;
  c.history = 6;
  c.horizon = 2;
  c.d_model = 8;
  c.predictor_hidden = 16;
  Rng rng(8);
  Agcrn model(c, &rng);
  // Identical inputs for every sensor must still produce different
  // predictions per sensor (NAPL weights differ) — the spatial-aware
  // property the paper's Table II assigns to AGCRN.
  Tensor x(Shape{1, 4, 6, 1});
  for (int64_t t = 0; t < 6; ++t) {
    for (int64_t i = 0; i < 4; ++i) x({0, i, t, 0}) = 0.3f * t;
  }
  Tensor pred = model.Forward(x, false).value();
  Tensor s0 = ops::Slice(pred, 1, 0, 1);
  Tensor s1 = ops::Slice(pred, 1, 1, 1);
  EXPECT_GT(ops::MaxAbsDiff(s0, s1), 1e-6f);
}

}  // namespace
}  // namespace baselines
}  // namespace stwa
