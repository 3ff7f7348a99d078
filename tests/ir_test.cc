// Tests for the typed graph IR and captured execution plans (src/ir).
//
// The load-bearing property is bit-identity: a replayed plan must produce
// exactly the floats eager tracing produces — same loss, same gradients,
// same trained weights, same metrics, same served forecasts — at any
// thread count and with the buffer pool on or off. Everything else (plan
// cache keying, liveness, registry invariants, iterative teardown) rides
// on top of that contract.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/no_grad.h"
#include "autograd/ops.h"
#include "baselines/registry.h"
#include "common/rng.h"
#include "data/traffic_generator.h"
#include "ir/op_kind.h"
#include "ir/plan.h"
#include "ir/registry.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "switch_guards.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace stwa {
namespace {

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

// --- Registry invariants --------------------------------------------------

TEST(IrRegistryTest, EveryKindIsRegisteredWithAName) {
  for (int k = 0; k < ir::kNumOpKinds; ++k) {
    const ir::OpKind kind = static_cast<ir::OpKind>(k);
    EXPECT_NE(ir::OpKindName(kind), nullptr);
    EXPECT_GT(std::strlen(ir::OpKindName(kind)), 0u);
  }
  // Leaves are storage, not computation; every other kind recomputes.
  EXPECT_EQ(ir::Kernel(ir::OpKind::kLeaf).forward, nullptr);
  for (int k = 1; k < ir::kNumOpKinds; ++k) {
    EXPECT_NE(ir::Kernel(static_cast<ir::OpKind>(k)).forward, nullptr)
        << ir::OpKindName(static_cast<ir::OpKind>(k));
  }
}

TEST(IrRegistryTest, GradcheckCoversEveryDifferentiableKind) {
  std::vector<std::string> failures;
  const int checked = ag::CheckAllOpKinds(&failures);
  for (const std::string& f : failures) ADD_FAILURE() << f;
  // Every kind except kLeaf, kDetach, the sampling sources and the
  // forward-only fused kinds carries a backward kernel and must have been
  // finite-difference checked.
  EXPECT_EQ(checked, ir::kNumOpKinds - 6);
}

TEST(IrRegistryTest, FusedKindsAreForwardOnly) {
  // The rewriter fuses only gradient-free nodes (ir/rewrite.h rule (a)),
  // so no backward schedule ever reaches a fused node.
  for (const ir::OpKind kind :
       {ir::OpKind::kFusedMap, ir::OpKind::kFusedAttention}) {
    const ir::OpKernelInfo& info = ir::Kernel(kind);
    EXPECT_NE(info.forward, nullptr) << info.name;
    EXPECT_EQ(info.backward, nullptr) << info.name;
    EXPECT_FALSE(info.backward_reads_parents) << info.name;
    EXPECT_EQ(info.make_gradcheck, nullptr) << info.name;
  }
}

// --- Node mechanics -------------------------------------------------------

TEST(IrNodeTest, DeepTapeTeardownDoesNotRecurse) {
  // 200k chained ops would overflow the stack under recursive shared_ptr
  // teardown (~one frame per node); the iterative destructor must drain
  // the chain flat.
  ag::Var v = ag::Parameter(Tensor(Shape{4}, 1.0f));
  for (int i = 0; i < 200000; ++i) v = ag::AddScalar(v, 1e-3f);
  SUCCEED();  // reaching scope exit without a crash is the assertion
}

TEST(IrNodeTest, NoGradModeStillPrunesParentsOutsideCapture) {
  ag::NoGradMode no_grad;
  ag::Var a = ag::Parameter(Tensor(Shape{2, 2}, 1.0f));
  ag::Var b = ag::Mul(a, a);
  EXPECT_FALSE(b.requires_grad());
  EXPECT_TRUE(b.node()->parents.empty());
  EXPECT_EQ(b.node()->kind, ir::OpKind::kMul);
}

// --- Plan capture / replay, direct ---------------------------------------

struct StepResult {
  float loss = 0.0f;
  Tensor grad;
};

StepResult EagerStep(ag::Var& w, const Tensor& x, const Tensor& y) {
  w.ZeroGrad();
  ag::Var pred = ag::Tanh(ag::MatMul(ag::Var(x), w));
  ag::Var loss = ag::HuberLoss(pred, ag::Var(y), 1.0f);
  loss.Backward();
  return {loss.value().item(), w.grad().Clone()};
}

TEST(ExecutionPlanTest, ReplayMatchesEagerBitForBit) {
  Rng rng(42);
  ag::Var w = ag::Parameter(Tensor::Randn({3, 2}, rng));
  Tensor x0 = Tensor::Randn({4, 3}, rng);
  Tensor y0 = Tensor::Randn({4, 2}, rng);

  // Capture while tracing the first step.
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ir::GraphCapture capture;
    w.ZeroGrad();
    ag::Var pred = ag::Tanh(ag::MatMul(ag::Var(x0), w));
    ag::Var loss = ag::HuberLoss(pred, ag::Var(y0), 1.0f);
    loss.Backward();
    plan = capture.Finish(loss, {x0, y0}, /*with_backward=*/true);
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->stats().forward_ops, 0);
  EXPECT_GT(plan->stats().backward_ops, 0);
  EXPECT_GT(plan->stats().released_buffers, 0);
  // Liveness must beat the traced tape's keep-everything footprint.
  EXPECT_GT(plan->stats().tape_value_bytes, 0);
  EXPECT_LT(plan->stats().peak_live_bytes,
            2 * plan->stats().tape_value_bytes);

  // Replay with fresh feeds; an eager step on an identical parameter must
  // agree bit-for-bit.
  ag::Var w_ref = ag::Parameter(w.value().Clone());
  for (int step = 0; step < 3; ++step) {
    Tensor x = Tensor::Randn({4, 3}, rng);
    Tensor y = Tensor::Randn({4, 2}, rng);
    w.ZeroGrad();
    const float replayed = plan->ReplayTrainStep({x, y});
    StepResult eager = EagerStep(w_ref, x, y);
    EXPECT_EQ(replayed, eager.loss) << "step " << step;
    EXPECT_TRUE(BitIdentical(w.grad(), eager.grad)) << "step " << step;
  }
}

TEST(ExecutionPlanTest, ReplayIsBitIdenticalWithPoolDisabled) {
  // Liveness releases must be correct when released buffers are truly
  // freed (no pool recycling): any premature release becomes a crash or a
  // wrong float here.
  pool::SetEnabled(false);
  Rng rng(7);
  ag::Var w = ag::Parameter(Tensor::Randn({5, 3}, rng));
  Tensor x0 = Tensor::Randn({2, 5}, rng);
  Tensor y0 = Tensor::Randn({2, 3}, rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ir::GraphCapture capture;
    w.ZeroGrad();
    ag::Var loss =
        ag::MseLoss(ag::Sigmoid(ag::MatMul(ag::Var(x0), w)), ag::Var(y0));
    loss.Backward();
    plan = capture.Finish(loss, {x0, y0}, /*with_backward=*/true);
  }
  ASSERT_NE(plan, nullptr);
  ag::Var w_ref = ag::Parameter(w.value().Clone());
  Tensor x1 = Tensor::Randn({2, 5}, rng);
  Tensor y1 = Tensor::Randn({2, 3}, rng);
  w.ZeroGrad();
  const float replayed = plan->ReplayTrainStep({x1, y1});
  w_ref.ZeroGrad();
  ag::Var loss =
      ag::MseLoss(ag::Sigmoid(ag::MatMul(ag::Var(x1), w_ref)), ag::Var(y1));
  loss.Backward();
  EXPECT_EQ(replayed, loss.value().item());
  EXPECT_TRUE(BitIdentical(w.grad(), w_ref.grad()));
  pool::SetEnabled(true);
}

TEST(ExecutionPlanTest, SamplingOpsRedrawTheStreamOnReplay) {
  // A plan over a graph with a kRandn source must consume the generator
  // exactly like eager tracing: same draws, same order.
  Rng plan_rng(99);
  Rng eager_rng(99);
  Rng data_rng(5);
  Tensor x0 = Tensor::Randn({3, 3}, data_rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  Tensor first;
  {
    ir::GraphCapture capture;
    ag::Var out = ag::Add(ag::Var(x0), ag::RandnVar({3, 3}, plan_rng));
    first = out.value();
    plan = capture.Finish(out, {x0}, /*with_backward=*/false);
  }
  ASSERT_NE(plan, nullptr);
  // Eager reference: same data, fresh generator with the same seed.
  Tensor eager0 = ops::Add(x0, Tensor::Randn({3, 3}, eager_rng));
  EXPECT_TRUE(BitIdentical(first, eager0));
  Tensor x1 = Tensor::Randn({3, 3}, data_rng);
  Tensor replayed = plan->ReplayForward({x1});
  Tensor eager1 = ops::Add(x1, Tensor::Randn({3, 3}, eager_rng));
  EXPECT_TRUE(BitIdentical(replayed, eager1));
  // The replay advanced the generator — a second replay draws new noise.
  Tensor replayed2 = plan->ReplayForward({x1});
  EXPECT_FALSE(BitIdentical(replayed, replayed2));
}

TEST(ExecutionPlanTest, UnplannableCaptureFallsBackToNull) {
  Rng rng(3);
  Tensor x = Tensor::Randn({2, 2}, rng);
  ir::GraphCapture capture;
  ag::Var w = ag::Parameter(Tensor::Randn({2, 2}, rng));
  // The feed is cloned before wrapping, so no captured leaf aliases x's
  // buffer — the capture cannot be replayed with swapped feeds.
  ag::Var loss = ag::MeanAll(ag::MatMul(ag::Var(x.Clone()), w));
  loss.Backward();
  EXPECT_EQ(capture.Finish(loss, {x}, /*with_backward=*/true), nullptr);
}

// --- End-to-end training bit-identity ------------------------------------

data::TrafficDataset PlanDataset() {
  data::GeneratorOptions o;
  o.num_roads = 2;
  o.sensors_per_road = 2;
  o.num_days = 3;
  o.steps_per_day = 96;
  o.noise_std = 5.0f;
  o.seed = 21;
  return data::GenerateTraffic(o);
}

baselines::ModelSettings PlanSettings() {
  baselines::ModelSettings s;
  s.history = 12;
  s.horizon = 3;
  s.d_model = 8;
  s.window_sizes = {3, 2, 2};
  s.latent_dim = 4;
  s.predictor_hidden = 16;
  s.seed = 11;
  return s;
}

struct FitOutcome {
  train::TrainResult result;
  std::vector<Tensor> params;
};

FitOutcome RunFit(const data::TrafficDataset& dataset, bool plan,
                  int threads) {
  PlanModeGuard plan_mode(plan);
  baselines::ModelSettings s = PlanSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", dataset, s);
  train::TrainConfig c;
  c.epochs = 2;
  c.batch_size = 8;
  c.stride = 3;
  c.eval_stride = 4;
  c.num_threads = threads;
  train::Trainer trainer(dataset, s.history, s.horizon, c);
  FitOutcome out;
  out.result = trainer.Fit(*model);
  for (const ag::Var& p : model->Parameters()) {
    out.params.push_back(p.value().Clone());
  }
  return out;
}

void ExpectSameTraining(const FitOutcome& a, const FitOutcome& b) {
  ASSERT_EQ(a.result.val_mae_history.size(), b.result.val_mae_history.size());
  for (size_t i = 0; i < a.result.val_mae_history.size(); ++i) {
    EXPECT_EQ(a.result.val_mae_history[i], b.result.val_mae_history[i])
        << "epoch " << i;
  }
  EXPECT_EQ(a.result.test.mae, b.result.test.mae);
  EXPECT_EQ(a.result.test.rmse, b.result.test.rmse);
  EXPECT_EQ(a.result.val.mae, b.result.val.mae);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_TRUE(BitIdentical(a.params[i], b.params[i])) << "param " << i;
  }
}

TEST(PlanTrainingTest, FitIsBitIdenticalPlanOnVsOffSingleThread) {
  data::TrafficDataset d = PlanDataset();
  FitOutcome off = RunFit(d, /*plan=*/false, /*threads=*/1);
  FitOutcome on = RunFit(d, /*plan=*/true, /*threads=*/1);
  runtime::SetNumThreads(0);
  EXPECT_EQ(off.result.plan.plans_captured, 0);
  EXPECT_EQ(off.result.plan.replayed_steps, 0);
  EXPECT_GT(on.result.plan.plans_captured, 0);
  EXPECT_GT(on.result.plan.replayed_steps, 0);
  EXPECT_GT(on.result.plan.captured_nodes, 0);
  EXPECT_GT(on.result.plan.backward_ops, 0);
  ExpectSameTraining(off, on);
}

TEST(PlanTrainingTest, FitIsBitIdenticalPlanOnVsOffFourThreads) {
  data::TrafficDataset d = PlanDataset();
  FitOutcome off = RunFit(d, /*plan=*/false, /*threads=*/4);
  FitOutcome on = RunFit(d, /*plan=*/true, /*threads=*/4);
  // And the runtime's thread-count determinism must hold through replays.
  FitOutcome on1 = RunFit(d, /*plan=*/true, /*threads=*/1);
  runtime::SetNumThreads(0);
  ExpectSameTraining(off, on);
  ExpectSameTraining(on, on1);
}

TEST(PlanTrainingTest, PlanCacheCapturesPerBatchShape) {
  PlanModeGuard plan_mode(true);
  data::TrafficDataset d = PlanDataset();
  baselines::ModelSettings s = PlanSettings();
  train::TrainConfig c;
  c.epochs = 2;
  c.batch_size = 8;
  c.stride = 3;
  c.eval_stride = 4;
  c.num_threads = 1;
  train::Trainer trainer(d, s.history, s.horizon, c);
  auto batches =
      trainer.train_sampler().EpochBatches(c.batch_size, nullptr);
  ASSERT_GT(batches.size(), 1u);
  // The fixture must end in a partial batch, or this test checks nothing.
  ASSERT_NE(static_cast<int64_t>(batches.back().size()), c.batch_size);

  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", d, s);
  train::TrainResult r = trainer.Fit(*model);
  runtime::SetNumThreads(0);
  // One plan per distinct batch shape: full batches + the trailing rest.
  EXPECT_EQ(r.plan.plans_captured, 2);
  EXPECT_EQ(r.plan.traced_steps, 2);
  const int64_t steps_per_epoch = static_cast<int64_t>(batches.size());
  EXPECT_EQ(r.plan.traced_steps + r.plan.replayed_steps,
            steps_per_epoch * r.epochs_run);
}

// --- Serving bit-identity -------------------------------------------------

TEST(PlanServeTest, ForecastsAreBitIdenticalPlanOnVsOff) {
  data::TrafficDataset d = PlanDataset();
  baselines::ModelSettings s = PlanSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", d, s);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = s;
  info.num_sensors = d.num_sensors();
  info.num_features = d.num_features();
  info.scaler_mean = 180.0f;
  info.scaler_std = 42.0f;
  const std::string path = "/tmp/stwa_ir_test_ckpt.bin";
  serve::SaveServingCheckpoint(*model, info, path);

  // Sessions snapshot the plan gates at Open (a mid-stream toggle must not
  // split one session across modes), so each mode is set before its Open.
  ir::SetPlanMode(true);
  auto planned = serve::InferenceSession::Open(path);
  ir::SetPlanMode(false);
  auto eager = serve::InferenceSession::Open(path);
  ir::SetPlanMode(true);
  ASSERT_NE(planned, nullptr);
  ASSERT_NE(eager, nullptr);

  Rng rng(31);
  for (int i = 0; i < 3; ++i) {
    Tensor window = Tensor::Rand(
        {2, d.num_sensors(), s.history, d.num_features()}, rng, 50.0f,
        400.0f);
    Tensor with_plan = planned->Forecast(window);
    Tensor without_plan = eager->Forecast(window);
    EXPECT_TRUE(BitIdentical(with_plan, without_plan)) << "request " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stwa
