// Tests for the plan-rewrite fusion passes (ir/rewrite.h), the region
// schedule (ir/regions.h) and region-parallel replay (which a replay takes
// whenever its thread can dispatch to a multi-thread pool).
//
// The load-bearing property is unchanged from ir_test: bit-identity.
// Fusion must never change a replayed float — fused kernels reuse the
// unfused per-element paths — and region-parallel replay must produce the
// serial schedule's exact bits at every thread count. On top of that, the
// pattern matchers must fire exactly where the legality rules allow:
// single-consumer chains fuse, fan-outs block, attention quads fuse,
// an externally observed softmax blocks.

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/no_grad.h"
#include "autograd/ops.h"
#include "baselines/registry.h"
#include "common/rng.h"
#include "data/traffic_generator.h"
#include "ir/op_kind.h"
#include "ir/plan.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "simd/lowp.h"
#include "switch_guards.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace stwa {
namespace {

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

/// Restores both plan switches to the on-state the test binary assumes.
void ResetModes() {
  ir::SetPlanMode(true);
  ir::SetFuseMode(true);
}

// --- Elementwise-chain fuser ----------------------------------------------

TEST(RewriteChainTest, SingleConsumerChainFusesIntoOneNode) {
  ResetModes();
  Rng rng(5);
  Tensor x0 = Tensor::Randn({4, 8}, rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ag::NoGradMode no_grad;
    ir::GraphCapture capture;
    ag::Var h = ag::Tanh(ag::Var(x0));
    h = ag::AddScalar(h, 0.5f);
    h = ag::MulScalar(h, 2.0f);
    ag::Var out = ag::Relu(h);  // kRelu is the root: excluded from chains
    plan = capture.Finish(out, {x0}, /*with_backward=*/false);
  }
  ASSERT_NE(plan, nullptr);
  // tanh → add_scalar → mul_scalar collapses; relu (the root) survives.
  EXPECT_EQ(plan->stats().fused_map_nodes, 1);
  EXPECT_EQ(plan->stats().fused_attention_nodes, 0);
  EXPECT_EQ(plan->stats().fused_away_ops, 2);
  EXPECT_EQ(plan->stats().forward_ops, 2);

  Tensor x1 = Tensor::Randn({4, 8}, rng);
  Tensor replayed = plan->ReplayForward({x1});
  Tensor eager = ops::Relu(
      ops::MulScalar(ops::AddScalar(ops::Tanh(x1), 0.5f), 2.0f));
  EXPECT_TRUE(BitIdentical(replayed, eager));
}

TEST(RewriteChainTest, BinaryStagesCarrySidesAndSwap) {
  ResetModes();
  Rng rng(6);
  Tensor x0 = Tensor::Randn({3, 5}, rng);
  Tensor s0 = Tensor::Randn({3, 5}, rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ag::NoGradMode no_grad;
    ir::GraphCapture capture;
    ag::Var side(s0);
    ag::Var h = ag::Exp(ag::Var(x0));
    h = ag::Sub(side, h);  // swapped: chain value is the right operand
    h = ag::Mul(h, side);  // same side leaf reused through one slot
    ag::Var out = ag::MeanAll(h);
    plan = capture.Finish(out, {x0}, /*with_backward=*/false);
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->stats().fused_map_nodes, 1);
  EXPECT_EQ(plan->stats().fused_away_ops, 2);
  EXPECT_EQ(plan->stats().forward_ops, 2);  // fused_map + mean_all

  Tensor x1 = Tensor::Randn({3, 5}, rng);
  Tensor replayed = plan->ReplayForward({x1});
  Tensor eager = ops::MeanAll(ops::Mul(ops::Sub(s0, ops::Exp(x1)), s0));
  EXPECT_TRUE(BitIdentical(replayed, eager));
}

TEST(RewriteChainTest, FanOutBlocksTheChain) {
  ResetModes();
  Rng rng(7);
  Tensor x0 = Tensor::Randn({4, 4}, rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ag::NoGradMode no_grad;
    ir::GraphCapture capture;
    ag::Var e = ag::Exp(ag::Var(x0));
    // Two consumers: e is observable, so no chain may absorb it.
    ag::Var y1 = ag::AddScalar(e, 1.0f);
    ag::Var y2 = ag::MulScalar(e, 2.0f);
    ag::Var out = ag::Add(y1, y2);  // root: excluded from chains as well
    plan = capture.Finish(out, {x0}, /*with_backward=*/false);
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->stats().fused_map_nodes, 0);
  EXPECT_EQ(plan->stats().fused_away_ops, 0);
  EXPECT_EQ(plan->stats().forward_ops, 4);

  Tensor x1 = Tensor::Randn({4, 4}, rng);
  Tensor replayed = plan->ReplayForward({x1});
  Tensor e = ops::Exp(x1);
  Tensor eager = ops::Add(ops::AddScalar(e, 1.0f), ops::MulScalar(e, 2.0f));
  EXPECT_TRUE(BitIdentical(replayed, eager));
}

// --- Attention-quad fuser -------------------------------------------------

TEST(RewriteAttentionTest, QuadFusesIntoOneNode) {
  ResetModes();
  Rng rng(8);
  Tensor q0 = Tensor::Randn({2, 5, 3}, rng);
  Tensor k0 = Tensor::Randn({2, 5, 3}, rng);
  Tensor v0 = Tensor::Randn({2, 5, 4}, rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ag::NoGradMode no_grad;
    ir::GraphCapture capture;
    ag::Var kt = ag::TransposeLast2(ag::Var(k0));
    ag::Var scores = ag::MulScalar(ag::MatMul(ag::Var(q0), kt), 0.25f);
    ag::Var out = ag::MatMul(ag::SoftmaxLast(scores), ag::Var(v0));
    ag::Var root = ag::AddScalar(out, 0.0f);  // keeps the quad off the root
    plan = capture.Finish(root, {q0, k0, v0}, /*with_backward=*/false);
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->stats().fused_attention_nodes, 1);
  EXPECT_EQ(plan->stats().fused_away_ops, 3);
  // transpose_last2 + fused_attention + add_scalar; the key transpose
  // stays a plan node by design (kernel bit-compatibility).
  EXPECT_EQ(plan->stats().forward_ops, 3);

  Tensor q1 = Tensor::Randn({2, 5, 3}, rng);
  Tensor k1 = Tensor::Randn({2, 5, 3}, rng);
  Tensor v1 = Tensor::Randn({2, 5, 4}, rng);
  Tensor replayed = plan->ReplayForward({q1, k1, v1});
  Tensor eager = ops::MatMul(
      ops::SoftmaxLast(ops::MulScalar(
          ops::MatMul(q1, ops::TransposeLast2(k1)), 0.25f)),
      v1);
  EXPECT_TRUE(BitIdentical(replayed, eager));
}

TEST(RewriteAttentionTest, ObservedSoftmaxBlocksTheQuad) {
  ResetModes();
  Rng rng(9);
  // n == d so the attention output and the softmax share a shape and can
  // be added — giving the softmax a second consumer.
  Tensor q0 = Tensor::Randn({2, 4}, rng);
  Tensor k0 = Tensor::Randn({4, 4}, rng);  // pre-transposed key
  Tensor v0 = Tensor::Randn({4, 4}, rng);
  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ag::NoGradMode no_grad;
    ir::GraphCapture capture;
    ag::Var sm = ag::SoftmaxLast(
        ag::MulScalar(ag::MatMul(ag::Var(q0), ag::Var(k0)), 0.5f));
    ag::Var out = ag::MatMul(sm, ag::Var(v0));
    ag::Var root = ag::Add(out, sm);  // the intervening consumer
    plan = capture.Finish(root, {q0, k0, v0}, /*with_backward=*/false);
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->stats().fused_attention_nodes, 0);
  EXPECT_EQ(plan->stats().fused_away_ops, 0);

  Tensor q1 = Tensor::Randn({2, 4}, rng);
  Tensor replayed = plan->ReplayForward({q1, k0, v0});
  Tensor sm = ops::SoftmaxLast(ops::MulScalar(ops::MatMul(q1, k0), 0.5f));
  Tensor eager = ops::Add(ops::MatMul(sm, v0), sm);
  EXPECT_TRUE(BitIdentical(replayed, eager));
}

// --- ST-WA eval plan: fusion payoff + region determinism ------------------

data::TrafficDataset RewriteDataset() {
  data::GeneratorOptions o;
  o.num_roads = 2;
  o.sensors_per_road = 2;
  o.num_days = 3;
  o.steps_per_day = 96;
  o.noise_std = 5.0f;
  o.seed = 21;
  return data::GenerateTraffic(o);
}

baselines::ModelSettings RewriteSettings() {
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

/// Captures a forward-only plan of the ST-WA eval step under the current
/// fuse gate, tracing on `x0`.
std::unique_ptr<ir::ExecutionPlan> CaptureEvalPlan(
    train::ForecastModel& model, const Tensor& x0) {
  ag::NoGradMode no_grad;
  ir::GraphCapture capture;
  ag::Var pred = model.Forward(x0, /*training=*/false);
  return capture.Finish(pred, {x0}, /*with_backward=*/false);
}

TEST(RewriteStwaTest, EvalPlanFusesBothPatternsAndStaysBitIdentical) {
  ResetModes();
  data::TrafficDataset d = RewriteDataset();
  baselines::ModelSettings s = RewriteSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", d, s);
  Rng rng(17);
  Tensor x0 = Tensor::Rand(
      {2, d.num_sensors(), s.history, d.num_features()}, rng, -1.5f, 1.5f);

  ir::SetFuseMode(false);
  auto unfused = CaptureEvalPlan(*model, x0);
  ir::SetFuseMode(true);
  auto fused = CaptureEvalPlan(*model, x0);
  ASSERT_NE(unfused, nullptr);
  ASSERT_NE(fused, nullptr);

  // Both fuser patterns must fire on the real ST-WA step, and together
  // they must shave >= 20% off the executed schedule.
  EXPECT_GT(fused->stats().fused_map_nodes, 0);
  EXPECT_GT(fused->stats().fused_attention_nodes, 0);
  EXPECT_EQ(fused->stats().forward_ops + fused->stats().fused_away_ops,
            unfused->stats().forward_ops);
  EXPECT_LE(fused->stats().forward_ops * 5,
            unfused->stats().forward_ops * 4);

  Tensor x1 = Tensor::Rand(
      {2, d.num_sensors(), s.history, d.num_features()}, rng, -1.5f, 1.5f);
  Tensor a = unfused->ReplayForward({x1}).Clone();
  Tensor b = fused->ReplayForward({x1}).Clone();
  EXPECT_TRUE(BitIdentical(a, b));
}

TEST(RewriteStwaTest, RegionScheduleIsDeterministicAcrossCaptures) {
  ResetModes();
  data::TrafficDataset d = RewriteDataset();
  baselines::ModelSettings s = RewriteSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", d, s);
  Rng rng(18);
  Tensor x0 = Tensor::Rand(
      {2, d.num_sensors(), s.history, d.num_features()}, rng, -1.5f, 1.5f);

  auto plan_a = CaptureEvalPlan(*model, x0);
  auto plan_b = CaptureEvalPlan(*model, x0);
  ASSERT_NE(plan_a, nullptr);
  ASSERT_NE(plan_b, nullptr);
  EXPECT_GT(plan_a->stats().regions, 1);
  EXPECT_GT(plan_a->stats().region_stages, 1);
  // The ST-WA windows are independent subgraphs: the schedule must expose
  // real width for the region-parallel replay to use.
  EXPECT_GT(plan_a->stats().max_stage_width, 1);
  EXPECT_EQ(plan_a->RegionSignature(), plan_b->RegionSignature());
  EXPECT_FALSE(plan_a->RegionSignature().empty());
}

TEST(RewriteStwaTest, RegionParallelReplayIsBitIdenticalAcrossThreads) {
  ResetModes();
  data::TrafficDataset d = RewriteDataset();
  baselines::ModelSettings s = RewriteSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", d, s);
  Rng rng(19);
  Tensor x0 = Tensor::Rand(
      {2, d.num_sensors(), s.history, d.num_features()}, rng, -1.5f, 1.5f);

  auto plan = CaptureEvalPlan(*model, x0);
  ASSERT_NE(plan, nullptr);

  Tensor x1 = Tensor::Rand(
      {2, d.num_sensors(), s.history, d.num_features()}, rng, -1.5f, 1.5f);
  // 1 thread: the serial per-step replay is the reference.
  runtime::SetNumThreads(1);
  EXPECT_FALSE(ir::RegionParModeEnabled());
  Tensor reference = plan->ReplayForward({x1}).Clone();
  // 4 threads: the staged region schedule on the pool.
  runtime::SetNumThreads(4);
  EXPECT_TRUE(ir::RegionParModeEnabled());
  Tensor parallel = plan->ReplayForward({x1}).Clone();
  EXPECT_TRUE(BitIdentical(parallel, reference));
  {
    // 4 threads, but a serial-region caller (fleet shard workers): serial.
    runtime::ScopedSerialRegion serial_region;
    EXPECT_FALSE(ir::RegionParModeEnabled());
    Tensor serial = plan->ReplayForward({x1}).Clone();
    EXPECT_TRUE(BitIdentical(serial, reference));
  }
  runtime::SetNumThreads(0);
}

// --- Train plans: rule (a) ------------------------------------------------

/// Captures one train step in which a gradient-free elementwise chain on
/// the feed x feeds the parameter path 0.5 · tanh(chain(x) · w), whose own
/// elementwise chain carries gradients.
std::unique_ptr<ir::ExecutionPlan> CaptureChainTrainStep(bool fuse,
                                                         const ag::Var& w) {
  Rng rng(13);
  Tensor x0 = Tensor::Randn({4, 3}, rng);
  Tensor y0 = Tensor::Randn({4, 2}, rng);
  ir::GraphCapture capture(ir::PlanModes{/*plan=*/true, fuse});
  ag::Var h = ag::Exp(ag::MulScalar(ag::Var(x0), 0.5f));
  h = ag::AddScalar(ag::Tanh(h), 1.0f);
  ag::Var pred = ag::MulScalar(ag::Tanh(ag::MatMul(h, w)), 0.5f);
  ag::Var loss = ag::HuberLoss(pred, ag::Var(y0), 1.0f);
  loss.Backward();
  return capture.Finish(loss, {x0, y0}, /*with_backward=*/true);
}

TEST(RewriteTrainingTest, TrainPlanFusesOnlyGradientFreeNodes) {
  ResetModes();
  Rng rng(14);
  const Tensor w0 = Tensor::Randn({3, 2}, rng);
  ag::Var w_fused = ag::Parameter(w0.Clone());
  ag::Var w_plain = ag::Parameter(w0.Clone());
  auto fused = CaptureChainTrainStep(/*fuse=*/true, w_fused);
  auto plain = CaptureChainTrainStep(/*fuse=*/false, w_plain);
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(plain, nullptr);
  // The feed chain (mul_scalar → exp → tanh → add_scalar) fuses; the
  // parameter path's tanh → mul_scalar does not.
  ASSERT_EQ(fused->stats().fused_map_nodes, 1);
  ASSERT_EQ(plain->stats().fused_map_nodes, 0);
  int64_t fused_nodes = 0;
  for (const ag::Node* n : fused->forward_steps()) {
    if (n->kind == ir::OpKind::kFusedMap ||
        n->kind == ir::OpKind::kFusedAttention) {
      ++fused_nodes;
      ASSERT_FALSE(n->requires_grad) << ir::OpKindName(n->kind);
    }
  }
  EXPECT_EQ(fused_nodes, 1);
  EXPECT_EQ(fused->stats().backward_ops, plain->stats().backward_ops);
  // Fusion changes no replayed loss or parameter-gradient bit.
  for (int step = 0; step < 3; ++step) {
    Tensor x = Tensor::Randn({4, 3}, rng);
    Tensor y = Tensor::Randn({4, 2}, rng);
    w_fused.ZeroGrad();
    w_plain.ZeroGrad();
    EXPECT_EQ(fused->ReplayTrainStep({x, y}), plain->ReplayTrainStep({x, y}))
        << "step " << step;
    EXPECT_TRUE(BitIdentical(w_fused.grad(), w_plain.grad()))
        << "step " << step;
  }
}

// --- End-to-end bit-identity: Fit and serving -----------------------------

struct FitOutcome {
  train::TrainResult result;
  std::vector<Tensor> params;
};

/// Trains with `threads` pool threads; `serial_region` runs the whole fit
/// under runtime::ScopedSerialRegion, so replays stay serial at 4 threads.
FitOutcome RunFit(const data::TrafficDataset& dataset, bool fuse, int threads,
                  bool serial_region = false) {
  ir::SetFuseMode(fuse);
  PlanModeGuard plan_mode(true);
  runtime::SetNumThreads(threads);
  std::optional<runtime::ScopedSerialRegion> serial;
  if (serial_region) serial.emplace();
  baselines::ModelSettings s = RewriteSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", dataset, s);
  train::TrainConfig c;
  c.epochs = 2;
  c.batch_size = 8;
  c.stride = 3;
  c.eval_stride = 4;
  train::Trainer trainer(dataset, s.history, s.horizon, c);
  FitOutcome out;
  out.result = trainer.Fit(*model);
  for (const ag::Var& p : model->Parameters()) {
    out.params.push_back(p.value().Clone());
  }
  ResetModes();
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

TEST(RewriteTrainingTest, FitIsBitIdenticalFuseOnVsOffAtOneAndFourThreads) {
  data::TrafficDataset d = RewriteDataset();
  FitOutcome fused1 = RunFit(d, /*fuse=*/true, 1);
  FitOutcome plain1 = RunFit(d, /*fuse=*/false, 1);
  FitOutcome fused4 = RunFit(d, /*fuse=*/true, 4);
  FitOutcome plain4 = RunFit(d, /*fuse=*/false, 4);
  FitOutcome fused4_serial = RunFit(d, /*fuse=*/true, 4,
                                    /*serial_region=*/true);
  runtime::SetNumThreads(0);
  ExpectSameTraining(plain1, fused1);
  ExpectSameTraining(plain1, plain4);
  ExpectSameTraining(plain1, fused4);
  ExpectSameTraining(plain1, fused4_serial);
}

TEST(RewriteServeTest, ForecastsAreBitIdenticalFuseOnVsOff) {
  ResetModes();
  data::TrafficDataset d = RewriteDataset();
  baselines::ModelSettings s = RewriteSettings();
  SetGlobalSeed(123);
  auto model = baselines::MakeModel("ST-WA", d, s);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = s;
  info.num_sensors = d.num_sensors();
  info.num_features = d.num_features();
  info.scaler_mean = 180.0f;
  info.scaler_std = 42.0f;
  const std::string path = "/tmp/stwa_ir_rewrite_test_ckpt.bin";
  serve::SaveServingCheckpoint(*model, info, path);

  // Every precision tier keeps its bytes across rewrites, thread counts
  // and serial replay.
  for (const simd::Precision tier :
       {simd::Precision::kFp32, simd::Precision::kBf16,
        simd::Precision::kInt8}) {
    serve::SessionConfig cfg;
    cfg.precision = tier;
    // Sessions snapshot the fuse switch at Open; set it before each Open.
    ir::SetFuseMode(true);
    auto fused = serve::InferenceSession::Open(path, cfg);
    ir::SetFuseMode(false);
    auto plain = serve::InferenceSession::Open(path, cfg);
    ResetModes();
    ASSERT_NE(fused, nullptr);
    ASSERT_NE(plain, nullptr);

    Rng rng(31);
    for (int threads : {1, 4}) {
      runtime::SetNumThreads(threads);
      for (int i = 0; i < 2; ++i) {
        Tensor window = Tensor::Rand(
            {2, d.num_sensors(), s.history, d.num_features()}, rng, 50.0f,
            400.0f);
        Tensor with_fusion = fused->Forecast(window);
        Tensor without_fusion = plain->Forecast(window);
        EXPECT_TRUE(BitIdentical(with_fusion, without_fusion))
            << simd::PrecisionName(tier) << " request " << i << " at "
            << threads << " threads";
        if (threads > 1) {
          runtime::ScopedSerialRegion serial_region;  // serial replay
          EXPECT_TRUE(BitIdentical(fused->Forecast(window), with_fusion))
              << simd::PrecisionName(tier) << " request " << i
              << " serial region";
        }
      }
    }
    runtime::SetNumThreads(0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stwa
