#include "train/step_engine.h"

#include "autograd/no_grad.h"
#include "common/check.h"
#include "ir/capture.h"

namespace stwa {
namespace train {
namespace {

/// Plan-cache key: one plan per distinct (x shape, y shape) pair. Only the
/// final partial batch of an epoch differs from the full-batch shape, so a
/// training run holds at most two train plans.
std::string PlanKey(const data::Batch& batch) {
  return ShapeToString(batch.x.shape()) + "|" + ShapeToString(batch.y.shape());
}

}  // namespace

StepEngine::StepEngine(ForecastModel& model, StepEngineConfig config)
    : model_(model),
      config_(config),
      use_plan_(ir::PlanModeEnabled()),
      params_(model.Parameters()) {}

optim::Optimizer& StepEngine::optimizer() {
  if (opt_ == nullptr) {
    opt_ = std::make_unique<optim::Adam>(params_, config_.lr);
  }
  return *opt_;
}

ag::Var StepEngine::TracedStep(const data::Batch& batch) {
  ag::Var pred = model_.Forward(batch.x, /*training=*/true);
  ag::Var loss =
      ag::HuberLoss(pred, ag::Var(batch.y), config_.huber_delta);
  ag::Var reg = model_.RegularizationLoss();
  if (reg.defined()) loss = ag::Add(loss, reg);
  loss.Backward();
  return loss;
}

float StepEngine::Step(const data::Batch& batch) {
  optim::Optimizer& opt = optimizer();
  opt.ZeroGrad();
  float loss_value = 0.0f;
  if (!use_plan_) {
    loss_value = TracedStep(batch).value().item();
    ++plan_.traced_steps;
  } else {
    const std::string key = PlanKey(batch);
    auto it = train_plans_.find(key);
    if (it == train_plans_.end()) {
      // First batch of this shape: trace eagerly while recording, then
      // freeze the recording into a replayable plan.
      ir::GraphCapture capture;
      ag::Var loss = TracedStep(batch);
      loss_value = loss.value().item();
      auto plan = capture.Finish(loss, {batch.x, batch.y},
                                 /*with_backward=*/true);
      if (plan != nullptr) {
        ++plan_.plans_captured;
        if (plan->stats().captured_nodes > plan_.captured_nodes) {
          static_cast<ir::PlanStats&>(plan_) = plan->stats();
        }
      }
      train_plans_.emplace(key, std::move(plan));
      ++plan_.traced_steps;
    } else if (it->second != nullptr) {
      loss_value = it->second->ReplayTrainStep({batch.x, batch.y});
      ++plan_.replayed_steps;
    } else {
      loss_value = TracedStep(batch).value().item();
      ++plan_.traced_steps;
    }
  }
  optim::ClipGradNorm(params_, config_.clip_norm);
  opt.Step();
  ++steps_;
  return loss_value;
}

Tensor StepEngine::Predict(const Tensor& x) {
  // Inference only: no gradient bookkeeping, plan capture without the
  // backward half.
  ag::NoGradMode no_grad;
  if (!use_plan_) {
    return model_.Forward(x, /*training=*/false).value();
  }
  const std::string key = ShapeToString(x.shape());
  auto it = eval_plans_.find(key);
  if (it == eval_plans_.end()) {
    ir::GraphCapture capture;
    ag::Var traced = model_.Forward(x, /*training=*/false);
    Tensor pred = traced.value();
    eval_plans_.emplace(key,
                        capture.Finish(traced, {x}, /*with_backward=*/false));
    return pred;
  }
  if (it->second != nullptr) {
    return it->second->ReplayForward({x});
  }
  return model_.Forward(x, /*training=*/false).value();
}

metrics::ForecastMetrics StepEngine::EvaluateOn(
    const data::WindowSampler& sampler, const data::StandardScaler& scaler,
    int64_t batch_size) {
  metrics::MetricAccumulator acc;
  auto batches = sampler.EpochBatches(batch_size, nullptr);
  for (const auto& batch_indices : batches) {
    // MakeBatchInto recycles eval_batch_'s buffers whenever the previous
    // forward pass released its reference.
    sampler.MakeBatchInto(batch_indices, &eval_batch_);
    Tensor pred = Predict(eval_batch_.x);
    STWA_CHECK(pred.shape() == eval_batch_.y.shape(),
               "model '", model_.name(), "' produced ",
               ShapeToString(pred.shape()), ", expected ",
               ShapeToString(eval_batch_.y.shape()));
    acc.Add(scaler.InverseTransform(pred),
            scaler.InverseTransform(eval_batch_.y));
  }
  return acc.Result();
}

}  // namespace train
}  // namespace stwa
