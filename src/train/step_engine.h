// The reusable core of training: one optimizer step / one forward pass
// over a frozen computation recipe, shared by offline training
// (train/trainer.h) and online continual learning (online/adaptation.h).
//
// A StepEngine owns everything that must persist *across* steps for the
// hot path to stay allocation-free and plan-replayed — the parameter
// handles, the Adam state, the captured train/eval execution plans (one
// per batch shape, ir/plan.h), and the staging buffers — while the
// caller keeps the policy: epoch order, shuffling, early stopping,
// when to evaluate, when to stop. Trainer::Fit is a thin loop over
// Step()/EvaluateOn(); the online adaptation loop drives the exact same
// engine with replay-buffer batches, so a fine-tune step is bit-identical
// in kind to an offline training step.

#ifndef STWA_TRAIN_STEP_ENGINE_H_
#define STWA_TRAIN_STEP_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "autograd/ops.h"
#include "data/sampler.h"
#include "data/scaler.h"
#include "ir/plan.h"
#include "metrics/metrics.h"
#include "nn/module.h"
#include "optim/optimizer.h"

namespace stwa {
namespace train {

/// Interface every forecasting model implements. Input x is the normalised
/// history [B, N, H, F]; the output is the normalised forecast
/// [B, N, U, F].
class ForecastModel : public nn::Module {
 public:
  virtual ag::Var Forward(const Tensor& x, bool training) = 0;

  /// Model-specific additive loss term (e.g. alpha * KL for ST-WA),
  /// valid after the most recent Forward call. Undefined Var means none.
  virtual ag::Var RegularizationLoss() const { return {}; }

  /// Short display name used by the benchmark tables.
  virtual std::string name() const = 0;
};

/// How a run used captured execution plans. The inherited ir::PlanStats
/// are those of the largest captured plan (the full-batch step).
struct PlanSummary : ir::PlanStats {
  /// Plans captured (one per distinct train batch shape; 0 when eager).
  int64_t plans_captured = 0;
  /// Steps run by eager tracing (plan-off runs, capture steps, fallbacks).
  int64_t traced_steps = 0;
  /// Steps run by plan replay.
  int64_t replayed_steps = 0;
};

/// Per-step hyper-parameters of the engine (the loop-level knobs — epochs,
/// batch order, patience — stay with the caller).
struct StepEngineConfig {
  float lr = 1e-3f;
  float clip_norm = 5.0f;
  float huber_delta = 1.0f;
};

/// Owns the cross-step training state of one model. Not thread-safe: one
/// engine belongs to one training loop (the model carries per-forward
/// state anyway).
class StepEngine {
 public:
  /// The engine aliases `model`'s parameters; the model must outlive it.
  /// Adam state is created lazily on the first Step(), so an engine used
  /// only for evaluation costs no optimizer memory. The plan switch
  /// (ir::SetPlanMode) is read once here, so a mid-run toggle can never
  /// split one engine between planned and eager steps; either way the
  /// engine steps to bit-identical weights.
  StepEngine(ForecastModel& model, StepEngineConfig config);

  StepEngine(const StepEngine&) = delete;
  StepEngine& operator=(const StepEngine&) = delete;

  /// One optimizer update on a normalised (x, y) batch: forward, Huber
  /// loss plus the model's regulariser, backward, global-norm gradient
  /// clip, Adam step. The first batch of each shape is traced eagerly
  /// (capturing a replayable plan when the engine plans); later batches
  /// of that shape replay the frozen plan bit-identically. Returns the
  /// scalar training loss.
  float Step(const data::Batch& batch);

  /// Forward-only prediction for a normalised window [B, N, H, F] under
  /// NoGradMode, using (and extending) the engine's forward-plan cache.
  /// Returns the normalised forecast [B, N, U, F].
  Tensor Predict(const Tensor& x);

  /// Evaluates the model over `sampler`, inverse-transforming predictions
  /// and targets with `scaler` so metrics are in original flow units.
  /// Forward plans are cached in the engine, so repeated evaluations
  /// (e.g. per-epoch validation) replay without re-capturing.
  metrics::ForecastMetrics EvaluateOn(const data::WindowSampler& sampler,
                                      const data::StandardScaler& scaler,
                                      int64_t batch_size);

  ForecastModel& model() { return model_; }

  /// Optimizer, created on first use (for schedules: set_learning_rate).
  optim::Optimizer& optimizer();

  /// Optimizer updates applied so far.
  int64_t steps() const { return steps_; }

  /// Whether this engine captures/replays execution plans.
  bool use_plan() const { return use_plan_; }

  /// Plan usage counters, accumulated over the engine's lifetime.
  const PlanSummary& plan_summary() const { return plan_; }

 private:
  /// The eagerly traced train step (also what capture mode records).
  ag::Var TracedStep(const data::Batch& batch);

  ForecastModel& model_;
  StepEngineConfig config_;
  bool use_plan_;
  std::vector<ag::Var> params_;
  std::unique_ptr<optim::Adam> opt_;
  int64_t steps_ = 0;
  PlanSummary plan_;
  /// Captured train-step plans keyed by "xshape|yshape" (full batches
  /// plus the trailing partial batch). A null entry marks a shape whose
  /// capture could not be planned; those batches stay eager with no
  /// re-capture attempts.
  std::unordered_map<std::string, std::unique_ptr<ir::ExecutionPlan>>
      train_plans_;
  /// Forward-only plans keyed by x shape (same null convention).
  std::unordered_map<std::string, std::unique_ptr<ir::ExecutionPlan>>
      eval_plans_;
  /// Staging buffers recycled across EvaluateOn batches.
  data::Batch eval_batch_;
};

}  // namespace train
}  // namespace stwa

#endif  // STWA_TRAIN_STEP_ENGINE_H_
