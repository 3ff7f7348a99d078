#include "train/trainer.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "optim/early_stopping.h"
#include "runtime/parallel.h"

#include <iostream>

namespace stwa {
namespace train {

Trainer::Trainer(const data::TrafficDataset& dataset, int64_t history,
                 int64_t horizon, TrainConfig config)
    : config_(config),
      history_(history),
      horizon_(horizon) {
  if (config_.num_threads > 0) {
    runtime::SetNumThreads(config_.num_threads);
  }
  data::SplitBounds split = data::ChronologicalSplit(dataset.num_steps());
  scaler_.Fit(dataset.values, split.train_end);
  Tensor normalised = scaler_.Transform(dataset.values);
  // Both inputs and targets are normalised; Evaluate() inverse-transforms
  // before computing metrics, so metrics are in original flow units.
  train_ = std::make_unique<data::WindowSampler>(
      normalised, normalised, history, horizon, 0, split.train_end,
      config_.stride);
  val_ = std::make_unique<data::WindowSampler>(
      normalised, normalised, history, horizon, split.train_end,
      split.val_end, config_.eval_stride);
  test_ = std::make_unique<data::WindowSampler>(
      normalised, normalised, history, horizon, split.val_end,
      split.num_steps, config_.eval_stride);
}

StepEngineConfig Trainer::EngineConfig() const {
  StepEngineConfig config;
  config.lr = config_.lr;
  config.clip_norm = config_.clip_norm;
  config.huber_delta = config_.huber_delta;
  return config;
}

metrics::ForecastMetrics Trainer::Evaluate(ForecastModel& model,
                                           const data::WindowSampler& sampler) {
  // A throwaway engine: Adam state is lazy, so this only costs the
  // forward-plan cache (which the old monolith also rebuilt per call).
  StepEngine engine(model, EngineConfig());
  return engine.EvaluateOn(sampler, scaler_, config_.batch_size);
}

TrainResult Trainer::Fit(ForecastModel& model) {
  TrainResult result;
  result.param_count = model.ParameterCount();
  StepEngine engine(model, EngineConfig());
  optim::EarlyStopping stopper(config_.patience);
  Rng shuffle_rng(config_.seed);

  Stopwatch total_watch;
  double epoch_seconds_sum = 0.0;
  // Staging buffers recycled across batches and epochs (MakeBatchInto
  // reuses them whenever the step released its reference).
  data::Batch batch;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Stopwatch epoch_watch;
    auto batches = train_->EpochBatches(config_.batch_size, &shuffle_rng);
    int64_t batch_count = 0;
    double loss_sum = 0.0;
    for (const auto& batch_indices : batches) {
      if (config_.max_batches_per_epoch > 0 &&
          batch_count >= config_.max_batches_per_epoch) {
        break;
      }
      train_->MakeBatchInto(batch_indices, &batch);
      loss_sum += engine.Step(batch);
      ++batch_count;
    }
    epoch_seconds_sum += epoch_watch.ElapsedSeconds();
    ++result.epochs_run;

    metrics::ForecastMetrics val =
        engine.EvaluateOn(*val_, scaler_, config_.batch_size);
    result.val_mae_history.push_back(val.mae);
    if (config_.verbose) {
      std::cout << "[" << model.name() << "] epoch " << epoch
                << " train_loss=" << loss_sum / std::max<int64_t>(1,
                                                                  batch_count)
                << " val_mae=" << val.mae << "\n";
    }
    stopper.Update(static_cast<float>(val.mae));
    if (stopper.ShouldStop()) break;
  }
  result.seconds_per_epoch =
      result.epochs_run > 0 ? epoch_seconds_sum / result.epochs_run : 0.0;
  result.total_seconds = total_watch.ElapsedSeconds();
  result.val = engine.EvaluateOn(*val_, scaler_, config_.batch_size);
  result.test = engine.EvaluateOn(*test_, scaler_, config_.batch_size);
  result.plan = engine.plan_summary();
  return result;
}

}  // namespace train
}  // namespace stwa
