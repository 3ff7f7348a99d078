// Generic training/evaluation harness for forecasting models.
//
// Implements the paper's protocol: chronological 60/20/20 split, z-score
// normalisation fitted on train, Adam (lr 1e-3), Huber loss plus the
// model's own regulariser (the KL term for ST-WA), gradient clipping,
// early stopping on validation MAE (patience 15), metrics reported on
// inverse-transformed predictions.
//
// The per-step mechanics (optimizer state, plan capture/replay, staging
// buffers) live in train/step_engine.h; the Trainer owns the *protocol*:
// split, scaler, samplers, epoch order, early stopping.

#ifndef STWA_TRAIN_TRAINER_H_
#define STWA_TRAIN_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/sampler.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "metrics/metrics.h"
#include "train/step_engine.h"

namespace stwa {
namespace train {

/// Training hyper-parameters.
struct TrainConfig {
  int epochs = 30;
  int64_t batch_size = 16;
  float lr = 1e-3f;
  float clip_norm = 5.0f;
  int patience = 15;
  float huber_delta = 1.0f;
  /// Window anchor stride (>1 subsamples the training set for speed).
  int64_t stride = 1;
  /// Stride for the validation/test samplers.
  int64_t eval_stride = 1;
  uint64_t seed = 1;
  bool verbose = false;
  /// Worker threads for the execution runtime (0 = keep the current
  /// runtime default, i.e. STWA_NUM_THREADS / hardware_concurrency).
  int num_threads = 0;
  /// Cap on train batches per epoch (0 = no cap); keeps bench runtimes
  /// bounded on the largest synthetic networks.
  int64_t max_batches_per_epoch = 0;
};

/// Outcome of a training run.
struct TrainResult {
  metrics::ForecastMetrics test;
  metrics::ForecastMetrics val;
  double seconds_per_epoch = 0.0;
  double total_seconds = 0.0;
  int64_t param_count = 0;
  int epochs_run = 0;
  std::vector<double> val_mae_history;
  PlanSummary plan;
};

/// Owns the split/scaler/samplers for one dataset + forecasting setting and
/// trains models against it.
class Trainer {
 public:
  Trainer(const data::TrafficDataset& dataset, int64_t history,
          int64_t horizon, TrainConfig config);

  /// Trains the model to convergence/early stop and evaluates on the test
  /// partition.
  TrainResult Fit(ForecastModel& model);

  /// Evaluates the model on a sampler (inverse-transformed metrics).
  metrics::ForecastMetrics Evaluate(ForecastModel& model,
                                    const data::WindowSampler& sampler);

  const data::StandardScaler& scaler() const { return scaler_; }
  const data::WindowSampler& train_sampler() const { return *train_; }
  const data::WindowSampler& val_sampler() const { return *val_; }
  const data::WindowSampler& test_sampler() const { return *test_; }
  int64_t history() const { return history_; }
  int64_t horizon() const { return horizon_; }

 private:
  /// Engine config for this trainer's hyper-parameters.
  StepEngineConfig EngineConfig() const;

  TrainConfig config_;
  int64_t history_;
  int64_t horizon_;
  data::StandardScaler scaler_;
  std::unique_ptr<data::WindowSampler> train_;
  std::unique_ptr<data::WindowSampler> val_;
  std::unique_ptr<data::WindowSampler> test_;
};

}  // namespace train
}  // namespace stwa

#endif  // STWA_TRAIN_TRAINER_H_
