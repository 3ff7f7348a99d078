#include "online/adaptation.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "nn/serialize.h"
#include "serve/inference_session.h"

namespace stwa {
namespace online {

OnlineLearner::OnlineLearner(const std::string& checkpoint_path,
                             OnlineConfig config)
    : config_(std::move(config)),
      publish_path_(config_.publish_path.empty() ? checkpoint_path
                                                 : config_.publish_path),
      info_(serve::ReadServingInfo(checkpoint_path)),
      scaler_(info_.scaler_mean, info_.scaler_std),
      assembler_(info_.num_sensors, info_.settings.history,
                 info_.settings.horizon, info_.num_features,
                 config_.emit_stride),
      replay_(config_.replay_capacity),
      drift_(config_.drift),
      sample_rng_(config_.seed) {
  STWA_CHECK(serve::DatasetFreeModel(info_.model), "model '", info_.model,
             "' needs its training dataset to rebuild graph supports; "
             "online adaptation supports metadata-rebuildable models only");
  STWA_CHECK(config_.adapt_steps > 0 && config_.adapt_batch_size > 0 &&
                 config_.min_examples > 0,
             "invalid adaptation cycle parameters");
  model_ = baselines::MakeModel(info_.model, serve::StubDataset(info_),
                                info_.settings);
  nn::LoadParameters(*model_, checkpoint_path);
  train::StepEngineConfig engine_config;
  engine_config.lr = config_.adapt_lr;
  engine_ = std::make_unique<train::StepEngine>(*model_, engine_config);
}

float OnlineLearner::ProbeError(const Example& example) {
  const Shape x_shape{1, example.x.dim(0), example.x.dim(1),
                      example.x.dim(2)};
  if (probe_x_.shape() != x_shape || probe_x_.use_count() != 1) {
    probe_x_ = Tensor::Uninit(x_shape);
  }
  const float mean = scaler_.mean();
  const float stddev = scaler_.stddev();
  const float inv_std = 1.0f / stddev;
  const float* xp = example.x.data();
  float* sp = probe_x_.data();
  for (int64_t k = 0; k < example.x.size(); ++k) {
    sp[k] = (xp[k] - mean) * inv_std;
  }
  const Tensor pred = engine_->Predict(probe_x_);  // [1, N, U, F] normalised
  STWA_CHECK(pred.size() == example.y.size(),
             "probe forecast size mismatch: ", ShapeToString(pred.shape()),
             " vs target ", ShapeToString(example.y.shape()));
  const float* pp = pred.data();
  const float* yp = example.y.data();
  double abs_sum = 0.0;
  for (int64_t k = 0; k < example.y.size(); ++k) {
    abs_sum += std::abs(pp[k] * stddev + mean - yp[k]);
  }
  return static_cast<float>(abs_sum / static_cast<double>(example.y.size()));
}

bool OnlineLearner::Observe(const std::vector<float>& observation) {
  Example example;
  if (!assembler_.Push(observation, &example)) return false;
  last_probe_error_ = ProbeError(example);
  drift_.AddError(last_probe_error_);
  replay_.Add(std::move(example));
  if (!config_.adapt_enabled || !drift_.drifted()) return false;
  if (replay_.size() < config_.min_examples) return false;
  if (last_cycle_row_ >= 0 &&
      rows_seen() - last_cycle_row_ < config_.cooldown_rows) {
    return false;
  }
  RunCycle();
  return true;
}

bool OnlineLearner::Adapt() {
  if (!config_.adapt_enabled || replay_.size() < config_.min_examples) {
    return false;
  }
  RunCycle();
  return true;
}

void OnlineLearner::RunCycle() {
  Stopwatch timer;
  for (int64_t s = 0; s < config_.adapt_steps; ++s) {
    const std::vector<int64_t> indices =
        replay_.SampleIndices(config_.adapt_batch_size, sample_rng_);
    replay_.MakeBatchInto(indices, scaler_, &adapt_batch_);
    stats_.last_final_loss = engine_->Step(adapt_batch_);
  }
  Publish();
  // Rebuild the drift baseline from post-adapt errors; without the reset
  // the sticky flag would re-trigger a cycle every cooldown window.
  drift_.Reset();
  last_cycle_row_ = rows_seen();
  stats_.cycles += 1;
  stats_.fine_tune_steps += config_.adapt_steps;
  stats_.last_cycle_ms = timer.ElapsedMillis();
  stats_.total_ms += stats_.last_cycle_ms;
}

void OnlineLearner::Publish() {
  ++info_.ckpt_version;
  serve::SaveServingCheckpoint(*model_, info_, publish_path_);
  ++stats_.publishes;
}

}  // namespace online
}  // namespace stwa
