// Online continual learning tests: replay buffer eviction/determinism,
// drift detection on planted vs flat error streams, the
// publish-then-hot-reload swap path perturbing nothing when adaptation is
// disabled, and Trainer::Fit staying equivalent to a hand-rolled
// StepEngine loop (the refactor contract).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/traffic_generator.h"
#include "fleet/profile.h"
#include "online/adaptation.h"
#include "online/drift_detector.h"
#include "online/replay_buffer.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "switch_guards.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace stwa {
namespace online {
namespace {

Example MakeExample(int64_t sensors, int64_t history, int64_t horizon,
                    float fill) {
  Example e;
  e.x = Tensor(Shape{sensors, history, 1});
  e.y = Tensor(Shape{sensors, horizon, 1});
  for (int64_t k = 0; k < e.x.size(); ++k) {
    e.x.data()[k] = fill + static_cast<float>(k);
  }
  for (int64_t k = 0; k < e.y.size(); ++k) {
    e.y.data()[k] = fill - static_cast<float>(k);
  }
  e.anchor_step = static_cast<int64_t>(fill);
  return e;
}

TEST(ReplayBufferTest, FifoEvictionAndAccessors) {
  ReplayBuffer buffer(4);
  for (int i = 0; i < 7; ++i) {
    buffer.Add(MakeExample(2, 3, 2, static_cast<float>(i)));
  }
  EXPECT_EQ(buffer.size(), 4);
  EXPECT_EQ(buffer.total_added(), 7);
  EXPECT_EQ(buffer.evicted(), 3);
  EXPECT_EQ(buffer.capacity(), 4);
  // Oldest survivor is example 3 (0..2 evicted in order).
  EXPECT_EQ(buffer.at(0).anchor_step, 3);
  EXPECT_EQ(buffer.at(3).anchor_step, 6);
}

TEST(ReplayBufferTest, SeededSamplingIsReproducible) {
  ReplayBuffer buffer(8);
  for (int i = 0; i < 8; ++i) {
    buffer.Add(MakeExample(2, 3, 2, static_cast<float>(i)));
  }
  Rng rng_a(42), rng_b(42), rng_c(43);
  const auto a = buffer.SampleIndices(16, rng_a);
  const auto b = buffer.SampleIndices(16, rng_b);
  const auto c = buffer.SampleIndices(16, rng_c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (int64_t i : a) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, buffer.size());
  }
}

TEST(ReplayBufferTest, BatchesAreNormalisedAndThreadCountInvariant) {
  const data::StandardScaler scaler(100.0f, 25.0f);
  auto build_batch = [&](int threads, data::Batch* out) {
    runtime::SetNumThreads(threads);
    ReplayBuffer buffer(6);
    for (int i = 0; i < 6; ++i) {
      buffer.Add(MakeExample(3, 4, 2, 50.0f * static_cast<float>(i)));
    }
    Rng rng(7);
    buffer.MakeBatchInto(buffer.SampleIndices(5, rng), scaler, out);
  };
  data::Batch one, four;
  build_batch(1, &one);
  build_batch(4, &four);
  runtime::SetNumThreads(1);
  ASSERT_EQ(one.x.shape(), (Shape{5, 3, 4, 1}));
  ASSERT_EQ(one.y.shape(), (Shape{5, 3, 2, 1}));
  EXPECT_EQ(std::memcmp(one.x.data(), four.x.data(),
                        sizeof(float) * static_cast<size_t>(one.x.size())),
            0);
  EXPECT_EQ(std::memcmp(one.y.data(), four.y.data(),
                        sizeof(float) * static_cast<size_t>(one.y.size())),
            0);
  // Spot-check the z-score convention on both x and y (the offline
  // Trainer normalises targets too).
  ReplayBuffer buffer(2);
  buffer.Add(MakeExample(1, 2, 1, 150.0f));
  data::Batch batch;
  buffer.MakeBatchInto({0}, scaler, &batch);
  EXPECT_FLOAT_EQ(batch.x.data()[0], (150.0f - 100.0f) / 25.0f);
  EXPECT_FLOAT_EQ(batch.y.data()[0], (150.0f - 100.0f) / 25.0f);
}

TEST(ExampleAssemblerTest, CutsAlignedWindowsOnStride) {
  const int64_t sensors = 2, history = 3, horizon = 2;
  ExampleAssembler assembler(sensors, history, horizon, /*features=*/1,
                             /*emit_stride=*/2);
  std::vector<float> row(static_cast<size_t>(sensors));
  std::vector<int64_t> emit_steps;
  for (int64_t t = 0; t < 10; ++t) {
    for (int64_t i = 0; i < sensors; ++i) {
      row[static_cast<size_t>(i)] = static_cast<float>(t * 10 + i);
    }
    Example example;
    if (assembler.Push(row, &example)) {
      emit_steps.push_back(t);
      ASSERT_EQ(example.x.shape(), (Shape{sensors, history, 1}));
      ASSERT_EQ(example.y.shape(), (Shape{sensors, horizon, 1}));
      // x covers rows t-4..t-2, y covers rows t-1..t (oldest first).
      for (int64_t i = 0; i < sensors; ++i) {
        for (int64_t s = 0; s < history; ++s) {
          EXPECT_EQ(example.x({i, s, 0}),
                    static_cast<float>((t - 4 + s) * 10 + i));
        }
        for (int64_t s = 0; s < horizon; ++s) {
          EXPECT_EQ(example.y({i, s, 0}),
                    static_cast<float>((t - 1 + s) * 10 + i));
        }
      }
      EXPECT_EQ(example.anchor_step, t - horizon);
    }
  }
  // Warm at row 4 (history + horizon rows seen), then every 2 rows.
  EXPECT_EQ(emit_steps, (std::vector<int64_t>{4, 6, 8}));
  EXPECT_EQ(assembler.emitted(), 3);
  EXPECT_EQ(assembler.steps_seen(), 10);
}

TEST(DriftDetectorTest, TriggersOnPlantedErrorShift) {
  DriftConfig config;
  config.baseline_window = 32;
  config.recent_window = 8;
  DriftDetector detector(config);
  Rng rng(5);
  int64_t trigger_at = -1;
  for (int64_t i = 0; i < 80; ++i) {
    const float base = i < 50 ? 1.0f : 3.0f;  // planted shift at 50
    if (detector.AddError(base + rng.Normal(0.0f, 0.05f)) &&
        trigger_at < 0) {
      trigger_at = i;
    }
  }
  EXPECT_TRUE(detector.drifted());
  EXPECT_EQ(detector.triggers(), 1);
  // Must fire shortly after the shift, not at warm-up and not late.
  EXPECT_GE(trigger_at, 50);
  EXPECT_LE(trigger_at, 60);
  EXPECT_GT(detector.recent_mean(), detector.baseline_mean());
}

TEST(DriftDetectorTest, StaysQuietOnFlatStream) {
  DriftConfig config;
  config.baseline_window = 32;
  config.recent_window = 8;
  DriftDetector detector(config);
  Rng rng(6);
  for (int64_t i = 0; i < 400; ++i) {
    EXPECT_FALSE(detector.AddError(1.0f + rng.Normal(0.0f, 0.05f)));
  }
  EXPECT_FALSE(detector.drifted());
  EXPECT_EQ(detector.triggers(), 0);
}

TEST(DriftDetectorTest, ResetClearsStateButKeepsTriggerCount) {
  DriftConfig config;
  config.baseline_window = 4;
  config.recent_window = 2;
  DriftDetector detector(config);
  for (int i = 0; i < 4; ++i) detector.AddError(1.0f);
  detector.AddError(10.0f);
  detector.AddError(10.0f);
  EXPECT_TRUE(detector.drifted());
  EXPECT_EQ(detector.triggers(), 1);
  detector.Reset();
  EXPECT_FALSE(detector.drifted());
  EXPECT_EQ(detector.observed(), 0);
  EXPECT_EQ(detector.triggers(), 1);  // lifetime count survives
  EXPECT_FALSE(detector.warm());
}

// --- Checkpoint-backed tests -------------------------------------------

data::TrafficDataset OnlineTestDataset() {
  data::GeneratorOptions o;
  o.name = "online-test";
  o.num_roads = 2;
  o.sensors_per_road = 2;
  o.num_days = 2;
  o.steps_per_day = 96;
  o.seed = 31;
  return data::GenerateTraffic(o);
}

baselines::ModelSettings OnlineTestSettings() {
  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  settings.seed = 11;
  return settings;
}

/// Random-init serving checkpoint over the test dataset (bit-identity
/// checks are equally strict for any weights; skipping training keeps the
/// test fast).
std::string WriteTestCheckpoint(const data::TrafficDataset& dataset,
                                const std::string& filename) {
  const baselines::ModelSettings settings = OnlineTestSettings();
  auto model = baselines::MakeModel("ST-WA", dataset, settings);
  data::StandardScaler scaler;
  scaler.Fit(dataset.values, dataset.num_steps() * 6 / 10);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = settings;
  info.num_sensors = dataset.num_sensors();
  info.num_features = dataset.num_features();
  info.scaler_mean = scaler.mean();
  info.scaler_std = scaler.stddev();
  const std::string path = "/tmp/" + filename;
  serve::SaveServingCheckpoint(*model, info, path);
  return path;
}

TEST(OnlineLearnerTest, PublishWithoutAdaptationIsBitIdenticalThroughSwap) {
  const data::TrafficDataset dataset = OnlineTestDataset();
  const std::string base =
      WriteTestCheckpoint(dataset, "online_swap_base.bin");
  const Tensor window =
      ops::Slice(dataset.values, 1, 5, OnlineTestSettings().history);
  const Tensor reference = serve::InferenceSession::Open(base)->Forecast(window);

  // Adaptation disabled: the learner observes but never steps, so a
  // publish re-saves the loaded weights unchanged (modulo ckpt_version).
  OnlineConfig config;
  config.adapt_enabled = false;
  config.publish_path = "/tmp/online_swap_pub.bin";
  OnlineLearner learner(base, config);
  std::vector<float> row(static_cast<size_t>(dataset.num_sensors()));
  for (int64_t t = 0; t < 40; ++t) {
    for (int64_t i = 0; i < dataset.num_sensors(); ++i) {
      row[static_cast<size_t>(i)] = dataset.values({i, t, 0});
    }
    EXPECT_FALSE(learner.Observe(row));
  }
  EXPECT_GT(learner.replay().size(), 0);
  EXPECT_FALSE(learner.Adapt());  // disabled
  learner.Publish();
  EXPECT_EQ(learner.stats().cycles, 0);
  EXPECT_EQ(learner.stats().publishes, 1);
  EXPECT_EQ(serve::ReadServingInfo(config.publish_path).ckpt_version, 2);

  const Tensor republished =
      serve::InferenceSession::Open(config.publish_path)->Forecast(window);
  ASSERT_EQ(republished.shape(), reference.shape());
  EXPECT_EQ(std::memcmp(republished.data(), reference.data(),
                        sizeof(float) *
                            static_cast<size_t>(reference.size())),
            0);

  // And through the fleet: warm a profile on the base generation, swap in
  // the republished file, and the served bytes must not move.
  fleet::FleetProfileConfig profile_config;
  profile_config.name = "online-test";
  profile_config.checkpoint = base;
  fleet::ModelProfile profile(profile_config);
  const int64_t history = OnlineTestSettings().history;
  for (int64_t s = 0; s < history; ++s) {
    for (int64_t i = 0; i < dataset.num_sensors(); ++i) {
      row[static_cast<size_t>(i)] = dataset.values({i, 5 + s, 0});
    }
    profile.PushTile(0, row);
  }
  const Tensor before = profile.ForecastTile(0).get().forecast;
  ASSERT_EQ(before.size(), reference.size());
  const fleet::ReloadResult reload = profile.Reload(config.publish_path);
  EXPECT_EQ(reload.version, 2);
  EXPECT_EQ(reload.ckpt_version, 2);
  const Tensor after = profile.ForecastTile(0).get().forecast;
  EXPECT_EQ(std::memcmp(before.data(), reference.data(),
                        sizeof(float) *
                            static_cast<size_t>(reference.size())),
            0);
  EXPECT_EQ(std::memcmp(after.data(), reference.data(),
                        sizeof(float) *
                            static_cast<size_t>(reference.size())),
            0);
  EXPECT_EQ(profile.Stats().shed, 0);
  std::remove(base.c_str());
  std::remove(config.publish_path.c_str());
}

TEST(OnlineLearnerTest, ForcedAdaptationMovesWeightsAndPublishes) {
  const data::TrafficDataset dataset = OnlineTestDataset();
  const std::string base =
      WriteTestCheckpoint(dataset, "online_adapt_base.bin");
  const Tensor window =
      ops::Slice(dataset.values, 1, 5, OnlineTestSettings().history);
  const Tensor reference = serve::InferenceSession::Open(base)->Forecast(window);

  OnlineConfig config;
  config.adapt_steps = 4;
  config.adapt_batch_size = 4;
  config.min_examples = 8;
  config.publish_path = "/tmp/online_adapt_pub.bin";
  OnlineLearner learner(base, config);
  std::vector<float> row(static_cast<size_t>(dataset.num_sensors()));
  for (int64_t t = 0; t < 40; ++t) {
    for (int64_t i = 0; i < dataset.num_sensors(); ++i) {
      row[static_cast<size_t>(i)] = dataset.values({i, t, 0});
    }
    learner.Observe(row);
  }
  ASSERT_GE(learner.replay().size(), config.min_examples);
  EXPECT_TRUE(learner.Adapt());
  EXPECT_EQ(learner.stats().cycles, 1);
  EXPECT_EQ(learner.stats().fine_tune_steps, 4);
  EXPECT_EQ(learner.engine().steps(), 4);
  EXPECT_EQ(serve::ReadServingInfo(config.publish_path).ckpt_version, 2);

  // Fine-tuning on real windows must actually move the forecasts.
  const Tensor adapted =
      serve::InferenceSession::Open(config.publish_path)->Forecast(window);
  EXPECT_NE(std::memcmp(adapted.data(), reference.data(),
                        sizeof(float) *
                            static_cast<size_t>(reference.size())),
            0);
  std::remove(base.c_str());
  std::remove(config.publish_path.c_str());
}

TEST(OnlineLearnerTest, AdaptedBeatsFrozenAfterShiftThroughFleetReloads) {
  // A planted network-wide level shift (flows x1.5 halfway through). The
  // base model is trained on the pre-shift rows only. The frozen arm
  // serves it unchanged; the adapted arm serves it from a single-tile
  // fleet profile that hot-reloads every checkpoint the learner
  // publishes. Adaptation must run, beat the frozen post-shift MAE, and
  // lose no request across the reloads.
  data::GeneratorOptions gen;
  gen.name = "online-shift";
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 4;
  gen.steps_per_day = 96;
  gen.seed = 17;
  gen.shift_step = gen.num_days * gen.steps_per_day / 2;
  gen.shift_scale = 1.5f;
  const data::TrafficDataset stream = data::GenerateTraffic(gen);
  const int64_t rows = stream.num_steps();
  const int64_t shift_row = gen.shift_step;
  baselines::ModelSettings settings = OnlineTestSettings();
  settings.seed = 7;
  const int64_t history = settings.history;
  const int64_t horizon = settings.horizon;

  const std::string base = "/tmp/online_shift_base.bin";
  {
    data::TrafficDataset pre_shift = stream;
    pre_shift.values = ops::Slice(stream.values, 1, 0, shift_row);
    auto model = baselines::MakeModel("ST-WA", pre_shift, settings);
    train::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 8;
    config.stride = 2;
    config.eval_stride = 4;
    train::Trainer trainer(pre_shift, history, horizon, config);
    trainer.Fit(*model);
    serve::ServingInfo info;
    info.model = "ST-WA";
    info.settings = settings;
    info.num_sensors = pre_shift.num_sensors();
    info.num_features = pre_shift.num_features();
    info.scaler_mean = trainer.scaler().mean();
    info.scaler_std = trainer.scaler().stddev();
    serve::SaveServingCheckpoint(*model, info, base);
  }

  // Raw-scale MAE over forecasts whose targets all lie past the shift.
  struct PostShiftMae {
    double abs_sum = 0.0;
    int64_t elems = 0;
    void Add(const Tensor& pred, const Tensor& truth) {
      for (int64_t k = 0; k < truth.size(); ++k) {
        abs_sum += std::abs(pred.data()[k] - truth.data()[k]);
      }
      elems += truth.size();
    }
    double mae() const { return abs_sum / static_cast<double>(elems); }
  };
  auto scored = [&](int64_t t) {
    return t >= history - 1 && t + horizon < rows && t + 1 >= shift_row &&
           (t - (history - 1)) % 2 == 0;
  };

  PostShiftMae frozen;
  {
    auto session = serve::InferenceSession::Open(base);
    for (int64_t t = 0; t < rows; ++t) {
      if (!scored(t)) continue;
      frozen.Add(session->Forecast(
                     ops::Slice(stream.values, 1, t - history + 1, history)),
                 ops::Slice(stream.values, 1, t + 1, horizon));
    }
  }

  OnlineConfig config;
  config.publish_path = "/tmp/online_shift_adapted.bin";
  OnlineLearner learner(base, config);
  fleet::FleetProfileConfig profile_config;
  profile_config.name = "online-shift";
  profile_config.checkpoint = base;
  fleet::ModelProfile profile(profile_config);
  PostShiftMae adapted;
  int64_t lost = 0;
  int64_t reloads = 0;
  std::vector<float> row(static_cast<size_t>(stream.num_sensors()));
  for (int64_t t = 0; t < rows; ++t) {
    for (int64_t i = 0; i < stream.num_sensors(); ++i) {
      row[static_cast<size_t>(i)] = stream.values({i, t, 0});
    }
    profile.PushTile(0, row);
    if (scored(t)) {
      const serve::Response resp = profile.ForecastTile(0).get();
      if (!resp.ok || resp.degraded) {
        ++lost;
      } else {
        adapted.Add(resp.forecast,
                    ops::Slice(stream.values, 1, t + 1, horizon));
      }
    }
    if (learner.Observe(row)) {
      profile.Reload(learner.publish_path());
      ++reloads;
    }
  }

  EXPECT_GE(learner.stats().cycles, 1);
  EXPECT_EQ(reloads, learner.stats().publishes);
  EXPECT_LT(adapted.mae(), frozen.mae());
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(profile.Stats().shed, 0);
  std::remove(base.c_str());
  std::remove(config.publish_path.c_str());
}

}  // namespace
}  // namespace online

// --- Refactor contract --------------------------------------------------

namespace train {
namespace {

TEST(StepEngineTest, FitMatchesManualEngineLoop) {
  data::GeneratorOptions gen;
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 3;
  gen.steps_per_day = 96;
  gen.seed = 77;
  const data::TrafficDataset dataset = data::GenerateTraffic(gen);

  baselines::ModelSettings settings = online::OnlineTestSettings();
  settings.horizon = 3;
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.stride = 4;
  config.eval_stride = 4;
  PlanModeGuard plan_mode(true);  // both arms replay plans

  // Arm 1: the refactored Trainer::Fit.
  auto model_fit =
      baselines::MakeModel("ST-WA", dataset, settings);
  Trainer trainer(dataset, settings.history, settings.horizon, config);
  const TrainResult fit = trainer.Fit(*model_fit);

  // Arm 2: the same protocol written out against the StepEngine directly
  // (what Trainer::Fit used to inline). Identical seeds everywhere.
  auto model_manual =
      baselines::MakeModel("ST-WA", dataset, settings);
  Trainer sampler_owner(dataset, settings.history, settings.horizon,
                        config);
  StepEngineConfig engine_config;
  engine_config.lr = config.lr;
  engine_config.clip_norm = config.clip_norm;
  engine_config.huber_delta = config.huber_delta;
  StepEngine engine(*model_manual, engine_config);
  Rng shuffle_rng(config.seed);
  data::Batch batch;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& indices : sampler_owner.train_sampler().EpochBatches(
             config.batch_size, &shuffle_rng)) {
      sampler_owner.train_sampler().MakeBatchInto(indices, &batch);
      engine.Step(batch);
    }
    // Fit evaluates validation each epoch; replay it to keep any
    // model-internal state identical.
    engine.EvaluateOn(sampler_owner.val_sampler(), sampler_owner.scaler(),
                      config.batch_size);
  }
  const metrics::ForecastMetrics val = engine.EvaluateOn(
      sampler_owner.val_sampler(), sampler_owner.scaler(),
      config.batch_size);
  const metrics::ForecastMetrics test = engine.EvaluateOn(
      sampler_owner.test_sampler(), sampler_owner.scaler(),
      config.batch_size);

  // Bit-identical, not approximately equal: the refactor moved the step
  // into the engine without changing a single float.
  EXPECT_EQ(fit.epochs_run, config.epochs);
  EXPECT_EQ(fit.val.mae, val.mae);
  EXPECT_EQ(fit.val.rmse, val.rmse);
  EXPECT_EQ(fit.val.mape, val.mape);
  EXPECT_EQ(fit.test.mae, test.mae);
  EXPECT_EQ(fit.test.rmse, test.rmse);
  EXPECT_EQ(fit.test.mape, test.mape);
  EXPECT_EQ(fit.plan.replayed_steps + fit.plan.traced_steps,
            engine.steps());
}

}  // namespace
}  // namespace train
}  // namespace stwa
