// Tests for the serving subsystem: latency histogram, streaming state,
// serving checkpoints, inference sessions, micro-batching determinism and
// overload shedding, the line protocol and its socket transport.

#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include "autograd/no_grad.h"
#include "baselines/registry.h"
#include "common/check.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "metrics/latency.h"
#include "metrics/metrics.h"
#include "nn/serialize.h"
#include "serve/batching_queue.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stream_state.h"
#include "simd/lowp.h"
#include "tensor/buffer_pool.h"
#include "tensor/lowp_cache.h"
#include "tensor/ops.h"

namespace stwa {
namespace serve {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, EmptyReportsZeros) {
  metrics::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean_micros(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogramTest, SingleValueIsExact) {
  metrics::LatencyHistogram h;
  h.Record(500.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean_micros(), 500.0);
  // Percentiles clamp to the observed extremes, so a single value is
  // reported exactly at every percentile.
  EXPECT_DOUBLE_EQ(h.p50(), 500.0);
  EXPECT_DOUBLE_EQ(h.p99(), 500.0);
}

TEST(LatencyHistogramTest, PercentilesOrderedAndBounded) {
  metrics::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.mean_micros(), 500.5, 1e-9);
  const double p50 = h.p50(), p95 = h.p95(), p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucketing bounds the relative error by one bucket (~9%).
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.10);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.10);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.10);
  EXPECT_GE(p50, h.min_micros());
  EXPECT_LE(p99, h.max_micros());
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  metrics::LatencyHistogram a, b, both;
  for (int i = 1; i <= 100; ++i) {
    a.Record(static_cast<double>(i));
    both.Record(static_cast<double>(i));
  }
  for (int i = 1000; i <= 1100; ++i) {
    b.Record(static_cast<double>(i));
    both.Record(static_cast<double>(i));
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.mean_micros(), both.mean_micros());
  EXPECT_DOUBLE_EQ(a.min_micros(), both.min_micros());
  EXPECT_DOUBLE_EQ(a.max_micros(), both.max_micros());
  EXPECT_DOUBLE_EQ(a.p95(), both.p95());
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampInsteadOfCrashing) {
  metrics::LatencyHistogram h;
  h.Record(-5.0);
  h.Record(0.0);
  h.Record(1e12);  // far past the last bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_GT(h.p99(), 0.0);
}

// ---------------------------------------------------------------------------
// StreamState

TEST(StreamStateTest, WarmupProgressAndReady) {
  StreamState state(/*num_sensors=*/2, /*history=*/3);
  EXPECT_FALSE(state.ready());
  EXPECT_EQ(state.min_filled(), 0);
  state.Push({1.0f, 10.0f});
  state.Push({2.0f, 20.0f});
  EXPECT_FALSE(state.ready());
  EXPECT_EQ(state.min_filled(), 2);
  state.Push({3.0f, 30.0f});
  EXPECT_TRUE(state.ready());
  EXPECT_EQ(state.seen(0), 3);
}

TEST(StreamStateTest, WindowIsOldestFirstAndSlides) {
  StreamState state(/*num_sensors=*/1, /*history=*/3);
  for (float v : {1.0f, 2.0f, 3.0f, 4.0f, 5.0f}) state.Push({v});
  Tensor w = state.Window();
  ASSERT_EQ(w.shape(), (Shape{1, 1, 3, 1}));
  // Last 3 observations, oldest first: 3, 4, 5.
  EXPECT_FLOAT_EQ(w.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(w.data()[1], 4.0f);
  EXPECT_FLOAT_EQ(w.data()[2], 5.0f);
}

TEST(StreamStateTest, SensorsUpdateIndependently) {
  StreamState state(/*num_sensors=*/2, /*history=*/2);
  const float a0 = 1.0f, a1 = 2.0f;
  state.PushSensor(0, &a0);
  state.PushSensor(0, &a1);
  EXPECT_FALSE(state.ready());  // sensor 1 still empty
  EXPECT_EQ(state.min_filled(), 0);
  const float b0 = 10.0f, b1 = 20.0f;
  state.PushSensor(1, &b0);
  state.PushSensor(1, &b1);
  EXPECT_TRUE(state.ready());
  Tensor w = state.Window();
  EXPECT_FLOAT_EQ(w.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(w.data()[1], 2.0f);
  EXPECT_FLOAT_EQ(w.data()[2], 10.0f);
  EXPECT_FLOAT_EQ(w.data()[3], 20.0f);
}

TEST(StreamStateTest, WindowIntoReusesBuffer) {
  StreamState state(/*num_sensors=*/1, /*history=*/2);
  state.Push({1.0f});
  state.Push({2.0f});
  Tensor out;
  state.WindowInto(&out);
  const float* first = out.data();
  state.Push({3.0f});
  state.WindowInto(&out);
  EXPECT_EQ(out.data(), first);  // same allocation, new contents
  EXPECT_FLOAT_EQ(out.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(out.data()[1], 3.0f);
}

// ---------------------------------------------------------------------------
// Serving checkpoints + InferenceSession

struct Fixture {
  data::TrafficDataset dataset;
  baselines::ModelSettings settings;
  std::unique_ptr<train::ForecastModel> model;
  ServingInfo info;
  std::string path;
};

Fixture MakeFixture(const std::string& file) {
  Fixture f;
  data::GeneratorOptions gen;
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 48;
  gen.seed = 7;
  f.dataset = data::GenerateTraffic(gen);
  f.settings.history = 12;
  f.settings.horizon = 3;
  f.settings.d_model = 8;
  f.settings.window_sizes = {3, 2, 2};
  f.settings.latent_dim = 4;
  f.settings.predictor_hidden = 16;
  f.model = baselines::MakeModel("ST-WA", f.dataset, f.settings);
  f.info.model = "ST-WA";
  f.info.settings = f.settings;
  f.info.num_sensors = f.dataset.num_sensors();
  f.info.num_features = f.dataset.num_features();
  f.info.scaler_mean = 200.0f;
  f.info.scaler_std = 55.0f;
  f.path = TempPath(file);
  SaveServingCheckpoint(*f.model, f.info, f.path);
  return f;
}

TEST(ServingCheckpointTest, InfoRoundTrips) {
  Fixture f = MakeFixture("serve_test_info.bin");
  ServingInfo got = ReadServingInfo(f.path);
  EXPECT_EQ(got.model, "ST-WA");
  EXPECT_EQ(got.num_sensors, f.info.num_sensors);
  EXPECT_EQ(got.num_features, f.info.num_features);
  EXPECT_EQ(got.settings.history, f.settings.history);
  EXPECT_EQ(got.settings.horizon, f.settings.horizon);
  EXPECT_EQ(got.settings.d_model, f.settings.d_model);
  EXPECT_EQ(got.settings.window_sizes, f.settings.window_sizes);
  EXPECT_EQ(got.settings.latent_dim, f.settings.latent_dim);
  // Scaler statistics must round-trip bit-exactly (%.9g formatting).
  EXPECT_EQ(got.scaler_mean, f.info.scaler_mean);
  EXPECT_EQ(got.scaler_std, f.info.scaler_std);
  std::remove(f.path.c_str());
}

TEST(ServingCheckpointTest, PlainParameterCheckpointRejected) {
  Fixture f = MakeFixture("serve_test_plain.bin");
  // Re-save without serving metadata.
  nn::SaveParameters(*f.model, f.path);
  EXPECT_THROW(ReadServingInfo(f.path), Error);
  EXPECT_THROW(InferenceSession::Open(f.path), Error);
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, ForecastMatchesManualPipelineBitExactly) {
  Fixture f = MakeFixture("serve_test_manual.bin");
  auto session = InferenceSession::Open(f.path);
  Tensor window =
      ops::Slice(f.dataset.values, 1, 5, f.settings.history);  // [N, H, F]
  Tensor got = session->Forecast(window);
  ASSERT_EQ(got.shape(),
            (Shape{f.info.num_sensors, f.settings.horizon, 1}));

  // Reference: the original (saved) model driven by hand through the same
  // scaler math the trainer uses.
  data::StandardScaler scaler(f.info.scaler_mean, f.info.scaler_std);
  Tensor x = scaler.Transform(window).Reshape(
      {1, f.info.num_sensors, f.settings.history, 1});
  ag::NoGradMode no_grad;
  Tensor y = f.model->Forward(x, /*training=*/false).value();
  Tensor want = scaler.InverseTransform(y).Reshape(
      {f.info.num_sensors, f.settings.horizon, 1});
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0);
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, BatchedForecastIsBitIdenticalPerSample) {
  // In every tier each row of a batch gets the same bytes as that window
  // forecast alone.
  Fixture f = MakeFixture("serve_test_batch.bin");
  const int64_t n = f.info.num_sensors, h = f.settings.history;
  constexpr int64_t kBatch = 8;
  std::vector<Tensor> windows;
  for (int64_t b = 0; b < kBatch; ++b) {
    windows.push_back(ops::Slice(f.dataset.values, 1, 3 * b, h));
  }
  for (const simd::Precision tier :
       {simd::Precision::kFp32, simd::Precision::kBf16,
        simd::Precision::kInt8}) {
    SessionConfig cfg;
    cfg.precision = tier;
    auto session = InferenceSession::Open(f.path, cfg);
    Tensor batch = Tensor::Uninit({kBatch, n, h, 1});
    const int64_t in_per = windows[0].size();
    for (int64_t b = 0; b < kBatch; ++b) {
      std::memcpy(batch.data() + b * in_per, windows[b].data(),
                  sizeof(float) * static_cast<size_t>(in_per));
    }
    Tensor all = session->Forecast(batch);
    ASSERT_EQ(all.dim(0), kBatch) << simd::PrecisionName(tier);
    for (int64_t b = 0; b < kBatch; ++b) {
      Tensor single = session->Forecast(windows[b]);
      const int64_t per = single.size();
      EXPECT_EQ(std::memcmp(all.data() + b * per, single.data(),
                            sizeof(float) * static_cast<size_t>(per)),
                0)
          << simd::PrecisionName(tier) << " row " << b;
    }
  }
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, TwoSessionsAgreeBitExactly) {
  Fixture f = MakeFixture("serve_test_two.bin");
  auto s1 = InferenceSession::Open(f.path);
  auto s2 = InferenceSession::Open(f.path);
  Tensor window = ops::Slice(f.dataset.values, 1, 3, f.settings.history);
  Tensor a = s1->Forecast(window);
  Tensor b = s2->Forecast(window);
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.size())),
            0);
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, WarmForecastsDoNotHeapAllocate) {
  // After warm-up every buffer a forecast needs (scaler staging, output,
  // kernel intermediates) comes from the pool's free lists: zero pool
  // misses per call, in every tier.
  Fixture f = MakeFixture("serve_test_allocs.bin");
  Tensor window = ops::Slice(f.dataset.values, 1, 6, f.settings.history);
  for (const simd::Precision tier :
       {simd::Precision::kFp32, simd::Precision::kBf16,
        simd::Precision::kInt8}) {
    SessionConfig cfg;
    cfg.precision = tier;
    auto session = InferenceSession::Open(f.path, cfg);
    for (int i = 0; i < 8; ++i) session->Forecast(window);
    pool::ResetStats();
    for (int i = 0; i < 32; ++i) session->Forecast(window);
    const pool::PoolStats stats = pool::Stats();
    EXPECT_GT(stats.requests, 0u) << simd::PrecisionName(tier);
    EXPECT_EQ(stats.misses, 0u) << simd::PrecisionName(tier);
  }
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Reduced-precision sessions

TEST(PrecisionSessionTest, TiersAreDeterministicAndCloseToFp32) {
  Fixture f = MakeFixture("serve_test_prec.bin");
  Tensor window = ops::Slice(f.dataset.values, 1, 4, f.settings.history);
  SessionConfig fp32_cfg;
  fp32_cfg.precision = simd::Precision::kFp32;
  Tensor baseline = InferenceSession::Open(f.path, fp32_cfg)->Forecast(window);

  for (const simd::Precision tier :
       {simd::Precision::kBf16, simd::Precision::kInt8}) {
    SessionConfig cfg;
    cfg.precision = tier;
    const int64_t active_before = lowp::ActiveCount();
    Tensor a, b;
    {
      auto s1 = InferenceSession::Open(f.path, cfg);
      EXPECT_EQ(s1->precision(), tier);
      EXPECT_GT(lowp::ActiveCount(), active_before)
          << "session did not register any reduced-precision packs";
      auto s2 = InferenceSession::Open(f.path, cfg);
      a = s1->Forecast(window);
      b = s2->Forecast(window);
    }
    EXPECT_EQ(lowp::ActiveCount(), active_before)
        << "session destructor leaked packs for "
        << simd::PrecisionName(tier);
    // Two sessions of the same tier are bit-identical.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<size_t>(a.size())),
              0)
        << simd::PrecisionName(tier);
    // And close to fp32: a tiny (scaled-down) model, so loose bounds.
    EXPECT_TRUE(ops::AllClose(a, baseline, 0.05f, 1.0f))
        << simd::PrecisionName(tier);
  }
  std::remove(f.path.c_str());
}

TEST(PrecisionSessionTest, MaeDriftVsFp32WithinTierBounds) {
  // The reduced tiers' accuracy contract on Table IV models (random-init
  // weights: the drift is a property of the numerics, not of training):
  // MAE against the true continuation may move at most 0.1% for bf16 and
  // 1% for int8, relative to fp32.
  data::GeneratorOptions gen;
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = 11;
  const data::TrafficDataset dataset = data::GenerateTraffic(gen);
  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  settings.seed = 3;
  data::StandardScaler scaler;
  scaler.Fit(dataset.values, dataset.num_steps() * 6 / 10);
  ServingInfo info;
  info.settings = settings;
  info.num_sensors = dataset.num_sensors();
  info.num_features = dataset.num_features();
  info.scaler_mean = scaler.mean();
  info.scaler_std = scaler.stddev();

  std::vector<std::pair<Tensor, Tensor>> eval;
  const int64_t max_anchor =
      dataset.num_steps() - settings.history - settings.horizon;
  for (int64_t e = 0; e < 6; ++e) {
    const int64_t anchor = e * 13 % max_anchor;
    eval.emplace_back(
        ops::Slice(dataset.values, 1, anchor, settings.history),
        ops::Slice(dataset.values, 1, anchor + settings.history,
                   settings.horizon));
  }
  const std::string path = TempPath("serve_test_prec_drift.bin");
  for (const std::string name : {"ST-WA", "STGCN", "AGCRN"}) {
    info.model = name;
    auto model = baselines::MakeModel(name, dataset, settings);
    SaveServingCheckpoint(*model, info, path);
    double mae[3] = {0.0, 0.0, 0.0};
    const simd::Precision tiers[3] = {simd::Precision::kFp32,
                                      simd::Precision::kBf16,
                                      simd::Precision::kInt8};
    for (int t = 0; t < 3; ++t) {
      SessionConfig cfg;
      cfg.precision = tiers[t];
      auto session = InferenceSession::Open(path, dataset, cfg);
      metrics::MetricAccumulator acc;
      for (const auto& [window, truth] : eval) {
        acc.Add(session->Forecast(window), truth);
      }
      mae[t] = acc.Result().mae;
    }
    ASSERT_GT(mae[0], 0.0) << name;
    // A tier that silently served fp32 would pass the bounds below.
    EXPECT_NE(mae[1], mae[0]) << name;
    EXPECT_NE(mae[2], mae[0]) << name;
    EXPECT_LE(100.0 * std::abs(mae[1] - mae[0]) / mae[0], 0.1) << name;
    EXPECT_LE(100.0 * std::abs(mae[2] - mae[0]) / mae[0], 1.0) << name;
  }
  std::remove(path.c_str());
}

TEST(PrecisionSessionTest, V2CheckpointWithoutScalesServesIdentically) {
  // A v2-era serving checkpoint predates baked int8 scales. An int8
  // session must recompute them from the fp32 weights and serve
  // bit-identically to a session on the v3 file (the baked scales are
  // the same Int8ChannelScales formula, %.9g round-tripped).
  Fixture f = MakeFixture("serve_test_prec_v2.bin");
  ServingInfo v3_info = ReadServingInfo(f.path);
  EXPECT_FALSE(v3_info.int8_scales.empty())
      << "v3 serving checkpoints should bake int8 scales";

  const std::string v2_path = TempPath("serve_test_prec_v2_old.bin");
  // MakeServingMeta carries everything *except* the scale entries, which
  // SaveServingCheckpoint adds on top — exactly a v2 writer's output.
  nn::SaveParameters(*f.model, v2_path, MakeServingMeta(f.info));
  {
    std::fstream patch(v2_path,
                       std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(patch.good());
    const uint32_t v2 = 2;
    patch.seekp(4);  // version word sits after the u32 magic
    patch.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
  }
  ServingInfo v2_info = ReadServingInfo(v2_path);
  EXPECT_TRUE(v2_info.int8_scales.empty());
  EXPECT_EQ(v2_info.model, "ST-WA");

  SessionConfig cfg;
  cfg.precision = simd::Precision::kInt8;
  Tensor window = ops::Slice(f.dataset.values, 1, 2, f.settings.history);
  Tensor from_v3 = InferenceSession::Open(f.path, cfg)->Forecast(window);
  Tensor from_v2 = InferenceSession::Open(v2_path, cfg)->Forecast(window);
  EXPECT_EQ(
      std::memcmp(from_v3.data(), from_v2.data(),
                  sizeof(float) * static_cast<size_t>(from_v3.size())),
      0)
      << "recomputed scales must match baked scales bit-for-bit";
  std::remove(f.path.c_str());
  std::remove(v2_path.c_str());
}

TEST(PrecisionSessionTest, ServerHonoursSessionPrecision) {
  Fixture f = MakeFixture("serve_test_prec_srv.bin");
  Tensor window = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  SessionConfig cfg;
  cfg.precision = simd::Precision::kBf16;
  Tensor want = InferenceSession::Open(f.path, cfg)->Forecast(window);

  ServerOptions opts;
  opts.workers = 2;
  opts.batching.max_batch = 4;
  opts.batching.max_delay = std::chrono::microseconds(2000);
  opts.session = cfg;
  Server server(f.path, opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.Submit(window));
  for (auto& fut : futures) {
    Response r = fut.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(
        std::memcmp(r.forecast.data(), want.data(),
                    sizeof(float) * static_cast<size_t>(want.size())),
        0)
        << "server bf16 output must match an offline bf16 session";
  }
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// BatchingQueue

TEST(BatchingQueueTest, CoalescesUpToMaxBatch) {
  BatchingOptions opts;
  opts.max_batch = 3;
  opts.max_delay = std::chrono::microseconds(60'000'000);
  BatchingQueue queue(opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}),
                                   std::chrono::microseconds(60'000'000)));
  }
  std::vector<Request> first = queue.NextBatch();
  EXPECT_EQ(first.size(), 3u);
  queue.Shutdown();  // the 2 leftovers are under max_batch and far from
                     // their flush point; shutdown releases them
  std::vector<Request> second = queue.NextBatch();
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(queue.queue_depth(), 0);
  for (auto& r : first) r.promise.set_value(Response{});
  for (auto& r : second) r.promise.set_value(Response{});
}

TEST(BatchingQueueTest, ShedsOnCapacityOverflow) {
  BatchingOptions opts;
  opts.max_batch = 8;
  opts.capacity = 2;
  BatchingQueue queue(opts);
  auto f1 = queue.Submit(Tensor(Shape{1, 1, 1}),
                         std::chrono::microseconds(1'000'000));
  auto f2 = queue.Submit(Tensor(Shape{1, 1, 1}),
                         std::chrono::microseconds(1'000'000));
  auto f3 = queue.Submit(Tensor(Shape{1, 1, 1}),
                         std::chrono::microseconds(1'000'000));
  Response shed = f3.get();  // resolved immediately, no consumer needed
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(shed.degraded);
  EXPECT_NE(shed.error.find("queue full"), std::string::npos);
  EXPECT_EQ(queue.shed(), 1);
  EXPECT_EQ(queue.queue_depth(), 2);
  queue.Shutdown();
  // Drain so the two queued promises resolve.
  std::vector<Request> rest = queue.NextBatch();
  for (auto& r : rest) r.promise.set_value(Response{});
  (void)f1;
  (void)f2;
}

TEST(BatchingQueueTest, ShedsExpiredRequestsAsDegraded) {
  BatchingOptions opts;
  opts.max_batch = 8;
  opts.max_delay = std::chrono::microseconds(1000);
  BatchingQueue queue(opts);
  auto f = queue.Submit(Tensor(Shape{1, 1, 1}),
                        std::chrono::microseconds(500));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Shutdown();  // so NextBatch returns once the queue is drained
  std::vector<Request> batch = queue.NextBatch();  // finds it expired
  EXPECT_TRUE(batch.empty());
  Response r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_NE(r.error.find("deadline"), std::string::npos);
  EXPECT_EQ(queue.shed(), 1);
}

/// Runs NextBatch on another thread. If it has not returned within
/// `patience`, shuts the queue down (so the call returns) and reports
/// the timeout through *timed_out.
std::vector<Request> NextBatchWithin(BatchingQueue& queue,
                                     std::chrono::milliseconds patience,
                                     bool* timed_out) {
  auto pending = std::async(std::launch::async,
                            [&queue] { return queue.NextBatch(); });
  *timed_out = pending.wait_for(patience) != std::future_status::ready;
  if (*timed_out) queue.Shutdown();
  return pending.get();
}

void ResolveAll(std::vector<Request>& batch) {
  for (auto& r : batch) r.promise.set_value(Response{});
}

TEST(BatchingQueueTest, StreamHeadIsReleasedAtOnceAndAlone) {
  BatchingOptions opts;
  opts.max_batch = 2;
  opts.max_delay = std::chrono::microseconds(60'000'000);
  BatchingQueue queue(opts);
  const auto budget = std::chrono::microseconds(60'000'000);
  std::vector<std::future<Response>> futures;
  // Stream head, then a one-shot and another stream request behind it:
  // far from max_delay, yet the head leaves now, without companions.
  futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}), 0, 11, budget));
  futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}), budget));
  futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}), 1, 11, budget));
  bool timed_out = false;
  std::vector<Request> first =
      NextBatchWithin(queue, std::chrono::seconds(10), &timed_out);
  ASSERT_FALSE(timed_out) << "a stream head waited for max_delay";
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].stream_id, 0);
  ResolveAll(first);
  // Behind a one-shot head the stream request rides the full batch.
  std::vector<Request> second =
      NextBatchWithin(queue, std::chrono::seconds(10), &timed_out);
  ASSERT_FALSE(timed_out);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].stream_id, -1);
  EXPECT_EQ(second[1].stream_id, 1);
  ResolveAll(second);

  // A backlog of stream requests drains one at a time, in order.
  for (int64_t s = 0; s < 5; ++s) {
    futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}), s, 12, budget));
  }
  for (int64_t s = 0; s < 5; ++s) {
    std::vector<Request> one =
        NextBatchWithin(queue, std::chrono::seconds(10), &timed_out);
    ASSERT_FALSE(timed_out) << "a queued stream head waited for max_delay";
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].stream_id, s);
    ResolveAll(one);
  }
  EXPECT_EQ(queue.queue_depth(), 0);
  EXPECT_EQ(queue.shed(), 0);
  for (auto& f : futures) f.get();
}

TEST(BatchingQueueTest, OneShotHeadWaitsEvenWithStreamRequestBehind) {
  const auto budget = std::chrono::microseconds(60'000'000);
  {
    // Until max_batch: a one-shot head holds the batch back although a
    // stream request is queued behind it.
    BatchingOptions opts;
    opts.max_batch = 3;
    opts.max_delay = std::chrono::microseconds(60'000'000);
    BatchingQueue queue(opts);
    auto a = queue.Submit(Tensor(Shape{1, 1, 1}), budget);
    auto b = queue.Submit(Tensor(Shape{1, 1, 1}), 0, 11, budget);
    auto pending = std::async(std::launch::async,
                              [&queue] { return queue.NextBatch(); });
    EXPECT_EQ(pending.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout)
        << "a one-shot head was released before max_batch or max_delay";
    auto c = queue.Submit(Tensor(Shape{1, 1, 1}), 1, 11, budget);  // full
    ASSERT_EQ(pending.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    std::vector<Request> batch = pending.get();
    EXPECT_EQ(batch.size(), 3u);
    ResolveAll(batch);
  }
  {
    // Or until max_delay, counted from the head's enqueue time.
    BatchingOptions opts;
    opts.max_batch = 8;
    opts.max_delay = std::chrono::microseconds(20'000);
    BatchingQueue queue(opts);
    const auto t0 = std::chrono::steady_clock::now();
    auto a = queue.Submit(Tensor(Shape{1, 1, 1}), budget);
    auto b = queue.Submit(Tensor(Shape{1, 1, 1}), 0, 11, budget);
    bool timed_out = false;
    std::vector<Request> batch =
        NextBatchWithin(queue, std::chrono::seconds(10), &timed_out);
    ASSERT_FALSE(timed_out);
    EXPECT_GE(std::chrono::steady_clock::now() - t0, opts.max_delay);
    EXPECT_EQ(batch.size(), 2u);
    ResolveAll(batch);
  }
}

TEST(BatchingQueueTest, SubmitAfterShutdownIsShed) {
  BatchingQueue queue(BatchingOptions{});
  queue.Shutdown();
  Response r = queue.Submit(Tensor(Shape{1, 1, 1}),
                            std::chrono::microseconds(1000))
                   .get();
  EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------------------
// Server: batching determinism and overload behaviour

TEST(ServerTest, ForecastsBitIdenticalAcrossWorkerAndBatchConfigs) {
  Fixture f = MakeFixture("serve_test_server.bin");
  const int64_t h = f.settings.history;
  std::vector<Tensor> windows;
  for (int64_t t = 0; t < 6; ++t) {
    windows.push_back(ops::Slice(f.dataset.values, 1, t * 3, h));
  }
  auto offline = InferenceSession::Open(f.path);
  std::vector<Tensor> expected;
  for (const Tensor& w : windows) expected.push_back(offline->Forecast(w));

  struct Config {
    int workers;
    int64_t max_batch;
  };
  for (const Config& c : {Config{1, 1}, Config{2, 4}, Config{3, 8}}) {
    ServerOptions opts;
    opts.workers = c.workers;
    opts.batching.max_batch = c.max_batch;
    opts.batching.max_delay = std::chrono::microseconds(2000);
    opts.default_deadline = std::chrono::seconds(60);
    Server server(f.path, opts);
    std::vector<std::future<Response>> futures;
    for (int round = 0; round < 3; ++round) {
      for (const Tensor& w : windows) futures.push_back(server.Submit(w));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      Response r = futures[i].get();
      ASSERT_TRUE(r.ok) << "workers=" << c.workers
                        << " max_batch=" << c.max_batch << ": " << r.error;
      EXPECT_FALSE(r.degraded);
      const Tensor& want = expected[i % windows.size()];
      ASSERT_EQ(r.forecast.shape(), want.shape());
      EXPECT_EQ(
          std::memcmp(r.forecast.data(), want.data(),
                      sizeof(float) * static_cast<size_t>(want.size())),
          0)
          << "workers=" << c.workers << " max_batch=" << c.max_batch
          << " request " << i;
    }
    ServerStats stats = server.Stats();
    EXPECT_EQ(stats.completed, static_cast<int64_t>(futures.size()));
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.latency.count(), stats.completed);
  }
  std::remove(f.path.c_str());
}

TEST(ServerTest, ImpossibleDeadlinesAreShedWithDegradedFlag) {
  Fixture f = MakeFixture("serve_test_overload.bin");
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 1;
  // Hold batches back long enough that a 1 us deadline always expires.
  opts.batching.max_delay = std::chrono::microseconds(20'000);
  Server server(f.path, opts);
  Tensor window = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(window, std::chrono::microseconds(1)));
  }
  int64_t degraded = 0;
  for (auto& fut : futures) {
    Response r = fut.get();
    if (!r.ok) {
      EXPECT_TRUE(r.degraded);
      ++degraded;
    }
  }
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(server.Stats().shed, degraded);
  std::remove(f.path.c_str());
}

TEST(ServerTest, RejectsWrongWindowShape) {
  Fixture f = MakeFixture("serve_test_shape.bin");
  ServerOptions opts;
  Server server(f.path, opts);
  EXPECT_THROW(server.Submit(Tensor(Shape{1, 2, 3})), Error);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, FormatsForecastAndShedResponses) {
  Response ok;
  ok.ok = true;
  ok.forecast = Tensor(Shape{2, 2, 1});
  ok.forecast.data()[0] = 1.0f;
  ok.forecast.data()[3] = 4.5f;
  std::string line = FormatForecastResponse(ok, 2, 2, 1);
  EXPECT_EQ(line.rfind("forecast ok=1 degraded=0 n=2 u=2 ", 0), 0u) << line;
  EXPECT_NE(line.find("4.5"), std::string::npos);

  Response shed;
  shed.degraded = true;
  shed.error = "deadline expired after 10us in queue";
  std::string bad = FormatForecastResponse(shed, 2, 2, 1);
  EXPECT_EQ(bad.rfind("forecast ok=0 degraded=1 err=", 0), 0u) << bad;
  EXPECT_EQ(bad.find(' ', bad.find("err=")), std::string::npos)
      << "shed reason must be one token: " << bad;
}

float FromBits(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint32_t ToBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ProtocolTest, ForecastValuesMatchPrintfAndRoundTrip) {
  std::vector<float> values = {
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      FromBits(0x7fa00001u), FromBits(0xffc12345u),  // NaN payloads
      FromBits(0x00000001u), FromBits(0x80000001u),  // smallest denormals
      FromBits(0x007fffffu), FromBits(0x807fffffu),  // largest denormals
      FLT_MIN, -FLT_MIN, FLT_MAX, -FLT_MAX, FLT_EPSILON, 1.0f, -1.0f,
      0.1f, 100.0f, 123456789.0f, 1e-10f, 3.4e38f};
  std::mt19937 rng(20221);
  constexpr int64_t kRandom = 1 << 20;
  for (int64_t i = 0; i < kRandom; ++i) {
    values.push_back(FromBits(static_cast<uint32_t>(rng())));
  }
  Response resp;
  resp.ok = true;
  resp.forecast = Tensor(Shape{1, static_cast<int64_t>(values.size()), 1});
  std::memcpy(resp.forecast.data(), values.data(),
              sizeof(float) * values.size());
  const std::string line = FormatForecastResponse(
      resp, 1, static_cast<int64_t>(values.size()), 1);
  const std::string head =
      "forecast ok=1 degraded=0 n=1 u=" + std::to_string(values.size());
  ASSERT_EQ(line.compare(0, head.size(), head), 0);

  // Byte-equal to snprintf("%.9g"), value by value.
  size_t pos = head.size();
  char buf[32];
  for (float v : values) {
    const size_t len = static_cast<size_t>(
        std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(v)));
    ASSERT_EQ(line.compare(pos, len, buf), 0)
        << "bits 0x" << std::hex << ToBits(v) << " want '" << buf
        << "' got '" << line.substr(pos, len) << "'";
    pos += len;
  }
  EXPECT_EQ(pos, line.size());

  // Every value parses back to the same bits (NaN to some NaN).
  const char* p = line.c_str() + head.size();
  for (float v : values) {
    char* end = nullptr;
    const float got = std::strtof(p, &end);
    ASSERT_NE(end, p);
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      ASSERT_EQ(ToBits(got), ToBits(v)) << "bits 0x" << std::hex << ToBits(v);
    }
    p = end;
  }
  EXPECT_EQ(*p, '\0');
}

TEST(ProtocolTest, RejectsNonFiniteValues) {
  float v = 0.0f;
  for (const std::string token :
       {"nan", "NaN", "inf", "-inf", "infinity", "1e39", "-1e39"}) {
    EXPECT_FALSE(ParseFloatToken(token, &v)) << token;
    std::vector<float> values;
    std::string err;
    EXPECT_FALSE(ParseValueTokens({"obs", "1", token}, 1, &values, &err))
        << token;
    EXPECT_EQ(err, "bad value '" + token + "'");
  }
  // Finite extremes, denormals and underflow to zero stay valid.
  std::vector<float> ok;
  std::string err;
  ASSERT_TRUE(ParseValueTokens({"obs", "3.40282347e38", "1e-45", "1e-50", "-0"},
                               1, &ok, &err))
      << err;
  ASSERT_EQ(ok.size(), 4u);
  EXPECT_EQ(ToBits(ok[0]), ToBits(FLT_MAX));
  EXPECT_EQ(ToBits(ok[1]), 0x00000001u);
  EXPECT_EQ(ToBits(ok[2]), 0x00000000u);
  EXPECT_EQ(ToBits(ok[3]), 0x80000000u);
  EXPECT_FALSE(ParseFloatToken("", &v));
  EXPECT_FALSE(ParseFloatToken("1.5x", &v));
  int64_t i = 0;
  EXPECT_TRUE(ParseIntToken("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_FALSE(ParseIntToken("7.0", &i));
}

// ---------------------------------------------------------------------------
// LabeledHistograms

TEST(LabeledHistogramsTest, RecordsPerLabelInFirstUseOrder) {
  metrics::LabeledHistograms h;
  h.Record("cityB", 100.0);
  h.Record("cityA", 200.0);
  h.Record("cityB", 300.0);
  EXPECT_EQ(h.total_count(), 3);
  ASSERT_EQ(h.entries().size(), 2u);
  EXPECT_EQ(h.entries()[0].first, "cityB");
  EXPECT_EQ(h.entries()[1].first, "cityA");
  ASSERT_NE(h.Find("cityB"), nullptr);
  EXPECT_EQ(h.Find("cityB")->count(), 2);
  EXPECT_EQ(h.Find("missing"), nullptr);
}

TEST(LabeledHistogramsTest, MergeCombinesByLabel) {
  metrics::LabeledHistograms a, b;
  a.Record("x", 10.0);
  a.Record("y", 20.0);
  b.Record("y", 30.0);
  b.Record("z", 40.0);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 4);
  ASSERT_EQ(a.entries().size(), 3u);
  EXPECT_EQ(a.Find("y")->count(), 2);
  EXPECT_DOUBLE_EQ(a.Find("y")->mean_micros(), 25.0);
  EXPECT_EQ(a.Find("z")->count(), 1);
}

// ---------------------------------------------------------------------------
// ServerStats::Merge

TEST(ServerStatsTest, MergeAddsCountersAndReweightsMeanBatch) {
  ServerStats a, b;
  a.submitted = 10;
  a.completed = 8;
  a.shed = 2;
  a.batches = 4;
  a.mean_batch = 2.0;  // 8 requests over 4 batches
  a.latency.Record(100.0);
  b.submitted = 6;
  b.completed = 6;
  b.batches = 2;
  b.mean_batch = 3.0;  // 6 requests over 2 batches
  b.latency.Record(300.0);
  a.Merge(b);
  EXPECT_EQ(a.submitted, 16);
  EXPECT_EQ(a.completed, 14);
  EXPECT_EQ(a.shed, 2);
  EXPECT_EQ(a.batches, 6);
  EXPECT_DOUBLE_EQ(a.mean_batch, 14.0 / 6.0);
  EXPECT_EQ(a.latency.count(), 2);
}

// ---------------------------------------------------------------------------
// BatchingQueue: shutdown drains instead of dropping

TEST(BatchingQueueTest, ShutdownDrainsQueuedRequestsBeforeEmpty) {
  BatchingOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(60'000'000);
  BatchingQueue queue(opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}),
                                   std::chrono::microseconds(60'000'000)));
  }
  queue.Shutdown();
  // Every queued request comes out of NextBatch (in batches of <= 4)
  // before the terminal empty vector — the fleet reload's drain contract.
  int64_t drained = 0;
  for (;;) {
    std::vector<Request> batch = queue.NextBatch();
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 4u);
    drained += static_cast<int64_t>(batch.size());
    for (auto& r : batch) {
      Response resp;
      resp.ok = true;
      r.promise.set_value(std::move(resp));
    }
  }
  EXPECT_EQ(drained, 10);
  EXPECT_EQ(queue.shed(), 0);
  for (auto& fut : futures) EXPECT_TRUE(fut.get().ok);
}

// ---------------------------------------------------------------------------
// Checkpoint provenance

TEST(ServingCheckpointTest, CkptVersionRoundTripsAndDefaultsToOne) {
  Fixture f = MakeFixture("serve_test_ckptver.bin");
  // MakeFixture leaves the default (1).
  EXPECT_EQ(ReadServingInfo(f.path).ckpt_version, 1);
  f.info.ckpt_version = 7;
  SaveServingCheckpoint(*f.model, f.info, f.path);
  EXPECT_EQ(ReadServingInfo(f.path).ckpt_version, 7);
  // The format version word is independent of the provenance counter.
  EXPECT_EQ(nn::PeekCheckpointFormatVersion(f.path), 3u);
  std::remove(f.path.c_str());
}

TEST(ServingCheckpointTest, PeekFormatVersionRejectsNonCheckpoints) {
  const std::string path = TempPath("serve_test_peek_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  EXPECT_THROW(nn::PeekCheckpointFormatVersion(path), Error);
  EXPECT_THROW(nn::PeekCheckpointFormatVersion(TempPath("stwa_missing.bin")),
               Error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Line transport

TEST(LineTransportTest, ConnectionAnswersEveryLineUntilPeerEof) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string request = "a\n\nb\n";
  ASSERT_EQ(write(fds[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  shutdown(fds[1], SHUT_WR);
  ServeConnection(fds[0], [](const std::string& line, bool*)
                              -> std::optional<std::string> {
    if (line.empty()) return std::nullopt;
    return "got " + line;
  });
  char reply[64] = {};
  const ssize_t n = read(fds[1], reply, sizeof(reply) - 1);
  EXPECT_EQ(std::string(reply, n > 0 ? static_cast<size_t>(n) : 0),
            "got a\ngot b\n");
  close(fds[1]);
}

TEST(LineTransportTest, PeerHangupEndsConnectionWithoutSigpipe) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int peer = fds[1];
  const std::string request = "ping\nping\n";
  ASSERT_EQ(write(peer, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  int handled = 0;
  // The client hangs up before reading its first response: the response
  // is sent to a closed peer. Without MSG_NOSIGNAL that raises SIGPIPE and
  // kills this test process.
  ServeConnection(fds[0], [&](const std::string& line, bool*)
                              -> std::optional<std::string> {
    if (++handled == 1) close(peer);
    return "pong " + line;
  });
  // The failed send ended the connection before the second line.
  EXPECT_EQ(handled, 1);
}

}  // namespace
}  // namespace serve
}  // namespace stwa
