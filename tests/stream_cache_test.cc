// Tests for incremental streaming inference: the time-slice plan
// analysis (ir/time_slice.h), the per-stream activation cache
// (serve/stream_cache.h), the InferenceSession::ForecastStream paths,
// server/fleet wiring, and invalidation on hot reload and online
// publish. The load-bearing property throughout is byte identity: the
// incremental path must serve exactly the bytes the cold path would.

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/no_grad.h"
#include "baselines/registry.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "fleet/profile.h"
#include "ir/plan.h"
#include "ir/time_slice.h"
#include "online/adaptation.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "serve/stream_cache.h"
#include "switch_guards.h"
#include "tensor/ops.h"

namespace stwa {
namespace serve {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

struct Fixture {
  data::TrafficDataset dataset;
  baselines::ModelSettings settings;
  std::unique_ptr<train::ForecastModel> model;
  ServingInfo info;
  std::string path;
};

Fixture MakeFixture(const std::string& file, const std::string& model_name,
                    uint64_t weight_seed = 3) {
  Fixture f;
  data::GeneratorOptions gen;
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = 11;
  f.dataset = data::GenerateTraffic(gen);
  f.settings.history = 12;
  f.settings.horizon = 4;
  f.settings.d_model = 8;
  f.settings.window_sizes = {3, 2, 2};
  f.settings.latent_dim = 4;
  f.settings.predictor_hidden = 16;
  f.settings.seed = weight_seed;
  f.model = baselines::MakeModel(model_name, f.dataset, f.settings);
  f.info.model = model_name;
  f.info.settings = f.settings;
  f.info.num_sensors = f.dataset.num_sensors();
  f.info.num_features = f.dataset.num_features();
  f.info.scaler_mean = 200.0f;
  f.info.scaler_std = 55.0f;
  f.info.ckpt_version = 1;
  f.path = TempPath(file);
  SaveServingCheckpoint(*f.model, f.info, f.path);
  return f;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// ---------------------------------------------------------------------------
// Time-slice plan analysis

std::unique_ptr<ir::ExecutionPlan> CapturePlan(const Fixture& f,
                                               Tensor* norm_out) {
  data::StandardScaler scaler(f.info.scaler_mean, f.info.scaler_std);
  Tensor w = ops::Slice(f.dataset.values, 1, 20, f.settings.history);
  Tensor norm = scaler.Transform(
      w.Reshape({1, w.dim(0), w.dim(1), w.dim(2)}));
  ag::NoGradMode no_grad;
  ir::GraphCapture capture(ir::SnapshotPlanModes());
  ag::Var pred = f.model->Forward(norm, /*training=*/false);
  *norm_out = norm;
  return capture.Finish(pred, {norm}, /*with_backward=*/false);
}

TEST(TimeSliceAnalysisTest, ClassifiesQuickstartPlans) {
  for (const std::string name : {"ST-WA", "S-WA"}) {
    Fixture f = MakeFixture("stwa_sc_analysis.bin", name);
    Tensor norm;
    auto plan = CapturePlan(f, &norm);
    ASSERT_NE(plan, nullptr) << name;
    ir::TimeSliceInfo info =
        ir::AnalyzeTimeSlice(*plan, /*feed_index=*/0, /*time_axis=*/2);
    EXPECT_TRUE(info.feasible) << name;
    EXPECT_FALSE(info.has_rng) << name;
    EXPECT_EQ(info.window, f.settings.history) << name;
    // Model parameters are window-invariant, so param-only chains must
    // classify invariant, and the feed embedding chain sliced.
    EXPECT_GT(info.invariant_count, 0) << name;
    EXPECT_GT(info.sliced_count, 0) << name;
    EXPECT_FALSE(info.frontier_steps.empty()) << name;
    const size_t steps = plan->forward_steps().size();
    EXPECT_EQ(info.invariant_count + info.sliced_count + info.global_count,
              static_cast<int64_t>(steps))
        << name;
    // Masks mirror the classification: global_mask runs only globals,
    // non_invariant_mask runs globals + sliced.
    int64_t global_on = 0, non_inv_on = 0;
    for (size_t i = 0; i < steps; ++i) {
      global_on += info.global_mask[i];
      non_inv_on += info.non_invariant_mask[i];
    }
    EXPECT_EQ(global_on, info.global_count) << name;
    EXPECT_EQ(non_inv_on, info.global_count + info.sliced_count) << name;
    std::remove(f.path.c_str());
  }
}

TEST(TimeSliceAnalysisTest, SlicedStepsSatisfyShiftProperty) {
  // Capture the same model over two windows one step apart: for every
  // step classified sliced, columns 0..H-2 of the later capture must be
  // byte-identical to columns 1..H-1 of the earlier one. This is the
  // physical property the shift path's splice relies on.
  Fixture f = MakeFixture("stwa_sc_shiftprop.bin", "ST-WA");
  data::StandardScaler scaler(f.info.scaler_mean, f.info.scaler_std);
  auto capture_at = [&](int64_t t) {
    Tensor w = ops::Slice(f.dataset.values, 1, t, f.settings.history);
    Tensor norm = scaler.Transform(
        w.Reshape({1, w.dim(0), w.dim(1), w.dim(2)}));
    ag::NoGradMode no_grad;
    ir::GraphCapture capture(ir::SnapshotPlanModes());
    ag::Var pred = f.model->Forward(norm, false);
    return capture.Finish(pred, {norm}, false);
  };
  auto plan1 = capture_at(20);
  auto plan2 = capture_at(21);
  ASSERT_NE(plan1, nullptr);
  ASSERT_NE(plan2, nullptr);
  ir::TimeSliceInfo info = ir::AnalyzeTimeSlice(*plan1, 0, 2);
  ASSERT_TRUE(info.feasible);
  const auto& s1 = plan1->forward_steps();
  const auto& s2 = plan2->forward_steps();
  ASSERT_EQ(s1.size(), s2.size());
  int checked = 0;
  for (size_t i = 0; i < s1.size(); ++i) {
    if (info.step_class[i] != ir::TimeClass::kSliced) continue;
    const int64_t a = info.step_axis[i];
    ASSERT_EQ(s1[i]->value.shape(), s2[i]->value.shape());
    Tensor head2 = ops::Slice(s2[i]->value, a, 0, info.window - 1);
    Tensor tail1 = ops::Slice(s1[i]->value, a, 1, info.window - 1);
    EXPECT_TRUE(SameBytes(head2, tail1)) << "sliced step " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// StreamCache bookkeeping

StreamCache::Entry MakeEntry(int64_t anchor, uint64_t generation,
                             simd::Precision precision) {
  StreamCache::Entry e;
  e.anchor = anchor;
  e.generation = generation;
  e.precision = precision;
  e.window = Tensor::Zeros({1, 2, 3, 1});
  e.output = Tensor::Zeros({2, 2, 1});
  e.segments.push_back(Tensor::Zeros({1, 2, 3}));
  return e;
}

TEST(StreamCacheTest, LookupMatchesTagsAndCountsStale) {
  StreamCache cache(/*generation=*/1);
  cache.Update(7, MakeEntry(5, 1, simd::Precision::kFp32));
  StreamCache::Entry got;
  EXPECT_TRUE(cache.Lookup(7, 1, simd::Precision::kFp32, &got));
  EXPECT_EQ(got.anchor, 5);
  // Unknown stream: plain miss, not stale.
  EXPECT_FALSE(cache.Lookup(8, 1, simd::Precision::kFp32, &got));
  // Generation mismatch: stale, entry stays for old-generation drains.
  EXPECT_FALSE(cache.Lookup(7, 2, simd::Precision::kFp32, &got));
  // Precision mismatch: stale as well.
  EXPECT_FALSE(cache.Lookup(7, 1, simd::Precision::kBf16, &got));
  EXPECT_TRUE(cache.Lookup(7, 1, simd::Precision::kFp32, &got));
  const StreamCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_rejected, 2);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(StreamCacheTest, InvalidateFlushesAndRetags) {
  StreamCache cache(1);
  cache.Update(1, MakeEntry(5, 1, simd::Precision::kFp32));
  cache.Update(2, MakeEntry(9, 1, simd::Precision::kFp32));
  EXPECT_EQ(cache.Stats().entries, 2);
  cache.Invalidate(2);
  EXPECT_EQ(cache.generation(), 2u);
  const StreamCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.flushes, 1);
  StreamCache::Entry got;
  EXPECT_FALSE(cache.Lookup(1, 2, simd::Precision::kFp32, &got));
}

// ---------------------------------------------------------------------------
// ForecastStream byte identity

TEST(ForecastStreamTest, ShiftPathMatchesColdForecastBitExactly) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  for (const std::string name : {"ST-WA", "S-WA"}) {
    Fixture f = MakeFixture("stwa_sc_shift.bin", name);
    auto session = InferenceSession::Open(f.path);
    auto reference = InferenceSession::Open(f.path);
    StreamCache cache(1);
    const int64_t h = f.settings.history;
    for (int64_t t = 0; t < 20; ++t) {
      Tensor w = ops::Slice(f.dataset.values, 1, t, h);
      Tensor got = session->ForecastStream(w, /*stream_id=*/0,
                                           /*anchor=*/t + h - 1, &cache, 1);
      Tensor want = reference->Forecast(w);
      ASSERT_TRUE(SameBytes(got, want)) << name << " t=" << t;
    }
    const StreamCacheStats stats = cache.Stats();
    EXPECT_GT(stats.shift_hits, 0) << name;
    EXPECT_EQ(stats.stale_rejected, 0) << name;
    std::remove(f.path.c_str());
  }
}

TEST(ForecastStreamTest, ShiftAnswerMatchesHandRecomputedReference) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  // The strictest form of the shift check: a dedicated session serves
  // windows [t, t+1] through the stream path while a fresh session
  // recomputes window t+1 from scratch — the shift-hit answer must be
  // bitwise the cold answer, not merely close.
  Fixture f = MakeFixture("stwa_sc_handref.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  Tensor w0 = ops::Slice(f.dataset.values, 1, 30, h);
  Tensor w1 = ops::Slice(f.dataset.values, 1, 31, h);
  session->ForecastStream(w0, 0, h - 1, &cache, 1);
  Tensor shifted = session->ForecastStream(w1, 0, h, &cache, 1);
  EXPECT_GT(cache.Stats().shift_hits, 0);
  Tensor cold = InferenceSession::Open(f.path)->Forecast(w1);
  EXPECT_TRUE(SameBytes(shifted, cold));
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, InterleavedStreamsStayByteExact) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  // Regression: harvested frontier segments used to alias the plan's
  // feed buffer, which BindFeeds rewrites in place — interleaving a
  // second stream between one stream's harvest and its next shift served
  // the wrong bytes. Three round-robin streams through one session must
  // all stay bit-identical to the cold path.
  Fixture f = MakeFixture("stwa_sc_interleave.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  auto reference = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  for (int64_t t = 0; t < 12; ++t) {
    for (int64_t s = 0; s < 3; ++s) {
      Tensor w = ops::Slice(f.dataset.values, 1, t + s * 29, h);
      Tensor got = session->ForecastStream(w, s, t + h - 1, &cache, 1);
      Tensor want = reference->Forecast(w);
      ASSERT_TRUE(SameBytes(got, want)) << "t=" << t << " s=" << s;
    }
  }
  EXPECT_GT(cache.Stats().shift_hits, 0);
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, OutputHitServesRepeatWithoutRecompute) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  Fixture f = MakeFixture("stwa_sc_outputhit.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  Tensor w = ops::Slice(f.dataset.values, 1, 10, h);
  Tensor first = session->ForecastStream(w, 0, h - 1, &cache, 1);
  const int64_t before = session->forward_count();
  Tensor repeat = session->ForecastStream(w, 0, h - 1, &cache, 1);
  EXPECT_EQ(session->forward_count(), before);  // no model work
  EXPECT_TRUE(SameBytes(first, repeat));
  EXPECT_EQ(cache.Stats().output_hits, 1);
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, RewoundWindowDegradesToMissNotWrongAnswer) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  // Anchor says "one ahead" but the bytes do not overlap: the memcmp
  // gate must reject the shift and recompute.
  Fixture f = MakeFixture("stwa_sc_rewind.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  auto reference = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  session->ForecastStream(ops::Slice(f.dataset.values, 1, 10, h), 0, h - 1,
                          &cache, 1);
  session->ForecastStream(ops::Slice(f.dataset.values, 1, 11, h), 0, h,
                          &cache, 1);
  // Claimed anchor h+1, but the window jumps 40 steps: overlap fails.
  Tensor jump = ops::Slice(f.dataset.values, 1, 52, h);
  Tensor got = session->ForecastStream(jump, 0, h + 1, &cache, 1);
  EXPECT_TRUE(SameBytes(got, reference->Forecast(jump)));
  EXPECT_GE(cache.Stats().misses, 2);  // first contact + the jump
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Server wiring: cache on/off bit identity across threads, batching and
// precision tiers

TEST(ServerStreamCacheTest, OnOffBitIdentityAcrossWorkersBatchingTiers) {
  Fixture f = MakeFixture("stwa_sc_server.bin", "ST-WA");
  const int64_t h = f.settings.history;
  const int64_t streams = 3;
  const int64_t steps = 10;
  for (const simd::Precision tier :
       {simd::Precision::kFp32, simd::Precision::kBf16,
        simd::Precision::kInt8}) {
    // Reference bytes for this tier from a plain offline session.
    SessionConfig ref_cfg;
    ref_cfg.precision = tier;
    auto reference = InferenceSession::Open(f.path, ref_cfg);
    for (const int workers : {1, 4}) {
      for (const int64_t max_batch : {int64_t{1}, int64_t{8}}) {
        for (const bool cache_on : {false, true}) {
          CacheModeGuard cache_mode(cache_on);  // read at construction
          ServerOptions opts;
          opts.workers = workers;
          opts.batching.max_batch = max_batch;
          opts.session.precision = tier;
          opts.default_deadline = std::chrono::seconds(120);
          Server server(f.path, opts);
          for (int64_t t = 0; t < steps; ++t) {
            std::vector<std::future<Response>> futures;
            std::vector<Tensor> windows;
            for (int64_t s = 0; s < streams; ++s) {
              windows.push_back(
                  ops::Slice(f.dataset.values, 1, t + s * 29, h));
              futures.push_back(
                  server.Submit(windows.back(), s, t + h - 1));
            }
            for (int64_t s = 0; s < streams; ++s) {
              Response resp = futures[static_cast<size_t>(s)].get();
              ASSERT_TRUE(resp.ok);
              Tensor want =
                  reference->Forecast(windows[static_cast<size_t>(s)]);
              ASSERT_TRUE(SameBytes(resp.forecast, want))
                  << "tier=" << static_cast<int>(tier)
                  << " workers=" << workers << " batch=" << max_batch
                  << " cache=" << cache_on << " t=" << t << " s=" << s;
            }
          }
          const ServerStats stats = server.Stats();
          if (!cache_on) {
            EXPECT_EQ(stats.stream_cache.output_hits +
                          stats.stream_cache.shift_hits,
                      0);
          }
          EXPECT_EQ(stats.stream_cache.stale_rejected, 0);
        }
      }
    }
  }
  std::remove(f.path.c_str());
}

TEST(ServerStreamCacheTest, SingletonStreamSubmitsHitTheCache) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_hits.bin", "ST-WA");
  const int64_t h = f.settings.history;
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 1;
  opts.default_deadline = std::chrono::seconds(120);
  Server server(f.path, opts);
  for (int64_t t = 0; t < 8; ++t) {
    Tensor w = ops::Slice(f.dataset.values, 1, t, h);
    ASSERT_TRUE(server.Submit(w, /*stream_id=*/0, t + h - 1).get().ok);
  }
  const ServerStats stats = server.Stats();
  EXPECT_GT(stats.stream_cache.shift_hits, 0);
  EXPECT_EQ(stats.stream_cache.stale_rejected, 0);
}

TEST(ServerStreamCacheTest, QueuedStreamBatchCountsBypassesAndMatchesCold) {
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_batched.bin", "ST-WA");
  const int64_t h = f.settings.history;
  const int64_t k = 3;
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = k + 1;
  opts.batching.max_delay = std::chrono::microseconds(60'000'000);
  opts.default_deadline = std::chrono::seconds(120);
  Server server(f.path, opts);
  // A one-shot head waits for max_batch, so the k stream requests queue
  // up behind it and all leave in the one full batch.
  Tensor head = ops::Slice(f.dataset.values, 1, 40, h);
  std::future<Response> head_future =
      server.Submit(head, std::chrono::seconds(120));
  std::vector<Tensor> windows;
  std::vector<std::future<Response>> futures;
  for (int64_t s = 0; s < k; ++s) {
    windows.push_back(ops::Slice(f.dataset.values, 1, 5 * s, h));
    futures.push_back(server.Submit(windows.back(), s, 5 * s + h - 1));
  }
  auto reference = InferenceSession::Open(f.path);
  ASSERT_TRUE(head_future.get().ok);
  for (int64_t s = 0; s < k; ++s) {
    Response resp = futures[static_cast<size_t>(s)].get();
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.batch_size, k + 1);
    EXPECT_TRUE(SameBytes(resp.forecast,
                          reference->Forecast(windows[static_cast<size_t>(s)])))
        << "stream " << s;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.stream_cache.bypass, k);
  EXPECT_EQ(stats.stream_cache.output_hits + stats.stream_cache.shift_hits +
                stats.stream_cache.misses,
            0);
  std::remove(f.path.c_str());
}

TEST(ServerStreamCacheTest, DisabledModeRunsCacheFree) {
  Fixture f = MakeFixture("stwa_sc_gate.bin", "ST-WA");
  CacheModeGuard guard(false);
  ASSERT_FALSE(StreamCacheEnabled());
  {
    ServerOptions opts;
    opts.default_deadline = std::chrono::seconds(120);
    Server server(f.path, opts);  // no injected cache, switch off
    EXPECT_EQ(server.stream_cache(), nullptr);
    Tensor w = ops::Slice(f.dataset.values, 1, 3, f.settings.history);
    Response resp = server.Submit(w, /*stream_id=*/0,
                                  f.settings.history - 1).get();
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(
        SameBytes(resp.forecast, InferenceSession::Open(f.path)->Forecast(w)));
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.stream_cache.output_hits + stats.stream_cache.shift_hits +
                  stats.stream_cache.misses,
              0);
  }
  std::remove(f.path.c_str());
}

TEST(ServerStreamCacheTest, PlanOffServesColdBytesThroughCachingServer) {
  Fixture f = MakeFixture("stwa_sc_noplan.bin", "ST-WA");
  const int64_t h = f.settings.history;
  auto reference = InferenceSession::Open(f.path);  // plan-on cold path
  PlanModeGuard plan_mode(false);
  CacheModeGuard cache_mode(true);
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 1;
  opts.default_deadline = std::chrono::seconds(120);
  Server server(f.path, opts);
  ASSERT_NE(server.stream_cache(), nullptr);
  for (int64_t t = 0; t < 6; ++t) {
    // Each window twice: a planned session would serve the repeat as an
    // output hit and the next window as a shift hit.
    for (int repeat = 0; repeat < 2; ++repeat) {
      Tensor w = ops::Slice(f.dataset.values, 1, t, h);
      Response resp = server.Submit(w, /*stream_id=*/0, t + h - 1).get();
      ASSERT_TRUE(resp.ok);
      ASSERT_TRUE(SameBytes(resp.forecast, reference->Forecast(w)))
          << "t=" << t << " repeat=" << repeat;
    }
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.stream_cache.shift_hits, 0);
  EXPECT_EQ(stats.stream_cache.output_hits, 0);
  EXPECT_EQ(stats.stream_cache.stale_rejected, 0);
  EXPECT_EQ(stats.stream_cache.bypass, 12);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Invalidation: hot reload and online publish

TEST(StreamCacheInvalidationTest, ReloadWithNewWeightsNeverServesStale) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_reload.bin", "ST-WA", /*weight_seed=*/3);
  fleet::FleetProfileConfig cfg;
  cfg.name = "city";
  cfg.checkpoint = f.path;
  cfg.tiles = 2;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.deadline_us = 120'000'000;
  fleet::ModelProfile profile(cfg);
  ASSERT_NE(profile.stream_cache(), nullptr);

  const int64_t n = f.dataset.num_sensors();
  const int64_t f_dim = f.dataset.num_features();
  const int64_t steps = f.dataset.num_steps();
  std::vector<float> row(static_cast<size_t>(n * f_dim));
  auto push_step = [&](int64_t tile, int64_t at) {
    const float* v = f.dataset.values.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f_dim; ++j) {
        row[static_cast<size_t>(i * f_dim + j)] =
            v[i * steps * f_dim + at * f_dim + j];
      }
    }
    profile.PushTile(tile, row);
  };
  for (int64_t s = 0; s < f.settings.history; ++s) push_step(0, s);

  // Warm the cache on generation 1 and verify bytes against the old
  // weights.
  auto old_session = InferenceSession::Open(f.path);
  Tensor w0 = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  for (int i = 0; i < 3; ++i) {
    Response resp = profile.ForecastTile(0).get();
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(SameBytes(resp.forecast, old_session->Forecast(w0)));
  }
  EXPECT_GT(profile.Stats().stream_cache.output_hits, 0);

  // New weights, same geometry, at a new path; reload must flush.
  Fixture g = MakeFixture("stwa_sc_reload_v2.bin", "ST-WA",
                          /*weight_seed=*/17);
  fleet::ReloadResult reload = profile.Reload(g.path);
  EXPECT_EQ(reload.version, 2);
  EXPECT_GE(profile.Stats().stream_cache.flushes, 1);

  // Same tile, same window: the cached generation-1 output would be a
  // stale read — the served bytes must come from the new weights.
  auto new_session = InferenceSession::Open(g.path);
  Tensor old_answer = old_session->Forecast(w0);
  Tensor new_answer = new_session->Forecast(w0);
  ASSERT_FALSE(SameBytes(old_answer, new_answer));  // weights did change
  for (int i = 0; i < 2; ++i) {
    Response resp = profile.ForecastTile(0).get();
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(SameBytes(resp.forecast, new_answer));
  }
  std::remove(f.path.c_str());
  std::remove(g.path.c_str());
}

TEST(StreamCacheInvalidationTest, OnlinePublishRideReloadAndFlushes) {
  PlanModeGuard plan_mode(true);  // cache hits need a plan
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_publish.bin", "ST-WA");
  fleet::FleetProfileConfig cfg;
  cfg.name = "city";
  cfg.checkpoint = f.path;
  cfg.tiles = 1;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.deadline_us = 120'000'000;
  fleet::ModelProfile profile(cfg);
  ASSERT_NE(profile.stream_cache(), nullptr);

  const int64_t n = f.dataset.num_sensors();
  const int64_t f_dim = f.dataset.num_features();
  const int64_t steps = f.dataset.num_steps();
  std::vector<float> row(static_cast<size_t>(n * f_dim));
  for (int64_t s = 0; s < f.settings.history; ++s) {
    const float* v = f.dataset.values.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f_dim; ++j) {
        row[static_cast<size_t>(i * f_dim + j)] =
            v[i * steps * f_dim + s * f_dim + j];
      }
    }
    profile.PushTile(0, row);
  }
  ASSERT_TRUE(profile.ForecastTile(0).get().ok);
  ASSERT_TRUE(profile.ForecastTile(0).get().ok);
  EXPECT_GT(profile.Stats().stream_cache.output_hits, 0);
  const int64_t flushes_before = profile.Stats().stream_cache.flushes;

  // Zero-delta publish through the learner, then the documented reload.
  online::OnlineConfig ocfg;
  ocfg.publish_path = TempPath("stwa_sc_publish_v2.bin");
  online::OnlineLearner learner(f.path, ocfg);
  learner.Publish();
  fleet::ReloadResult reload = profile.Reload(learner.publish_path());
  EXPECT_EQ(reload.version, 2);
  EXPECT_EQ(profile.Stats().stream_cache.flushes, flushes_before + 1);
  EXPECT_EQ(profile.Stats().stream_cache.entries, 0);

  // Zero-delta weights: post-publish bytes equal the originals, served
  // from a fresh (generation-2) compute rather than a stale entry.
  Response resp = profile.ForecastTile(0).get();
  ASSERT_TRUE(resp.ok);
  Tensor w0 = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  EXPECT_TRUE(
      SameBytes(resp.forecast, InferenceSession::Open(f.path)->Forecast(w0)));
  EXPECT_EQ(profile.Stats().stream_cache.stale_rejected, 0);
  std::remove(f.path.c_str());
  std::remove(ocfg.publish_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace stwa
