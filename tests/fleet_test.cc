// Tests for the fleet serving layer: shard routing arithmetic, token-bucket
// admission control, fleet config parsing, hot checkpoint reload (drain
// guarantee + bit-identity + geometry validation), the multi-profile
// registry, and the profile-routed line protocol.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "checkpoint_bytes.h"
#include "common/check.h"
#include "data/traffic_generator.h"
#include "fleet/admission.h"
#include "fleet/config.h"
#include "fleet/profile.h"
#include "fleet/protocol.h"
#include "fleet/registry.h"
#include "fleet/shard_router.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "serve/stream_cache.h"
#include "tensor/ops.h"

namespace stwa {
namespace fleet {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

// ---------------------------------------------------------------------------
// ShardRouter

TEST(ShardRouterTest, BalancedPartitionCoversAllTilesOnce) {
  const ShardRouter router(/*num_sensors=*/5, /*tiles=*/10, /*shards=*/4);
  EXPECT_EQ(router.global_sensors(), 50);
  // Balanced split of 10 tiles over 4 shards: 2/3/2/3.
  EXPECT_EQ(router.ShardBegin(0), 0);
  EXPECT_EQ(router.ShardEnd(0), 2);
  EXPECT_EQ(router.ShardBegin(1), 2);
  EXPECT_EQ(router.ShardEnd(1), 5);
  EXPECT_EQ(router.ShardBegin(2), 5);
  EXPECT_EQ(router.ShardEnd(2), 7);
  EXPECT_EQ(router.ShardBegin(3), 7);
  EXPECT_EQ(router.ShardEnd(3), 10);
  int64_t total = 0;
  for (int64_t k = 0; k < router.shards(); ++k) {
    total += router.ShardTileCount(k);
    EXPECT_GE(router.ShardTileCount(k), router.tiles() / router.shards());
  }
  EXPECT_EQ(total, router.tiles());
  // TileToShard is the inverse of the range split, and TileInShard is the
  // offset inside the owning range.
  for (int64_t t = 0; t < router.tiles(); ++t) {
    const int64_t k = router.TileToShard(t);
    EXPECT_GE(t, router.ShardBegin(k));
    EXPECT_LT(t, router.ShardEnd(k));
    EXPECT_EQ(router.TileInShard(t), t - router.ShardBegin(k));
  }
}

TEST(ShardRouterTest, SensorIndexMath) {
  const ShardRouter router(/*num_sensors=*/4, /*tiles=*/6, /*shards=*/3);
  EXPECT_EQ(router.global_sensors(), 24);
  EXPECT_EQ(router.SensorToTile(0), 0);
  EXPECT_EQ(router.SensorToTile(3), 0);
  EXPECT_EQ(router.SensorToTile(4), 1);
  EXPECT_EQ(router.SensorToTile(23), 5);
  EXPECT_EQ(router.SensorInTile(0), 0);
  EXPECT_EQ(router.SensorInTile(7), 3);
  EXPECT_EQ(router.SensorInTile(23), 3);
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  const ShardRouter router(/*num_sensors=*/3, /*tiles=*/7, /*shards=*/1);
  for (int64_t t = 0; t < 7; ++t) EXPECT_EQ(router.TileToShard(t), 0);
  EXPECT_EQ(router.ShardTileCount(0), 7);
}

TEST(ShardRouterTest, RejectsBadGeometry) {
  EXPECT_THROW(ShardRouter(0, 4, 2), Error);
  EXPECT_THROW(ShardRouter(4, 0, 1), Error);
  EXPECT_THROW(ShardRouter(4, 4, 0), Error);
  EXPECT_THROW(ShardRouter(4, 4, 5), Error);  // more shards than tiles
}

// ---------------------------------------------------------------------------
// Admission control

TEST(TokenBucketTest, BurstThenContinuousRefill) {
  TokenBucket bucket(TenantQuota{/*rate=*/2.0, /*burst=*/3.0});
  // A fresh bucket starts full: the whole burst admits at one instant.
  EXPECT_TRUE(bucket.TryAdmitAt(0));
  EXPECT_TRUE(bucket.TryAdmitAt(0));
  EXPECT_TRUE(bucket.TryAdmitAt(0));
  EXPECT_FALSE(bucket.TryAdmitAt(0));
  // 2 tokens/s -> one token after 500 ms, not two.
  EXPECT_TRUE(bucket.TryAdmitAt(500'000));
  EXPECT_FALSE(bucket.TryAdmitAt(500'000));
  // A long idle stretch refills to the cap, never past it.
  EXPECT_TRUE(bucket.TryAdmitAt(60'000'000));
  EXPECT_TRUE(bucket.TryAdmitAt(60'000'000));
  EXPECT_TRUE(bucket.TryAdmitAt(60'000'000));
  EXPECT_FALSE(bucket.TryAdmitAt(60'000'000));
}

TEST(TokenBucketTest, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(TenantQuota{/*rate=*/0.0, /*burst=*/1.0});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAdmitAt(0));
}

TEST(AdmissionControllerTest, DefaultQuotaAppliesToUnknownTenants) {
  AdmissionController ctrl;  // default default: unlimited
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ctrl.TryAdmitAt("anyone", 0));
  EXPECT_EQ(ctrl.admitted(), 10);
  EXPECT_EQ(ctrl.throttled(), 0);

  AdmissionController capped(TenantQuota{/*rate=*/1.0, /*burst=*/2.0});
  EXPECT_TRUE(capped.TryAdmitAt("t", 0));
  EXPECT_TRUE(capped.TryAdmitAt("t", 0));
  EXPECT_FALSE(capped.TryAdmitAt("t", 0));
  // Buckets are per tenant: a different tenant still has its burst.
  EXPECT_TRUE(capped.TryAdmitAt("u", 0));
  EXPECT_EQ(capped.admitted(), 3);
  EXPECT_EQ(capped.throttled(), 1);
}

TEST(AdmissionControllerTest, SetQuotaRestartsBucketFull) {
  AdmissionController ctrl;
  ctrl.SetQuota("gold", TenantQuota{/*rate=*/1.0, /*burst=*/1.0});
  EXPECT_TRUE(ctrl.TryAdmitAt("gold", 0));
  EXPECT_FALSE(ctrl.TryAdmitAt("gold", 0));
  // Replacing the quota restarts the bucket at its (new) burst.
  ctrl.SetQuota("gold", TenantQuota{/*rate=*/1.0, /*burst=*/2.0});
  EXPECT_TRUE(ctrl.TryAdmitAt("gold", 0));
  EXPECT_TRUE(ctrl.TryAdmitAt("gold", 0));
  EXPECT_FALSE(ctrl.TryAdmitAt("gold", 0));
}

// ---------------------------------------------------------------------------
// Fleet config

TEST(FleetConfigTest, ParsesProfilesAndQuotas) {
  const FleetConfig config = ParseFleetConfig(
      "# fleet node\n"
      "profile cityA ckpt=/tmp/a.bin tiles=8 shards=2 workers=3 "
      "max_batch=4 max_delay_us=100 capacity=64 deadline_us=5000 "
      "precision=int8 serial_kernels=0\n"
      "\n"
      "profile cityB ckpt=/tmp/b.bin\n"
      "quota gold rate=100 burst=20\n"
      "default_quota rate=5\n");
  ASSERT_EQ(config.profiles.size(), 2u);
  const FleetProfileConfig& a = config.profiles[0];
  EXPECT_EQ(a.name, "cityA");
  EXPECT_EQ(a.checkpoint, "/tmp/a.bin");
  EXPECT_EQ(a.tiles, 8);
  EXPECT_EQ(a.shards, 2);
  EXPECT_EQ(a.workers, 3);
  EXPECT_EQ(a.max_batch, 4);
  EXPECT_EQ(a.max_delay_us, 100);
  EXPECT_EQ(a.capacity, 64);
  EXPECT_EQ(a.deadline_us, 5000);
  EXPECT_EQ(a.precision, simd::Precision::kInt8);
  EXPECT_FALSE(a.serial_kernels);
  // cityB keeps every default.
  const FleetProfileConfig& b = config.profiles[1];
  EXPECT_EQ(b.tiles, 1);
  EXPECT_EQ(b.shards, 1);
  EXPECT_TRUE(b.serial_kernels);
  ASSERT_EQ(config.quotas.size(), 1u);
  EXPECT_EQ(config.quotas[0].first, "gold");
  EXPECT_DOUBLE_EQ(config.quotas[0].second.rate, 100.0);
  EXPECT_DOUBLE_EQ(config.quotas[0].second.burst, 20.0);
  EXPECT_DOUBLE_EQ(config.default_quota.rate, 5.0);
}

TEST(FleetConfigTest, RejectsTyposInsteadOfServingDefaults) {
  EXPECT_THROW(ParseFleetConfig("frobnicate cityA\n"), Error);
  EXPECT_THROW(ParseFleetConfig("profile cityA\n"), Error);  // no ckpt
  EXPECT_THROW(ParseFleetConfig("profile cityA ckpt=/a tilse=4\n"), Error);
  EXPECT_THROW(ParseFleetConfig("profile cityA ckpt=/a tiles=many\n"),
               Error);
  EXPECT_THROW(ParseFleetConfig("quota gold burst=5\n"), Error);  // no rate
  EXPECT_THROW(ParseFleetConfig("quota gold rate=1 color=red\n"), Error);
  // NaN, infinite or negative rates and bursts would admit every request.
  for (const char* bad :
       {"quota t rate=nan\n", "quota t rate=10 burst=nan\n",
        "quota t rate=-5\n", "quota t rate=inf\n",
        "quota t rate=1 burst=-2\n", "default_quota rate=NaN\n",
        "default_quota rate=1 burst=inf\n"}) {
    EXPECT_THROW(ParseFleetConfig(bad), Error) << bad;
  }
  // Values that do not fit their field are refused, not wrapped.
  for (const char* bad :
       {"profile cityA ckpt=/a workers=4294967297\n",
        "profile cityA ckpt=/a workers=-4294967295\n",
        "profile cityA ckpt=/a tiles=99999999999999999999\n"}) {
    EXPECT_THROW(ParseFleetConfig(bad), Error) << bad;
  }
  // The error names the offending line.
  try {
    ParseFleetConfig("quota t rate=nan\n");
    ADD_FAILURE() << "rate=nan parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("quota t rate=nan"),
              std::string::npos)
        << e.what();
  }
}

TEST(FleetConfigTest, QuotaBurstClampedToAdmitAtLeastOne) {
  const FleetConfig config =
      ParseFleetConfig("quota tiny rate=1 burst=0.2\n");
  EXPECT_DOUBLE_EQ(config.quotas[0].second.burst, 1.0);
}

// ---------------------------------------------------------------------------
// ModelProfile fixtures

struct Fixture {
  data::TrafficDataset dataset;
  baselines::ModelSettings settings;
  std::unique_ptr<train::ForecastModel> model;
  serve::ServingInfo info;
  std::string path;
};

/// Builds and saves a small ST-WA serving checkpoint (N = 2*roads
/// sensors, history 12, horizon 3). `scaler_std` changes the served
/// outputs without touching the model geometry — two saves with
/// different values act as "different weights" for reload tests.
Fixture MakeFixture(const std::string& file, float scaler_std = 55.0f,
                    int64_t roads = 2) {
  Fixture f;
  data::GeneratorOptions gen;
  gen.num_roads = roads;
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
  f.info.scaler_std = scaler_std;
  f.path = TempPath(file);
  serve::SaveServingCheckpoint(*f.model, f.info, f.path);
  return f;
}

/// Default profile config over `path`: small tiles/shards, fast batching.
FleetProfileConfig SmallProfile(const std::string& name,
                                const std::string& path) {
  FleetProfileConfig config;
  config.name = name;
  config.checkpoint = path;
  config.tiles = 5;
  config.shards = 2;
  config.workers = 1;
  config.max_batch = 4;
  config.max_delay_us = 200;
  config.deadline_us = 30'000'000;
  return config;
}

/// Feeds `window` ([N, H, F]) into `tile` one timestep at a time.
void WarmTile(ModelProfile& profile, int64_t tile, const Tensor& window) {
  const int64_t n = window.dim(0), h = window.dim(1), f = window.dim(2);
  std::vector<float> row(static_cast<size_t>(n * f));
  const float* w = window.data();
  for (int64_t s = 0; s < h; ++s) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f; ++j) {
        row[static_cast<size_t>(i * f + j)] = w[i * h * f + s * f + j];
      }
    }
    profile.PushTile(tile, row);
  }
}

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0);
}

// ---------------------------------------------------------------------------
// ModelProfile

TEST(ModelProfileTest, ShardedForecastMatchesStandaloneServerBitExactly) {
  Fixture f = MakeFixture("stwa_fleet_profile.bin");
  ModelProfile profile(SmallProfile("cityA", f.path));
  EXPECT_EQ(profile.Version(), 1);
  EXPECT_EQ(profile.num_sensors(), f.info.num_sensors);
  EXPECT_EQ(profile.router().global_sensors(), 5 * f.info.num_sensors);

  // Two tiles on different shards, fed different windows.
  const Tensor w0 = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  const Tensor w4 = ops::Slice(f.dataset.values, 1, 9, f.settings.history);
  EXPECT_FALSE(profile.TileReady(0));
  EXPECT_EQ(profile.TileMinFilled(0), 0);
  WarmTile(profile, 0, w0);
  WarmTile(profile, 4, w4);
  EXPECT_TRUE(profile.TileReady(0));
  EXPECT_TRUE(profile.TileReady(4));
  EXPECT_FALSE(profile.TileReady(2));
  EXPECT_NE(profile.router().TileToShard(0), profile.router().TileToShard(4));

  serve::Response r0 = profile.ForecastTile(0).get();
  serve::Response r4 = profile.ForecastTile(4).get();
  ASSERT_TRUE(r0.ok);
  ASSERT_TRUE(r4.ok);

  // Reference 1: an offline session over the same file.
  auto session = serve::InferenceSession::Open(f.path);
  ExpectSameBits(r0.forecast, session->Forecast(w0));
  ExpectSameBits(r4.forecast, session->Forecast(w4));

  // Reference 2: a standalone serve::Server (the pre-fleet serving path).
  serve::ServerOptions opts;
  opts.workers = 1;
  serve::Server standalone(f.path, opts);
  serve::Response rs = standalone.Submit(w0).get();
  ASSERT_TRUE(rs.ok);
  ExpectSameBits(r0.forecast, rs.forecast);
  standalone.Stop();

  // Per-sensor ingestion reaches the same tile state: global sensor g of
  // tile 2 is tile*N + local.
  const int64_t n = f.info.num_sensors;
  for (int64_t s = 0; s < f.settings.history; ++s) {
    for (int64_t i = 0; i < n; ++i) {
      const float v = w0.data()[i * f.settings.history + s];
      profile.PushSensor(2 * n + i, &v);
    }
  }
  ASSERT_TRUE(profile.TileReady(2));
  serve::Response r2 = profile.ForecastTile(2).get();
  ASSERT_TRUE(r2.ok);
  ExpectSameBits(r2.forecast, r0.forecast);

  const serve::ServerStats stats = profile.Stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(profile.ShardStats().size(), 2u);

  // Overload: a tiny-capacity, 1 us-deadline profile over the same file
  // sheds with degraded responses, counted in its stats, and never hangs.
  FleetProfileConfig overload_config = SmallProfile("cityA-overload", f.path);
  overload_config.capacity = 4;
  overload_config.deadline_us = 1;
  ModelProfile overload(overload_config);
  WarmTile(overload, 0, w0);
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(overload.ForecastTile(0));
  int64_t shed = 0;
  for (auto& fut : futures) {
    const serve::Response r = fut.get();
    if (!r.ok) {
      EXPECT_TRUE(r.degraded);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(overload.Stats().shed, shed);
  std::remove(f.path.c_str());
}

TEST(ModelProfileTest, ReloadDrainsInFlightRequestsOnOldWeights) {
  Fixture f = MakeFixture("stwa_fleet_reload_a.bin", /*scaler_std=*/55.0f);
  // Same model, different scaler -> different output bytes, identical
  // geometry. ckpt_version records producer provenance.
  const std::string path_b = TempPath("stwa_fleet_reload_b.bin");
  f.info.scaler_std = 70.0f;
  f.info.ckpt_version = 2;
  serve::SaveServingCheckpoint(*f.model, f.info, path_b);

  // Every forecast runs the full model (a stream-cache output hit would
  // return at once) in batches of one, so all but the executing request
  // wait in the queue and the swap finds some there to drain.
  struct CacheOff {
    CacheOff() { serve::SetStreamCacheMode(false); }
    ~CacheOff() { serve::SetStreamCacheMode(saved); }
    bool saved = serve::StreamCacheEnabled();
  } cache_off;
  FleetProfileConfig config = SmallProfile("cityA", f.path);
  config.max_batch = 1;
  ModelProfile profile(config);

  const Tensor window =
      ops::Slice(f.dataset.values, 1, 3, f.settings.history);
  WarmTile(profile, 1, window);

  auto session_a = serve::InferenceSession::Open(f.path);
  auto session_b = serve::InferenceSession::Open(path_b);
  const Tensor want_old = session_a->Forecast(window);
  const Tensor want_new = session_b->Forecast(window);
  const size_t bytes = sizeof(float) * static_cast<size_t>(want_old.size());
  ASSERT_NE(std::memcmp(want_old.data(), want_new.data(), bytes), 0);

  // A client thread keeps forecasting tile 1 across the reload with four
  // requests always in flight, reading responses in submission order.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> old_count{0}, new_count{0}, other{0}, submitted{0};
  std::atomic<int64_t> old_after_new{0};
  auto same = [bytes](const serve::Response& resp, const Tensor& want) {
    return resp.ok && !resp.degraded && resp.forecast.shape() == want.shape() &&
           std::memcmp(resp.forecast.data(), want.data(), bytes) == 0;
  };
  std::thread client([&] {
    std::deque<std::future<serve::Response>> in_flight;
    while (!stop.load() || !in_flight.empty()) {
      if (!stop.load() && in_flight.size() < 4) {
        in_flight.push_back(profile.ForecastTile(1));
        ++submitted;
        continue;
      }
      const serve::Response resp = in_flight.front().get();
      in_flight.pop_front();
      if (same(resp, want_old)) {
        ++old_count;
        if (new_count.load() > 0) ++old_after_new;
      } else if (same(resp, want_new)) {
        ++new_count;
      } else {
        ++other;  // dropped, shed or wrong bytes
      }
    }
  });
  // Waits (bounded) until `counter` has counted `n` responses.
  auto await = [](const std::atomic<int64_t>& counter, int64_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (counter.load() < n && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  await(old_count, 8);
  const ReloadResult reload = profile.Reload(path_b);
  await(new_count, 8);
  stop = true;
  client.join();

  EXPECT_EQ(reload.version, 2);
  EXPECT_EQ(reload.ckpt_version, 2);
  EXPECT_GT(reload.prepare_us, 0.0);
  EXPECT_GE(reload.swap_us, 0.0);
  EXPECT_GE(reload.drain_us, 0.0);
  EXPECT_EQ(profile.Version(), 2);
  EXPECT_EQ(profile.Info().ckpt_version, 2);

  // Drain-before-retire: every response is ok and carries exactly the old
  // or the new weights' bytes (nothing dropped, nothing mixed), both
  // generations answered, and every request sent before the swap was
  // answered on the old weights.
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(old_after_new.load(), 0);
  EXPECT_GE(old_count.load(), 8);
  EXPECT_GE(new_count.load(), 8);
  EXPECT_EQ(old_count.load() + new_count.load(), submitted.load());

  // Stats continuity: completions before the swap are merged from the
  // retired generation, not lost.
  const serve::ServerStats stats = profile.Stats();
  EXPECT_EQ(stats.submitted, submitted.load());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.shed, 0);
  std::remove(f.path.c_str());
  std::remove(path_b.c_str());
}

TEST(ModelProfileTest, ReloadUnchangedFileIsBitIdentical) {
  Fixture f = MakeFixture("stwa_fleet_reload_same.bin");
  ModelProfile profile(SmallProfile("cityA", f.path));
  const Tensor window =
      ops::Slice(f.dataset.values, 1, 6, f.settings.history);
  WarmTile(profile, 3, window);
  serve::Response before = profile.ForecastTile(3).get();
  ASSERT_TRUE(before.ok);
  const ReloadResult reload = profile.Reload(f.path);
  EXPECT_EQ(reload.version, 2);
  serve::Response after = profile.ForecastTile(3).get();
  ASSERT_TRUE(after.ok);
  ExpectSameBits(after.forecast, before.forecast);
  std::remove(f.path.c_str());
}

TEST(ModelProfileTest, ReloadRejectsGeometryMismatchAndKeepsServing) {
  Fixture f = MakeFixture("stwa_fleet_geom_a.bin");
  Fixture wide = MakeFixture("stwa_fleet_geom_b.bin", 55.0f, /*roads=*/3);
  ModelProfile profile(SmallProfile("cityA", f.path));
  const Tensor window =
      ops::Slice(f.dataset.values, 1, 2, f.settings.history);
  WarmTile(profile, 0, window);

  EXPECT_THROW(profile.Reload(wide.path), Error);          // wrong N
  EXPECT_THROW(profile.Reload("/nonexistent/ckpt"), Error);
  EXPECT_EQ(profile.Version(), 1);  // old generation keeps serving
  serve::Response resp = profile.ForecastTile(0).get();
  EXPECT_TRUE(resp.ok);
  std::remove(f.path.c_str());
  std::remove(wide.path.c_str());
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistryTest, LoadsProfilesConcurrentlyAndRoutesByName) {
  Fixture fa = MakeFixture("stwa_fleet_reg_a.bin");
  Fixture fb = MakeFixture("stwa_fleet_reg_b.bin", /*scaler_std=*/70.0f);
  std::vector<FleetProfileConfig> configs = {
      SmallProfile("cityA", fa.path), SmallProfile("cityB", fb.path)};
  ModelRegistry registry(configs);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"cityA", "cityB"}));
  ASSERT_NE(registry.Find("cityA"), nullptr);
  ASSERT_NE(registry.Find("cityB"), nullptr);
  EXPECT_EQ(registry.Find("cityC"), nullptr);
  EXPECT_THROW(registry.Get("cityC"), Error);
  EXPECT_EQ(&registry.Get("cityA"), registry.Find("cityA"));
  // The two profiles serve different checkpoints.
  EXPECT_NE(registry.Get("cityA").Info().scaler_std,
            registry.Get("cityB").Info().scaler_std);
  std::remove(fa.path.c_str());
  std::remove(fb.path.c_str());
}

TEST(ModelRegistryTest, RejectsDuplicateNamesAndPropagatesLoadErrors) {
  Fixture f = MakeFixture("stwa_fleet_reg_dup.bin");
  std::vector<FleetProfileConfig> dup = {SmallProfile("cityA", f.path),
                                         SmallProfile("cityA", f.path)};
  EXPECT_THROW(ModelRegistry{dup}, Error);
  // One good + one bad profile: the loader thread's exception reaches the
  // caller and the good profile is torn down cleanly.
  std::vector<FleetProfileConfig> bad = {
      SmallProfile("cityA", f.path),
      SmallProfile("cityB", "/nonexistent/ckpt")};
  EXPECT_THROW(ModelRegistry{bad}, Error);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Fleet line protocol

TEST(FleetLineSessionTest, RoutesProfilesAndCountsMalformedLines) {
  Fixture f = MakeFixture("stwa_fleet_proto.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 2;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  EXPECT_FALSE(session.Handle("", &quit).has_value());
  EXPECT_FALSE(session.Handle("# comment", &quit).has_value());

  // Every malformed line gets an "err ..." response — wrong profile,
  // wrong verb, out-of-range tile/sensor, wrong value count, bad number —
  // and is counted, never forwarded to a shard worker.
  const std::vector<std::string> bad = {
      "nosuch forecast 0",
      "cityX frobnicate",
      "cityX obs 99 1 2 3 4",
      "cityX obs 0 1 2 3",          // needs N*F = 4 values
      "cityX obs 0 1 2 three 4",
      "cityX obs1 999 1",
      "cityX obs1 -1 1",            // negative sensor
      "cityX obs1 0 1 2",           // needs F = 1 value
      "cityX forecast 99",
      "tenant",
  };
  for (const std::string& line : bad) {
    auto resp = session.Handle(line, &quit);
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_EQ(resp->rfind("err ", 0), 0u) << line << " -> " << *resp;
  }
  EXPECT_EQ(session.protocol_errors(),
            static_cast<int64_t>(bad.size()));
  EXPECT_EQ(node.Stats().protocol_errors,
            static_cast<int64_t>(bad.size()));

  // A forecast before warm-up reports progress, not an error.
  auto warming = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(warming.has_value());
  EXPECT_NE(warming->find("warming_up"), std::string::npos);

  // Warm tile 0 through the protocol, then forecast it.
  const int64_t n = f.info.num_sensors;
  const Tensor window =
      ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  for (int64_t s = 0; s < f.settings.history; ++s) {
    std::string line = "cityX obs 0";
    for (int64_t i = 0; i < n; ++i) {
      line += ' ' + std::to_string(window.data()[i * f.settings.history + s]);
    }
    auto resp = session.Handle(line, &quit);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "ok");
  }
  auto forecast = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(forecast.has_value());
  EXPECT_EQ(forecast->rfind("forecast ok=1", 0), 0u) << *forecast;

  auto profiles = session.Handle("profiles", &quit);
  ASSERT_TRUE(profiles.has_value());
  EXPECT_NE(profiles->find("cityX:gen=1"), std::string::npos);

  auto pstats = session.Handle("cityX stats", &quit);
  ASSERT_TRUE(pstats.has_value());
  EXPECT_EQ(pstats->rfind("stats ", 0), 0u);
  EXPECT_NE(pstats->find(" gen=1"), std::string::npos);
  EXPECT_NE(pstats->find(" s0.completed=1"), std::string::npos);
  // Rejected lines never reach a profile: they are counted once, node-wide.
  EXPECT_EQ(pstats->find("protocol_errors="), std::string::npos) << *pstats;

  auto nstats = session.Handle("stats", &quit);
  ASSERT_TRUE(nstats.has_value());
  EXPECT_EQ(nstats->rfind("fleetstats ", 0), 0u);
  EXPECT_NE(nstats->find(" protocol_errors=" + std::to_string(bad.size()) +
                         " "),
            std::string::npos)
      << *nstats;
  EXPECT_NE(nstats->find("t.default.count=1"), std::string::npos);

  EXPECT_FALSE(quit);
  auto bye = session.Handle("quit", &quit);
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(*bye, "bye");
  EXPECT_TRUE(quit);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, NonFiniteObservationLeavesTileRingUnchanged) {
  Fixture f = MakeFixture("stwa_fleet_nonfinite.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 2;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;
  ModelProfile& cityx = node.registry().Get("cityX");
  // Tile 0 fully warm, tile 1 part-way.
  WarmTile(cityx, 0, ops::Slice(f.dataset.values, 1, 2, f.settings.history));
  WarmTile(cityx, 1, ops::Slice(f.dataset.values, 1, 0, 3));
  const auto forecast = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(forecast.has_value());
  ASSERT_EQ(forecast->rfind("forecast ok=1", 0), 0u) << *forecast;

  const int64_t n = f.info.num_sensors;  // tile 1 = global sensors n..2n-1
  const std::vector<std::string> bad = {
      "cityX obs 0 nan 1 2 3", "cityX obs 0 1 inf 2 3",
      "cityX obs 1 1 2 3 1e39", "cityX obs1 0 -inf",
      "cityX obs1 " + std::to_string(n) + " NaN",
      "cityX obs1 " + std::to_string(n + 1) + " -1e39"};
  for (size_t i = 0; i < bad.size(); ++i) {
    auto resp = session.Handle(bad[i], &quit);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->rfind("err bad_value", 0), 0u) << bad[i] << " -> " << *resp;
  }
  EXPECT_EQ(session.protocol_errors(), static_cast<int64_t>(bad.size()));
  EXPECT_EQ(node.Stats().protocol_errors, static_cast<int64_t>(bad.size()));
  // Neither ring moved: tile 1's warm-up count stands, and tile 0 answers
  // with the same bytes as before the rejected lines.
  EXPECT_EQ(cityx.TileMinFilled(1), 3);
  EXPECT_EQ(session.Handle("cityX forecast 0", &quit), forecast);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, ThrottledForecastHasDistinctFirstToken) {
  Fixture f = MakeFixture("stwa_fleet_throttle.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 1;
  profile.shards = 1;
  config.profiles.push_back(profile);
  // One token, essentially no refill: second forecast must throttle.
  config.quotas.emplace_back("capped",
                             TenantQuota{/*rate=*/1e-9, /*burst=*/1.0});
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  auto hello = session.Handle("tenant capped", &quit);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(*hello, "ok tenant=capped");
  EXPECT_EQ(session.tenant(), "capped");

  const Tensor window =
      ops::Slice(f.dataset.values, 1, 1, f.settings.history);
  ModelProfile& cityx = node.registry().Get("cityX");
  WarmTile(cityx, 0, window);

  auto first = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("forecast ok=1", 0), 0u) << *first;
  auto second = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "throttled tenant=capped profile=cityX");

  const FleetNodeStats stats = node.Stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.throttled, 1);
  // Throttled requests are not protocol errors.
  EXPECT_EQ(stats.protocol_errors, 0);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, TenantNamesAreBoundedNodeWide) {
  Fixture f = MakeFixture("stwa_fleet_tenants.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 1;
  profile.shards = 1;
  config.profiles.push_back(profile);
  config.quotas.emplace_back("gold", TenantQuota{/*rate=*/5.0, /*burst=*/5.0});
  FleetNode node(config);
  FleetLineSession a(node);
  FleetLineSession b(node);
  bool quit = false;

  // Twice the bound in distinct names, spread over two connections: the
  // first kMaxProtocolTenants are accepted, every later new name is a
  // counted error that leaves the session's tenant unchanged.
  const int64_t names = 2 * kMaxProtocolTenants;
  int64_t refused = 0;
  for (int64_t i = 0; i < names; ++i) {
    FleetLineSession& s = (i % 2 == 0) ? a : b;
    const std::string name = "t" + std::to_string(i);
    const auto resp = s.Handle("tenant " + name, &quit);
    ASSERT_TRUE(resp.has_value());
    if (i < kMaxProtocolTenants) {
      EXPECT_EQ(*resp, "ok tenant=" + name);
    } else {
      EXPECT_EQ(resp->rfind("err ", 0), 0u) << *resp;
      EXPECT_NE(s.tenant(), name);
      ++refused;
    }
  }
  EXPECT_EQ(refused, names - kMaxProtocolTenants);
  EXPECT_EQ(a.protocol_errors() + b.protocol_errors(), refused);
  EXPECT_EQ(node.Stats().protocol_errors, refused);

  // Configured tenants, "default" and already accepted names still pass.
  for (const std::string name : {"gold", "default", "t0", "t1"}) {
    const auto resp = a.Handle("tenant " + name, &quit);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "ok tenant=" + name);
  }
  EXPECT_EQ(node.Stats().protocol_errors, refused);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, ReloadCommandSwapsAndReportsFailuresSoftly) {
  Fixture f = MakeFixture("stwa_fleet_proto_reload.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 1;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  auto ok = session.Handle("reload cityX " + f.path, &quit);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->rfind("reload ok=1 profile=cityX version=2", 0), 0u) << *ok;
  EXPECT_EQ(node.registry().Get("cityX").Version(), 2);

  // A well-formed reload of a bad file fails softly: ok=0, the old
  // generation keeps serving, and it is NOT a protocol error.
  auto bad = session.Handle("reload cityX /nonexistent/ckpt", &quit);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->rfind("reload ok=0 profile=cityX", 0), 0u) << *bad;
  EXPECT_EQ(node.registry().Get("cityX").Version(), 2);
  EXPECT_EQ(node.Stats().protocol_errors, 0);

  // A corrupt file (one high bit flipped in a dimension word) fails with
  // the loader's typed message, not an allocation failure, and the
  // profile keeps serving.
  const std::string flipped = TempPath("stwa_fleet_proto_flipped.bin");
  serve::SaveServingCheckpoint(*f.model, f.info, flipped);
  ASSERT_TRUE(FlipFirstDimBit(flipped, "latent.mu", 46));
  auto corrupt = session.Handle("reload cityX " + flipped, &quit);
  ASSERT_TRUE(corrupt.has_value());
  EXPECT_EQ(corrupt->rfind("reload ok=0 profile=cityX", 0), 0u) << *corrupt;
  EXPECT_NE(corrupt->find("larger_than_the_checkpoint"), std::string::npos)
      << *corrupt;
  EXPECT_EQ(node.registry().Get("cityX").Version(), 2);
  for (int s = 0; s < 12; ++s) session.Handle("cityX obs 0 1 2 3 4", &quit);
  auto served = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->rfind("forecast ok=1", 0), 0u) << *served;
  std::remove(flipped.c_str());

  // Reload is sandboxed to the directory of the profile's ckpt= file:
  // an absolute path elsewhere, a ".." escape and a symlink inside the
  // directory that points outside are all refused softly, unopened.
  const std::string link = TempPath("stwa_fleet_proto_link.bin");
  std::remove(link.c_str());
  std::filesystem::create_symlink("/etc/passwd", link);
  for (const std::string& outside :
       {std::string("/etc/passwd"), TempPath("../etc/passwd"), link}) {
    auto refused = session.Handle("reload cityX " + outside, &quit);
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->rfind("reload ok=0 profile=cityX", 0), 0u)
        << outside << ": " << *refused;
    EXPECT_NE(refused->find("ckpt="), std::string::npos) << *refused;
    EXPECT_EQ(node.registry().Get("cityX").Version(), 2) << outside;
  }
  EXPECT_EQ(node.Stats().protocol_errors, 0);
  std::remove(link.c_str());

  auto unknown = session.Handle("reload nosuch /tmp/x", &quit);
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->rfind("err ", 0), 0u);
  EXPECT_EQ(node.Stats().protocol_errors, 1);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Serial-kernel pinning (the fleet worker execution mode)

TEST(ScopedSerialRegionTest, PinsAndRestoresNested) {
  EXPECT_FALSE(runtime::InParallelRegion());
  {
    runtime::ScopedSerialRegion outer;
    EXPECT_TRUE(runtime::InParallelRegion());
    {
      runtime::ScopedSerialRegion inner;
      EXPECT_TRUE(runtime::InParallelRegion());
    }
    EXPECT_TRUE(runtime::InParallelRegion());
  }
  EXPECT_FALSE(runtime::InParallelRegion());
}

}  // namespace
}  // namespace fleet
}  // namespace stwa
