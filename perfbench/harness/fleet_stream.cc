// fleet_stream: open-loop per-tile streaming forecasts through a fleet
// node, the traffic a per-location forecasting service answers.
//
// A FleetNode serves cityA (fp32) and cityB (bf16), each with kTiles tiles
// on 1 shard x 1 worker with serial kernels. A seeded schedule of ticks at
// kRatePerS: a tick picks a profile and a tile, pushes the tile's next
// reading through FleetLineSession::Handle ("obs") and forecasts the tile
// through ModelProfile::ForecastTile; one tick in four re-reads a tile
// whose window has not moved (see the tick mix below).
// The generator (this thread) sends each tick at its due time; a collector
// thread takes each forecast as it completes and formats the response line.
// Latency runs from the due time to the formatted line. Thread budget: 2
// shard workers + generator + collector = 4.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "baselines/registry.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "fleet/protocol.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/protocol.h"
#include "serve/stream_cache.h"
#include "tensor/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stwa::Tensor;
namespace fleet = stwa::fleet;
namespace serve = stwa::serve;

constexpr int64_t kTiles = 512;
constexpr int64_t kRatePerS = 1000;
/// Tick mix, in quarters: one re-reads a tile whose window has not moved
/// (a stream-cache output hit), three push the tile's next reading and
/// forecast it (shift hits).
constexpr uint64_t kRereadQuarters = 1;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kMaxDelayUs = 500;
/// Set-ups per run (each about 0.5 s on the reference host); setup_s is
/// their median.
constexpr int kSetupReps = 5;

struct CitySpec {
  const char* name;
  int64_t roads;
  int64_t sensors_per_road;
  stwa::simd::Precision precision;
  uint64_t weight_seed;
};

constexpr CitySpec kCities[2] = {
    {"cityA", 4, 4, stwa::simd::Precision::kFp32, 101},
    {"cityB", 4, 3, stwa::simd::Precision::kBf16, 202},
};

/// One profile's data: checkpoint, series and the reference forecast of
/// every window the run can request.
///
/// Reading k of tile t is column (t * 17 + k) mod T of the series, so the
/// window a tile holds after reading k is the H columns ending at column
/// (t * 17 + k) mod T. There are T such windows, whatever the run length,
/// and their references are computed once.
struct City {
  CitySpec spec{};
  stwa::data::TrafficDataset dataset;
  std::string ckpt;
  int64_t n = 0, h = 0, u = 0, f = 0;
  /// Series length T.
  int64_t steps = 0;
  /// Reference forecast [N, U, F] of the window ending at each column,
  /// stored flat: a cold batch-1 Forecast on an offline session at the
  /// profile's precision.
  std::vector<float> refs;

  int64_t Column(int64_t tile, int64_t reading) const {
    return (tile * 17 + reading) % steps;
  }
  /// Value of sensor i, feature j at column `col` of the series.
  float At(int64_t i, int64_t col, int64_t j) const {
    return dataset.values.data()[(i * steps + col) * f + j];
  }
  /// One reading: the [N * F] row at column `col`.
  std::vector<float> Row(int64_t col) const {
    std::vector<float> row(static_cast<size_t>(n * f));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f; ++j) row[i * f + j] = At(i, col, j);
    }
    return row;
  }
  /// The [N, H, F] window of the H columns ending at column `end`, oldest
  /// first: what a tile ring holds once it has pushed those readings.
  Tensor Window(int64_t end) const {
    Tensor w = Tensor::Uninit({n, h, f});
    float* out = w.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t s = 0; s < h; ++s) {
        const int64_t col = ((end - h + 1 + s) % steps + steps) % steps;
        for (int64_t j = 0; j < f; ++j) *out++ = At(i, col, j);
      }
    }
    return w;
  }
  int64_t ref_size() const { return n * u * f; }
  const float* Ref(int64_t end) const {
    return refs.data() + end * ref_size();
  }
  /// Column a tile's set-up window ends at (readings 0..H-1 pushed).
  int64_t WarmEnd(int64_t tile) const { return Column(tile, h - 1); }
};

struct Tick {
  int city = 0;
  int64_t tile = 0;
  /// Index of the reading pushed through "obs" before the forecast (-1 on
  /// a re-read).
  int64_t reading = -1;
  /// Column the forecast window ends at (its reference).
  int64_t end = 0;
  /// Stream position of the forecast window (StreamState::anchor()).
  int64_t anchor = 0;
};

stwa::baselines::ModelSettings CitySettings(uint64_t weight_seed) {
  stwa::baselines::ModelSettings s;
  s.history = 12;
  s.horizon = 12;
  s.d_model = 8;
  s.window_sizes = {3, 2, 2};
  s.latent_dim = 4;
  s.predictor_hidden = 16;
  s.seed = weight_seed;
  return s;
}

City MakeCity(const CitySpec& spec, uint64_t seed, const std::string& dir) {
  City city;
  city.spec = spec;
  stwa::data::GeneratorOptions gen;
  gen.name = spec.name;
  gen.num_roads = spec.roads;
  gen.sensors_per_road = spec.sensors_per_road;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = seed * 7919 + spec.weight_seed;
  city.dataset = stwa::data::GenerateTraffic(gen);
  const auto settings = CitySettings(spec.weight_seed);
  auto model = stwa::baselines::MakeModel("ST-WA", city.dataset, settings);
  stwa::data::StandardScaler scaler;
  scaler.Fit(city.dataset.values, city.dataset.num_steps() * 6 / 10);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = settings;
  info.num_sensors = city.dataset.num_sensors();
  info.num_features = city.dataset.num_features();
  info.scaler_mean = scaler.mean();
  info.scaler_std = scaler.stddev();
  city.ckpt = dir + "/fleet_" + spec.name + ".bin";
  serve::SaveServingCheckpoint(*model, info, city.ckpt);
  city.n = info.num_sensors;
  city.h = settings.history;
  city.u = settings.horizon;
  city.f = info.num_features;
  city.steps = city.dataset.num_steps();

  serve::SessionConfig config;
  config.precision = spec.precision;
  auto offline = serve::InferenceSession::Open(city.ckpt, config);
  city.refs.reserve(static_cast<size_t>(city.steps * city.ref_size()));
  for (int64_t end = 0; end < city.steps; ++end) {
    const Tensor ref = offline->Forecast(city.Window(end));
    city.refs.insert(city.refs.end(), ref.data(), ref.data() + ref.size());
  }
  return city;
}

/// Writes the "obs" line pushing reading `reading` of `tile` into `line`
/// (reusing its buffer).
void FormatObs(const City& city, int64_t tile, int64_t reading,
               std::string* line) {
  const int64_t col = city.Column(tile, reading);
  line->assign(city.spec.name);
  line->append(" obs ");
  line->append(std::to_string(tile));
  char buf[32];
  for (int64_t i = 0; i < city.n; ++i) {
    for (int64_t j = 0; j < city.f; ++j) {
      // %.9g round-trips binary32, so the node parses exactly the value.
      std::snprintf(buf, sizeof(buf), " %.9g",
                    static_cast<double>(city.At(i, col, j)));
      line->append(buf);
    }
  }
}

/// Builds the seeded schedule of `count` ticks. Every tile starts with
/// readings 0..H-1 pushed at set-up.
std::vector<Tick> MakeSchedule(const std::vector<City>& cities,
                               int64_t count, uint64_t seed) {
  std::vector<std::vector<int64_t>> pushed;
  for (const City& city : cities) {
    pushed.emplace_back(static_cast<size_t>(kTiles), city.h);
  }
  std::mt19937_64 rng(seed);
  std::vector<Tick> ticks(static_cast<size_t>(count));
  for (Tick& tick : ticks) {
    tick.city = static_cast<int>(rng() % 2);
    tick.tile = static_cast<int64_t>(rng() % kTiles);
    const bool reread = rng() % 4 < kRereadQuarters;
    int64_t& readings = pushed[static_cast<size_t>(tick.city)]
                              [static_cast<size_t>(tick.tile)];
    if (!reread) tick.reading = readings++;
    tick.end = cities[static_cast<size_t>(tick.city)].Column(tick.tile,
                                                             readings - 1);
    tick.anchor = readings;
  }
  return ticks;
}

bool ForecastOk(const serve::Response& resp, const std::string& line,
                const City& city, int64_t ref) {
  return resp.ok && !resp.degraded && line.rfind("forecast ok=1", 0) == 0 &&
         SameBytes(resp.forecast, city.Ref(ref), city.ref_size());
}

/// The program under test plus its connection.
struct Node {
  std::unique_ptr<fleet::FleetNode> node;
  std::unique_ptr<fleet::FleetLineSession> session;
  fleet::ModelProfile* profiles[2] = {nullptr, nullptr};
};

fleet::FleetConfig MakeConfig(const std::vector<City>& cities) {
  fleet::FleetConfig config;
  for (const City& city : cities) {
    fleet::FleetProfileConfig p;
    p.name = city.spec.name;
    p.checkpoint = city.ckpt;
    p.tiles = kTiles;
    p.shards = 1;
    p.workers = 1;
    p.max_batch = kMaxBatch;
    p.max_delay_us = kMaxDelayUs;
    p.capacity = 4096;
    p.deadline_us = 1'000'000;
    p.precision = city.spec.precision;
    p.serial_kernels = true;
    config.profiles.push_back(p);
  }
  return config;
}

/// Per-op detail kept by a traced phase. Handoff is what is left of the
/// end-to-end latency after the send lag, obs, enqueue, queue, compute and
/// format: the worker-to-collector wake-up and anything unmeasured.
struct OpDetail {
  double late_us = 0, obs_us = 0, enqueue_us = 0, format_us = 0;
  double queue_us = 0, compute_us = 0, handoff_us = 0, e2e_us = 0;
  int64_t batch = 0;
};

struct Phase {
  std::vector<OpRecord> ops;
  std::vector<OpDetail> detail;
  SpanLog spans;
  std::vector<double> steal_pct;
};

/// One timed phase over ticks [first, first + count).
///
/// The generator fills slot i and then publishes it; the collector spins
/// (it never sleeps, so a slow wake-up of its own cannot delay a result)
/// and finishes whichever published forecasts are ready, in any order, so
/// one slow forecast does not hold back the results behind it.
Phase RunPhase(Node& node, const std::vector<City>& cities,
               const std::vector<Tick>& ticks, int64_t first, int64_t count,
               bool trace, OpTally* tally) {
  struct Slot {
    int64_t due = 0;
    int64_t send = 0;
    int64_t ready = 0;
    bool obs_ok = true;
    int64_t obs0 = 0, obs1 = 0, enq0 = 0, enq1 = 0;
    std::future<serve::Response> future;
  };
  std::vector<Slot> slots(static_cast<size_t>(count));
  std::atomic<int64_t> published{0};
  std::atomic<bool> aborted{false};

  Phase phase;
  phase.ops.resize(static_cast<size_t>(count));
  if (trace) {
    phase.detail.resize(static_cast<size_t>(count));
    phase.spans.Reserve(static_cast<size_t>(count) * 5);
  }
  const int64_t start = NowNs();
  int64_t failed = 0;

  auto finish = [&](int64_t i) {
    Slot& p = slots[static_cast<size_t>(i)];
    const Tick& tick = ticks[static_cast<size_t>(first + i)];
    const City& city = cities[static_cast<size_t>(tick.city)];
    serve::Response resp = p.future.get();
    const int64_t got = NowNs();
    const std::string line =
        serve::FormatForecastResponse(resp, city.n, city.u, city.f);
    const int64_t end = NowNs();
    const bool ok = p.obs_ok && ForecastOk(resp, line, city, tick.end);
    if (!ok) ++failed;
    phase.ops[static_cast<size_t>(i)] = OpRecord{
        p.due, end - start - p.due, ok, p.send - p.due, p.send - p.ready};
    if (!trace) return;
    const int64_t op = first + i;
    const int64_t due_abs = start + p.due;
    SpanLog& s = phase.spans;
    s.Add(op, "fleet.op", "", due_abs, end);
    if (tick.reading >= 0) {
      s.Add(op, "fleet.obs", "fleet.op", p.obs0, p.obs1);
    }
    s.Add(op, "fleet.enqueue", "fleet.op", p.enq0, p.enq1);
    s.Add(op, "serve.wait", "fleet.op", p.enq1, got);
    s.Add(op, "serve.format", "fleet.op", got, end);
    OpDetail& d = phase.detail[static_cast<size_t>(i)];
    d.late_us = static_cast<double>(p.obs0 - due_abs) / 1e3;
    d.obs_us = static_cast<double>(p.obs1 - p.obs0) / 1e3;
    d.enqueue_us = static_cast<double>(p.enq1 - p.enq0) / 1e3;
    d.format_us = static_cast<double>(end - got) / 1e3;
    d.queue_us = resp.queue_micros;
    d.compute_us = resp.compute_micros;
    d.e2e_us = static_cast<double>(end - due_abs) / 1e3;
    d.handoff_us = d.e2e_us - (d.late_us + d.obs_us + d.enqueue_us +
                               d.queue_us + d.compute_us + d.format_us);
    d.batch = resp.batch_size;
  };

  std::thread collector([&] {
    std::vector<int64_t> pending;
    int64_t seen = 0;
    while ((seen < count || !pending.empty()) && !aborted.load()) {
      const int64_t ready = published.load(std::memory_order_acquire);
      for (; seen < ready; ++seen) pending.push_back(seen);
      for (size_t k = 0; k < pending.size();) {
        const auto status = slots[static_cast<size_t>(pending[k])]
                                .future.wait_for(std::chrono::seconds(0));
        if (status == std::future_status::ready) {
          finish(pending[k]);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ++k;
        }
      }
    }
  });

  bool quit = false;
  std::string obs_line;
  IntervalSteal steal(start, kServeIntervalNs,
                      count * kServeIntervalsPerSecond / kRatePerS);
  try {
    RunOpenLoop(
        count, kRatePerS, start, NowNs, SpinUntilNs,
        [&](int64_t i) {
          // The client writes its line before the tick is due.
          steal.Poll();
          const Tick& tick = ticks[static_cast<size_t>(first + i)];
          if (tick.reading >= 0) {
            FormatObs(cities[static_cast<size_t>(tick.city)], tick.tile,
                      tick.reading, &obs_line);
          }
        },
        [&](int64_t i, int64_t due, int64_t send, int64_t ready) {
          const Tick& tick = ticks[static_cast<size_t>(first + i)];
          Slot& p = slots[static_cast<size_t>(i)];
          p.due = due;
          p.send = send;
          p.ready = ready;
          if (trace) p.obs0 = NowNs();
          if (tick.reading >= 0) {
            const std::optional<std::string> r =
                node.session->Handle(obs_line, &quit);
            p.obs_ok = r.has_value() && *r == "ok";
          }
          if (trace) p.obs1 = p.enq0 = NowNs();
          p.future = node.profiles[tick.city]->ForecastTile(tick.tile);
          if (trace) p.enq1 = NowNs();
          published.store(i + 1, std::memory_order_release);
        });
  } catch (...) {
    aborted = true;  // the collector stops waiting; rethrown after join
    collector.join();
    throw;
  }
  collector.join();
  phase.steal_pct = steal.Finish();
  tally->attempted += count;
  tally->failed += failed;
  return phase;
}

/// Sum of both profiles' stream-cache counters.
serve::StreamCacheStats CacheStats(const Node& node) {
  serve::StreamCacheStats total;
  for (const fleet::ModelProfile* p : node.profiles) {
    total.Merge(p->Stats().stream_cache);
  }
  return total;
}

/// Replays every forecast the run made, in order, through one
/// InferenceSession::ForecastStream per city with a private cache, timing
/// each call by the path the cache took. The run's mix holds no misses, so
/// the miss path is timed apart: every window of the series is then
/// replayed on a stream of its own whose anchor jumps by two each call (a
/// gap, which no cache entry can serve). Returns false on a byte mismatch.
bool ReplaySessions(const std::vector<City>& cities,
                    const std::vector<Tick>& ticks, Outcome* out,
                    double* mean_session_us) {
  std::vector<double> shift_us, output_us, miss_us, all_us;
  bool same = true;
  for (int c = 0; c < 2; ++c) {
    const City& city = cities[static_cast<size_t>(c)];
    serve::SessionConfig config;
    config.precision = city.spec.precision;
    auto session = serve::InferenceSession::Open(city.ckpt, config);
    serve::StreamCache cache(1);
    // Returns the call's microseconds.
    auto replay = [&](int64_t stream, int64_t end, int64_t anchor) {
      // [N, H, F], the shape ModelProfile::ForecastTile submits.
      const Tensor window = city.Window(end);
      const serve::StreamCacheStats before = cache.Stats();
      const int64_t t0 = NowNs();
      const Tensor got =
          session->ForecastStream(window, stream, anchor, &cache, 1);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      const serve::StreamCacheStats after = cache.Stats();
      same = same && SameBytes(got, city.Ref(end), city.ref_size());
      if (after.shift_hits > before.shift_hits) shift_us.push_back(us);
      if (after.output_hits > before.output_hits) output_us.push_back(us);
      if (after.misses > before.misses) miss_us.push_back(us);
      return us;
    };
    for (int64_t t = 0; t < kTiles; ++t) replay(t, city.WarmEnd(t), city.h);
    // The set-up forecasts are not part of the mix.
    shift_us.clear();
    output_us.clear();
    miss_us.clear();
    for (const Tick& tick : ticks) {
      if (tick.city == c) {
        all_us.push_back(replay(tick.tile, tick.end, tick.anchor));
      }
    }
    for (int64_t end = 0; end < city.steps; ++end) {
      replay(kTiles, end, 2 * end);
    }
  }
  *mean_session_us = Mean(all_us);
  out->Add("session.shift_us", Median(&shift_us), "us");
  out->Add("session.output_us", Median(&output_us), "us");
  out->Add("session.miss_us", Median(&miss_us), "us");
  return same;
}

}  // namespace

Outcome RunFleetStream(const Options& options) {
  Outcome out;
  const int seconds = PhaseSeconds(options);
  stwa::runtime::SetNumThreads(1);  // shard workers run serial kernels
  out.notes.push_back(RuntimeBanner("fleet_stream") +
                      " precision=cityA:fp32,cityB:bf16");

  // Inputs and references (not timed).
  std::vector<City> cities;
  for (int c = 0; c < 2; ++c) {
    cities.push_back(MakeCity(kCities[c], options.seed, options.work_dir));
  }
  const int64_t per_phase = kRatePerS * seconds;
  const int phases = options.trace ? 2 : 1;
  const std::vector<Tick> ticks =
      MakeSchedule(cities, per_phase * phases, options.seed);
  const fleet::FleetConfig config = MakeConfig(cities);
  // Set-up readings: warm_rows[city][tile] holds readings 0..H-1.
  std::vector<std::vector<std::vector<std::vector<float>>>> warm_rows(2);
  for (int c = 0; c < 2; ++c) {
    const City& city = cities[static_cast<size_t>(c)];
    for (int64_t t = 0; t < kTiles; ++t) {
      warm_rows[static_cast<size_t>(c)].emplace_back();
      for (int64_t k = 0; k < city.h; ++k) {
        warm_rows[static_cast<size_t>(c)].back().push_back(
            city.Row(city.Column(t, k)));
      }
    }
  }
  const double harness_mb = ResidentMb();

  // Set-up: node construction, tile rings, plan capture for every batch
  // size, and one forecast per tile so the stream cache holds every tile
  // before timing.
  Node node;
  struct Warm {
    int city;
    int64_t tile;
    serve::Response resp;
  };
  std::vector<Warm> warm;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    node.session.reset();  // before the node it refers to
    node.node.reset();
    warm.clear();
    const int64_t t0 = NowNs();
    node.node = std::make_unique<fleet::FleetNode>(config);
    node.session = std::make_unique<fleet::FleetLineSession>(*node.node);
    for (int c = 0; c < 2; ++c) {
      node.profiles[c] = &node.node->registry().Get(kCities[c].name);
      for (int64_t t = 0; t < kTiles; ++t) {
        for (const auto& row :
             warm_rows[static_cast<size_t>(c)][static_cast<size_t>(t)]) {
          node.profiles[c]->PushTile(t, row);
        }
      }
    }
    // Capture the plan of every batch size a burst can form (2..kMaxBatch
    // tiles forecast at once), so no capture lands in the timed phase.
    for (int c = 0; c < 2; ++c) {
      for (int64_t b = 2; b <= kMaxBatch; ++b) {
        std::vector<std::future<serve::Response>> futures;
        for (int64_t t = 0; t < b; ++t) {
          futures.push_back(node.profiles[c]->ForecastTile(t));
        }
        for (int64_t t = 0; t < b; ++t) {
          warm.push_back(Warm{c, t, futures[static_cast<size_t>(t)].get()});
        }
      }
    }
    // One singleton forecast per tile fills the stream cache.
    for (int64_t t = 0; t < kTiles; ++t) {
      auto a = node.profiles[0]->ForecastTile(t);
      auto b = node.profiles[1]->ForecastTile(t);
      warm.push_back(Warm{0, t, a.get()});
      warm.push_back(Warm{1, t, b.get()});
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  });
  for (const Warm& w : warm) {
    const City& city = cities[static_cast<size_t>(w.city)];
    const std::string line =
        serve::FormatForecastResponse(w.resp, city.n, city.u, city.f);
    out.tally.Count(ForecastOk(w.resp, line, city, city.WarmEnd(w.tile)));
  }

  TracedPhases traced;
  const auto pool0 = stwa::pool::Stats();
  HostWindow host;
  Phase main =
      RunPhase(node, cities, ticks, 0, per_phase, false, &out.tally);
  const double peak_mb = PeakRssMb();
  const auto pool1 = stwa::pool::Stats();
  traced.untraced = Summarize(main.ops, kServeIntervalNs,
                              seconds * kServeIntervalsPerSecond,
                              main.steal_pct);
  host.Close("untraced", traced.untraced, &out);

  if (!options.trace) {
    AddEndToEnd(traced.untraced, setup_s, kSetupReps, harness_mb, peak_mb,
                &out);
  } else {
    traced.pool_requests = pool1.requests - pool0.requests;
    traced.pool_misses = pool1.misses - pool0.misses;
    const serve::StreamCacheStats c0 = CacheStats(node);
    HostWindow traced_host;
    Phase tp = RunPhase(node, cities, ticks, per_phase, per_phase, true,
                        &out.tally);
    const serve::StreamCacheStats c1 = CacheStats(node);
    traced.traced = Summarize(tp.ops, kServeIntervalNs,
                               seconds * kServeIntervalsPerSecond,
                               tp.steal_pct);
    traced_host.Close("traced", traced.traced, &out);
    traced.steal_pct = traced_host.steal_pct();
    AddBenchHealth(traced, &out);

    const std::vector<Span>& spans = tp.spans.spans();
    WriteSpans(spans, options.work_dir + "/spans_fleet_stream_seed" +
                          std::to_string(options.seed) + ".tsv");
    out.Add("fleet.obs_us", MedianSelfUs(spans, "fleet.obs"), "us");
    out.Add("fleet.enqueue_us", MedianSelfUs(spans, "fleet.enqueue"), "us");
    out.Add("serve.format_us", MedianSelfUs(spans, "serve.format"), "us");
    std::vector<double> queue, compute, handoff, batch, e2e;
    for (const OpDetail& d : tp.detail) {
      queue.push_back(d.queue_us);
      compute.push_back(d.compute_us);
      handoff.push_back(d.handoff_us);
      batch.push_back(static_cast<double>(d.batch));
      e2e.push_back(d.e2e_us);
    }
    const double mean_compute = Mean(compute);
    AddStageMetrics(queue, compute, handoff, batch, e2e, &out);

    AddCacheShares(c0, c1, static_cast<double>(tp.ops.size()), &out);
    out.Add("trace.fleet_serve_spans",
            static_cast<double>(CountSpans(spans, {"fleet.", "serve."})),
            "count");

    // Session layer: replay the recorded sequence outside the node, and a
    // batch-16 forecast on cityA's session.
    double mean_session_us = 0.0;
    if (!ReplaySessions(cities, ticks, &out, &mean_session_us)) {
      out.correct = false;
      out.notes.push_back("[check] session replay diverged from references");
    }
    out.Add("additivity.session_gap_pct",
            mean_compute > 0
                ? 100.0 * (mean_compute - mean_session_us) / mean_compute
                : 0.0,
            "%");
    const City& a = cities[0];
    auto session = serve::InferenceSession::Open(a.ckpt);
    std::vector<Tensor> windows;
    for (int64_t end = 0; end < 16; ++end) windows.push_back(a.Window(end));
    std::vector<double> us = TimeBatch16Us(session.get(), windows);
    out.Add("session.batch16_us", Median(&us), "us");
  }
  if (out.tally.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
