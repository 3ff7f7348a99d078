// serve_batch: closed-loop one-shot forecasts that fill micro-batches.
//
// One generator (this thread) keeps kInFlight one-shot requests (no stream
// id) outstanding against a serve::Server running the GEMM-heavier ST-WA
// (d_model 32, predictor hidden 256, fp32) with 1 worker, max_batch 16 and
// the kernel pool pinned to 2 threads. Each completion is checked and
// replaced by the next seeded request. Latency runs from Submit to the
// response. Thread budget: generator + worker + 1 pool helper = 3.

#include <deque>
#include <future>
#include <memory>
#include <random>

#include "baselines/registry.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stwa::Tensor;
namespace serve = stwa::serve;

constexpr int kPoolThreads = 2;
constexpr int64_t kInFlight = 32;
constexpr int64_t kMaxBatch = 16;
constexpr int64_t kMaxDelayUs = 2000;
constexpr int64_t kWindows = 256;
/// Set-ups per run (each about 50 ms on the reference host); setup_s is
/// their median.
constexpr int kSetupReps = 15;
/// Capacity reserved for op records per second (about 2.5x the rate seen on
/// the reference host).
constexpr size_t kMaxOpsPerSecond = 20'000;

struct Inputs {
  std::string ckpt;
  std::vector<Tensor> windows;  // [N, H, F]
  std::vector<Tensor> refs;     // [N, U, F]
  std::vector<int64_t> order;   // request i asks for windows[order[i % size]]
};

Inputs MakeInputs(uint64_t seed, const std::string& dir) {
  stwa::data::GeneratorOptions gen;
  gen.name = "serve-batch";
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = seed * 7919 + 11;
  const stwa::data::TrafficDataset dataset = stwa::data::GenerateTraffic(gen);

  stwa::baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 32;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 8;
  settings.predictor_hidden = 256;
  settings.seed = 5;
  auto model = stwa::baselines::MakeModel("ST-WA", dataset, settings);
  stwa::data::StandardScaler scaler;
  scaler.Fit(dataset.values, dataset.num_steps() * 6 / 10);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = settings;
  info.num_sensors = dataset.num_sensors();
  info.num_features = dataset.num_features();
  info.scaler_mean = scaler.mean();
  info.scaler_std = scaler.stddev();
  Inputs in;
  in.ckpt = dir + "/serve_batch.bin";
  serve::SaveServingCheckpoint(*model, info, in.ckpt);

  std::mt19937_64 rng(seed);
  const int64_t span = dataset.num_steps() - settings.history;
  for (int64_t w = 0; w < kWindows; ++w) {
    const int64_t anchor = static_cast<int64_t>(rng() % span);
    in.windows.push_back(stwa::ops::Slice(dataset.values, 1, anchor,
                                          settings.history));
  }
  for (int64_t i = 0; i < 1 << 16; ++i) {
    in.order.push_back(static_cast<int64_t>(rng() % kWindows));
  }
  // Offline references: fp32 session, batch 1, cold Forecast.
  auto session = serve::InferenceSession::Open(in.ckpt);
  for (const Tensor& w : in.windows) in.refs.push_back(session->Forecast(w));
  return in;
}

bool ResponseOk(const serve::Response& resp, const Tensor& ref) {
  return resp.ok && !resp.degraded &&
         SameBytes(resp.forecast, ref.data(), ref.size());
}

/// Per-op detail kept by a traced phase; handoff is what is left of the
/// end-to-end latency after submit, queue and compute.
struct OpDetail {
  double submit_us = 0, queue_us = 0, compute_us = 0, handoff_us = 0;
  double e2e_us = 0;
  int64_t batch = 0;
};

struct Phase {
  std::vector<OpRecord> ops;
  std::vector<OpDetail> detail;
  SpanLog spans;
  std::vector<double> steal_pct;
  /// Requests issued so far (the seeded order continues across phases).
  int64_t next = 0;
};

/// One closed-loop phase of `seconds`: requests are issued while the phase
/// runs, and the ones in flight at its end are drained and counted.
void RunPhase(serve::Server& server, const Inputs& in, int seconds,
              bool trace, Phase* phase, OpTally* tally) {
  struct Pending {
    int64_t i = 0;
    int64_t sub0 = 0, sub1 = 0;
    int64_t window = 0;
    std::future<serve::Response> future;
  };
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds) * 1'000'000'000;
  // Sized and touched up front: a vector growing mid-run, or pages first
  // touched as ops arrive, would make the peak RSS follow the op count.
  phase->ops.resize(static_cast<size_t>(seconds) * kMaxOpsPerSecond);
  phase->ops.clear();
  if (trace) {
    phase->detail.reserve(static_cast<size_t>(seconds) * kMaxOpsPerSecond);
    phase->spans.Reserve(static_cast<size_t>(seconds) * kMaxOpsPerSecond * 3);
  }
  std::deque<Pending> inflight;
  int64_t issued = 0;
  auto submit = [&] {
    Pending p;
    p.i = issued++;
    p.window = in.order[static_cast<size_t>(phase->next++ %
                                            static_cast<int64_t>(
                                                in.order.size()))];
    p.sub0 = NowNs();
    p.future = server.Submit(in.windows[static_cast<size_t>(p.window)]);
    p.sub1 = NowNs();
    inflight.push_back(std::move(p));
  };
  for (int64_t k = 0; k < kInFlight; ++k) submit();
  IntervalSteal steal(start, kServeIntervalNs,
                      seconds * kServeIntervalsPerSecond);
  while (!inflight.empty()) {
    steal.Poll();
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    serve::Response resp = p.future.get();
    const int64_t got = NowNs();
    const bool ok = tally->Count(
        ResponseOk(resp, in.refs[static_cast<size_t>(p.window)]));
    phase->ops.push_back(OpRecord{p.sub0 - start, got - p.sub0, ok});
    if (trace) {
      phase->spans.Add(p.i, "serve.op", "", p.sub0, got);
      phase->spans.Add(p.i, "serve.submit", "serve.op", p.sub0, p.sub1);
      phase->spans.Add(p.i, "serve.wait", "serve.op", p.sub1, got);
      OpDetail d;
      d.submit_us = static_cast<double>(p.sub1 - p.sub0) / 1e3;
      d.queue_us = resp.queue_micros;
      d.compute_us = resp.compute_micros;
      d.e2e_us = static_cast<double>(got - p.sub0) / 1e3;
      d.handoff_us =
          d.e2e_us - (d.submit_us + resp.queue_micros + resp.compute_micros);
      d.batch = resp.batch_size;
      phase->detail.push_back(d);
    }
    if (got < stop) submit();
  }
  phase->steal_pct = steal.Finish();
}

}  // namespace

Outcome RunServeBatch(const Options& options) {
  Outcome out;
  const int seconds = PhaseSeconds(options);
  stwa::runtime::SetNumThreads(kPoolThreads);
  out.notes.push_back(RuntimeBanner("serve_batch") + " precision=fp32");

  const Inputs in = MakeInputs(options.seed, options.work_dir);
  const double harness_mb = ResidentMb();
  serve::ServerOptions server_options;
  server_options.workers = 1;
  server_options.batching.max_batch = kMaxBatch;
  server_options.batching.max_delay = std::chrono::microseconds(kMaxDelayUs);
  server_options.batching.capacity = 1024;
  server_options.default_deadline = std::chrono::seconds(1);
  server_options.session.precision = stwa::simd::Precision::kFp32;

  // Set-up: server construction (session open, worker start) and one burst
  // of each batch size 1..kMaxBatch, which captures every batch plan the
  // timed phase can meet (a capture inside the timed phase would be a
  // latency spike and a jump in peak RSS whenever the host's noise made an
  // odd-sized batch).
  std::unique_ptr<serve::Server> server;
  std::vector<std::pair<int64_t, serve::Response>> warm;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    server.reset();
    warm.clear();
    const int64_t t0 = NowNs();
    server = std::make_unique<serve::Server>(in.ckpt, server_options);
    for (int64_t b = 1; b <= kMaxBatch; ++b) {
      std::vector<std::pair<int64_t, std::future<serve::Response>>> futures;
      for (int64_t i = 0; i < b; ++i) {
        futures.emplace_back(
            i, server->Submit(in.windows[static_cast<size_t>(i)]));
      }
      for (auto& [w, f] : futures) warm.emplace_back(w, f.get());
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  });
  for (const auto& [w, resp] : warm) {
    out.tally.Count(ResponseOk(resp, in.refs[static_cast<size_t>(w)]));
  }

  TracedPhases traced;
  Phase main;
  const auto pool0 = stwa::pool::Stats();
  HostWindow host;
  RunPhase(*server, in, seconds, false, &main, &out.tally);
  const double peak_mb = PeakRssMb();
  const auto pool1 = stwa::pool::Stats();
  const int64_t intervals = seconds * kServeIntervalsPerSecond;
  traced.untraced =
      Summarize(main.ops, kServeIntervalNs, intervals, main.steal_pct);
  host.Close("untraced", traced.untraced, &out);

  if (!options.trace) {
    AddEndToEnd(traced.untraced, setup_s, kSetupReps, harness_mb, peak_mb,
                &out);
  } else {
    traced.pool_requests = pool1.requests - pool0.requests;
    traced.pool_misses = pool1.misses - pool0.misses;
    Phase tp;
    tp.next = main.next;
    const serve::ServerStats s0 = server->Stats();
    HostWindow traced_host;
    RunPhase(*server, in, seconds, true, &tp, &out.tally);
    const serve::ServerStats s1 = server->Stats();
    traced.traced =
        Summarize(tp.ops, kServeIntervalNs, intervals, tp.steal_pct);
    traced_host.Close("traced", traced.traced, &out);
    traced.steal_pct = traced_host.steal_pct();
    AddBenchHealth(traced, &out);

    const std::vector<Span>& spans = tp.spans.spans();
    WriteSpans(spans, options.work_dir + "/spans_serve_batch_seed" +
                          std::to_string(options.seed) + ".tsv");
    std::vector<double> submit, queue, compute, handoff, batch, e2e;
    for (const OpDetail& d : tp.detail) {
      submit.push_back(d.submit_us);
      queue.push_back(d.queue_us);
      compute.push_back(d.compute_us);
      handoff.push_back(d.handoff_us);
      batch.push_back(static_cast<double>(d.batch));
      e2e.push_back(d.e2e_us);
    }
    const double mean_compute = Mean(compute);
    out.Add("serve.submit_us", Median(&submit), "us");
    AddStageMetrics(queue, compute, handoff, batch, e2e, &out);

    AddCacheShares(s0.stream_cache, s1.stream_cache,
                   static_cast<double>(tp.ops.size()), &out);
    out.Add("trace.fleet_serve_spans",
            static_cast<double>(CountSpans(spans, {"fleet.", "serve."})),
            "count");

    // Session layer: the same model at batch 16, outside the server.
    auto session = serve::InferenceSession::Open(in.ckpt);
    std::vector<double> us = TimeBatch16Us(session.get(), in.windows);
    const double mean16 = Mean(us);
    out.Add("session.batch16_us", Median(&us), "us");
    out.Add("additivity.session_gap_pct",
            mean_compute > 0 ? 100.0 * (mean_compute - mean16) / mean_compute
                             : 0.0,
            "%");
    out.Add("simd.gemm_gflops.64x256x256",
            GemmGflops(64, 256, 256, kPoolThreads), "GFLOP/s");
    out.Add("simd.gemm_gflops.768x32x32",
            GemmGflops(768, 32, 32, kPoolThreads), "GFLOP/s");
  }
  if (out.tally.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
