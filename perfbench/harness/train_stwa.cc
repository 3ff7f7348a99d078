// train_stwa: offline training of the quickstart ST-WA through
// train::StepEngine.
//
// Steps run over a seeded sequence of shuffled epochs of batches (batch 8,
// train stride 2) on a seeded quickstart-sized dataset, with an EvaluateOn
// pass over the validation split every kEvalEvery steps. The kernel pool is
// pinned to 1 thread: at 2 threads a step took 4.7-8.7 ms, depending on how
// promptly the host woke the pool helper for each parallel region, and the
// p50 of runs of the same code spread by 0.21 of its median; at 1 thread,
// by 0.05. serve_batch measures the 2-thread pool. An op is one Step;
// throughput counts training windows per second. Thread budget: this
// thread = 1.

#include <cmath>
#include <cstring>
#include <memory>

#include "baselines/registry.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "runtime/parallel.h"
#include "tensor/buffer_pool.h"
#include "train/step_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stwa::Tensor;
namespace train = stwa::train;

constexpr int kPoolThreads = 1;
/// Threads of the reference run the timed weights are checked against.
constexpr int kReferenceThreads = 2;
constexpr int64_t kBatch = 8;
constexpr int64_t kEvalEvery = 100;
/// Set-ups per run (each under 100 ms on the reference host); setup_s is
/// their median.
constexpr int kSetupReps = 15;
/// Steps after set-up whose weights are checked against the reference run.
constexpr int64_t kPrefixSteps = 20;
/// Traced runs time Predict on every kForwardEvery-th step's batch.
constexpr int64_t kForwardEvery = 4;
/// Capacity reserved for op records per second (about 8x the step rate).
constexpr size_t kMaxStepsPerSecond = 1'000;

struct Inputs {
  stwa::data::TrafficDataset dataset;
  stwa::baselines::ModelSettings settings;
  stwa::data::StandardScaler scaler;
  std::unique_ptr<stwa::data::WindowSampler> train;
  std::unique_ptr<stwa::data::WindowSampler> val;
  /// Step s trains on batches[s % size].
  std::vector<std::vector<int64_t>> batches;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  stwa::data::GeneratorOptions gen;
  gen.name = "quickstart";
  gen.num_roads = 4;
  gen.sensors_per_road = 4;
  gen.num_days = 10;
  gen.steps_per_day = 144;
  gen.seed = seed * 7919 + 2024;
  in.dataset = stwa::data::GenerateTraffic(gen);
  in.settings.history = 12;
  in.settings.horizon = 12;
  in.settings.d_model = 16;
  in.settings.window_sizes = {3, 2, 2};
  in.settings.latent_dim = 8;
  in.settings.predictor_hidden = 64;
  const stwa::data::SplitBounds split =
      stwa::data::ChronologicalSplit(in.dataset.num_steps());
  in.scaler.Fit(in.dataset.values, split.train_end);
  const Tensor norm = in.scaler.Transform(in.dataset.values);
  in.train = std::make_unique<stwa::data::WindowSampler>(
      norm, norm, 12, 12, 0, split.train_end, /*stride=*/2);
  in.val = std::make_unique<stwa::data::WindowSampler>(
      norm, norm, 12, 12, split.train_end, split.val_end, /*stride=*/3);
  stwa::Rng rng(seed);
  for (int epoch = 0; epoch < 40; ++epoch) {
    for (auto& b : in.train->EpochBatches(kBatch, &rng)) {
      // Full batches only: one train plan serves every step.
      if (static_cast<int64_t>(b.size()) == kBatch) {
        in.batches.push_back(std::move(b));
      }
    }
  }
  return in;
}

/// Model plus engine: the program under test.
struct Trainer {
  std::unique_ptr<train::ForecastModel> model;
  std::unique_ptr<train::StepEngine> engine;
  stwa::data::Batch batch;
  int64_t step = 0;
};

/// Builds the model and engine, captures the train plan with the first
/// step and the eval plans with one evaluation.
void Build(const Inputs& in, Trainer* t) {
  t->engine.reset();
  t->model = stwa::baselines::MakeModel("ST-WA", in.dataset, in.settings);
  t->engine = std::make_unique<train::StepEngine>(*t->model,
                                                  train::StepEngineConfig());
  t->step = 0;
  in.train->MakeBatchInto(in.batches[0], &t->batch);
  t->engine->Step(t->batch);
  ++t->step;
  t->engine->EvaluateOn(*in.val, in.scaler, kBatch);
}

/// Stages the next step's batch (the benchmark's own work, not timed).
const stwa::data::Batch& NextBatch(const Inputs& in, Trainer* t) {
  in.train->MakeBatchInto(
      in.batches[static_cast<size_t>(t->step) % in.batches.size()],
      &t->batch);
  return t->batch;
}

std::vector<float> WeightBytes(const train::ForecastModel& model) {
  std::vector<float> all;
  for (const auto& p : model.Parameters()) {
    const Tensor& v = p.value();
    all.insert(all.end(), v.data(), v.data() + v.size());
  }
  return all;
}

bool SameWeights(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Phase {
  std::vector<OpRecord> ops;
  SpanLog spans;
  std::vector<double> steal_pct;
  /// Weights after kPrefixSteps timed steps (first phase only).
  std::vector<float> prefix_weights;
};

void RunPhase(const Inputs& in, Trainer* t, int seconds, bool trace,
              Phase* phase, OpTally* tally) {
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds) * 1'000'000'000;
  // Sized and touched up front, so the peak RSS does not follow the step
  // count.
  phase->ops.resize(static_cast<size_t>(seconds) * kMaxStepsPerSecond);
  phase->ops.clear();
  int64_t n = 0;
  IntervalSteal steal(start, kSecondNs, seconds);
  while (NowNs() < stop) {
    steal.Poll();
    const stwa::data::Batch& batch = NextBatch(in, t);
    const int64_t t0 = NowNs();
    const float loss = t->engine->Step(batch);
    const int64_t t1 = NowNs();
    ++t->step;
    ++n;
    const bool ok = tally->Count(std::isfinite(loss));
    phase->ops.push_back(OpRecord{t0 - start, t1 - t0, ok});
    if (trace) {
      phase->spans.Add(t->step, "train.step", "", t0, t1);
      if (n % kForwardEvery == 0) {
        const int64_t f0 = NowNs();
        t->engine->Predict(batch.x);
        phase->spans.Add(t->step, "train.forward", "", f0, NowNs());
      }
    }
    if (n == kPrefixSteps && phase->prefix_weights.empty()) {
      phase->prefix_weights = WeightBytes(*t->model);
    }
    if (t->step % kEvalEvery == 0) {
      const int64_t e0 = NowNs();
      t->engine->EvaluateOn(*in.val, in.scaler, kBatch);
      if (trace) phase->spans.Add(t->step, "train.eval", "", e0, NowNs());
    }
  }
  phase->steal_pct = steal.Finish();
}

}  // namespace

Outcome RunTrainStwa(const Options& options) {
  Outcome out;
  const int seconds = PhaseSeconds(options);
  const Inputs in = MakeInputs(options.seed);

  // Reference for the correctness check (not timed): the same set-up and
  // kPrefixSteps steps on kReferenceThreads threads.
  std::vector<float> reference;
  {
    stwa::runtime::SetNumThreads(kReferenceThreads);
    Trainer ref;
    Build(in, &ref);
    for (int64_t s = 0; s < kPrefixSteps; ++s) {
      ref.engine->Step(NextBatch(in, &ref));
      ++ref.step;
    }
    reference = WeightBytes(*ref.model);
  }

  stwa::runtime::SetNumThreads(kPoolThreads);
  out.notes.push_back(RuntimeBanner("train_stwa") + " precision=fp32");
  Trainer trainer;
  const double harness_mb = ResidentMb();
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    const int64_t t0 = NowNs();
    Build(in, &trainer);
    return static_cast<double>(NowNs() - t0) / 1e9;
  });

  TracedPhases traced;
  Phase main;
  const auto pool0 = stwa::pool::Stats();
  HostWindow host;
  RunPhase(in, &trainer, seconds, false, &main, &out.tally);
  const double peak_mb = PeakRssMb();
  const auto pool1 = stwa::pool::Stats();
  traced.untraced = Summarize(main.ops, kSecondNs, seconds, main.steal_pct);
  host.Close("untraced", traced.untraced, &out);
  // Throughput in training windows per second.
  traced.untraced.intervals.throughput_per_s *= static_cast<double>(kBatch);
  if (!SameWeights(main.prefix_weights, reference)) {
    out.correct = false;
    out.notes.push_back("[check] weights after " +
                        std::to_string(kPrefixSteps) +
                        " steps differ from the " +
                        std::to_string(kReferenceThreads) + "-thread run");
  }

  if (!options.trace) {
    AddEndToEnd(traced.untraced, setup_s, kSetupReps, harness_mb, peak_mb,
                &out);
  } else {
    traced.pool_requests = pool1.requests - pool0.requests;
    traced.pool_misses = pool1.misses - pool0.misses;
    Phase tp;
    HostWindow traced_host;
    RunPhase(in, &trainer, seconds, true, &tp, &out.tally);
    traced.traced = Summarize(tp.ops, kSecondNs, seconds, tp.steal_pct);
    traced_host.Close("traced", traced.traced, &out);
    traced.steal_pct = traced_host.steal_pct();
    AddBenchHealth(traced, &out);

    const std::vector<Span>& spans = tp.spans.spans();
    WriteSpans(spans, options.work_dir + "/spans_train_stwa_seed" +
                          std::to_string(options.seed) + ".tsv");
    out.Add("train.step_ms", MedianDurationUs(spans, "train.step") / 1e3,
            "ms");
    out.Add("train.forward_ms",
            MedianDurationUs(spans, "train.forward") / 1e3, "ms");
    out.Add("train.eval_ms", MedianDurationUs(spans, "train.eval") / 1e3,
            "ms");
    out.Add("ir.peak_live_mb",
            static_cast<double>(
                trainer.engine->plan_summary().peak_live_bytes) /
                (1024.0 * 1024.0),
            "MiB");
    out.Add("trace.fleet_serve_spans",
            static_cast<double>(CountSpans(spans, {"fleet.", "serve."})),
            "count");
    out.Add("simd.gemm_gflops.1536x16x16",
            GemmGflops(1536, 16, 16, kPoolThreads), "GFLOP/s");
    out.Add("simd.gemm_gflops.128x64x144",
            GemmGflops(128, 64, 144, kPoolThreads), "GFLOP/s");
  }
  if (out.tally.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
