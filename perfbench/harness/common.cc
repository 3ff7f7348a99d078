#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "ir/plan.h"
#include "runtime/parallel.h"
#include "serve/stream_cache.h"
#include "simd/gemm.h"
#include "simd/simd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace perfbench {

double MedianSetupSeconds(int reps, const std::function<double()>& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) seconds.push_back(setup());
  return Median(&seconds);
}

HostWindow::HostWindow() : cpu_(ReadCpuTimes()), load_(LoadAverage1()) {}

void HostWindow::Close(const std::string& phase, const PhaseSummary& summary,
                       Outcome* out) {
  steal_pct_ = StealPercent(cpu_, ReadCpuTimes());
  const IntervalSummary& p99 = summary.intervals;
  std::ostringstream note;
  note << "[host] phase=" << phase << " steal_pct=" << steal_pct_
       << " loadavg_start=" << load_ << " loadavg_end=" << LoadAverage1()
       << " generator_late_p99_ms=" << summary.late_p99_ms
       << " intervals_behind_schedule=" << p99.behind_schedule
       << " intervals_host_disturbed=" << p99.host_disturbed
       << " intervals_used=" << p99.intervals
       << (p99.valid ? " valid=1"
                     : " valid=0 (INVALID: the generator fell behind "
                       "schedule in every interval; figures reflect the "
                       "host, not the program)");
  out->notes.push_back(note.str());
  if (!p99.valid) {
    out->correct = false;
    out->notes.push_back("[check] phase=" + phase +
                         " invalid: the generator fell behind schedule");
  }
  std::ostringstream intervals;
  intervals << "[host] phase=" << phase << " interval_steal_pct=";
  for (size_t i = 0; i < p99.per_interval_steal_pct.size(); ++i) {
    intervals << (i > 0 ? "," : "") << p99.per_interval_steal_pct[i];
  }
  intervals << " interval_p99_ms=";
  for (size_t i = 0; i < p99.per_interval_p99_ms.size(); ++i) {
    intervals << (i > 0 ? "," : "") << p99.per_interval_p99_ms[i];
  }
  out->notes.push_back(intervals.str());
}

void SpinUntilNs(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

void AddEndToEnd(const PhaseSummary& phase, double setup_s, int setup_reps,
                 double harness_mb, double peak_mb, Outcome* out) {
  const IntervalSummary& iv = phase.intervals;
  out->Add("p50_ms", iv.p50_ms, "ms");
  out->Add("p99_ms", iv.p99_ms, "ms");
  out->Add("throughput_per_s", iv.throughput_per_s, "1/s");
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mb", peak_mb, "MiB");
  std::ostringstream note;
  note << "[result] ops=" << phase.ops << " ok=" << phase.ok_ops
       << "; throughput is the rate over "
       << iv.intervals << " intervals of "
       << static_cast<double>(iv.interval_ns) / 1e6 << " ms ("
       << iv.min_ops << ".." << iv.max_ops
       << " ops each; " << iv.behind_schedule << " behind-schedule and "
       << iv.host_disturbed
       << " host-disturbed intervals left out); p50 and p99 are taken over "
          "the "
       << iv.pool_ops
       << " ops of those intervals whose p99 stands least above their "
          "p50; setup_s = median of "
       << setup_reps << " set-ups";
  out->notes.push_back(note.str());
  std::ostringstream rss;
  rss << "[result] peak_rss_mb=" << peak_mb << " of which " << harness_mb
      << " MiB were resident before set-up (the benchmark's inputs and "
         "references)";
  out->notes.push_back(rss.str());
}

void AddBenchHealth(const TracedPhases& phases, Outcome* out) {
  out->Add("bench.late_p99_ms", phases.traced.late_p99_ms, "ms");
  out->Add("bench.steal_pct", phases.steal_pct, "%");
  const double base = phases.untraced.intervals.p50_ms;
  out->Add("bench.trace_overhead_pct",
           base > 0.0
               ? 100.0 * (phases.traced.intervals.p50_ms - base) / base
               : 0.0,
           "%");
  const double ops = std::max<double>(1.0, phases.untraced.ops);
  out->Add("tensor.pool_requests_per_op",
           static_cast<double>(phases.pool_requests) / ops, "count");
  out->Add("tensor.heap_allocs_per_op",
           static_cast<double>(phases.pool_misses) / ops, "count");
}

void AddStageMetrics(std::vector<double> queue_us,
                     std::vector<double> compute_us,
                     std::vector<double> handoff_us,
                     const std::vector<double>& batch,
                     const std::vector<double>& e2e_us, Outcome* out) {
  const double mean_e2e = Mean(e2e_us);
  const double mean_handoff = Mean(handoff_us);
  // Mean executed batch: a batch of b contributes b requests of 1/b each.
  double batches = 0.0;
  for (double b : batch) batches += b > 0.0 ? 1.0 / b : 0.0;
  out->Add("serve.batch_size",
           batches > 0.0 ? static_cast<double>(batch.size()) / batches : 0.0,
           "count");
  out->Add("serve.queue_us", Median(&queue_us), "us");
  out->Add("serve.compute_us", Median(&compute_us), "us");
  out->Add("serve.handoff_us", Median(&handoff_us), "us");
  out->Add("additivity.unexplained_pct",
           mean_e2e > 0.0 ? 100.0 * mean_handoff / mean_e2e : 0.0, "%");
}

void AddCacheShares(const stwa::serve::StreamCacheStats& before,
                    const stwa::serve::StreamCacheStats& after,
                    double forecasts, Outcome* out) {
  const auto share = [&](int64_t b, int64_t a) {
    return forecasts > 0.0 ? static_cast<double>(a - b) / forecasts : 0.0;
  };
  const double shift = share(before.shift_hits, after.shift_hits);
  const double output = share(before.output_hits, after.output_hits);
  const double miss = share(before.misses, after.misses);
  out->Add("stream_cache.shift_share", shift, "fraction");
  out->Add("stream_cache.output_share", output, "fraction");
  out->Add("stream_cache.miss_share", miss, "fraction");
  out->Add("stream_cache.bypass_share", 1.0 - (shift + output + miss),
           "fraction");
  out->Add("stream_cache.stale",
           static_cast<double>(after.stale_rejected - before.stale_rejected),
           "count");
  out->Add("stream_cache.bytes", static_cast<double>(after.bytes), "B");
}

std::vector<double> TimeBatch16Us(stwa::serve::InferenceSession* session,
                                  const std::vector<stwa::Tensor>& windows) {
  const std::vector<stwa::Tensor> parts(windows.begin(),
                                        windows.begin() + 16);
  const stwa::Tensor batch = stwa::ops::Stack(parts);
  std::vector<double> us;
  for (int rep = 0; rep < 210; ++rep) {
    const int64_t t0 = NowNs();
    session->Forecast(batch);
    if (rep >= 10) us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return us;
}

double GemmGflops(int64_t m, int64_t n, int64_t k, int threads) {
  const int saved = stwa::runtime::NumThreads();
  stwa::runtime::SetNumThreads(threads);
  stwa::Rng rng(static_cast<uint64_t>(m * 131 + n * 17 + k));
  const stwa::Tensor a = stwa::Tensor::Randn({m, k}, rng);
  const stwa::Tensor b = stwa::Tensor::Randn({k, n}, rng);
  stwa::Tensor c = stwa::Tensor::Uninit({m, n});
  auto call = [&] {
    stwa::simd::Gemm2D(a.data(), b.data(), c.data(), m, n, k, false, false);
  };
  for (int i = 0; i < 5; ++i) call();
  // Batches of calls long enough to time reliably; median over batches.
  const double flops = 2.0 * static_cast<double>(m * n * k);
  const int per_batch =
      std::max<int>(1, static_cast<int>(2e6 / std::max(1.0, flops / 10.0)));
  std::vector<double> rates;
  for (int batch = 0; batch < 15; ++batch) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < per_batch; ++i) call();
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    rates.push_back(flops * per_batch / s / 1e9);
  }
  stwa::runtime::SetNumThreads(saved);
  return Median(&rates);
}

std::string RuntimeBanner(const std::string& workload) {
  std::ostringstream out;
  out << "[runtime] workload=" << workload
      << " threads=" << stwa::runtime::NumThreads() << " (pinned)"
      << " pool=" << (stwa::pool::Enabled() ? "on" : "off")
      << " simd=" << stwa::simd::IsaName()
      << " plan=" << (stwa::ir::PlanModeEnabled() ? "on" : "off")
      << " fuse=" << (stwa::ir::FuseModeEnabled() ? "on" : "off")
      << " region_par=" << (stwa::ir::RegionParModeEnabled() ? "on" : "off")
      << " stream_cache="
      << (stwa::serve::StreamCacheEnabled() ? "on" : "off");
  return out.str();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
