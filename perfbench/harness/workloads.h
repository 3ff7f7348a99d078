// The three benchmark workloads and the helpers they share. Each workload
// runs in its own process (main.cc), pins its own thread budget, and fills
// an Outcome with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). README.md documents what each one measures.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "measure.h"
#include "serve/inference_session.h"
#include "serve/stream_cache.h"
#include "tensor/tensor.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Timed length of the run (a traced run splits it into two phases).
  int seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory for checkpoints and span dumps (inside the checkout).
  std::string work_dir = ".";
};

/// The serving workloads cut their timed phases into 125 ms intervals.
/// Host stalls of a few milliseconds come several times a second on the
/// reference host; at 7% steal no one-second interval was free of them,
/// while many 125 ms ones were. serve_batch ops also complete 16 at a
/// time, so a one-second interval's p99 would be about its sixth-slowest
/// batch. train_stwa keeps one-second intervals: a step takes about 9 ms.
constexpr int64_t kServeIntervalsPerSecond = 8;
constexpr int64_t kServeIntervalNs = kSecondNs / kServeIntervalsPerSecond;

/// Length of each timed phase. A traced run times an untraced and a traced
/// phase back to back (their p50 difference is the tracing overhead), each
/// half as long, so both kinds of run take about the same time.
inline int PhaseSeconds(const Options& options) {
  return options.trace ? std::max(1, options.seconds / 2) : options.seconds;
}

Outcome RunFleetStream(const Options& options);
Outcome RunServeBatch(const Options& options);
Outcome RunTrainStwa(const Options& options);

/// Runs `setup` `reps` times (each returns its own seconds) and returns
/// the median; the last repetition's state is what the timed phase uses.
/// Each workload sets its count from the cost of one set-up, so that
/// set-up stays a small part of a run.
double MedianSetupSeconds(int reps, const std::function<double()>& setup);

/// Host noise over one timed phase: steal and load average from /proc.
class HostWindow {
 public:
  HostWindow();
  /// Ends the window and adds a "[host]" note with steal, load, the
  /// generator's send lag and whether the phase stayed on schedule. A
  /// phase whose generator fell behind is flagged invalid, not slow: the
  /// outcome is marked not correct, so the result line shows it.
  void Close(const std::string& phase, const PhaseSummary& summary,
             Outcome* out);
  double steal_pct() const { return steal_pct_; }

 private:
  CpuTimes cpu_;
  double load_ = 0.0;
  double steal_pct_ = 0.0;
};

/// Busy-waits until `deadline_ns` (NowNs clock). The open-loop generator
/// never sleeps: on a virtual machine a sleeping thread's wake-up can be
/// delayed by milliseconds when the host is busy, which would turn the
/// host's noise into send lag.
void SpinUntilNs(int64_t deadline_ns);

/// Adds the five end-to-end metrics and a "[result]" note. `setup_reps` is
/// the number of set-ups setup_s is the median of; `harness_mb` is the
/// resident size before the first set-up (the benchmark's own inputs and
/// references), which the note reports beside the peak so the program's
/// share of it is known. `peak_mb` is the peak resident size read right
/// after the timed phase, before its summary allocates per-op buffers whose
/// size follows the op count.
void AddEndToEnd(const PhaseSummary& phase, double setup_s, int setup_reps,
                 double harness_mb, double peak_mb, Outcome* out);

/// Adds the metrics every traced run reports the same way: bench health
/// (generator lag, steal, tracing overhead) and the pool counters per op.
struct TracedPhases {
  PhaseSummary untraced;
  PhaseSummary traced;
  double steal_pct = 0.0;
  uint64_t pool_requests = 0;
  uint64_t pool_misses = 0;
};
void AddBenchHealth(const TracedPhases& phases, Outcome* out);

/// Adds the queue-layer metrics of a traced serving phase from per-op
/// values (`batch` holds each request's Response::batch_size): mean
/// executed batch size, median queue/compute/handoff, and the additivity
/// check — the share of mean end-to-end latency left unexplained (the
/// handoff residual) after the measured and program-reported stages.
void AddStageMetrics(std::vector<double> queue_us,
                     std::vector<double> compute_us,
                     std::vector<double> handoff_us,
                     const std::vector<double>& batch,
                     const std::vector<double>& e2e_us, Outcome* out);

/// Adds the stream-cache shares of `forecasts` forecasts (shift, output,
/// miss, bypass) from two counter snapshots, the stale rejections between
/// them and the resident cache bytes at the second.
void AddCacheShares(const stwa::serve::StreamCacheStats& before,
                    const stwa::serve::StreamCacheStats& after,
                    double forecasts, Outcome* out);

/// Times `session` on one batch of the first 16 `windows` ([N, H, F] each)
/// stacked, 200 calls after 10 warm-up calls; returns each call's
/// microseconds.
std::vector<double> TimeBatch16Us(stwa::serve::InferenceSession* session,
                                  const std::vector<stwa::Tensor>& windows);

/// Median GFLOP/s of simd::Gemm2D (NN) at m x n x k on `threads` threads.
double GemmGflops(int64_t m, int64_t n, int64_t k, int threads);

/// The "[runtime]" banner: thread count, pool, SIMD ISA, precision, plan and
/// stream-cache modes of the library as this process runs it.
std::string RuntimeBanner(const std::string& workload);

/// Mean of `values` (0 when empty).
double Mean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
