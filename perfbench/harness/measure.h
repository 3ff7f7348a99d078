// Measurement logic shared by the three benchmark workloads: percentiles,
// the stall-robust interval p99, the open-loop schedule, byte checks,
// failure counting, host-noise probes, span tracing and the result line.
//
// Everything here is the benchmark's own code; the program under test is
// reached only through the workload files. The pure functions (everything
// above "Host probes") are unit-tested in tests/measure_test.cc.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

constexpr int64_t kSecondNs = 1'000'000'000;

/// Monotonic clock reading in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed operation of a workload.
struct OpRecord {
  /// When the op began, relative to the start of the timed phase: the due
  /// time for an open loop, the call time for a closed loop or a step.
  int64_t start_ns = 0;
  /// Latency in nanoseconds (end minus start).
  int64_t latency_ns = 0;
  /// False when the op failed (shed, degraded, non-ok, byte-mismatched,
  /// non-finite loss).
  bool ok = true;
  /// How late an open-loop generator sent the op (0 for closed loops).
  int64_t send_lag_ns = 0;
  /// The part of the send lag the generator caused itself: the send time
  /// minus the later of the due time and the end of the previous send. A
  /// send that blocks in the program delays the sends behind it, but that
  /// wait is the program's and is not counted here; what is left is the
  /// generator being descheduled (0 for closed loops).
  int64_t own_lag_ns = 0;
};

/// Own send lag above which an open-loop interval is behind schedule.
constexpr int64_t kMaxSendLagNs = 1'000'000;

/// Nearest-rank percentile of `values` (q in (0, 1]); 0 when empty. The
/// vector is reordered.
double Percentile(std::vector<double>* values, double q);

/// Latency in milliseconds used for percentiles: a failed op misses every
/// latency limit, so it ranks as +infinity.
double RankedLatencyMs(const OpRecord& op);

/// Median of `values`; 0 when empty. The vector is reordered.
double Median(std::vector<double>* values);

/// Steal share above which an interval counts as disturbed by the host
/// (see SummarizeIntervals): any. /proc/stat counts steal in
/// 10 ms ticks, so an interval stays when no tick of it was stolen (on the
/// reference 4-vCPU host one tick in a second reads 0.25%, and already
/// such intervals showed fleet_stream p99s up to 1.9 ms against 1.1-1.2 ms
/// in tick-free ones).
constexpr double kMaxIntervalStealPct = 0.0;

/// p50_ms and p99_ms are percentiles of one pool of ops: the kept
/// intervals whose p99 stands least above their own p50, taken until the
/// pool holds kPoolShare of the kept ops and at least kMinPoolOps, so that
/// at least 10 ops lie beyond its p99. Host noise only ever adds latency,
/// and on a busy host it reaches nearly every interval: ten fleet_stream
/// runs of the same code at 1-5% steal had one-second interval p99 medians
/// of 2.2-7.6 ms, and across the runs a median over intervals spread by
/// 0.56 of its middle value. A host stall lengthens a few ops of an
/// interval, while a slower host lengthens all of them, so ranking by the
/// ratio picks the intervals free of stalls without favouring fast ones. A
/// tail the program causes itself shows in every interval, those included.
/// Both percentiles come from the same pool, so p50 <= p99.
constexpr int64_t kMinPoolOps = 1000;
constexpr double kPoolShare = 0.1;

/// End-to-end figures of one timed phase, taken over fixed intervals.
struct IntervalSummary {
  /// Nearest-rank p50 and p99 of the latency pool (see kMinPoolOps), in ms.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Ops in the latency pool.
  int64_t pool_ops = 0;
  /// Ok ops completed per second within the undisturbed intervals.
  double throughput_per_s = 0.0;
  /// Intervals the figures cover, and the length of one.
  int64_t intervals = 0;
  int64_t interval_ns = 0;
  /// Intervals left out because the generator fell behind schedule.
  int64_t behind_schedule = 0;
  /// Intervals left out because the host stole CPU time in them.
  int64_t host_disturbed = 0;
  /// False when the generator fell behind schedule in every interval: no
  /// interval offered the scheduled load, and the figures measure the
  /// host, not the program.
  bool valid = true;
  /// Fewest and most ops in one of the intervals covered.
  int64_t min_ops = 0;
  int64_t max_ops = 0;
  /// Every interval's p99 and steal share, in time order.
  std::vector<double> per_interval_p99_ms;
  std::vector<double> per_interval_steal_pct;
};

/// Splits [0, intervals * interval_ns) into consecutive intervals (ops by
/// start time for latency, by completion time for throughput) and reports
/// the ok completions per second over the kept intervals, and the p50 and
/// p99 of the latency pool drawn from them (see kMinPoolOps). A stall lands
/// in some intervals and moves neither; a tail the program causes
/// everywhere shows in every interval.
///
/// An interval is left out as invalid rather than slow when the host
/// disturbed it: when an open-loop generator was descheduled for more than
/// kMaxSendLagNs before a send (OpRecord::own_lag_ns: the scheduled load
/// was not offered), or when the host stole more than kMaxIntervalStealPct
/// of the CPU in it (`steal_pct[k]`; empty means unknown). On a virtual
/// machine a halted vCPU's wake-up waits for the hypervisor, and at 1-5%
/// steal such millisecond delays reach most one-second intervals. Which
/// intervals are kept rests on the host's counters and the generator's own
/// lateness, never on the latencies being summarised nor on time spent
/// inside the program (a send that blocks keeps its interval in, with its
/// cost); only the latency pool then ranks the kept intervals by latency.
/// When fewer than a quarter of the intervals are steal-free, or they hold
/// fewer than kMinPoolOps ops, on-schedule intervals with the least steal
/// are added until both hold. When fewer than a quarter are on
/// schedule, those are used; when none is, all are, and the result is
/// flagged invalid. A busy host deschedules the generator for a millisecond
/// or two in most seconds (in 22 of 30 in one run), so a rule that
/// needed more on-schedule intervals would call the host's runs invalid
/// while their figures still rest on the load as scheduled. Ops outside
/// the span and empty intervals are ignored.
IntervalSummary SummarizeIntervals(const std::vector<OpRecord>& ops,
                                   int64_t interval_ns, int64_t intervals,
                                   const std::vector<double>& steal_pct);

/// Due time of op `index` in an open loop at `rate_per_s` ops per second,
/// relative to the loop start.
inline int64_t DueNs(int64_t index, int64_t rate_per_s) {
  return index * 1'000'000'000 / rate_per_s;
}

/// Drives an open loop of `count` ops at `rate_per_s`. For each op it
/// calls prepare(index) (the client's own work, such as formatting the
/// request), waits for the op's due time (never sending early), then calls
/// send(index, due_ns, send_ns, ready_ns) with times relative to
/// `start_ns`; ready_ns is the later of the due time and the end of the
/// previous send, so send_ns - ready_ns is the generator's own lateness
/// (OpRecord::own_lag_ns). A send that blocks pushes every later send
/// back, but each op keeps its own due time, so latency measured from the
/// due time counts the wait a stall imposes on the ops behind it. Clock
/// and wait are injectable so tests can simulate stalls.
template <typename Clock, typename WaitUntil, typename Prepare, typename Send>
void RunOpenLoop(int64_t count, int64_t rate_per_s, int64_t start_ns,
                 Clock now_ns, WaitUntil wait_until, Prepare prepare,
                 Send send) {
  int64_t previous_end = 0;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t due = DueNs(i, rate_per_s);
    prepare(i);
    if (now_ns() - start_ns < due) wait_until(start_ns + due);
    send(i, due, now_ns() - start_ns, std::max(due, previous_end));
    previous_end = now_ns() - start_ns;
  }
}

/// True when `got` holds exactly `count` floats with the bytes at `want`
/// (memcmp: -0.0 differs from 0.0, and any flipped bit is a mismatch).
bool SameBytes(const stwa::Tensor& got, const float* want, int64_t count);

/// Attempted/failed op counter.
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Counts one op; returns `ok` for chaining.
  bool Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

/// End-to-end summary of one timed phase.
struct PhaseSummary {
  IntervalSummary intervals;
  /// 99th percentile of the generator's send lag (0 for closed loops).
  double late_p99_ms = 0.0;
  int64_t ops = 0;
  int64_t ok_ops = 0;
};

/// Summarises `ops` over `intervals` intervals of `interval_ns` whose
/// steal shares are `steal_pct` (see SummarizeIntervals).
PhaseSummary Summarize(const std::vector<OpRecord>& ops, int64_t interval_ns,
                       int64_t intervals,
                       const std::vector<double>& steal_pct);

// ---------------------------------------------------------------------------
// Host probes

/// CPU time counters from the first line of /proc/stat (clock ticks).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Percentage of CPU time stolen by the hypervisor between two readings.
double StealPercent(const CpuTimes& before, const CpuTimes& after);

/// Steal share of each interval of a timed phase. The thread that drives
/// the phase calls Poll() often (it costs one clock read until an interval
/// boundary passes, then one /proc/stat read).
class IntervalSteal {
 public:
  IntervalSteal(int64_t start_ns, int64_t interval_ns, int64_t intervals);
  void Poll();
  /// Steal percentage per interval (intervals still open end now).
  std::vector<double> Finish();

 private:
  int64_t start_ns_;
  int64_t interval_ns_;
  int64_t intervals_;
  std::vector<CpuTimes> marks_;
};

/// One-minute load average (/proc/loadavg); -1 when unreadable.
double LoadAverage1();

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Current resident set size of this process in MiB (VmRSS).
double ResidentMb();

// ---------------------------------------------------------------------------
// Tracing

/// One traced call: which op it belongs to, its layer name, the name of
/// the span that caused it ("" for an op's root) and its interval. Names
/// are string literals, so recording a span never allocates.
struct Span {
  int64_t op = 0;
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log of one thread, written out when the run ends.
class SpanLog {
 public:
  void Add(int64_t op, const char* name, const char* parent,
           int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{op, name, parent, start_ns, end_ns});
  }
  void Reserve(size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-layer self time: each span's duration minus the durations of the
/// spans of the same op whose parent is its name. Returns the median self
/// time in microseconds of every span named `name` (0 when none).
double MedianSelfUs(const std::vector<Span>& spans, const std::string& name);

/// Median duration in microseconds of the spans named `name` (0 if none).
double MedianDurationUs(const std::vector<Span>& spans,
                        const std::string& name);

/// Number of spans whose name starts with one of `prefixes`.
int64_t CountSpans(const std::vector<Span>& spans,
                   const std::vector<std::string>& prefixes);

/// Writes spans as tab-separated lines (op, name, parent, start, end).
void WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------------------
// Result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports.
struct Outcome {
  bool correct = true;
  OpTally tally;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (banner, host noise).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// The result line: one JSON object with correct, attempted, failed and
/// metrics (non-finite values are written as 1e12 so the line stays JSON).
std::string ResultJson(const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
