#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

double RankedLatencyMs(const OpRecord& op) {
  return op.ok ? static_cast<double>(op.latency_ns) / 1e6
               : std::numeric_limits<double>::infinity();
}

double Median(std::vector<double>* values) {
  return Percentile(values, 0.5);
}

IntervalSummary SummarizeIntervals(const std::vector<OpRecord>& ops,
                                   int64_t interval_ns, int64_t intervals,
                                   const std::vector<double>& steal_pct) {
  const size_t n = static_cast<size_t>(intervals);
  std::vector<std::vector<double>> buckets(n);
  std::vector<int64_t> completed_ok(n, 0);
  std::vector<bool> behind(n, false);
  for (const OpRecord& op : ops) {
    if (op.start_ns < 0) continue;
    const int64_t k = op.start_ns / interval_ns;
    if (k < intervals) {
      buckets[static_cast<size_t>(k)].push_back(RankedLatencyMs(op));
      if (op.own_lag_ns > kMaxSendLagNs) {
        behind[static_cast<size_t>(k)] = true;
      }
    }
    const int64_t done = (op.start_ns + op.latency_ns) / interval_ns;
    if (op.ok && done < intervals) ++completed_ok[static_cast<size_t>(done)];
  }
  IntervalSummary result;
  result.interval_ns = interval_ns;
  auto steal_of = [&](size_t k) {
    return k < steal_pct.size() ? steal_pct[k] : 0.0;
  };
  std::vector<size_t> on_schedule;
  int64_t filled = 0;
  for (size_t k = 0; k < n; ++k) {
    if (buckets[k].empty()) continue;
    ++filled;
    if (behind[k]) {
      ++result.behind_schedule;
    } else {
      on_schedule.push_back(k);
    }
  }
  std::vector<bool> keep(n, false);
  int64_t kept = 0;
  int64_t kept_size = 0;
  for (size_t k : on_schedule) {
    if (steal_of(k) > kMaxIntervalStealPct) {
      ++result.host_disturbed;
    } else {
      keep[k] = true;
      ++kept;
      kept_size += static_cast<int64_t>(buckets[k].size());
    }
  }
  const int64_t quarter = (filled + 3) / 4;
  result.valid = filled == 0 || !on_schedule.empty();
  // Too few steal-free intervals (under a quarter of them, or under
  // kMinPoolOps ops): the on-schedule ones with the least steal are added
  // until both hold, or none is left.
  std::stable_sort(on_schedule.begin(), on_schedule.end(),
                   [&](size_t a, size_t b) {
                     return steal_of(a) < steal_of(b);
                   });
  for (size_t k : on_schedule) {
    if (kept >= quarter && kept_size >= kMinPoolOps) break;
    if (keep[k]) continue;
    keep[k] = true;
    ++kept;
    kept_size += static_cast<int64_t>(buckets[k].size());
  }
  if (on_schedule.empty()) keep.assign(n, true);
  std::vector<std::pair<double, size_t>> kept_ratios;
  int64_t kept_ops = 0;
  int64_t kept_completed = 0;
  for (size_t k = 0; k < n; ++k) {
    std::vector<double>& bucket = buckets[k];
    if (bucket.empty()) continue;
    const int64_t size = static_cast<int64_t>(bucket.size());
    const double p99 = Percentile(&bucket, 0.99);
    result.per_interval_p99_ms.push_back(p99);
    result.per_interval_steal_pct.push_back(steal_of(k));
    if (!keep[k]) continue;
    result.min_ops =
        result.intervals == 0 ? size : std::min(result.min_ops, size);
    result.max_ops = std::max(result.max_ops, size);
    ++result.intervals;
    kept_ops += size;
    const double p50 = Percentile(&bucket, 0.5);
    kept_ratios.emplace_back(
        std::isfinite(p50) && p50 > 0.0
            ? p99 / p50
            : std::numeric_limits<double>::infinity(),
        k);
    kept_completed += completed_ok[k];
  }
  // The latency pool: kept intervals from the lowest p99 / p50 up (ties in
  // time order).
  std::stable_sort(kept_ratios.begin(), kept_ratios.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const double pool_size = std::max(
      static_cast<double>(kMinPoolOps),
      kPoolShare * static_cast<double>(kept_ops));
  std::vector<double> pool;
  for (const auto& [ratio, k] : kept_ratios) {
    if (static_cast<double>(pool.size()) >= pool_size) break;
    pool.insert(pool.end(), buckets[k].begin(), buckets[k].end());
  }
  result.pool_ops = static_cast<int64_t>(pool.size());
  result.p99_ms = Percentile(&pool, 0.99);
  result.p50_ms = Percentile(&pool, 0.5);
  if (result.intervals > 0) {
    result.throughput_per_s =
        static_cast<double>(kept_completed) /
        (static_cast<double>(result.intervals) *
         static_cast<double>(interval_ns) / 1e9);
  }
  return result;
}

bool SameBytes(const stwa::Tensor& got, const float* want, int64_t count) {
  if (got.size() != count) return false;
  if (count == 0) return true;
  return std::memcmp(got.data(), want,
                     sizeof(float) * static_cast<size_t>(count)) == 0;
}

PhaseSummary Summarize(const std::vector<OpRecord>& ops, int64_t interval_ns,
                       int64_t intervals,
                       const std::vector<double>& steal_pct) {
  PhaseSummary s;
  std::vector<double> lags;
  lags.reserve(ops.size());
  for (const OpRecord& op : ops) {
    lags.push_back(static_cast<double>(op.send_lag_ns) / 1e6);
    if (op.ok) ++s.ok_ops;
  }
  s.ops = static_cast<int64_t>(ops.size());
  s.late_p99_ms = Percentile(&lags, 0.99);
  s.intervals = SummarizeIntervals(ops, interval_ns, intervals, steal_pct);
  return s;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already included in user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

IntervalSteal::IntervalSteal(int64_t start_ns, int64_t interval_ns,
                             int64_t intervals)
    : start_ns_(start_ns), interval_ns_(interval_ns), intervals_(intervals) {
  marks_.reserve(static_cast<size_t>(intervals) + 1);
  marks_.push_back(ReadCpuTimes());
}

void IntervalSteal::Poll() {
  const int64_t closed = static_cast<int64_t>(marks_.size());
  if (closed > intervals_) return;
  if (NowNs() - start_ns_ >= closed * interval_ns_) {
    marks_.push_back(ReadCpuTimes());
  }
}

std::vector<double> IntervalSteal::Finish() {
  while (static_cast<int64_t>(marks_.size()) <= intervals_) {
    marks_.push_back(ReadCpuTimes());
  }
  std::vector<double> steal;
  for (size_t k = 0; k + 1 < marks_.size(); ++k) {
    steal.push_back(StealPercent(marks_[k], marks_[k + 1]));
  }
  return steal;
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  in >> load;
  return in ? load : -1.0;
}

namespace {

/// A "<key>: <n> kB" field of /proc/self/status in MiB (0 if absent).
double StatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double ResidentMb() { return StatusMb("VmRSS:"); }

namespace {

/// Sum of the durations of each (op, parent name) pair's child spans.
std::unordered_map<std::string, int64_t> ChildTime(
    const std::vector<Span>& spans) {
  std::unordered_map<std::string, int64_t> child;
  for (const Span& s : spans) {
    if (s.parent[0] == '\0') continue;
    child[std::to_string(s.op) + '\t' + s.parent] += s.end_ns - s.start_ns;
  }
  return child;
}

}  // namespace

double MedianSelfUs(const std::vector<Span>& spans, const std::string& name) {
  const auto child = ChildTime(spans);
  std::vector<double> self;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    int64_t covered = 0;
    const auto it = child.find(std::to_string(s.op) + '\t' + s.name);
    if (it != child.end()) covered = it->second;
    self.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) /
                   1e3);
  }
  return Median(&self);
}

double MedianDurationUs(const std::vector<Span>& spans,
                        const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (name == s.name) {
      d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return Median(&d);
}

int64_t CountSpans(const std::vector<Span>& spans,
                   const std::vector<std::string>& prefixes) {
  int64_t n = 0;
  for (const Span& s : spans) {
    for (const std::string& p : prefixes) {
      if (std::strncmp(s.name, p.c_str(), p.size()) == 0) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "op\tname\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.op << '\t' << s.name << '\t' << (s.parent[0] ? s.parent : "-")
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::string ResultJson(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.tally.attempted
      << ", \"failed\": " << outcome.tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 1e12;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
