// Tests of the benchmark's own measurement logic (harness/measure.h).

#include <cmath>
#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "measure.h"

namespace perfbench {
namespace {

constexpr int64_t kSecond = 1'000'000'000;

/// `per_interval` ops per one-second interval for `intervals` intervals,
/// each with latency `base_ms` plus a spread of small jitter.
std::vector<OpRecord> SteadyOps(int64_t intervals, int64_t per_interval,
                                double base_ms) {
  std::vector<OpRecord> ops;
  for (int64_t k = 0; k < intervals; ++k) {
    for (int64_t i = 0; i < per_interval; ++i) {
      const double ms = base_ms + 0.001 * static_cast<double>(i % 100);
      ops.push_back(OpRecord{k * kSecond + i * (kSecond / per_interval),
                             static_cast<int64_t>(ms * 1e6), true});
    }
  }
  return ops;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(&v, 0.99), 990.0);
  EXPECT_EQ(Percentile(&v, 0.5), 500.0);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 0.99), 0.0);
}

TEST(IntervalSummaryTest, StallsInFewIntervalsBarelyMoveTheMedian) {
  std::vector<OpRecord> ops = SteadyOps(10, 1000, 1.0);
  const IntervalSummary clean = SummarizeIntervals(ops, kSecond, 10, {});
  EXPECT_EQ(clean.intervals, 10);
  EXPECT_EQ(clean.min_ops, 1000);
  EXPECT_EQ(clean.max_ops, 1000);
  // A neighbour stalls the host three times: 50 ops in intervals 2, 5 and
  // 7 take 40 ms. The whole-run p99 jumps; the interval p99 does not.
  for (int64_t k : {2, 5, 7}) {
    for (int64_t i = 0; i < 50; ++i) {
      ops[static_cast<size_t>(k * 1000 + 500 + i)].latency_ns = 40'000'000;
    }
  }
  const IntervalSummary stalled = SummarizeIntervals(ops, kSecond, 10, {});
  EXPECT_DOUBLE_EQ(stalled.p99_ms, clean.p99_ms);
  std::vector<double> all;
  for (const OpRecord& op : ops) all.push_back(RankedLatencyMs(op));
  EXPECT_GE(Percentile(&all, 0.99), 40.0);
  // On a busy host stalls reach most intervals: seven of ten. Their median
  // p99 follows the host; the latency pool still reads the program.
  for (int64_t k : {0, 3, 6, 9}) {
    for (int64_t i = 0; i < 50; ++i) {
      ops[static_cast<size_t>(k * 1000 + 500 + i)].latency_ns = 40'000'000;
    }
  }
  std::vector<double> p99s =
      SummarizeIntervals(ops, kSecond, 10, {}).per_interval_p99_ms;
  EXPECT_DOUBLE_EQ(Median(&p99s), 40.0);
  EXPECT_DOUBLE_EQ(SummarizeIntervals(ops, kSecond, 10, {}).p99_ms,
                   clean.p99_ms);
}

TEST(IntervalSummaryTest, HostDisturbedIntervalsAreLeftOut) {
  std::vector<OpRecord> ops = SteadyOps(10, 1000, 1.0);
  const double clean = SummarizeIntervals(ops, kSecond, 10, {}).p99_ms;
  // The host steals CPU in seven intervals of ten and their tails grow:
  // the median of all ten would follow the host.
  std::vector<double> steal(10, 0.0);
  for (int64_t k : {0, 1, 2, 3, 5, 7, 8}) {
    steal[static_cast<size_t>(k)] = 2.5;
    for (int64_t i = 0; i < 50; ++i) {
      ops[static_cast<size_t>(k * 1000 + 500 + i)].latency_ns = 40'000'000;
    }
  }
  std::vector<double> p99s =
      SummarizeIntervals(ops, kSecond, 10, {}).per_interval_p99_ms;
  EXPECT_DOUBLE_EQ(Median(&p99s), 40.0);
  IntervalSummary r = SummarizeIntervals(ops, kSecond, 10, steal);
  EXPECT_EQ(r.host_disturbed, 7);
  EXPECT_EQ(r.intervals, 3);
  EXPECT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.p99_ms, clean);
  ASSERT_EQ(r.per_interval_steal_pct.size(), 10u);
  EXPECT_DOUBLE_EQ(r.per_interval_steal_pct[1], 2.5);
  // Steal at the threshold is not a disturbance.
  steal[4] = kMaxIntervalStealPct;
  EXPECT_EQ(SummarizeIntervals(ops, kSecond, 10, steal).host_disturbed, 7);
  // Fewer than a quarter steal-free: the quarter with the least steal
  // stands in, chosen by the host's counter, not by latency. The generator
  // kept its schedule, so the run stays valid.
  steal[4] = 1.0;
  steal[6] = 3.0;
  steal[9] = 2.0;
  steal[2] = 2.4;  // a stalled interval, yet the quietest of the rest
  r = SummarizeIntervals(ops, kSecond, 10, steal);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.host_disturbed, 10);
  EXPECT_EQ(r.intervals, 3);  // intervals 4, 9 and 2
  EXPECT_DOUBLE_EQ(r.p99_ms, clean);
  // Every interval behind schedule: all ten count (the latency pool draws
  // on a clean one) and the run is invalid.
  for (int64_t k = 0; k < 10; ++k) {
    ops[static_cast<size_t>(k * 1000)].own_lag_ns = 2'000'000;
  }
  r = SummarizeIntervals(ops, kSecond, 10, steal);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.intervals, 10);
  EXPECT_DOUBLE_EQ(r.p99_ms, clean);
}

TEST(IntervalSummaryTest, P50AndThroughputComeFromKeptIntervals) {
  // Three intervals of 1000 ops; the host steals in the middle one, where
  // half the ops also fail. The kept intervals carry the figures.
  std::vector<OpRecord> ops = SteadyOps(3, 1000, 1.0);
  for (int64_t i = 0; i < 500; ++i) ops[static_cast<size_t>(1000 + i)].ok = false;
  const IntervalSummary r = SummarizeIntervals(ops, kSecond, 3, {0.0, 4.0, 0.0});
  EXPECT_EQ(r.intervals, 2);
  EXPECT_EQ(r.host_disturbed, 1);
  EXPECT_NEAR(r.p50_ms, 1.049, 1e-9);
  // Interval 0 completes 999 ops (the last spills into interval 1);
  // interval 2 completes 999 of its own (its last ends past the span) and
  // the one spilled from interval 1.
  EXPECT_DOUBLE_EQ(r.throughput_per_s, 999.5);
  // Counted over every interval the failures would show: (999 + 500 +
  // 1000) ok completions in three seconds.
  const IntervalSummary all = SummarizeIntervals(ops, kSecond, 3, {});
  EXPECT_NEAR(all.throughput_per_s, 833.0, 1e-9);
}

TEST(IntervalSummaryTest, LatencyPoolHoldsATenthAndAtLeastAThousand) {
  // Twenty intervals of 200 ops: a tenth is 400, so the pool takes the
  // five quietest intervals to reach 1,000 ops. Interval k's four slowest
  // ops take 2 + k ms, so the pool is intervals 0-4 and its p99, the
  // 990th of its 1,000 ops, is 4 ms.
  std::vector<OpRecord> ops = SteadyOps(20, 200, 1.0);
  for (int64_t k = 0; k < 20; ++k) {
    for (int64_t i = 0; i < 4; ++i) {
      ops[static_cast<size_t>(k * 200 + i)].latency_ns = (2 + k) * 1'000'000;
    }
  }
  IntervalSummary r = SummarizeIntervals(ops, kSecond, 20, {});
  EXPECT_EQ(r.pool_ops, 1000);
  EXPECT_DOUBLE_EQ(r.p99_ms, 4.0);
  EXPECT_LT(r.p50_ms, 1.1);
  // Twenty intervals of 1,000 ops: a tenth is 2,000, two intervals.
  ops = SteadyOps(20, 1000, 1.0);
  EXPECT_EQ(SummarizeIntervals(ops, kSecond, 20, {}).pool_ops, 2000);
}

TEST(IntervalSummaryTest, KeptIntervalsHoldAtLeastAThousandOps) {
  // Thirty intervals of 110 steps; eight are steal-free, a quarter of the
  // thirty, but hold only 880. The least-stolen two of the rest are added
  // so that the pool can hold 1,000.
  std::vector<OpRecord> ops = SteadyOps(30, 110, 1.0);
  std::vector<double> steal(30, 0.0);
  for (size_t k = 8; k < 30; ++k) {
    steal[k] = 1.0 + 0.1 * static_cast<double>(k);
  }
  const IntervalSummary r = SummarizeIntervals(ops, kSecond, 30, steal);
  EXPECT_EQ(r.host_disturbed, 22);
  EXPECT_EQ(r.intervals, 10);
  EXPECT_EQ(r.pool_ops, 1100);
}

TEST(IntervalSummaryTest, LatencyPoolSkipsStallsNotSlowIntervals) {
  // Interval 0 is fast but two percent of its ops stall to 1.25 ms;
  // interval 1 is uniformly 0.3 ms slower, with no tail. The pool (1,000
  // ops, one interval) takes interval 1: its p99 stands least above its
  // p50, though its p99 is the higher of the two.
  std::vector<OpRecord> ops = SteadyOps(2, 1000, 1.0);
  for (size_t i = 0; i < 1000; i += 50) ops[i].latency_ns = 1'250'000;
  for (size_t i = 1000; i < 2000; ++i) ops[i].latency_ns += 300'000;
  const IntervalSummary r = SummarizeIntervals(ops, kSecond, 2, {});
  EXPECT_EQ(r.pool_ops, 1000);
  EXPECT_NEAR(r.p50_ms, 1.349, 1e-9);
  EXPECT_NEAR(r.p99_ms, 1.398, 1e-9);
}

TEST(IntervalSummaryTest, SystematicTailShowsInEveryInterval) {
  std::vector<OpRecord> ops = SteadyOps(10, 1000, 1.0);
  // Two percent of every interval wait for a slow path: 5 ms.
  for (size_t i = 0; i < ops.size(); i += 50) ops[i].latency_ns = 5'000'000;
  EXPECT_NEAR(SummarizeIntervals(ops, kSecond, 10, {}).p99_ms, 5.0, 1e-9);
}

TEST(IntervalSummaryTest, BehindScheduleIntervalsAreInvalidNotSlow) {
  std::vector<OpRecord> ops = SteadyOps(10, 1000, 1.0);
  const double clean = SummarizeIntervals(ops, kSecond, 10, {}).p99_ms;
  // The generator is descheduled for 20 ms in four intervals: the op
  // behind the gap goes out 20 ms late, those behind it wait their turn.
  // Those intervals are left out.
  for (int64_t k : {1, 3, 4, 8}) {
    for (int64_t i = 0; i < 25; ++i) {
      OpRecord& op = ops[static_cast<size_t>(k * 1000 + 100 + i)];
      op.send_lag_ns = 20'000'000 - i * 800'000;
      if (i == 0) op.own_lag_ns = op.send_lag_ns;
      op.latency_ns += op.send_lag_ns;
    }
  }
  IntervalSummary r = SummarizeIntervals(ops, kSecond, 10, {});
  EXPECT_EQ(r.behind_schedule, 4);
  EXPECT_EQ(r.intervals, 6);
  EXPECT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.p99_ms, clean);
  // Behind in nine intervals of ten: the on-schedule one stands in, and
  // the figures still rest on the load as scheduled.
  for (int64_t k : {0, 2, 5, 6, 7}) {
    ops[static_cast<size_t>(k * 1000)].own_lag_ns = 2'000'000;
  }
  r = SummarizeIntervals(ops, kSecond, 10, {});
  EXPECT_EQ(r.behind_schedule, 9);
  EXPECT_EQ(r.intervals, 1);
  EXPECT_TRUE(r.valid);
  // Behind in all ten: no interval offered the scheduled load, every one
  // stands in and the run is flagged invalid.
  ops[static_cast<size_t>(9 * 1000)].own_lag_ns = 2'000'000;
  r = SummarizeIntervals(ops, kSecond, 10, {});
  EXPECT_EQ(r.behind_schedule, 10);
  EXPECT_EQ(r.intervals, 10);
  EXPECT_FALSE(r.valid);
  // A lag within kMaxSendLagNs is on schedule.
  std::vector<OpRecord> near = SteadyOps(2, 1000, 1.0);
  near[5].own_lag_ns = kMaxSendLagNs;
  EXPECT_EQ(SummarizeIntervals(near, kSecond, 2, {}).behind_schedule, 0);
}

TEST(IntervalSummaryTest, LagTheProgramCausedStaysIn) {
  std::vector<OpRecord> ops = SteadyOps(10, 1000, 1.0);
  // In every interval a send blocks in the program for 2 ms: the next 20
  // ops go out late behind it and wait, but the generator itself kept its
  // schedule. Every interval stays in and the stall shows in p99.
  for (int64_t k = 0; k < 10; ++k) {
    for (int64_t i = 0; i < 20; ++i) {
      OpRecord& op = ops[static_cast<size_t>(k * 1000 + 300 + i)];
      op.send_lag_ns = 2'000'000 - i * 50'000;
      op.own_lag_ns = 0;
      op.latency_ns += op.send_lag_ns;
    }
  }
  const IntervalSummary r = SummarizeIntervals(ops, kSecond, 10, {});
  EXPECT_EQ(r.behind_schedule, 0);
  EXPECT_EQ(r.intervals, 10);
  EXPECT_TRUE(r.valid);
  EXPECT_GT(r.p99_ms, 2.0);
}

TEST(IntervalSummaryTest, IgnoresOpsOutsideTheSpan) {
  std::vector<OpRecord> ops = SteadyOps(3, 1000, 1.0);
  ops.push_back(OpRecord{5 * kSecond, 900'000'000, true});
  const IntervalSummary r = SummarizeIntervals(ops, kSecond, 3, {});
  EXPECT_EQ(r.intervals, 3);
  EXPECT_LT(r.p99_ms, 2.0);
}

TEST(OpenLoopTest, LateSendDelayCountsIntoLaterOps) {
  // Fake clock: sleeping jumps to the deadline; op 3's send blocks for
  // 50 ms (a stall). Ops 4.. are sent late, and their latency measured
  // from the due time includes the wait behind the stall.
  int64_t clock = 0;
  const int64_t rate = 1000;  // one op per ms
  std::vector<int64_t> due, sent, ready, done, prepared;
  RunOpenLoop(
      10, rate, 0, [&] { return clock; },
      [&](int64_t deadline) { clock = std::max(clock, deadline); },
      [&](int64_t i) { prepared.push_back(i); },
      [&](int64_t i, int64_t d, int64_t s, int64_t r) {
        due.push_back(d);
        sent.push_back(s);
        ready.push_back(r);
        clock += (i == 3) ? 50'000'000 : 10'000;  // send cost
        done.push_back(clock);
      });
  ASSERT_EQ(due.size(), 10u);
  ASSERT_EQ(prepared.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(due[i], i * 1'000'000);
  // Before the stall every op goes out on time.
  for (int64_t i = 0; i <= 3; ++i) EXPECT_EQ(sent[i], due[i]);
  // Every op behind the stall went out when the stall ended (53 ms), long
  // after it was due, and its latency from the due time carries the wait.
  for (int64_t i = 4; i < 10; ++i) {
    EXPECT_GT(sent[i], due[i]);
    EXPECT_GE(sent[i], 53'000'000);
    const double latency_ms = static_cast<double>(done[i] - due[i]) / 1e6;
    EXPECT_GT(latency_ms, 53.0 - static_cast<double>(i));
    // The wait was the program's: the generator sent each op as soon as
    // the previous send returned, so none of the lag is its own.
    EXPECT_EQ(ready[i], done[i - 1]);
    EXPECT_EQ(sent[i] - ready[i], 0);
  }
}

TEST(OpenLoopTest, DescheduledGeneratorLagIsItsOwn) {
  // The wait for op 2's due time overshoots by 3 ms (the generator was
  // descheduled): that lateness is the generator's own, and op 3, sent
  // behind op 2, is late only by op 2's send.
  int64_t clock = 0;
  std::vector<int64_t> sent, ready;
  RunOpenLoop(
      4, 1000, 0, [&] { return clock; },
      [&](int64_t deadline) {
        clock = std::max(clock, deadline) +
                (deadline == 2'000'000 ? 3'000'000 : 0);
      },
      [&](int64_t) {},
      [&](int64_t, int64_t, int64_t s, int64_t r) {
        sent.push_back(s);
        ready.push_back(r);
        clock += 10'000;
      });
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(ready[2], 2'000'000);
  EXPECT_EQ(sent[2] - ready[2], 3'000'000);
  EXPECT_EQ(ready[3], 5'010'000);
  EXPECT_EQ(sent[3] - ready[3], 0);
}

TEST(OpenLoopTest, DueTimesAreExact) {
  EXPECT_EQ(DueNs(0, 1200), 0);
  EXPECT_EQ(DueNs(1200, 1200), kSecond);
  EXPECT_EQ(DueNs(600, 1200), kSecond / 2);
}

TEST(ByteCheckTest, CatchesOneBitFlip) {
  stwa::Tensor want = stwa::Tensor::Arange(48, 1.5f, 0.25f).Reshape({4, 12});
  stwa::Tensor got = want.Clone();
  EXPECT_TRUE(SameBytes(got, want.data(), want.size()));
  uint32_t bits;
  std::memcpy(&bits, got.data() + 17, sizeof(bits));
  bits ^= 1u;  // lowest mantissa bit
  std::memcpy(got.data() + 17, &bits, sizeof(bits));
  EXPECT_FALSE(SameBytes(got, want.data(), want.size()));
  EXPECT_FALSE(SameBytes(want, want.data(), 47));  // size differs
}

TEST(ByteCheckTest, NegativeZeroIsNotZero) {
  stwa::Tensor a = stwa::Tensor::Zeros({2});
  stwa::Tensor b = stwa::Tensor::Zeros({2});
  b.data()[1] = -0.0f;  // equal as floats, different bytes
  EXPECT_FALSE(SameBytes(a, b.data(), b.size()));
}

TEST(OpTallyTest, CountsFailures) {
  OpTally tally;
  EXPECT_TRUE(tally.Count(true));
  EXPECT_FALSE(tally.Count(false));
  tally.Count(std::isfinite(std::nanf("")));  // non-finite training loss
  tally.Count(true);
  EXPECT_EQ(tally.attempted, 4);
  EXPECT_EQ(tally.failed, 2);
}

TEST(SummarizeTest, ReportsGeneratorLag) {
  std::vector<OpRecord> ops = SteadyOps(1, 1000, 1.0);
  for (int i = 0; i < 20; ++i) ops[static_cast<size_t>(i)].send_lag_ns = 3'000'000;
  const PhaseSummary s = Summarize(ops, kSecond, 1, {});
  EXPECT_DOUBLE_EQ(s.late_p99_ms, 3.0);
  EXPECT_EQ(s.ops, 1000);
}

TEST(OpTallyTest, FailedOpsMissEveryLatencyLimit) {
  std::vector<OpRecord> ops = SteadyOps(1, 100, 1.0);
  for (int i = 0; i < 60; ++i) ops[static_cast<size_t>(i)].ok = false;
  const PhaseSummary s = Summarize(ops, kSecond, 1, {});
  EXPECT_EQ(s.ok_ops, 40);
  EXPECT_DOUBLE_EQ(s.intervals.throughput_per_s, 40.0);
  EXPECT_TRUE(std::isinf(s.intervals.p50_ms));
  EXPECT_TRUE(std::isinf(s.intervals.p99_ms));
}

TEST(ResultJsonTest, WritesEveryMetricAndKeepsJsonFinite) {
  Outcome out;
  out.tally.Count(true);
  out.tally.Count(false);
  out.correct = false;
  out.Add("p50_ms", 1.25, "ms");
  out.Add("p99_ms", std::numeric_limits<double>::infinity(), "ms");
  EXPECT_EQ(ResultJson(out),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"p99_ms\": {\"value\": 1000000000000, \"unit\": \"ms\"}}}");
}

TEST(TraceTest, SelfTimeSubtractsChildren) {
  SpanLog log;
  log.Add(1, "fleet.op", "", 0, 1000);
  log.Add(1, "fleet.enqueue", "fleet.op", 100, 300);
  log.Add(1, "serve.wait", "fleet.op", 300, 900);
  log.Add(2, "fleet.op", "", 0, 2000);
  const std::vector<Span>& spans = log.spans();
  EXPECT_DOUBLE_EQ(MedianDurationUs(spans, "fleet.enqueue"), 0.2);
  // Op 1: 1000 - 800 = 200 ns; op 2: 2000 ns; median (nearest rank) 0.2 us.
  EXPECT_DOUBLE_EQ(MedianSelfUs(spans, "fleet.op"), 0.2);
  EXPECT_EQ(CountSpans(spans, {"fleet."}), 3);
  EXPECT_EQ(CountSpans(spans, {"train."}), 0);
}

}  // namespace
}  // namespace perfbench
