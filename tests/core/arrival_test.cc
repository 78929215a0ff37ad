#include "core/arrival.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/latency_model.h"
#include "db/property_catalog.h"
#include "core/runner.h"
#include "core/suite.h"
#include "db/db_factory.h"

namespace ycsbt {
namespace core {
namespace {

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

ArrivalOptions RateOnly(double rate) {
  ArrivalOptions options;
  options.rate = rate;
  return options;
}

std::vector<uint64_t> FirstArrivals(ArrivalSchedule* schedule, size_t n) {
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(schedule->PeekNs());
    schedule->Pop();
  }
  return out;
}

// --- options parsing ---

TEST(ArrivalOptionsTest, DefaultsAreClosedLoop) {
  ArrivalOptions options;
  ASSERT_TRUE(ArrivalOptions::FromProperties(Properties(), &options).ok());
  EXPECT_FALSE(options.open_loop());
  EXPECT_EQ(options.process, ArrivalOptions::Process::kExponential);
  EXPECT_EQ(options.shape, ArrivalOptions::Shape::kConstant);
  EXPECT_EQ(options.max_backlog, 1024u);
}

TEST(ArrivalOptionsTest, ParsesTheFullNamespace) {
  ArrivalOptions options;
  Properties props = Props({{"arrival.rate", "500"},
                            {"arrival.process", "fixed"},
                            {"arrival.max_backlog", "16"},
                            {"arrival.shape", "flash_crowd"},
                            {"arrival.flash.at_s", "0.5"},
                            {"arrival.flash.duration_s", "0.25"},
                            {"arrival.flash.multiplier", "8"}});
  ASSERT_TRUE(ArrivalOptions::FromProperties(props, &options).ok());
  EXPECT_TRUE(options.open_loop());
  EXPECT_DOUBLE_EQ(options.rate, 500.0);
  EXPECT_EQ(options.process, ArrivalOptions::Process::kFixed);
  EXPECT_EQ(options.max_backlog, 16u);
  EXPECT_EQ(options.shape, ArrivalOptions::Shape::kFlashCrowd);
  EXPECT_DOUBLE_EQ(options.flash_at_s, 0.5);
  EXPECT_DOUBLE_EQ(options.flash_duration_s, 0.25);
  EXPECT_DOUBLE_EQ(options.flash_multiplier, 8.0);
}

TEST(ArrivalOptionsTest, RejectsInvalidValues) {
  ArrivalOptions options;
  EXPECT_TRUE(ArrivalOptions::FromProperties(Props({{"arrival.rate", "-1"}}),
                                             &options)
                  .IsInvalidArgument());
  EXPECT_TRUE(ArrivalOptions::FromProperties(
                  Props({{"arrival.process", "uniform"}}), &options)
                  .IsInvalidArgument());
  EXPECT_TRUE(ArrivalOptions::FromProperties(
                  Props({{"arrival.shape", "sawtooth"}}), &options)
                  .IsInvalidArgument());
  EXPECT_TRUE(ArrivalOptions::FromProperties(
                  Props({{"arrival.max_backlog", "0"}}), &options)
                  .IsInvalidArgument());
  EXPECT_TRUE(ArrivalOptions::FromProperties(
                  Props({{"arrival.diurnal.low_frac", "1.5"}}), &options)
                  .IsInvalidArgument());
}

TEST(ArrivalOptionsTest, EveryArrivalKeyIsRegistered) {
  for (const char* key :
       {"arrival.rate", "arrival.process", "arrival.max_backlog",
        "arrival.shape", "arrival.diurnal.period_s", "arrival.diurnal.low_frac",
        "arrival.flash.at_s", "arrival.flash.duration_s",
        "arrival.flash.multiplier", "arrival.hotspot_shift.at_s",
        "arrival.hotspot_shift.multiplier"}) {
    EXPECT_NE(FindPropertyDecl(AllPropertyLists(), key), nullptr) << key;
  }
}

// --- traffic shapes ---

TEST(ArrivalRateAtTest, ConstantShapeIsFlat) {
  ArrivalOptions options = RateOnly(100.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 42.0), 100.0);
}

TEST(ArrivalRateAtTest, DiurnalStartsAtTroughPeaksAtHalfPeriod) {
  ArrivalOptions options = RateOnly(100.0);
  options.shape = ArrivalOptions::Shape::kDiurnal;
  options.diurnal_period_s = 10.0;
  options.diurnal_low_frac = 0.25;
  EXPECT_NEAR(ArrivalRateAt(options, 0.0), 25.0, 1e-9);
  EXPECT_NEAR(ArrivalRateAt(options, 5.0), 100.0, 1e-9);
  EXPECT_NEAR(ArrivalRateAt(options, 10.0), 25.0, 1e-9);
  // Monotone rise over the first half period.
  EXPECT_LT(ArrivalRateAt(options, 1.0), ArrivalRateAt(options, 2.5));
  EXPECT_LT(ArrivalRateAt(options, 2.5), ArrivalRateAt(options, 4.0));
}

TEST(ArrivalRateAtTest, FlashCrowdIsATransientWindow) {
  ArrivalOptions options = RateOnly(100.0);
  options.shape = ArrivalOptions::Shape::kFlashCrowd;
  options.flash_at_s = 2.0;
  options.flash_duration_s = 1.0;
  options.flash_multiplier = 4.0;
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 1.9), 100.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 2.0), 400.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 2.9), 400.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 3.0), 100.0);
}

TEST(ArrivalRateAtTest, HotspotShiftIsASustainedStep) {
  ArrivalOptions options = RateOnly(100.0);
  options.shape = ArrivalOptions::Shape::kHotspotShift;
  options.shift_at_s = 1.5;
  options.shift_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 1.5), 200.0);
  EXPECT_DOUBLE_EQ(ArrivalRateAt(options, 100.0), 200.0);
}

TEST(ArrivalRateAtTest, RateIsClampedAwayFromZero) {
  ArrivalOptions options = RateOnly(100.0);
  options.shape = ArrivalOptions::Shape::kDiurnal;
  options.diurnal_low_frac = 0.0;  // trough would be rate zero
  EXPECT_GT(ArrivalRateAt(options, 0.0), 0.0);
}

// --- schedules ---

TEST(ArrivalScheduleTest, SameSeedReplaysTheSameSchedule) {
  ArrivalOptions options = RateOnly(1000.0);
  ArrivalSchedule a(options, 42, 0, 2);
  ArrivalSchedule b(options, 42, 0, 2);
  EXPECT_EQ(FirstArrivals(&a, 200), FirstArrivals(&b, 200));
}

TEST(ArrivalScheduleTest, ThreadsAndSeedsDrawDistinctSchedules) {
  ArrivalOptions options = RateOnly(1000.0);
  ArrivalSchedule thread0(options, 42, 0, 2);
  ArrivalSchedule thread1(options, 42, 1, 2);
  ArrivalSchedule other_seed(options, 43, 0, 2);
  std::vector<uint64_t> base = FirstArrivals(&thread0, 50);
  EXPECT_NE(base, FirstArrivals(&thread1, 50));
  EXPECT_NE(base, FirstArrivals(&other_seed, 50));
}

TEST(ArrivalScheduleTest, ArrivalsAreStrictlyIncreasing) {
  ArrivalOptions options = RateOnly(5000.0);
  ArrivalSchedule schedule(options, 7, 0, 1);
  uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t next = schedule.PeekNs();
    EXPECT_GT(next, prev);
    prev = next;
    schedule.Pop();
  }
}

TEST(ArrivalScheduleTest, ExponentialMeanGapMatchesTheRate) {
  ArrivalOptions options = RateOnly(1000.0);  // mean gap 1 ms
  ArrivalSchedule schedule(options, 42, 0, 1);
  const int kDraws = 20000;
  std::vector<uint64_t> arrivals = FirstArrivals(&schedule, kDraws);
  double mean_gap_ns =
      static_cast<double>(arrivals.back()) / static_cast<double>(kDraws);
  EXPECT_NEAR(mean_gap_ns, 1e6, 1e5);  // within 10% of 1 ms
}

TEST(ArrivalScheduleTest, FixedProcessIsEvenlySpaced) {
  ArrivalOptions options = RateOnly(1000.0);
  options.process = ArrivalOptions::Process::kFixed;
  ArrivalSchedule schedule(options, 42, 0, 1);
  std::vector<uint64_t> arrivals = FirstArrivals(&schedule, 10);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(arrivals[i] - arrivals[i - 1]), 1e6, 10.0);
  }
}

TEST(ArrivalScheduleTest, FixedProcessStaggersThreads) {
  ArrivalOptions options = RateOnly(1000.0);
  options.process = ArrivalOptions::Process::kFixed;
  // Aggregate 1000/s over 4 threads: thread t's stream starts offset by
  // t/1000 s, so the merged stream is evenly spaced, not 4-wide bursts.
  ArrivalSchedule t0(options, 42, 0, 4);
  ArrivalSchedule t1(options, 42, 1, 4);
  uint64_t first0 = t0.PeekNs();
  uint64_t first1 = t1.PeekNs();
  EXPECT_NEAR(static_cast<double>(first1 - first0), 1e6, 10.0);
}

TEST(ArrivalScheduleTest, FlashCrowdCompressesGapsDuringTheFlash) {
  ArrivalOptions options = RateOnly(200.0);
  options.process = ArrivalOptions::Process::kFixed;
  options.shape = ArrivalOptions::Shape::kFlashCrowd;
  options.flash_at_s = 1.0;
  options.flash_duration_s = 1.0;
  options.flash_multiplier = 4.0;
  ArrivalSchedule schedule(options, 42, 0, 1);
  uint64_t in_base = 0, in_flash = 0;
  uint64_t prev = 0;
  for (int i = 0; i < 2000 && schedule.PeekNs() < 3'000'000'000ull; ++i) {
    uint64_t at = schedule.PeekNs();
    if (prev != 0) {
      if (at < 1'000'000'000ull) {
        ++in_base;
      } else if (at < 2'000'000'000ull) {
        ++in_flash;
      }
    }
    prev = at;
    schedule.Pop();
  }
  // 200/s for the first second, 800/s during the flash second.
  EXPECT_NEAR(static_cast<double>(in_base), 200.0, 5.0);
  EXPECT_NEAR(static_cast<double>(in_flash), 800.0, 5.0);
}

// --- runner integration ---

/// Workload whose every transaction takes a configurable service time; the
/// knob that makes the offered arrival rate exceed capacity on demand.
class SlowWorkload : public Workload {
 public:
  Status Init(const Properties&) override { return Status::OK(); }

  bool DoInsert(DB&, ThreadState*) override { return true; }

  TxnOpResult DoTransaction(DB&, ThreadState*) override {
    transactions.fetch_add(1, std::memory_order_relaxed);
    if (service_us > 0) SleepMicros(service_us);
    return TxnOpResult{true, "SLOW"};
  }

  uint64_t record_count() const override { return 1; }

  uint64_t service_us = 0;
  std::atomic<uint64_t> transactions{0};
};

class ArrivalRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    factory_ = std::make_unique<DBFactory>(Props({{"db", "memkv"}}));
    ASSERT_TRUE(factory_->Init().ok());
  }

  std::unique_ptr<DBFactory> factory_;
  Measurements measurements_;
};

TEST_F(ArrivalRunnerTest, IntendedStartLatencyExposesCoordinatedOmission) {
  SlowWorkload w;
  w.service_us = 4000;  // 250/s capacity against a 1000/s offered rate
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 60;
  run.arrival.rate = 1000.0;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());

  ASSERT_TRUE(result.Counter("ARRIVAL DROPS").has_value());
  OpStats actual = measurements_.SnapshotOp("TX-SLOW");
  OpStats intended = measurements_.SnapshotOp("TX-SLOW-INTENDED");
  ASSERT_EQ(actual.operations, 60u);
  ASSERT_EQ(intended.operations, 60u);
  // The backlog grows for the whole run, so latency measured from the
  // *intended* start must sit strictly above the actual-start series — the
  // coordinated-omission gap the closed-loop stopwatch cannot see.
  EXPECT_GT(intended.average_latency_us, actual.average_latency_us);
  EXPECT_GT(intended.p99_latency_us, actual.p99_latency_us);
  EXPECT_GT(result.Counter("SCHED-LAG MAX(us)"), 0u);
  EXPECT_GT(result.Counter("BACKLOG PEAK"), 0u);
  // The scheduler-lag series recorded one sample per executed transaction.
  EXPECT_EQ(measurements_.SnapshotOp("SCHED-LAG").operations, 60u);
}

TEST_F(ArrivalRunnerTest, KeepingUpMeansNoLagAndNoDrops) {
  SlowWorkload w;  // instant service
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 2;
  run.operation_count = 100;
  run.arrival.rate = 2000.0;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(result.operations, 100u);
  EXPECT_EQ(result.Counter("ARRIVAL DROPS"), 0u);
  // ~50 arrivals per thread at 1000/s each: the run should take ~50 ms.
  EXPECT_GT(result.runtime_ms, 25.0);
}

TEST_F(ArrivalRunnerTest, BacklogOverflowDropsConsumeQuota) {
  SlowWorkload w;
  w.service_us = 3000;  // ~333/s capacity against 4000/s offered
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 120;
  run.arrival.rate = 4000.0;
  run.arrival.max_backlog = 4;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());

  // Every quota slot was either executed or dropped — overload cannot make
  // the run overshoot its budget or spin forever.
  EXPECT_GT(result.Counter("ARRIVAL DROPS"), 0u);
  EXPECT_EQ(result.operations + result.Counter("ARRIVAL DROPS").value(), 120u);
  EXPECT_EQ(w.transactions.load(), result.operations);
  EXPECT_EQ(measurements_.SnapshotOp("ARRIVAL-DROP").operations,
            result.Counter("ARRIVAL DROPS"));
  EXPECT_LE(result.Counter("BACKLOG PEAK").value(), 4u);
  // The drops surface in the exported summary.
  RunSummary summary = result.MakeSummary();
  EXPECT_TRUE(summary.open_loop);
  EXPECT_EQ(FindCounter(summary.counters, "ARRIVAL DROPS"),
            result.Counter("ARRIVAL DROPS"));
}

TEST_F(ArrivalRunnerTest, FullBacklogFlipsTheBrownoutShedPath) {
  SlowWorkload w;
  w.service_us = 3000;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 120;
  run.arrival.rate = 4000.0;
  run.arrival.max_backlog = 4;
  run.shed.enabled = true;
  run.shed.drop_read_only = false;
  run.shed.max_inflight = 0;  // only the backlog trigger sheds here
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  // Once the backlog fills, admission flips to the shed path: some quota
  // slots are shed instead of executed (plus the drops from overflow).
  ASSERT_TRUE(result.Counter("SHED TXNS").has_value());
  EXPECT_GT(result.Counter("SHED TXNS").value() +
                result.Counter("ARRIVAL DROPS").value(),
            0u);
  EXPECT_EQ(w.transactions.load(), result.operations);
}

TEST_F(ArrivalRunnerTest, OpenLoopIntervalsCarryArrivalColumns) {
  SlowWorkload w;
  w.service_us = 2000;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 80;
  run.arrival.rate = 2000.0;
  run.status_interval_seconds = 0.05;
  run.status_callback = [](double, uint64_t, double) {};
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  ASSERT_FALSE(result.intervals.empty());
  double max_lag = 0.0;
  for (const auto& window : result.intervals) {
    max_lag = std::max(max_lag, window.sched_lag_avg_us);
  }
  EXPECT_GT(max_lag, 0.0);  // the scheduler fell behind and the series saw it
}

TEST_F(ArrivalRunnerTest, SameSeedRunsReplayTheDropAccounting) {
  RunResult first, second;
  for (RunResult* result : {&first, &second}) {
    SlowWorkload w;
    w.service_us = 2000;
    Measurements measurements;
    WorkloadRunner runner(factory_.get(), &w, &measurements);
    RunOptions run;
    run.threads = 1;
    run.operation_count = 80;
    run.arrival.rate = 4000.0;
    run.arrival.max_backlog = 8;
    ASSERT_TRUE(runner.Run(run, result).ok());
  }
  // The arrival schedule is seeded, so the executed/dropped split of two
  // same-seed overload runs matches (service time is wall-clock, so exact
  // per-op timing may differ, but the quota accounting must hold in both).
  EXPECT_EQ(first.operations + first.Counter("ARRIVAL DROPS").value(), 80u);
  EXPECT_EQ(second.operations + second.Counter("ARRIVAL DROPS").value(), 80u);
}

// --- suite integration ---

TEST(ArrivalSuiteTest, SweepArrivalRateExpandsIntoOpenLoopRuns) {
  Properties file;
  file.Set("suite.name", "openloop");
  file.Set("base.db", "memkv");
  file.Set("base.recordcount", "10");
  file.Set("base.operationcount", "50");
  file.Set("sweep.arrival.rate", "100,200,400");
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
  std::vector<SuiteRun> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 3u);
  std::vector<std::string> expected = {"100", "200", "400"};
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].props.Get("arrival.rate", ""), expected[i]);
    // Each point parses into an open-loop options block.
    ArrivalOptions options;
    ASSERT_TRUE(ArrivalOptions::FromProperties(runs[i].props, &options).ok());
    EXPECT_TRUE(options.open_loop());
    // The sweep leaf names the run, so result directories stay unique.
    EXPECT_NE(runs[i].name.find("rate" + expected[i]), std::string::npos)
        << runs[i].name;
  }
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
