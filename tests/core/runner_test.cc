#include "core/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "common/latency_model.h"
#include "core/core_workload.h"
#include "core/workload_factory.h"
#include "db/field_codec.h"
#include "db/measured_db.h"

namespace ycsbt {
namespace core {
namespace {

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

/// Workload stub that counts calls; lets runner tests assert scheduling
/// behaviour without a real store.
class CountingWorkload : public Workload {
 public:
  Status Init(const Properties&) override { return Status::OK(); }

  bool BuildNextInsert(ThreadState*, LoadRecord*) override {
    inserts.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  TxnOpResult DoTransaction(DB&, ThreadState*) override {
    transactions.fetch_add(1, std::memory_order_relaxed);
    return TxnOpResult{!fail_all, "READ"};
  }

  void OnTransactionOutcome(ThreadState*, const TxnOpResult&, bool committed) override {
    (committed ? committed_outcomes : failed_outcomes)
        .fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t record_count() const override { return records; }

  uint64_t records = 100;
  bool fail_all = false;
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> transactions{0};
  std::atomic<uint64_t> committed_outcomes{0};
  std::atomic<uint64_t> failed_outcomes{0};
};

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    factory_ = std::make_unique<DBFactory>(Props({{"db", "memkv"}}));
    ASSERT_TRUE(factory_->Init().ok());
  }

  std::unique_ptr<DBFactory> factory_;
  Measurements measurements_;
};

TEST_F(RunnerTest, LoadInsertsExactlyRecordCountAcrossThreads) {
  CountingWorkload w;
  w.records = 103;  // not divisible by thread count
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  LoadOptions load;
  load.threads = 4;
  ASSERT_TRUE(runner.Load(load).ok());
  EXPECT_EQ(w.inserts.load(), 103u);
}

TEST_F(RunnerTest, LoadSurfacesInitFailureAndSkippedQuota) {
  CountingWorkload w;
  w.records = 40;
  DBFactory uninitialized(Props({{"db", "memkv"}}));  // Init() never called
  WorkloadRunner runner(&uninitialized, &w, &measurements_);
  LoadOptions load;
  load.threads = 4;
  Status s = runner.Load(load);
  ASSERT_TRUE(s.IsInternal());
  // The cause and the un-inserted quota both appear, instead of the seed's
  // silent return with a bare "client init failed".
  EXPECT_NE(s.message().find("factory returned no client"), std::string::npos);
  EXPECT_NE(s.message().find("skipped 40 inserts"), std::string::npos);
  EXPECT_EQ(w.inserts.load(), 0u);
}

TEST_F(RunnerTest, RunExecutesExactOperationBudget) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 3;
  run.operation_count = 1000;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(result.operations, 1000u);
  EXPECT_EQ(w.transactions.load(), 1000u);
  EXPECT_EQ(result.committed, 1000u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.throughput_ops_sec, 0.0);
}

TEST_F(RunnerTest, RunWithoutBoundsIsRejected) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunResult result;
  EXPECT_TRUE(runner.Run(RunOptions{}, &result).IsInvalidArgument());
}

TEST_F(RunnerTest, TimeBoundStopsUnboundedRun) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 2;
  run.operation_count = 0;  // unbounded
  run.max_execution_seconds = 0.3;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_GT(result.operations, 0u);
  EXPECT_GE(result.runtime_ms, 250.0);
  EXPECT_LT(result.runtime_ms, 5000.0);
}

TEST_F(RunnerTest, FailedTransactionsAreAborted) {
  CountingWorkload w;
  w.fail_all = true;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.operation_count = 50;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(result.failed, 50u);
  EXPECT_EQ(result.committed, 0u);
  EXPECT_EQ(w.failed_outcomes.load(), 50u);
  // With wrapping on, every failed workload op must have called Abort.
  EXPECT_EQ(measurements_.SnapshotOp(opname::kAbort).operations, 50u);
  EXPECT_EQ(measurements_.SnapshotOp(opname::kCommit).operations, 0u);
}

TEST_F(RunnerTest, WrappingEmitsStartAndCommitSeries) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.operation_count = 20;
  run.wrap_in_transactions = true;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(measurements_.SnapshotOp(opname::kStart).operations, 20u);
  EXPECT_EQ(measurements_.SnapshotOp(opname::kCommit).operations, 20u);
  EXPECT_EQ(measurements_.SnapshotOp("TX-READ").operations, 20u);
}

// A client thread hands its measurement sink back at exit and a later
// thread reuses it: repeated runs on one registry never hold more sinks than
// one run's threads, and the series still count every round.
TEST_F(RunnerTest, RepeatedRunsReuseTheirSinks) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 3;
  run.operation_count = 300;
  for (uint64_t round = 1; round <= 5; ++round) {
    RunResult result;
    ASSERT_TRUE(runner.Run(run, &result).ok());
    EXPECT_LE(measurements_.sink_count(), 3u) << "round " << round;
    EXPECT_EQ(measurements_.SnapshotOp("TX-READ").operations, 300 * round);
  }
}

TEST_F(RunnerTest, UnwrappedRunEmitsNoTransactionSeries) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.operation_count = 20;
  run.wrap_in_transactions = false;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(measurements_.SnapshotOp(opname::kStart).operations, 0u);
  EXPECT_EQ(measurements_.SnapshotOp(opname::kCommit).operations, 0u);
  // The whole-op series still exists (it measures the workload op itself).
  EXPECT_EQ(measurements_.SnapshotOp("TX-READ").operations, 20u);
}

TEST_F(RunnerTest, TargetThroughputIsRoughlyHonoured) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 2;
  run.operation_count = 200;
  run.target_ops_per_sec = 1000.0;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  // 200 ops at 1000/s should take ~0.2 s; allow generous slack.
  EXPECT_GT(result.runtime_ms, 120.0);
  EXPECT_LT(result.throughput_ops_sec, 2000.0);
}

TEST_F(RunnerTest, OutcomeHookSeesCommitVerdict) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.operation_count = 30;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(w.committed_outcomes.load(), 30u);
  EXPECT_EQ(w.failed_outcomes.load(), 0u);
}

TEST_F(RunnerTest, StatusCallbackSamplesProgress) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 2;
  run.operation_count = 0;
  run.max_execution_seconds = 0.35;
  run.status_interval_seconds = 0.1;
  std::atomic<int> samples{0};
  std::atomic<uint64_t> last_ops{0};
  run.status_callback = [&](double elapsed, uint64_t ops, double rate) {
    EXPECT_GT(elapsed, 0.0);
    EXPECT_GE(ops, last_ops.load());
    EXPECT_GE(rate, 0.0);
    last_ops.store(ops);
    samples.fetch_add(1);
  };
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_GE(samples.load(), 2);
  EXPECT_LE(samples.load(), 6);
}

TEST_F(RunnerTest, IntervalSeriesPartitionsTheRun) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 2;
  run.operation_count = 0;
  run.max_execution_seconds = 0.45;
  run.status_interval_seconds = 0.1;
  run.status_callback = [](double, uint64_t, double) {};
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());

  ASSERT_FALSE(result.intervals.empty());
  double prev_end = 0.0;
  uint64_t window_sum = 0;
  for (const auto& window : result.intervals) {
    EXPECT_GT(window.end_seconds, prev_end);  // monotone in elapsed time
    EXPECT_GE(window.ops_per_sec, 0.0);
    EXPECT_GE(window.avg_latency_us, 0.0);
    prev_end = window.end_seconds;
    window_sum += window.operations;
  }
  // The windows partition the run: no sample is dropped or double-counted.
  EXPECT_EQ(window_sum, result.operations);
  // The series also lands in the summary for the exporters.
  EXPECT_EQ(result.MakeSummary().intervals.size(), result.intervals.size());
}

TEST_F(RunnerTest, ThrottledThreadIsNotMistakenForAStall) {
  // Regression: the pacing sleep used to be one unsliced nap, so a low-rate
  // throttled thread never ticked its wait-progress channel and the watchdog
  // flagged it as stalled.  At 5 ops/s each 200 ms pacing gap spans several
  // 50 ms status windows.
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 4;
  run.target_ops_per_sec = 5.0;
  run.status_interval_seconds = 0.05;
  run.stall_windows = 2;
  run.status_callback = [](double, uint64_t, double) {};
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(result.operations, 4u);
  EXPECT_EQ(result.Counter("WATCHDOG STALLS"), 0u);
}

TEST_F(RunnerTest, LateStatusWakeUpIsNotAStall) {
  // Regression: a status thread that woke late judged its missed windows
  // back to back, 5 ms apart, and a throttled client whose pacing wait ticks
  // every 20 ms showed no progress across two of them.  The callback below
  // holds the status thread for ~10 windows once; the client keeps ticking
  // throughout, so the catch-up must not be judged a stall.
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 6;
  run.target_ops_per_sec = 5.0;
  run.status_interval_seconds = 0.05;
  run.stall_windows = 2;
  bool blocked = false;
  run.status_callback = [&blocked](double, uint64_t, double) {
    if (blocked) return;
    blocked = true;
    SleepMicros(500'000);
  };
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_TRUE(blocked);
  EXPECT_EQ(result.operations, 6u);
  EXPECT_EQ(result.Counter("WATCHDOG STALLS"), 0u);
}

TEST_F(RunnerTest, StuckThreadIsFlagged) {
  // The positive path: a transaction that sits silent for many times
  // `stall_windows` windows ticks no progress channel and must be flagged.
  class StuckOnceWorkload : public CountingWorkload {
   public:
    TxnOpResult DoTransaction(DB& db, ThreadState* state) override {
      if (transactions.load(std::memory_order_relaxed) == 0) SleepMicros(400'000);
      return CountingWorkload::DoTransaction(db, state);
    }
  };
  StuckOnceWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 3;
  run.status_interval_seconds = 0.02;
  run.stall_windows = 2;
  run.status_callback = [](double, uint64_t, double) {};
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_EQ(result.operations, 3u);
  EXPECT_GE(result.Counter("WATCHDOG STALLS"), 1u);
}

TEST_F(RunnerTest, PacingNeverOvershootsTheTarget) {
  // Regression: the pacing sleep truncated the sub-microsecond remainder of
  // each gap, waking early and letting the achieved rate creep above the
  // target.  The sliced wait rounds up and re-checks the deadline instead.
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 1;
  run.operation_count = 250;
  run.target_ops_per_sec = 2500.0;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  // 250 ops at 2500/s is >= ~99.6 ms of pacing (the first op is unpaced).
  EXPECT_GE(result.runtime_ms, 99.0);
  EXPECT_LE(result.throughput_ops_sec, 2500.0 * 1.05);
}

TEST_F(RunnerTest, ClosingWindowAlwaysReachesTheRuntime) {
  // Regression: a tail window with zero completed transactions was silently
  // dropped, so the interval series could stop short of the run's end.  The
  // closing window is now emitted whenever time advanced past the last tick.
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.threads = 2;
  run.operation_count = 0;
  run.max_execution_seconds = 0.3;
  run.status_interval_seconds = 0.1;
  run.status_callback = [](double, uint64_t, double) {};
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  ASSERT_FALSE(result.intervals.empty());
  EXPECT_DOUBLE_EQ(result.intervals.back().end_seconds,
                   result.runtime_ms / 1000.0);
  uint64_t window_sum = 0;
  for (const auto& window : result.intervals) window_sum += window.operations;
  EXPECT_EQ(window_sum, result.operations);
}

TEST_F(RunnerTest, NoStatusIntervalMeansNoSeries) {
  CountingWorkload w;
  WorkloadRunner runner(factory_.get(), &w, &measurements_);
  RunOptions run;
  run.operation_count = 50;
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  EXPECT_TRUE(result.intervals.empty());
}

TEST_F(RunnerTest, MakeSummaryCarriesValidation) {
  RunResult result;
  result.runtime_ms = 1000;
  result.throughput_ops_sec = 42;
  result.operations = 42;
  result.validation.performed = true;
  result.validation.passed = false;
  result.validation.report = {{"ANOMALY SCORE", "0.5"}};
  RunSummary summary = result.MakeSummary();
  EXPECT_TRUE(summary.has_validation);
  EXPECT_FALSE(summary.validation_passed);
  ASSERT_EQ(summary.extra.size(), 1u);
  EXPECT_EQ(summary.extra[0].first, "ANOMALY SCORE");
}

TEST_F(RunnerTest, AbortRateComputed) {
  RunResult result;
  result.operations = 100;
  result.failed = 25;
  EXPECT_DOUBLE_EQ(result.abort_rate(), 0.25);
  RunResult empty;
  EXPECT_DOUBLE_EQ(empty.abort_rate(), 0.0);
}

/// The engine rows two load threads leave for `props` on `memkv`: per-op
/// when `bulk_batch` is 0, sorted-bulk in `bulk_batch`-record frames else.
std::vector<kv::ScanEntry> LoadedRows(Properties props, uint64_t bulk_batch) {
  props.Set("db", "memkv");
  DBFactory factory(props);
  EXPECT_TRUE(factory.Init().ok());
  std::unique_ptr<Workload> workload;
  EXPECT_TRUE(CreateWorkload(props, &workload).ok());
  Measurements measurements;
  WorkloadRunner runner(&factory, workload.get(), &measurements);
  LoadOptions load;
  load.threads = 2;
  load.bulk_batch = bulk_batch;
  EXPECT_TRUE(runner.Load(load).ok());
  std::vector<kv::ScanEntry> rows;
  EXPECT_TRUE(factory.local_engine()
                  ->Scan("", std::numeric_limits<size_t>::max(), &rows)
                  .ok());
  return rows;
}

// Each workload has one load stream, so a per-op load and a bulk load of
// the same seed write the same rows.  The values are pure functions of the
// key (core with data integrity, CEW's balances, write skew's pairs), so
// the two load threads' race for key numbers cannot change them.
TEST(LoadIdentityTest, PerOpAndBulkLoadsWriteTheSameRows) {
  const Properties workloads[] = {
      Props({{"workload", "core"}, {"recordcount", "300"},
             {"dataintegrity", "true"}, {"seed", "7"}}),
      // 300 accounts do not divide 90,007: the first holds the remainder.
      Props({{"workload", "closed_economy"}, {"recordcount", "300"},
             {"totalcash", "90007"}, {"seed", "7"}}),
      Props({{"workload", "write_skew"}, {"recordcount", "300"}, {"seed", "7"}})};
  for (const Properties& props : workloads) {
    SCOPED_TRACE(props.Get("workload", ""));
    std::vector<kv::ScanEntry> per_op = LoadedRows(props, 0);
    std::vector<kv::ScanEntry> bulk = LoadedRows(props, 64);
    ASSERT_EQ(per_op.size(), 300u);
    ASSERT_EQ(bulk.size(), per_op.size());
    for (size_t i = 0; i < per_op.size(); ++i) {
      EXPECT_EQ(bulk[i].key, per_op[i].key);
      EXPECT_EQ(bulk[i].value, per_op[i].value) << per_op[i].key;
    }
  }

  // CEW's loaded balances add up to exactly totalcash.
  for (uint64_t bulk_batch : {0, 64}) {
    int64_t total = 0;
    for (const kv::ScanEntry& row : LoadedRows(workloads[1], bulk_batch)) {
      FieldMap fields;
      ASSERT_TRUE(DecodeFields(row.value, &fields).ok());
      int64_t balance = 0;
      ASSERT_TRUE(ParseBalanceText(fields.Get("field0"), &balance));
      total += balance;
    }
    EXPECT_EQ(total, 90007) << "bulkload.batch=" << bulk_batch;
  }
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
