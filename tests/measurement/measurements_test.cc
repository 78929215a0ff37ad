#include "measurement/measurements.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ycsbt {
namespace {

/// One OK sample of `latency_us` in the series named `op`.
void RecordOk(Measurements& m, const std::string& op, int64_t latency_us) {
  m.Record(m.RegisterOp(op), latency_us, Status::Code::kOk);
}

TEST(MeasurementsTest, EmptyRegistrySnapshots) {
  Measurements m;
  EXPECT_TRUE(m.Snapshot().empty());
  OpStats s = m.SnapshotOp("READ");
  EXPECT_EQ(s.operations, 0u);
  EXPECT_EQ(s.name, "READ");
}

TEST(MeasurementsTest, MeasureAccumulates) {
  Measurements m;
  RecordOk(m, "READ", 100);
  RecordOk(m, "READ", 200);
  RecordOk(m, "READ", 300);
  OpStats s = m.SnapshotOp("READ");
  EXPECT_EQ(s.operations, 3u);
  EXPECT_DOUBLE_EQ(s.average_latency_us, 200.0);
  EXPECT_EQ(s.min_latency_us, 100);
  EXPECT_EQ(s.max_latency_us, 300);
}

TEST(MeasurementsTest, ReturnCodesCounted) {
  Measurements m;
  OpId update = m.RegisterOp("UPDATE");
  m.Record(update, 1, Status::Code::kOk);
  m.Record(update, 1, Status::Code::kOk);
  m.Record(update, 1, Status::Code::kConflict);
  OpStats s = m.SnapshotOp("UPDATE");
  EXPECT_EQ(s.return_counts["OK"], 2u);
  EXPECT_EQ(s.return_counts["Conflict"], 1u);
}

TEST(MeasurementsTest, SeriesAreIndependent) {
  Measurements m;
  RecordOk(m, "READ", 10);
  RecordOk(m, "COMMIT", 1000);
  EXPECT_EQ(m.SnapshotOp("READ").max_latency_us, 10);
  EXPECT_EQ(m.SnapshotOp("COMMIT").max_latency_us, 1000);
}

TEST(MeasurementsTest, SnapshotSortedByName) {
  Measurements m;
  RecordOk(m, "UPDATE", 1);
  RecordOk(m, "COMMIT", 1);
  RecordOk(m, "READ", 1);
  auto all = m.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "COMMIT");
  EXPECT_EQ(all[1].name, "READ");
  EXPECT_EQ(all[2].name, "UPDATE");
}

TEST(MeasurementsTest, TotalOperationsSumsNamedSeries) {
  Measurements m;
  for (int i = 0; i < 5; ++i) RecordOk(m, "READ", 1);
  for (int i = 0; i < 3; ++i) RecordOk(m, "UPDATE", 1);
  RecordOk(m, "COMMIT", 1);
  EXPECT_EQ(m.TotalOperations({"READ", "UPDATE"}), 8u);
  EXPECT_EQ(m.TotalOperations({"ABSENT"}), 0u);
}

TEST(MeasurementsTest, ResetDropsEverything) {
  Measurements m;
  RecordOk(m, "READ", 1);
  m.Reset();
  EXPECT_TRUE(m.Snapshot().empty());
}

TEST(MeasurementsTest, ConcurrentMeasureIsLossless) {
  Measurements m;
  constexpr int kThreads = 8, kPer = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        RecordOk(m, "READ", i % 100);
      }
    });
  }
  for (auto& th : pool) th.join();
  OpStats s = m.SnapshotOp("READ");
  EXPECT_EQ(s.operations, static_cast<uint64_t>(kThreads) * kPer);
  EXPECT_EQ(s.return_counts["OK"], static_cast<uint64_t>(kThreads) * kPer);
}

TEST(MeasurementsTest, ConcurrentDistinctSeriesCreation) {
  Measurements m;
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        RecordOk(m, "OP" + std::to_string((t * 200 + i) % 37), 1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(m.Snapshot().size(), 37u);
}

TEST(OpRegistryTest, InternIsDenseAndIdempotent) {
  OpRegistry r;
  OpId read = r.Intern("READ");
  OpId commit = r.Intern("COMMIT");
  EXPECT_EQ(read.index, 0u);
  EXPECT_EQ(commit.index, 1u);
  EXPECT_EQ(r.Intern("READ"), read);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.Name(read), "READ");
  EXPECT_EQ(r.Find("COMMIT"), commit);
  EXPECT_FALSE(r.Find("ABSENT").valid());
  EXPECT_EQ(r.Name(OpId{}), "");
}

TEST(MeasurementsTest, RegisteredButIdleOpsAreInvisible) {
  Measurements m;
  OpId read = m.RegisterOp("READ");
  m.RegisterOp("COMMIT");
  EXPECT_TRUE(m.Snapshot().empty());  // nothing recorded yet
  m.Record(read, 42, Status::Code::kOk);
  auto all = m.Snapshot();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "READ");
}

TEST(MeasurementsTest, ReinternedNameRecordsIntoTheSameSeries) {
  Measurements m;
  OpId update = m.RegisterOp("UPDATE");
  m.Record(update, 100, Status::Code::kOk);
  m.Record(update, 300, Status::Code::kConflict);
  // Interning the name again lands in the same series.
  m.Record(m.RegisterOp("UPDATE"), 200, Status::Code::kNotFound);
  OpStats s = m.SnapshotOp("UPDATE");
  EXPECT_EQ(s.operations, 3u);
  EXPECT_DOUBLE_EQ(s.average_latency_us, 200.0);
  EXPECT_EQ(s.return_counts["OK"], 1u);
  EXPECT_EQ(s.return_counts["Conflict"], 1u);
}

TEST(ThreadSinkTest, SamplesInvisibleUntilFlush) {
  Measurements m;
  OpId read = m.RegisterOp("READ");
  ThreadSink* sink = m.CreateSink();
  sink->Record(read, 10, Status::Code::kOk);
  sink->Record(read, 30, Status::Code::kNotFound);
  EXPECT_EQ(m.SnapshotOp("READ").operations, 0u);
  sink->Flush();
  OpStats s = m.SnapshotOp("READ");
  EXPECT_EQ(s.operations, 2u);
  EXPECT_DOUBLE_EQ(s.average_latency_us, 20.0);
  EXPECT_EQ(s.return_counts["OK"], 1u);
  EXPECT_EQ(s.return_counts["NotFound"], 1u);
}

TEST(ThreadSinkTest, RepeatedFlushDoesNotDoubleCount) {
  Measurements m;
  OpId read = m.RegisterOp("READ");
  ThreadSink* sink = m.CreateSink();
  sink->Record(read, 10, Status::Code::kOk);
  sink->Flush();
  sink->Flush();  // local state was drained; nothing new to merge
  EXPECT_EQ(m.SnapshotOp("READ").operations, 1u);
  sink->Record(read, 20, Status::Code::kOk);
  sink->Flush();
  EXPECT_EQ(m.SnapshotOp("READ").operations, 2u);
}

TEST(ThreadSinkTest, HandlesOpsRegisteredAfterCreation) {
  Measurements m;
  ThreadSink* sink = m.CreateSink();
  OpId late = m.RegisterOp("TX-READ");  // registered after the sink existed
  sink->Record(late, 5, Status::Code::kOk);
  sink->Flush();
  EXPECT_EQ(m.SnapshotOp("TX-READ").operations, 1u);
}

TEST(MeasurementsTest, IntervalSeriesRoundTrips) {
  Measurements m;
  m.RecordInterval({0.5, 100, 200.0, 50.0});
  m.RecordInterval({1.0, 150, 300.0, 40.0});
  auto windows = m.Intervals();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].end_seconds, 0.5);
  EXPECT_EQ(windows[1].operations, 150u);
  m.Reset();
  EXPECT_TRUE(m.Intervals().empty());
}

TEST(MeasurementsTest, PercentilesOrdered) {
  Measurements m;
  for (int i = 1; i <= 1000; ++i) RecordOk(m, "SCAN", i);
  OpStats s = m.SnapshotOp("SCAN");
  EXPECT_LE(s.p50_latency_us, s.p95_latency_us);
  EXPECT_LE(s.p95_latency_us, s.p99_latency_us);
  EXPECT_LE(s.p99_latency_us, s.p999_latency_us);
  EXPECT_LE(s.p999_latency_us, s.max_latency_us);
  EXPECT_NEAR(static_cast<double>(s.p50_latency_us), 500.0, 20.0);
}

}  // namespace
}  // namespace ycsbt
