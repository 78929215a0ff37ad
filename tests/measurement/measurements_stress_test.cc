#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "measurement/measurements.h"

namespace ycsbt {
namespace {

// N threads × M ops across K op names, recorded through per-thread sinks
// (the runner's hot path), must merge with zero lost samples and exact
// return-code counts.  This is the test the sanitizer CI job runs under
// TSan: any data race between recording, flushing and snapshotting threads
// fails the build.

constexpr int kThreads = 8;
constexpr int kOpNames = 7;
// Per-thread op count: a multiple of kOpNames (so the rotation hits every
// series equally often) and even (so OK/Aborted split exactly in half).
constexpr int kOpsPerThread = 49000;

std::string OpName(int k) { return "OP-" + std::to_string(k); }

TEST(MeasurementsStressTest, SinkMergeIsLossless) {
  Measurements m;
  // Register all series up front (what MeasuredDB does in its constructor).
  std::vector<OpId> ids;
  for (int k = 0; k < kOpNames; ++k) ids.push_back(m.RegisterOp(OpName(k)));

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&m, &ids, t] {
      ThreadSink* sink = m.CreateSink();
      for (int i = 0; i < kOpsPerThread; ++i) {
        int k = (t + i) % kOpNames;
        // Alternate OK / Aborted deterministically so exact per-code counts
        // are checkable after the merge.
        Status::Code code =
            i % 2 == 0 ? Status::Code::kOk : Status::Code::kAborted;
        sink->Record(ids[static_cast<size_t>(k)], i % 1000, code);
        // Flush mid-run occasionally: merges must compose, not replace.
        if (i % 20000 == 19999) sink->Flush();
      }
      sink->Flush();
    });
  }
  for (auto& th : pool) th.join();

  uint64_t total = 0, ok_total = 0, aborted_total = 0;
  for (int k = 0; k < kOpNames; ++k) {
    OpStats s = m.SnapshotOp(OpName(k));
    total += s.operations;
    ok_total += s.return_counts["OK"];
    aborted_total += s.return_counts["Aborted"];
  }
  constexpr uint64_t kExpected =
      static_cast<uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(total, kExpected);
  EXPECT_EQ(ok_total, kExpected / 2);
  EXPECT_EQ(aborted_total, kExpected / 2);
  // Every thread touches every series the same number of times modulo the
  // rotation, so each series holds threads*ops/names samples exactly.
  for (int k = 0; k < kOpNames; ++k) {
    EXPECT_EQ(m.SnapshotOp(OpName(k)).operations, kExpected / kOpNames)
        << OpName(k);
  }
}

TEST(MeasurementsStressTest, SinksAndSharedRecordsCompose) {
  Measurements m;
  OpId shared = m.RegisterOp("SHARED");
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&m, shared, t] {
      if (t % 2 == 0) {
        // Sink path (lock-free thread-local).
        ThreadSink* sink = m.CreateSink();
        for (int i = 0; i < kOpsPerThread; ++i) {
          sink->Record(shared, i % 100, Status::Code::kOk);
        }
        sink->Flush();
      } else {
        // Shared-series path (one lock per sample).
        for (int i = 0; i < kOpsPerThread; ++i) {
          m.Record(shared, i % 100, Status::Code::kOk);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  OpStats s = m.SnapshotOp("SHARED");
  constexpr uint64_t kExpected =
      static_cast<uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(s.operations, kExpected);
  EXPECT_EQ(s.return_counts["OK"], kExpected);
}

TEST(MeasurementsStressTest, ConcurrentSnapshotsSeeConsistentFlushes) {
  Measurements m;
  OpId op = m.RegisterOp("READ");
  std::atomic<bool> done{false};
  // A reader thread snapshots continuously while writers record and flush;
  // under TSan this proves snapshot/merge never races with the hot path.
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t now = m.SnapshotOp("READ").operations;
      EXPECT_GE(now, last);  // merged counts only ever grow
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      ThreadSink* sink = m.CreateSink();
      for (int i = 0; i < kOpsPerThread; ++i) {
        sink->Record(op, i % 50, Status::Code::kOk);
        if (i % 1000 == 999) sink->Flush();
      }
      sink->Flush();
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(m.SnapshotOp("READ").operations, 4u * kOpsPerThread);
}

}  // namespace
}  // namespace ycsbt
