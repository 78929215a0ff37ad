#include "common/rpc_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/latency_model.h"
#include "common/op_context.h"
#include "common/status.h"
#include "common/sync.h"

namespace ycsbt {
namespace {

TEST(RpcExecutorTest, RunsEveryItemExactlyOnceWithStatusesInIndexOrder) {
  RpcExecutor executor(4);
  ASSERT_TRUE(executor.enabled());
  constexpr size_t kItems = 64;
  std::vector<std::atomic<int>> runs(kItems);
  std::vector<Status> statuses =
      executor.ParallelForEach(kItems, [&runs](size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        return i % 3 == 0 ? Status::NotFound("item") : Status::OK();
      });
  ASSERT_EQ(statuses.size(), kItems);
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "item " << i;
    if (i % 3 == 0) {
      EXPECT_TRUE(statuses[i].IsNotFound()) << "item " << i;
    } else {
      EXPECT_TRUE(statuses[i].ok()) << "item " << i;
    }
  }
}

TEST(RpcExecutorTest, DisabledExecutorRunsInlineOnCaller) {
  RpcExecutor executor(0);
  EXPECT_FALSE(executor.enabled());
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  executor.ParallelForEach(ran_on.size(), [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    return Status::OK();
  });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(RpcExecutorTest, SingleItemRunsInlineOnCaller) {
  RpcExecutor executor(4);
  std::thread::id ran_on;
  executor.ParallelForEach(1, [&](size_t) {
    ran_on = std::this_thread::get_id();
    return Status::OK();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(RpcExecutorTest, HelperThreadsActuallyParticipate) {
  RpcExecutor executor(4);
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  executor.ParallelForEach(16, [&](size_t) {
    if (std::this_thread::get_id() != caller) {
      off_caller.fetch_add(1, std::memory_order_relaxed);
    }
    SleepMicros(2000);
    return Status::OK();
  });
  // 16 items x 2ms each with 3 submitted helpers: the caller alone would
  // need ~32ms, so helpers have ample time to steal work.
  EXPECT_GT(off_caller.load(), 0);
}

TEST(RpcExecutorTest, MaxInflightBoundsConcurrency) {
  RpcExecutor executor(/*threads=*/8, /*max_inflight=*/2);
  std::atomic<int> inflight{0};
  std::atomic<int> high_water{0};
  executor.ParallelForEach(24, [&](size_t) {
    int now = inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
    int seen = high_water.load(std::memory_order_relaxed);
    while (now > seen &&
           !high_water.compare_exchange_weak(seen, now,
                                             std::memory_order_relaxed)) {
    }
    SleepMicros(1000);
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    return Status::OK();
  });
  EXPECT_LE(high_water.load(), 2);
  EXPECT_GE(high_water.load(), 1);
}

// Satellite regression: a deadline installed on the issuing thread must
// fence RPCs executed on pool threads — without the Snapshot/Adopt pair the
// workers would run with a fresh (deadline-free) thread-local context.
TEST(RpcExecutorTest, DeadlineSetOnIssuingThreadFencesPoolItems) {
  RpcExecutor executor(4);
  OpDeadlineScope deadline(/*budget_us=*/1);
  SleepMicros(2000);  // the deadline is now unambiguously in the past
  ASSERT_TRUE(OpDeadlineExpired());
  std::vector<char> expired(16, 0);
  executor.ParallelForEach(expired.size(), [&](size_t i) {
    SleepMicros(500);  // spread items across workers
    expired[i] = OpDeadlineExpired() ? 1 : 0;
    return Status::OK();
  });
  for (size_t i = 0; i < expired.size(); ++i) {
    EXPECT_EQ(expired[i], 1) << "item " << i << " escaped the deadline fence";
  }
}

TEST(RpcExecutorTest, ExemptMarkingPropagatesToPoolItems) {
  RpcExecutor executor(4);
  OpExemptScope exempt;
  std::vector<char> saw_exempt(16, 0);
  executor.ParallelForEach(saw_exempt.size(), [&](size_t i) {
    SleepMicros(500);
    saw_exempt[i] = OpExempt() ? 1 : 0;
    return Status::OK();
  });
  for (size_t i = 0; i < saw_exempt.size(); ++i) {
    EXPECT_EQ(saw_exempt[i], 1) << "item " << i;
  }
}

TEST(RpcExecutorTest, WorkerContextRestoredBetweenBatches) {
  RpcExecutor executor(2);
  {
    OpDeadlineScope deadline(/*budget_us=*/1);
    SleepMicros(2000);
    executor.ParallelForEach(8, [](size_t) {
      SleepMicros(200);
      return Status::OK();
    });
  }
  // The next batch starts from a clean context: the adopt scope must have
  // restored each worker's own thread-local state.
  std::vector<char> expired(8, 0);
  executor.ParallelForEach(expired.size(), [&](size_t i) {
    SleepMicros(200);
    expired[i] = OpDeadlineExpired() ? 1 : 0;
    return Status::OK();
  });
  for (size_t i = 0; i < expired.size(); ++i) {
    EXPECT_EQ(expired[i], 0) << "item " << i << " inherited a stale deadline";
  }
}

TEST(RpcExecutorTest, SubmitRunsOnAWorkerUnderTheCallersContext) {
  RpcExecutor executor(2);
  CountDownLatch done(1);
  std::thread::id ran_on;
  bool saw_exempt = false;
  bool saw_hedge = false;
  {
    OpExemptScope exempt;
    OpHedgeScope hedge;
    executor.Submit([&] {
      ran_on = std::this_thread::get_id();
      saw_exempt = OpExempt();
      saw_hedge = CurrentOpContext().hedge;
      done.CountDown();
    });
  }
  done.Wait();
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(saw_exempt);
  EXPECT_TRUE(saw_hedge);
}

TEST(RpcExecutorTest, DisabledExecutorSubmitsInline) {
  RpcExecutor executor(0);
  std::thread::id ran_on;
  executor.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(RpcExecutorTest, DrainStatsCountsFannedBatchesAndResets) {
  RpcExecutor executor(4);
  auto noop = [](size_t) { return Status::OK(); };
  executor.ParallelForEach(8, noop);
  executor.ParallelForEach(4, noop);
  executor.ParallelForEach(1, noop);  // inline: not a fanned batch
  FanoutStats stats = executor.DrainStats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.items, 12u);
  EXPECT_DOUBLE_EQ(stats.width.Mean(), 6.0);
  FanoutStats drained = executor.DrainStats();
  EXPECT_EQ(drained.batches, 0u);
  EXPECT_EQ(drained.items, 0u);
}

TEST(RpcExecutorTest, ZeroItemsIsANoOp) {
  RpcExecutor executor(2);
  std::vector<Status> statuses = executor.ParallelForEach(0, [](size_t) {
    ADD_FAILURE() << "item ran for an empty batch";
    return Status::OK();
  });
  EXPECT_TRUE(statuses.empty());
  EXPECT_EQ(executor.DrainStats().batches, 0u);
}

}  // namespace
}  // namespace ycsbt
