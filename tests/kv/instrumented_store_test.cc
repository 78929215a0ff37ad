#include "kv/instrumented_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_model.h"
#include "common/rpc_executor.h"
#include "common/sync.h"
#include "str_cat.h"

namespace ycsbt {
namespace kv {
namespace {

std::shared_ptr<InstrumentedStore> MakeStore() {
  return std::make_shared<InstrumentedStore>(std::make_shared<ShardedStore>());
}

TEST(InstrumentedStoreTest, PassesThroughAllOps) {
  auto store = MakeStore();
  uint64_t etag = 0;
  ASSERT_TRUE(store->Put("k", "v", &etag).ok());
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE(store->ConditionalPut("k", "v2", etag).ok());
  std::vector<ScanEntry> rows;
  ASSERT_TRUE(store->Scan("", 10, &rows).ok());
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_TRUE(store->Delete("k").ok());
  EXPECT_EQ(store->Count(), 0u);
}

TEST(InstrumentedStoreTest, HookSeesBeforeAndAfter) {
  auto store = MakeStore();
  int before = 0, after = 0;
  store->set_hook([&](InstrumentedStore::Op op, const std::string& key, bool is_after) {
    EXPECT_EQ(op, InstrumentedStore::Op::kPut);
    EXPECT_EQ(key, "k");
    (is_after ? after : before)++;
  });
  store->Put("k", "v");
  EXPECT_EQ(before, 1);
  EXPECT_EQ(after, 1);
}

TEST(InstrumentedStoreTest, DeterministicLostUpdate) {
  // Forces the classic lost-update interleaving the Tier-6 consistency
  // experiments rely on:
  //   T1 reads balance=100          T2 reads balance=100
  //   T1 writes 101                 T2 writes 101   <- T1's update lost
  // The hook holds T1 between its read and its write until T2 has read.
  auto store = MakeStore();
  store->Put("acct", "100");

  CountDownLatch t1_read(1);   // T1 has finished its read
  CountDownLatch t2_read(1);   // T2 has finished its read
  std::atomic<int> reads_seen{0};

  store->set_hook([&](InstrumentedStore::Op op, const std::string&, bool is_after) {
    if (op == InstrumentedStore::Op::kGet && is_after) {
      int order = reads_seen.fetch_add(1) + 1;
      if (order == 1) {
        t1_read.CountDown();
        t2_read.Wait();  // first reader stalls until the second one has read
      } else {
        t2_read.CountDown();
      }
    }
  });

  auto increment = [&] {
    std::string value;
    ASSERT_TRUE(store->Get("acct", &value).ok());
    ASSERT_TRUE(store->Put("acct", std::to_string(std::stoll(value) + 1)).ok());
  };
  std::thread t1(increment);
  t1_read.Wait();
  std::thread t2(increment);
  t1.join();
  t2.join();

  std::string final_value;
  store->set_hook(nullptr);
  ASSERT_TRUE(store->Get("acct", &final_value).ok());
  // Two increments, but exactly one survives: the anomaly is deterministic.
  EXPECT_EQ(final_value, "101");
}

TEST(InstrumentedStoreTest, ConditionalPutDefeatsTheSameInterleaving) {
  // Same forced interleaving, but the writers use CAS with retry: both
  // increments must land.  This is why the txn library builds on
  // conditional put.
  auto store = MakeStore();
  store->Put("acct", "100");

  CountDownLatch t1_read(1);
  CountDownLatch t2_read(1);
  std::atomic<int> reads_seen{0};
  std::atomic<bool> interleave_armed{true};

  store->set_hook([&](InstrumentedStore::Op op, const std::string&, bool is_after) {
    if (!interleave_armed.load()) return;
    if (op == InstrumentedStore::Op::kGet && is_after) {
      int order = reads_seen.fetch_add(1) + 1;
      if (order == 1) {
        t1_read.CountDown();
        t2_read.Wait();
      } else if (order == 2) {
        t2_read.CountDown();
        interleave_armed.store(false);  // let CAS retries run freely
      }
    }
  });

  auto cas_increment = [&] {
    for (;;) {
      std::string value;
      uint64_t etag;
      ASSERT_TRUE(store->Get("acct", &value, &etag).ok());
      if (store->ConditionalPut("acct", std::to_string(std::stoll(value) + 1), etag)
              .ok()) {
        return;
      }
    }
  };
  std::thread t1(cas_increment);
  t1_read.Wait();
  std::thread t2(cas_increment);
  t1.join();
  t2.join();

  std::string final_value;
  store->set_hook(nullptr);
  ASSERT_TRUE(store->Get("acct", &final_value).ok());
  EXPECT_EQ(final_value, "102");
}

// The base class's batch forms: one Get/op per item, fanned out on the
// attached executor, a loop on the caller otherwise.  InstrumentedStore
// keeps the defaults, and its hook sees which thread ran each item.
std::set<std::thread::id> BatchThreads(std::shared_ptr<RpcExecutor> executor) {
  auto store = MakeStore();
  store->set_executor(std::move(executor));
  std::mutex mu;
  std::set<std::thread::id> threads;
  store->set_hook([&](InstrumentedStore::Op, const std::string&, bool after) {
    if (after) return;
    SleepMicros(1000);  // long enough for the pool's helpers to join in
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  std::vector<std::string> keys;
  std::vector<WriteOp> ops;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(StrCat("k", i));
    ops.push_back(WriteOp::Put(StrCat("k", i), "v"));
  }
  std::vector<WriteResult> written;
  store->MultiWrite(ops, &written);
  std::vector<MultiGetResult> read;
  store->MultiGet(keys, &read);
  EXPECT_EQ(written.size(), 8u);
  EXPECT_EQ(read.size(), 8u);
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_TRUE(written[i].status.ok()) << i;
    EXPECT_TRUE(read[i].status.ok()) << i;
    EXPECT_EQ(read[i].value, "v") << i;
  }
  return threads;
}

TEST(StoreDefaultBatchTest, LoopsOnTheCallerWithoutAnExecutor) {
  std::set<std::thread::id> threads = BatchThreads(nullptr);
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
}

TEST(StoreDefaultBatchTest, FansOutOnTheAttachedExecutor) {
  EXPECT_GT(BatchThreads(std::make_shared<RpcExecutor>(4)).size(), 1u);
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
