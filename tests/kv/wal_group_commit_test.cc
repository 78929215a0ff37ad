#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kv/fault_env.h"
#include "kv/store.h"
#include "kv/wal.h"
#include "str_cat.h"

namespace ycsbt {
namespace kv {
namespace {

class WalGroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "wal_gc_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".snap").c_str());
  }

  std::vector<WalRecord> ReplayAll(const std::string& path,
                                   Status* status = nullptr,
                                   size_t* valid_bytes = nullptr) {
    std::vector<WalRecord> records;
    Status s = WriteAheadLog::Replay(
        path, [&](const WalRecord& r) { records.push_back(r); }, valid_bytes);
    if (status != nullptr) *status = s;
    return records;
  }

  static size_t FileSize(const std::string& path) {
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
  }

  std::string path_;
};

WalOptions GroupOptions(int max_batch = 64, uint32_t window_us = 0) {
  WalOptions o;
  o.group_commit = true;
  o.group_max_batch = max_batch;
  o.group_window_us = window_us;
  return o;
}

TEST_F(WalGroupCommitTest, ConcurrentSyncAppendsAllReplay) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, GroupOptions()).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalRecord r{WalRecord::Kind::kPut,
                    static_cast<uint64_t>(t * kPerThread + i + 1),
                    StrCat("k", t, "_", i), "v"};
        uint64_t lsn = 0;
        if (!wal.Append(r, /*sync=*/true, &lsn).ok() || lsn == 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal.durable_lsn(), static_cast<uint64_t>(kThreads * kPerThread));

  WalStats stats = wal.DrainStats();
  EXPECT_EQ(stats.appends, static_cast<uint64_t>(kThreads * kPerThread));
  // Group commit's whole point: far fewer syncs than appends (each batch of
  // blocked writers shares one fdatasync).  With 8 writers this is massively
  // true; assert a conservative bound so slow CI machines still pass.
  EXPECT_LE(stats.syncs, stats.appends);
  EXPECT_EQ(stats.batches, stats.batch_records.Count());

  wal.Close();
  auto records = ReplayAll(path_);
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<uint64_t> etags;
  for (const auto& r : records) etags.insert(r.etag);
  EXPECT_EQ(etags.size(), records.size());  // no duplicates, nothing lost
}

TEST_F(WalGroupCommitTest, SmallMaxBatchForcesLeaderHandoff) {
  // group_max_batch=2 with 6 writers: leaders routinely drain batches that
  // do not include their own frame and must loop (lead again or follow).
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, GroupOptions(/*max_batch=*/2)).ok());

  constexpr int kThreads = 6;
  constexpr int kPerThread = 100;
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalRecord r{WalRecord::Kind::kPut,
                    static_cast<uint64_t>(t * kPerThread + i + 1), "k", "v"};
        if (!wal.Append(r, /*sync=*/false).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  WalStats stats = wal.DrainStats();
  EXPECT_EQ(stats.appends, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(stats.batch_records.Max(), 2);
  wal.Close();
  EXPECT_EQ(ReplayAll(path_).size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(WalGroupCommitTest, AccumulationWindowStillCompletes) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, GroupOptions(64, /*window_us=*/200)).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalRecord r{WalRecord::Kind::kPut,
                    static_cast<uint64_t>(t * kPerThread + i + 1), "k", "v"};
        if (!wal.Append(r, /*sync=*/true).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  wal.Close();
  EXPECT_EQ(ReplayAll(path_).size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(WalGroupCommitTest, AckedAppendsSurviveCrashSnapshot) {
  // Simulates a crash mid-run: while 4 threads append with sync=true, the
  // main thread snapshots the live WAL file at an arbitrary instant (what a
  // kill -9 would leave on disk) and appends garbage to model a torn tail.
  // Every append acknowledged *before* the snapshot began was fdatasync'd at
  // bytes the copy must include, so it must replay from the snapshot.
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, GroupOptions()).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::vector<std::atomic<int>> acked(kThreads);
  for (auto& a : acked) a.store(0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalRecord r{WalRecord::Kind::kPut,
                    static_cast<uint64_t>(t * 1000 + i + 1), "k", "v"};
        if (wal.Append(r, /*sync=*/true).ok()) {
          acked[static_cast<size_t>(t)].store(i + 1, std::memory_order_release);
        }
      }
    });
  }

  // Wait until every thread has acked something, then "crash".
  for (int t = 0; t < kThreads; ++t) {
    while (acked[static_cast<size_t>(t)].load(std::memory_order_acquire) < 10) {
      std::this_thread::yield();
    }
  }
  std::vector<int> acked_before(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    acked_before[static_cast<size_t>(t)] =
        acked[static_cast<size_t>(t)].load(std::memory_order_acquire);
  }
  std::string snap = path_ + ".snap";
  {
    std::ifstream in(path_, std::ios::binary);
    std::ofstream out(snap, std::ios::binary);
    out << in.rdbuf();
    // A torn frame at the crash point: half a plausible header of garbage.
    out.write("\x13\x37\xBE\xEF\x01", 5);
  }
  for (auto& th : pool) th.join();
  wal.Close();

  std::vector<WalRecord> records;
  Status s = WriteAheadLog::Replay(
      snap, [&](const WalRecord& r) { records.push_back(r); });
  EXPECT_TRUE(s.ok()) << s.ToString();  // torn tail must not block recovery
  std::set<uint64_t> replayed;
  for (const auto& r : records) replayed.insert(r.etag);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < acked_before[static_cast<size_t>(t)]; ++i) {
      EXPECT_TRUE(replayed.count(static_cast<uint64_t>(t * 1000 + i + 1)))
          << "acked record t=" << t << " i=" << i << " lost by crash";
    }
  }
}

TEST_F(WalGroupCommitTest, TornBatchWritePoisonsAndTruncates) {
  // The torn write comes from the Env seam now: the production write path
  // has a single Append call, and the fault env tears the first armed one.
  StorageFaultOptions faults;
  faults.torn_write_at = 1;
  FaultInjectingEnv env(Env::Default(), faults);
  WalOptions options = GroupOptions();
  options.env = &env;
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, options).ok());
  WalRecord good{WalRecord::Kind::kPut, 1, "intact", "v"};
  ASSERT_TRUE(wal.Append(good, /*sync=*/true).ok());
  size_t intact_size = FileSize(path_);

  env.set_enabled(true);
  WalRecord torn{WalRecord::Kind::kPut, 2, "torn", "v"};
  Status s = wal.Append(torn, /*sync=*/true);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(wal.IsPoisoned());
  EXPECT_EQ(env.stats().torn_writes, 1u);

  // Fail-stop: later appends are rejected outright, nothing else lands.
  WalRecord after{WalRecord::Kind::kPut, 3, "after", "v"};
  EXPECT_TRUE(wal.Append(after, /*sync=*/false).IsIOError());
  EXPECT_EQ(wal.durable_lsn(), 1u);

  // The torn frame was truncated away: the file ends at the last intact
  // offset and replays cleanly with only the acknowledged record.
  EXPECT_EQ(FileSize(path_), intact_size);
  wal.Close();
  Status replay_status;
  size_t valid_bytes = 0;
  auto records = ReplayAll(path_, &replay_status, &valid_bytes);
  EXPECT_TRUE(replay_status.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "intact");
  EXPECT_EQ(valid_bytes, intact_size);
}

TEST_F(WalGroupCommitTest, TornDirectWritePoisonsAndTruncates) {
  // The fail-stop contract holds in the non-grouped path too.
  StorageFaultOptions faults;
  faults.torn_write_at = 1;
  FaultInjectingEnv env(Env::Default(), faults);
  WalOptions options;
  options.env = &env;
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, options).ok());
  ASSERT_TRUE(wal.Append({WalRecord::Kind::kPut, 1, "a", "v"}, false).ok());
  size_t intact_size = FileSize(path_);

  env.set_enabled(true);
  EXPECT_TRUE(wal.Append({WalRecord::Kind::kPut, 2, "b", "v"}, false).IsIOError());
  EXPECT_TRUE(wal.IsPoisoned());
  EXPECT_TRUE(wal.Append({WalRecord::Kind::kPut, 3, "c", "v"}, false).IsIOError());
  EXPECT_EQ(FileSize(path_), intact_size);
  wal.Close();
  EXPECT_EQ(ReplayAll(path_).size(), 1u);
}

TEST_F(WalGroupCommitTest, PoisonWakesEveryWaiterInTheBatch) {
  // When a batch's write tears, every waiter blocked on that batch must wake
  // and see the poison status — none may hang or report success.
  StorageFaultOptions faults;
  faults.write_error_rate = 1.0;  // every armed write fails cleanly
  FaultInjectingEnv env(Env::Default(), faults);
  env.set_enabled(true);
  WalOptions options = GroupOptions();
  options.env = &env;
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_, options).ok());

  constexpr int kThreads = 6;
  std::vector<std::thread> pool;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      WalRecord r{WalRecord::Kind::kPut, static_cast<uint64_t>(t + 1), "k", "v"};
      if (wal.Append(r, /*sync=*/true).IsIOError()) errors.fetch_add(1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(errors.load(), kThreads);
  EXPECT_TRUE(wal.IsPoisoned());
  EXPECT_EQ(wal.durable_lsn(), 0u);
  wal.Close();
  EXPECT_TRUE(ReplayAll(path_).empty());
}

TEST_F(WalGroupCommitTest, StoreGroupCommitRoundTripAndReopen) {
  // End to end through StoreOptions: concurrent Puts with sync_wal + group
  // commit, then reopen (crash-recovery path) and verify every write.
  StoreOptions options;
  options.wal_path = path_;
  options.sync_wal = true;
  options.wal_group_commit = true;
  options.wal_group_max_batch = 32;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  {
    ShardedStore store(options);
    ASSERT_TRUE(store.Open().ok());
    std::vector<std::thread> pool;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string key = StrCat("u", t, "_", i);
          if (!store.Put(key, "val" + key).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : pool) th.join();
    ASSERT_EQ(failures.load(), 0);
    WalStats stats = store.DrainWalStats();
    EXPECT_EQ(stats.appends, static_cast<uint64_t>(kThreads * kPerThread));
  }
  ShardedStore reopened(options);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.Count(), static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string key = StrCat("u", t, "_", i);
      std::string value;
      ASSERT_TRUE(reopened.Get(key, &value).ok()) << key;
      EXPECT_EQ(value, "val" + key);
    }
  }
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
