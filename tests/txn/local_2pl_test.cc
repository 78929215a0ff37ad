#include "txn/local_2pl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "str_cat.h"

namespace ycsbt {
namespace txn {
namespace {

class Local2PLTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_shared<kv::ShardedStore>();
    store_ = std::make_unique<Local2PLStore>(base_, Local2PLOptions{});
  }

  std::shared_ptr<kv::ShardedStore> base_;
  std::unique_ptr<Local2PLStore> store_;
};

TEST_F(Local2PLTest, CommitPersistsWrites) {
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("k", "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  std::string value;
  ASSERT_TRUE(store_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(Local2PLTest, AbortUndoesWritesInReverseOrder) {
  store_->LoadPut("a", "original-a");
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("a", "changed-1").ok());
  ASSERT_TRUE(txn->Write("a", "changed-2").ok());
  ASSERT_TRUE(txn->Write("new", "x").ok());
  ASSERT_TRUE(txn->Delete("a").ok());
  ASSERT_TRUE(txn->Abort().ok());
  std::string value;
  ASSERT_TRUE(store_->ReadCommitted("a", &value).ok());
  EXPECT_EQ(value, "original-a");
  EXPECT_TRUE(store_->ReadCommitted("new", &value).IsNotFound());
}

TEST_F(Local2PLTest, ReadSeesOwnUncommittedWrites) {
  // 2PL applies writes in place, so the transaction reads its own effects.
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("k", "mine").ok());
  std::string value;
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "mine");
  txn->Commit();
}

TEST_F(Local2PLTest, WriterBlocksWriter) {
  auto holder = store_->Begin();
  ASSERT_TRUE(holder->Write("k", "held").ok());
  // A second writer on the same engine must time out (Busy).
  auto contender = store_->Begin();
  Stopwatch watch;
  Status s = contender->Write("k", "denied");
  EXPECT_TRUE(s.IsBusy());
  EXPECT_GE(watch.ElapsedMicros(), 30'000u);  // waited for the default timeout
  contender->Abort();
  ASSERT_TRUE(holder->Commit().ok());
}

TEST_F(Local2PLTest, ReadersShareTheLock) {
  store_->LoadPut("k", "v");
  auto r1 = store_->Begin();
  auto r2 = store_->Begin();
  std::string value;
  ASSERT_TRUE(r1->Read("k", &value).ok());
  ASSERT_TRUE(r2->Read("k", &value).ok());  // concurrent S-locks coexist
  r1->Commit();
  r2->Commit();
}

TEST_F(Local2PLTest, WriteWaitsForReaderThenProceeds) {
  store_->LoadPut("k", "v0");
  auto reader = store_->Begin();
  std::string value;
  ASSERT_TRUE(reader->Read("k", &value).ok());

  std::atomic<bool> wrote{false};
  std::thread writer_thread([&] {
    auto writer = store_->Begin();
    ASSERT_TRUE(writer->Write("k", "v1").ok());  // blocks until reader ends
    wrote.store(true);
    ASSERT_TRUE(writer->Commit().ok());
  });
  SleepMicros(10'000);
  EXPECT_FALSE(wrote.load());
  reader->Commit();
  writer_thread.join();
  EXPECT_TRUE(wrote.load());
  ASSERT_TRUE(store_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(Local2PLTest, LockUpgradeWithinTransaction) {
  store_->LoadPut("k", "v0");
  auto txn = store_->Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("k", &value).ok());   // S
  ASSERT_TRUE(txn->Write("k", "v1").ok());    // upgrade to X
  ASSERT_TRUE(txn->Read("k", &value).ok());   // reads under own X lock
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(Local2PLTest, DeadlockResolvedByTimeout) {
  // Classic crossed upgrade: T1 holds X(a) wants X(b); T2 holds X(b) wants
  // X(a).  One (or both) must abort via lock timeout; the system makes
  // progress either way.
  store_->LoadPut("a", "0");
  store_->LoadPut("b", "0");
  auto engine = std::make_unique<Local2PLStore>(
      base_, Local2PLOptions{.lock_timeout_us = 20'000});
  std::atomic<int> aborted{0};
  Stopwatch watch;
  auto worker = [&](const std::string& first, const std::string& second) {
    auto txn = engine->Begin();
    if (!txn->Write(first, "1").ok()) {
      txn->Abort();
      ++aborted;
      return;
    }
    SleepMicros(5'000);  // ensure both hold their first lock
    if (!txn->Write(second, "1").ok()) {
      txn->Abort();
      ++aborted;
      return;
    }
    txn->Commit();
  };
  std::thread t1(worker, "a", "b");
  std::thread t2(worker, "b", "a");
  t1.join();
  t2.join();
  EXPECT_GE(aborted.load(), 1);
  EXPECT_LT(watch.ElapsedSeconds(), 10.0);
}

TEST_F(Local2PLTest, ConcurrentTransfersPreserveInvariant) {
  constexpr int kAccounts = 10;
  constexpr int64_t kInitial = 500;
  for (int i = 0; i < kAccounts; ++i) {
    store_->LoadPut("acct" + std::to_string(i), std::to_string(kInitial));
  }
  constexpr int kThreads = 6;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < 150; ++i) {
        uint64_t x = rng.Uniform(kAccounts);
        uint64_t y = (x + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
        // Access in sorted key order to keep deadlock-timeouts rare (a
        // client-side choice; the engine survives either way).
        std::string lo = "acct" + std::to_string(std::min(x, y));
        std::string hi = "acct" + std::to_string(std::max(x, y));
        auto txn = store_->Begin();
        std::string vlo, vhi;
        if (!txn->Read(lo, &vlo).ok() || !txn->Read(hi, &vhi).ok() ||
            !txn->Write(lo, std::to_string(std::stoll(vlo) - 1)).ok() ||
            !txn->Write(hi, std::to_string(std::stoll(vhi) + 1)).ok()) {
          txn->Abort();
          continue;
        }
        txn->Commit();
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(store_->ScanCommitted("", 1000, &rows).ok());
  int64_t sum = 0;
  for (const auto& row : rows) sum += std::stoll(row.value);
  EXPECT_EQ(sum, kAccounts * kInitial);
}

TEST_F(Local2PLTest, StatsCountOutcomes) {
  auto ok_txn = store_->Begin();
  ok_txn->Write("k", "v");
  ok_txn->Commit();
  auto bad_txn = store_->Begin();
  bad_txn->Write("k", "w");
  bad_txn->Abort();
  TxnStats stats = store_->stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.aborts, 1u);
}

TEST_F(Local2PLTest, RepeatedLocksReleaseCleanly) {
  // Re-reading and re-writing a held key must not count a second hold: a
  // leaked share would make the next writer wait out the lock timeout.
  store_->LoadPut("k", "v0");
  auto txn = store_->Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("k", &value).ok());
  ASSERT_TRUE(txn->Read("k", &value).ok());
  ASSERT_TRUE(txn->Write("k", "v1").ok());
  ASSERT_TRUE(txn->Write("k", "v2").ok());
  ASSERT_TRUE(txn->Read("k", &value).ok());
  ASSERT_TRUE(txn->Commit().ok());

  auto next = store_->Begin();
  Stopwatch watch;
  ASSERT_TRUE(next->Write("k", "v3").ok());
  EXPECT_LT(watch.ElapsedMicros(), 20'000u);
  ASSERT_TRUE(next->Commit().ok());
}

TEST_F(Local2PLTest, UpgradeDeadlockFailsFast) {
  // Two sharers of one key both upgrade: neither can proceed while the
  // other holds its shared lock.  The second upgrader must give up at once,
  // not after the (here very long) timeout, and the first then proceeds.
  store_->LoadPut("k", "0");
  Local2PLStore engine(base_, Local2PLOptions{.lock_timeout_us = 10'000'000});
  std::atomic<int> read{0};
  std::atomic<int> busy{0};
  std::atomic<int> committed{0};
  Stopwatch watch;
  auto worker = [&] {
    auto txn = engine.Begin();
    std::string value;
    ASSERT_TRUE(txn->Read("k", &value).ok());
    read.fetch_add(1);
    while (read.load() < 2) std::this_thread::yield();
    Status s = txn->Write("k", "1");
    if (s.ok()) {
      ASSERT_TRUE(txn->Commit().ok());
      committed.fetch_add(1);
    } else {
      EXPECT_TRUE(s.IsBusy());
      busy.fetch_add(1);
      txn->Abort();
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(busy.load(), 1);
  EXPECT_EQ(committed.load(), 1);
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  EXPECT_EQ(engine.stats().lock_busy, 1u);
}

// Generations of threads commit, abort (explicitly and by dropping an open
// transaction) and time out on a held lock, then exit and are followed by
// new threads.  Twenty generations of four take more thread ordinals than
// the store has counter cells, so later threads share cells with exited
// ones.  The totals must be exact and every start_ts unique.
TEST(Local2PLCellTest, StatsStayExactAcrossThreadGenerations) {
  constexpr int kGenerations = 20;
  constexpr int kThreads = 4;
  constexpr int kCommits = 50;
  constexpr int kAborts = 7;
  constexpr int kDropped = 3;
  constexpr int kTimeouts = 2;
  auto base = std::make_shared<kv::ShardedStore>();
  Local2PLStore store(base, Local2PLOptions{.lock_timeout_us = 1'000});
  auto holder = store.Begin();
  ASSERT_TRUE(holder->Write("held", "x").ok());

  std::vector<uint64_t> start_ts;
  for (int g = 0; g < kGenerations; ++g) {
    std::vector<std::vector<uint64_t>> seen(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        const std::string key = StrCat("k", g, "/", t);
        for (int i = 0; i < kCommits; ++i) {
          auto txn = store.Begin();
          seen[t].push_back(txn->start_ts());
          ASSERT_TRUE(txn->Write(key, std::to_string(i)).ok());
          ASSERT_TRUE(txn->Commit().ok());
        }
        for (int i = 0; i < kAborts; ++i) {
          auto txn = store.Begin();
          seen[t].push_back(txn->start_ts());
          ASSERT_TRUE(txn->Write(key, "aborted").ok());
          ASSERT_TRUE(txn->Abort().ok());
        }
        for (int i = 0; i < kDropped; ++i) {
          auto txn = store.Begin();
          seen[t].push_back(txn->start_ts());
          ASSERT_TRUE(txn->Write(key, "dropped").ok());
        }
        for (int i = 0; i < kTimeouts; ++i) {
          auto txn = store.Begin();
          seen[t].push_back(txn->start_ts());
          std::string value;
          EXPECT_TRUE(txn->Read("held", &value).IsBusy());
          ASSERT_TRUE(txn->Abort().ok());
        }
      });
    }
    for (auto& th : pool) th.join();
    for (const auto& ts : seen) start_ts.insert(start_ts.end(), ts.begin(), ts.end());
    std::string value;
    for (int t = 0; t < kThreads; ++t) {
      const std::string key = StrCat("k", g, "/", t);
      ASSERT_TRUE(base->Get(key, &value).ok());
      EXPECT_EQ(value, std::to_string(kCommits - 1)) << "an abort left " << key;
    }
  }
  ASSERT_TRUE(holder->Commit().ok());

  constexpr uint64_t kRuns = kGenerations * kThreads;
  TxnStats stats = store.stats();
  EXPECT_EQ(stats.commits, kRuns * kCommits + 1);
  EXPECT_EQ(stats.aborts, kRuns * (kAborts + kDropped + kTimeouts));
  EXPECT_EQ(stats.lock_busy, kRuns * kTimeouts);
  std::sort(start_ts.begin(), start_ts.end());
  EXPECT_EQ(std::adjacent_find(start_ts.begin(), start_ts.end()), start_ts.end());
  EXPECT_EQ(start_ts.size(), kRuns * (kCommits + kAborts + kDropped + kTimeouts));
}

// A thread keeps its finished transactions for its next Begin() on any
// store.  The store they last ran on may be destroyed first; the thread's
// next store must then get working transactions with fresh counters, and
// the thread's exit must free every parked one (ASan's leak check).
TEST(Local2PLCellTest, ParkedTransactionsOutliveTheirStore) {
  auto base = std::make_shared<kv::ShardedStore>();
  std::thread([&] {
    {
      Local2PLStore first(base);
      // More open at once than a thread parks, so the surplus is freed.
      std::vector<std::unique_ptr<Transaction>> open;
      for (int i = 0; i < 12; ++i) {
        open.push_back(first.Begin());
        ASSERT_TRUE(open.back()->Write(StrCat("first/", i), "v").ok());
      }
      for (int i = 0; i < 6; ++i) ASSERT_TRUE(open[i]->Commit().ok());
      open.clear();  // the other six abort as they are dropped
      EXPECT_EQ(first.stats().commits, 6u);
      EXPECT_EQ(first.stats().aborts, 6u);
    }
    Local2PLStore second(base);
    std::string value;
    for (int i = 0; i < 12; ++i) {
      auto txn = second.Begin();
      ASSERT_TRUE(txn->Read(StrCat("first/", i), &value).ok() == (i < 6));
      ASSERT_TRUE(txn->Write(StrCat("second/", i), "w").ok());
      ASSERT_TRUE((i % 2 == 0 ? txn->Commit() : txn->Abort()).ok());
    }
    TxnStats stats = second.stats();
    EXPECT_EQ(stats.commits, 6u);
    EXPECT_EQ(stats.aborts, 6u);
    EXPECT_TRUE(base->Get("second/0", &value).ok());
    EXPECT_TRUE(base->Get("second/1", &value).IsNotFound());
  }).join();
}

TEST(LockManagerTest, SlotsAreReusedAcrossKeys) {
  // The lock table keeps no state for unlocked keys: 10k lock-and-release
  // rounds on distinct keys leave at most one slot per stripe.
  LockManager locks(/*timeout_us=*/1'000);
  for (int i = 0; i < 10'000; ++i) {
    LockManager::LockSet set;
    bool newly = false;
    ASSERT_TRUE(locks.AcquireExclusive(&set, "key" + std::to_string(i), &newly).ok());
    locks.ReleaseAll(&set);
  }
  EXPECT_LE(locks.SlotCount(), LockManager::kStripes);
}

// Many threads lock random key sets in random modes, including upgrades,
// over more keys than stripes so stripes are shared.  Shadow counters,
// raised after each grant and lowered before each release, must never show
// a writer beside another holder.
TEST(Local2PLStressTest, LockModesStayExclusiveAcrossStripes) {
  constexpr int kKeys = 96;
  constexpr int kThreads = 8;
  constexpr int kRounds = 20000;
  LockManager locks(/*timeout_us=*/1'000);  // deadlocks resolve quickly
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("stress/" + std::to_string(i));
  struct Shadow {
    std::atomic<int> readers{0};
    std::atomic<int> writers{0};
  };
  std::vector<Shadow> shadow(kKeys);
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> grants{0};

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 7);
      for (int round = 0; round < kRounds; ++round) {
        LockManager::LockSet set;
        std::vector<std::pair<int, bool>> held;  // key index, exclusive
        const int want = 1 + static_cast<int>(rng.Uniform(4));
        for (int n = 0; n < want; ++n) {
          int k = static_cast<int>(rng.Uniform(kKeys));
          bool dup = false;
          for (const auto& h : held) dup = dup || h.first == k;
          if (dup) continue;
          const uint64_t mode = rng.Uniform(3);  // S, X, or S then X
          if (mode != 1) {
            if (!locks.AcquireShared(&set, keys[k]).ok()) break;
            shadow[k].readers.fetch_add(1);
            if (shadow[k].writers.load() != 0) failed = true;
            held.emplace_back(k, false);
          }
          if (mode != 0) {
            bool newly = false;
            if (!locks.AcquireExclusive(&set, keys[k], &newly).ok()) break;
            if (!newly) failed = true;
            if (mode == 2) {
              shadow[k].readers.fetch_sub(1);
              held.back().second = true;
            } else {
              held.emplace_back(k, true);
            }
            if (shadow[k].writers.fetch_add(1) != 0) failed = true;
            if (shadow[k].readers.load() != 0) failed = true;
          }
          grants.fetch_add(1);
        }
        for (const auto& [k, exclusive] : held) {
          (exclusive ? shadow[k].writers : shadow[k].readers).fetch_sub(1);
        }
        locks.ReleaseAll(&set);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(grants.load(), 0u);

  // Nothing leaked: every key is free for an exclusive lock at once.
  LockManager::LockSet all;
  for (const auto& key : keys) {
    bool newly = false;
    ASSERT_TRUE(locks.AcquireExclusive(&all, key, &newly).ok()) << key;
  }
  locks.ReleaseAll(&all);
  EXPECT_LE(locks.SlotCount(), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace txn
}  // namespace ycsbt
