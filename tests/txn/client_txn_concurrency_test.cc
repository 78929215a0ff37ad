// Multi-threaded stress tests of the client-coordinated library: the
// closed-economy invariant under concurrent transfers, deadlock-freedom of
// ordered locking, and progress under pure write contention.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cloud/sim_cloud_store.h"
#include "common/clock.h"
#include "txn/client_txn_store.h"

namespace ycsbt {
namespace txn {
namespace {

class TxnConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_shared<kv::ShardedStore>();
    ts_ = std::make_shared<HlcTimestampSource>();
    store_ = std::make_unique<ClientTxnStore>(base_, ts_);
  }

  int64_t SumAll() {
    std::vector<TxScanEntry> rows;
    EXPECT_TRUE(store_->ScanCommitted("", 1000000, &rows).ok());
    int64_t sum = 0;
    for (const auto& row : rows) sum += std::stoll(row.value);
    return sum;
  }

  std::shared_ptr<kv::ShardedStore> base_;
  std::shared_ptr<HlcTimestampSource> ts_;
  std::unique_ptr<ClientTxnStore> store_;
};

TEST_F(TxnConcurrencyTest, ConcurrentTransfersPreserveTotal) {
  constexpr int kAccounts = 20;
  constexpr int kThreads = 8;
  constexpr int kTransfersPerThread = 300;
  constexpr int64_t kInitial = 1000;
  for (int i = 0; i < kAccounts; ++i) {
    store_->LoadPut("acct" + std::to_string(i), std::to_string(kInitial));
  }

  std::atomic<int> committed{0}, aborted{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        uint64_t a = rng.Uniform(kAccounts);
        uint64_t b = rng.Uniform(kAccounts);
        if (a == b) b = (b + 1) % kAccounts;
        auto txn = store_->Begin();
        std::string va, vb;
        if (!txn->Read("acct" + std::to_string(a), &va).ok() ||
            !txn->Read("acct" + std::to_string(b), &vb).ok()) {
          txn->Abort();
          ++aborted;
          continue;
        }
        txn->Write("acct" + std::to_string(a), std::to_string(std::stoll(va) - 1));
        txn->Write("acct" + std::to_string(b), std::to_string(std::stoll(vb) + 1));
        if (txn->Commit().ok()) {
          ++committed;
        } else {
          ++aborted;
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  // The invariant holds regardless of how many transfers aborted.
  EXPECT_EQ(SumAll(), kAccounts * kInitial);
  EXPECT_GT(committed.load(), 0);
  // Under this contention some aborts are expected; they must equal the
  // stats the store kept.
  TxnStats stats = store_->stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(committed.load()));
  EXPECT_EQ(stats.aborts, static_cast<uint64_t>(aborted.load()));
}

TEST_F(TxnConcurrencyTest, OrderedLockingAvoidsDeadlockOnReversedPairs) {
  // Thread A transfers x->y, thread B transfers y->x, repeatedly.  With
  // unordered lock acquisition this livelocks/deadlocks; ordered locking
  // must finish quickly.
  store_->LoadPut("x", "10000");
  store_->LoadPut("y", "10000");
  constexpr int kRounds = 400;
  auto worker = [&](const std::string& from, const std::string& to) {
    for (int i = 0; i < kRounds; ++i) {
      auto txn = store_->Begin();
      std::string vf, vt;
      if (!txn->Read(from, &vf).ok() || !txn->Read(to, &vt).ok()) {
        txn->Abort();
        continue;
      }
      txn->Write(from, std::to_string(std::stoll(vf) - 1));
      txn->Write(to, std::to_string(std::stoll(vt) + 1));
      txn->Commit();  // abort on conflict is fine; no retry needed
    }
  };
  Stopwatch watch;
  std::thread a(worker, "x", "y");
  std::thread b(worker, "y", "x");
  a.join();
  b.join();
  EXPECT_LT(watch.ElapsedSeconds(), 60.0) << "suspected deadlock";
  EXPECT_EQ(SumAll(), 20000);
}

TEST_F(TxnConcurrencyTest, HotKeyCounterNeverLosesCommittedIncrements) {
  // Every *committed* increment must be present in the final value: the
  // transactional analogue of the lost-update test.
  store_->LoadPut("counter", "0");
  constexpr int kThreads = 8;
  std::atomic<int> committed{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        // Retry loop: keep trying until this increment commits.
        for (int attempt = 0; attempt < 200; ++attempt) {
          auto txn = store_->Begin();
          std::string value;
          if (!txn->Read("counter", &value).ok()) {
            txn->Abort();
            continue;
          }
          txn->Write("counter", std::to_string(std::stoll(value) + 1));
          if (txn->Commit().ok()) {
            ++committed;
            break;
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::string final_value;
  ASSERT_TRUE(store_->ReadCommitted("counter", &final_value).ok());
  EXPECT_EQ(std::stoll(final_value), committed.load());
  EXPECT_GT(committed.load(), 0);
}

TEST_F(TxnConcurrencyTest, AggressiveRecoveryNeverTearsTransactions) {
  // Torture test for the recovery/commit race: the lock lease is far
  // shorter than a commit takes (a simulated store adds per-op latency), so
  // readers constantly "recover" locks whose owners are alive and
  // mid-commit.  The TSR arbitration must guarantee each transaction is
  // all-or-nothing: the transfer invariant survives any interleaving of
  // recoveries, reader-aborts and commits.
  cloud::CloudProfile profile;
  profile.read_latency_median_us = 300.0;
  profile.write_latency_median_us = 300.0;
  profile.latency_sigma = 0.2;
  profile.latency_floor_us = 200.0;
  profile.container_rate_limit = 0.0;
  profile.client_serial_us_per_inflight = 0.0;
  auto slow_base = std::make_shared<cloud::SimCloudStore>(profile, base_);
  TxnOptions options;
  options.lock_lease_us = 500;  // expires mid-commit on purpose
  options.lock_wait_retries = 2;
  options.lock_wait_delay_us = 200;
  auto store = std::make_unique<ClientTxnStore>(slow_base, ts_, options);

  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 1000;
  for (int i = 0; i < kAccounts; ++i) {
    store->LoadPut("acct" + std::to_string(i), std::to_string(kInitial));
  }

  constexpr int kThreads = 6;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 7 + 3);
      for (int i = 0; i < 60; ++i) {
        uint64_t a = rng.Uniform(kAccounts);
        uint64_t b = (a + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
        auto txn = store->Begin();
        std::string va, vb;
        if (!txn->Read("acct" + std::to_string(a), &va).ok() ||
            !txn->Read("acct" + std::to_string(b), &vb).ok()) {
          txn->Abort();
          continue;
        }
        txn->Write("acct" + std::to_string(a), std::to_string(std::stoll(va) - 1));
        txn->Write("acct" + std::to_string(b), std::to_string(std::stoll(vb) + 1));
        txn->Commit();  // may be denied by a recoverer: that's the point
      }
    });
  }
  for (auto& th : pool) th.join();

  // Settle any leftover locks/TSRs, then audit.
  SleepMicros(2000);
  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(store->ScanCommitted("acct", 1000, &rows).ok());
  int64_t sum = 0;
  for (const auto& row : rows) sum += std::stoll(row.value);
  EXPECT_EQ(sum, kAccounts * kInitial)
      << "a torn transaction leaked money (recovery/commit race)";
  TxnStats stats = store->stats();
  EXPECT_GT(stats.roll_backs + stats.roll_forwards + stats.reader_aborts, 0u)
      << "the torture test should actually have exercised recovery";
}

TEST_F(TxnConcurrencyTest, MixedInsertDeleteKeepsStoreConsistent) {
  constexpr int kThreads = 6;
  std::vector<std::thread> pool;
  std::atomic<int> net_inserts{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 31 + 7);
      for (int i = 0; i < 200; ++i) {
        std::string key = "item" + std::to_string(rng.Uniform(40));
        auto txn = store_->Begin();
        std::string value;
        Status r = txn->Read(key, &value);
        if (r.IsNotFound()) {
          txn->Write(key, "1");
          if (txn->Commit().ok()) net_inserts.fetch_add(1);
        } else if (r.ok()) {
          txn->Delete(key);
          if (txn->Commit().ok()) net_inserts.fetch_sub(1);
        } else {
          txn->Abort();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(store_->ScanCommitted("", 10000, &rows).ok());
  EXPECT_EQ(static_cast<int>(rows.size()), net_inserts.load());
}

}  // namespace
}  // namespace txn
}  // namespace ycsbt
