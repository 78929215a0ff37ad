// Functional (single-threaded) tests of the client-coordinated transaction
// library: visibility, atomicity, snapshot isolation semantics, and the
// first-committer-wins conflict rule.

#include "txn/client_txn_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/latency_model.h"
#include "common/rpc_executor.h"
#include "common/sync.h"
#include "kv/instrumented_store.h"

namespace ycsbt {
namespace txn {
namespace {

class ClientTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_shared<kv::ShardedStore>();
    ts_ = std::make_shared<HlcTimestampSource>();
    store_ = std::make_unique<ClientTxnStore>(base_, ts_);
  }

  std::unique_ptr<ClientTxnStore> MakeStore(TxnOptions options) {
    return std::make_unique<ClientTxnStore>(base_, ts_, options);
  }

  std::shared_ptr<kv::ShardedStore> base_;
  std::shared_ptr<HlcTimestampSource> ts_;
  std::unique_ptr<ClientTxnStore> store_;
};

TEST_F(ClientTxnTest, CommitMakesWritesVisible) {
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("a", "1").ok());
  ASSERT_TRUE(txn->Write("b", "2").ok());
  std::string value;
  EXPECT_TRUE(store_->ReadCommitted("a", &value).IsNotFound());  // not yet
  ASSERT_TRUE(txn->Commit().ok());
  ASSERT_TRUE(store_->ReadCommitted("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(store_->ReadCommitted("b", &value).ok());
  EXPECT_EQ(value, "2");
  EXPECT_EQ(store_->stats().commits, 1u);
}

TEST_F(ClientTxnTest, AbortDiscardsEverything) {
  store_->LoadPut("a", "original");
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("a", "changed").ok());
  ASSERT_TRUE(txn->Write("fresh", "new").ok());
  ASSERT_TRUE(txn->Abort().ok());
  std::string value;
  ASSERT_TRUE(store_->ReadCommitted("a", &value).ok());
  EXPECT_EQ(value, "original");
  EXPECT_TRUE(store_->ReadCommitted("fresh", &value).IsNotFound());
  EXPECT_EQ(store_->stats().aborts, 1u);
}

TEST_F(ClientTxnTest, DestructorAbortsActiveTxn) {
  {
    auto txn = store_->Begin();
    txn->Write("k", "v");
  }
  std::string value;
  EXPECT_TRUE(store_->ReadCommitted("k", &value).IsNotFound());
  EXPECT_EQ(store_->stats().aborts, 1u);
}

TEST_F(ClientTxnTest, ReadYourOwnWrites) {
  store_->LoadPut("k", "old");
  auto txn = store_->Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "old");
  ASSERT_TRUE(txn->Write("k", "mine").ok());
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "mine");
  ASSERT_TRUE(txn->Delete("k").ok());
  EXPECT_TRUE(txn->Read("k", &value).IsNotFound());
  ASSERT_TRUE(txn->Abort().ok());
}

TEST_F(ClientTxnTest, TransactionalDeleteCommits) {
  store_->LoadPut("k", "v");
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Delete("k").ok());
  ASSERT_TRUE(txn->Commit().ok());
  std::string value;
  EXPECT_TRUE(store_->ReadCommitted("k", &value).IsNotFound());
}

TEST_F(ClientTxnTest, SnapshotReadsIgnoreLaterCommits) {
  store_->LoadPut("k", "v1");
  auto reader = store_->Begin();
  // A later transaction overwrites and commits.
  auto writer = store_->Begin();
  ASSERT_TRUE(writer->Write("k", "v2").ok());
  ASSERT_TRUE(writer->Commit().ok());
  // The earlier snapshot still sees v1 via the previous version.
  std::string value;
  ASSERT_TRUE(reader->Read("k", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(reader->Commit().ok());
  // A fresh snapshot sees v2.
  auto later = store_->Begin();
  ASSERT_TRUE(later->Read("k", &value).ok());
  EXPECT_EQ(value, "v2");
  later->Commit();
}

TEST_F(ClientTxnTest, KeyInsertedAfterSnapshotIsInvisible) {
  auto reader = store_->Begin();
  auto writer = store_->Begin();
  ASSERT_TRUE(writer->Write("new_key", "v").ok());
  ASSERT_TRUE(writer->Commit().ok());
  std::string value;
  EXPECT_TRUE(reader->Read("new_key", &value).IsNotFound());
  reader->Commit();
}

TEST_F(ClientTxnTest, FirstCommitterWinsOnWriteWriteConflict) {
  store_->LoadPut("k", "base");
  auto t1 = store_->Begin();
  auto t2 = store_->Begin();
  std::string value;
  ASSERT_TRUE(t1->Read("k", &value).ok());
  ASSERT_TRUE(t2->Read("k", &value).ok());
  ASSERT_TRUE(t1->Write("k", "t1").ok());
  ASSERT_TRUE(t2->Write("k", "t2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Commit();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRetryable());
  ASSERT_TRUE(store_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "t1");
  EXPECT_GE(store_->stats().conflicts, 1u);
}

TEST_F(ClientTxnTest, ReadOnlyTransactionsNeverConflict) {
  store_->LoadPut("k", "v");
  auto t1 = store_->Begin();
  auto t2 = store_->Begin();
  std::string value;
  ASSERT_TRUE(t1->Read("k", &value).ok());
  ASSERT_TRUE(t2->Read("k", &value).ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());
}

TEST_F(ClientTxnTest, OperationsAfterCommitAreRejected) {
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("k", "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  std::string value;
  EXPECT_TRUE(txn->Read("k", &value).IsInvalidArgument());
  EXPECT_TRUE(txn->Write("k", "w").IsInvalidArgument());
  EXPECT_TRUE(txn->Commit().IsInvalidArgument());
  EXPECT_TRUE(txn->Abort().IsInvalidArgument());
}

TEST_F(ClientTxnTest, AtomicMultiKeyTransfer) {
  store_->LoadPut("acct1", "100");
  store_->LoadPut("acct2", "100");
  auto txn = store_->Begin();
  std::string v1, v2;
  ASSERT_TRUE(txn->Read("acct1", &v1).ok());
  ASSERT_TRUE(txn->Read("acct2", &v2).ok());
  ASSERT_TRUE(txn->Write("acct1", std::to_string(std::stoll(v1) - 30)).ok());
  ASSERT_TRUE(txn->Write("acct2", std::to_string(std::stoll(v2) + 30)).ok());
  ASSERT_TRUE(txn->Commit().ok());
  ASSERT_TRUE(store_->ReadCommitted("acct1", &v1).ok());
  ASSERT_TRUE(store_->ReadCommitted("acct2", &v2).ok());
  EXPECT_EQ(std::stoll(v1) + std::stoll(v2), 200);
  EXPECT_EQ(v1, "70");
}

TEST_F(ClientTxnTest, ScanSeesSnapshotAndSkipsTsrKeys) {
  store_->LoadPut("a", "1");
  store_->LoadPut("b", "2");
  store_->LoadPut("c", "3");
  auto reader = store_->Begin();
  auto writer = store_->Begin();
  ASSERT_TRUE(writer->Write("b", "22").ok());
  ASSERT_TRUE(writer->Write("d", "4").ok());
  ASSERT_TRUE(writer->Commit().ok());
  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(reader->Scan("", 100, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);  // d invisible at the snapshot
  EXPECT_EQ(rows[0].key, "a");
  EXPECT_EQ(rows[1].key, "b");
  EXPECT_EQ(rows[1].value, "2");  // previous version
  EXPECT_EQ(rows[2].key, "c");
  reader->Commit();

  std::vector<TxScanEntry> committed;
  ASSERT_TRUE(store_->ScanCommitted("", 100, &committed).ok());
  ASSERT_EQ(committed.size(), 4u);
  EXPECT_EQ(committed[1].value, "22");
}

TEST_F(ClientTxnTest, ScanPaginatesPastInvisibleRecords) {
  for (int i = 0; i < 50; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%02d", i);
    store_->LoadPut(buf, std::to_string(i));
  }
  // A small limit with many records forces multiple internal batches.
  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(store_->ScanCommitted("k10", 25, &rows).ok());
  ASSERT_EQ(rows.size(), 25u);
  EXPECT_EQ(rows.front().key, "k10");
  EXPECT_EQ(rows.back().key, "k34");
}

TEST_F(ClientTxnTest, SerializableModeRejectsStaleReads) {
  auto serializable =
      MakeStore(TxnOptions{.isolation = Isolation::kSerializable});
  serializable->LoadPut("x", "1");
  serializable->LoadPut("y", "1");

  // Write skew: t1 reads x writes y; t2 reads y writes x.  SI admits both;
  // serializable validation must abort one.
  auto t1 = serializable->Begin();
  auto t2 = serializable->Begin();
  std::string value;
  ASSERT_TRUE(t1->Read("x", &value).ok());
  ASSERT_TRUE(t2->Read("y", &value).ok());
  ASSERT_TRUE(t1->Write("y", "t1").ok());
  ASSERT_TRUE(t2->Write("x", "t2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  EXPECT_FALSE(t2->Commit().ok());
  EXPECT_GE(serializable->stats().validation_fails, 1u);
}

TEST_F(ClientTxnTest, SnapshotModeAdmitsWriteSkew) {
  // The same interleaving under plain SI commits both — documenting the
  // anomaly the isolation level permits (paper §VII targets such cases).
  store_->LoadPut("x", "1");
  store_->LoadPut("y", "1");
  auto t1 = store_->Begin();
  auto t2 = store_->Begin();
  std::string value;
  ASSERT_TRUE(t1->Read("x", &value).ok());
  ASSERT_TRUE(t2->Read("y", &value).ok());
  ASSERT_TRUE(t1->Write("y", "t1").ok());
  ASSERT_TRUE(t2->Write("x", "t2").ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());
}

TEST_F(ClientTxnTest, TsrCleanupLeavesNoResidue) {
  auto txn = store_->Begin();
  txn->Write("k", "v");
  ASSERT_TRUE(txn->Commit().ok());
  // Only the user record remains in the base store.
  EXPECT_EQ(base_->Count(), 1u);
}

TEST_F(ClientTxnTest, ConcurrentDeleteDefeatsUpdateNotViceVersa) {
  // Lost-delete regression: T_upd reads k, T_del deletes k and commits
  // first.  T_upd's write must CONFLICT — recreating the record would
  // resurrect a deleted key (and, in CEW terms, mint money).
  store_->LoadPut("k", "1000");
  auto t_upd = store_->Begin();
  auto t_del = store_->Begin();
  std::string value;
  ASSERT_TRUE(t_upd->Read("k", &value).ok());
  ASSERT_TRUE(t_upd->Write("k", "1001").ok());
  ASSERT_TRUE(t_del->Read("k", &value).ok());
  ASSERT_TRUE(t_del->Delete("k").ok());
  ASSERT_TRUE(t_del->Commit().ok());
  Status s = t_upd->Commit();
  EXPECT_FALSE(s.ok()) << "update resurrected a concurrently deleted key";
  EXPECT_TRUE(s.IsRetryable());
  EXPECT_TRUE(store_->ReadCommitted("k", &value).IsNotFound());
}

TEST_F(ClientTxnTest, BlindWriteToUnreadVanishedKeyKeepsInsertSemantics) {
  // But a transaction that never read the key may recreate it: that is a
  // legitimate insert, not a lost delete.
  store_->LoadPut("k", "old");
  auto t_ins = store_->Begin();
  auto t_del = store_->Begin();
  std::string value;
  ASSERT_TRUE(t_del->Read("k", &value).ok());
  ASSERT_TRUE(t_del->Delete("k").ok());
  ASSERT_TRUE(t_ins->Write("k", "reborn").ok());  // no prior read
  ASSERT_TRUE(t_del->Commit().ok());
  EXPECT_TRUE(t_ins->Commit().ok());
  ASSERT_TRUE(store_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "reborn");
}

TEST_F(ClientTxnTest, CorruptStoreValueSurfacesAsCorruption) {
  // A raw (non-TxRecord) value planted behind the library's back must fail
  // loudly, not crash or be misread.
  ASSERT_TRUE(base_->Put("poisoned", "not a TxRecord at all").ok());
  auto txn = store_->Begin();
  std::string value;
  EXPECT_TRUE(txn->Read("poisoned", &value).IsCorruption());
  txn->Abort();
  EXPECT_TRUE(store_->ReadCommitted("poisoned", &value).IsCorruption());
  std::vector<TxScanEntry> rows;
  EXPECT_TRUE(store_->ScanCommitted("", 10, &rows).IsCorruption());
}

/// Fails every Get of a TSR key with `error`; all else passes through.
class TsrGetFailingStore : public kv::InstrumentedStore {
 public:
  TsrGetFailingStore(std::shared_ptr<kv::Store> base, Status error)
      : InstrumentedStore(std::move(base)), error_(std::move(error)) {}

  Status Get(const std::string& key, std::string* value,
             uint64_t* etag) override {
    if (key.rfind(TxnOptions().tsr_prefix, 0) == 0) return error_;
    return InstrumentedStore::Get(key, value, etag);
  }

 private:
  Status error_;
};

TEST_F(ClientTxnTest, ReadCommittedSurfacesAFailedTsrRead) {
  // A record under a live owner's lock whose TSR cannot be read: whether the
  // pending write committed is unknown, so serving the last committed
  // version would be a guess.  ReadCommitted fails with the TSR read's
  // error, exactly as ScanCommitted does.
  for (const Status& error :
       {Status::Timeout("tsr read timed out"), Status::IOError("tsr read failed")}) {
    ClientTxnStore store(std::make_shared<TsrGetFailingStore>(base_, error), ts_);
    TxRecord locked;
    locked.commit_ts = ts_->Next();
    locked.value = "old";
    locked.lock_owner = "owner";
    locked.lock_ts = WallMicros();
    locked.pending_value = "new";
    ASSERT_TRUE(base_->Put("k", EncodeTxRecord(locked)).ok());

    std::string value;
    Status s = store.ReadCommitted("k", &value);
    EXPECT_EQ(s.code(), error.code()) << s.ToString();
    std::vector<TxScanEntry> rows;
    EXPECT_EQ(store.ScanCommitted("", 10, &rows).code(), error.code());
  }
}

TEST_F(ClientTxnTest, RecoveryBetweenLockAndCommitPointDeniesTheCommit) {
  // Deterministic version of the recovery/commit race: a fault-injection
  // hook freezes the owner right after it plants its lock (i.e. before its
  // commit point).  A reader then finds the expired lock, plants the ABORTED
  // status record and rolls the lock back.  When the owner resumes, its TSR
  // write must lose and its Commit must report failure — never a half
  // effect.
  auto instrumented = std::make_shared<kv::InstrumentedStore>(base_);
  TxnOptions options;
  options.lock_lease_us = 1000;  // 1 ms: "expired" right after planting
  auto store = std::make_unique<ClientTxnStore>(
      instrumented, ts_, options);
  store->LoadPut("k", "old");

  CountDownLatch lock_planted(1);
  CountDownLatch reader_done(1);
  std::atomic<bool> armed{true};
  instrumented->set_hook([&](kv::InstrumentedStore::Op op, const std::string& key,
                             bool after) {
    if (!after || op != kv::InstrumentedStore::Op::kConditionalPut) return;
    if (key == "k" && armed.exchange(false)) {
      // The owner's lock write just landed; freeze it until the reader has
      // recovered the lock.
      lock_planted.CountDown();
      reader_done.Wait();
    }
  });

  Status owner_commit = Status::OK();
  std::thread owner([&] {
    auto txn = store->Begin();
    std::string value;
    ASSERT_TRUE(txn->Read("k", &value).ok());
    ASSERT_TRUE(txn->Write("k", "torn?").ok());
    owner_commit = txn->Commit();
  });

  lock_planted.Wait();
  SleepMicros(2000);  // let the 1 ms lease lapse
  std::string value;
  ASSERT_TRUE(store->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "old") << "recovered read must serve the committed version";
  reader_done.CountDown();
  owner.join();

  EXPECT_FALSE(owner_commit.ok())
      << "owner reached its commit point after being aborted by recovery";
  ASSERT_TRUE(store->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "old");
  EXPECT_GE(store->stats().roll_backs, 1u);
}

TEST_F(ClientTxnTest, LoadPutThenTransactionalReadWorks) {
  store_->LoadPut("k", "loaded");
  auto txn = store_->Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "loaded");
  txn->Commit();
}

TEST_F(ClientTxnTest, MultiReadMixesBufferAndStoreRows) {
  store_->LoadPut("a", "1");
  store_->LoadPut("b", "2");
  auto txn = store_->Begin();
  ASSERT_TRUE(txn->Write("c", "3").ok());
  ASSERT_TRUE(txn->Delete("a").ok());
  std::vector<TxReadResult> rows;
  txn->MultiRead({"a", "b", "c", "ghost"}, &rows);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[0].status.IsNotFound());  // buffered delete wins
  ASSERT_TRUE(rows[1].status.ok());
  EXPECT_EQ(rows[1].value, "2");
  ASSERT_TRUE(rows[2].status.ok());
  EXPECT_EQ(rows[2].value, "3");  // read-your-writes
  EXPECT_TRUE(rows[3].status.IsNotFound());
  txn->Abort();
}

TEST_F(ClientTxnTest, MultiReadJoinsReadSetForValidation) {
  auto store = MakeStore(TxnOptions{.isolation = Isolation::kSerializable});
  store->LoadPut("x", "0");
  auto txn = store->Begin();
  std::vector<TxReadResult> rows;
  txn->MultiRead({"x"}, &rows);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_TRUE(rows[0].status.ok());
  // A concurrent commit to x must invalidate the batched read exactly as a
  // plain Read would.
  auto other = store->Begin();
  ASSERT_TRUE(other->Write("x", "9").ok());
  ASSERT_TRUE(other->Commit().ok());
  ASSERT_TRUE(txn->Write("y", "1").ok());
  EXPECT_FALSE(txn->Commit().ok());
  EXPECT_EQ(store->stats().validation_fails, 1u);
}

TEST_F(ClientTxnTest, MultiReadWithExecutorMatchesSequentialSemantics) {
  TxnOptions options;
  options.executor = std::make_shared<RpcExecutor>(4);
  auto store = MakeStore(options);
  store->LoadPut("a", "1");
  store->LoadPut("b", "2");
  store->LoadPut("c", "3");
  auto txn = store->Begin();
  ASSERT_TRUE(txn->Write("b", "override").ok());
  std::vector<TxReadResult> rows;
  txn->MultiRead({"a", "b", "c", "ghost"}, &rows);
  ASSERT_EQ(rows.size(), 4u);
  ASSERT_TRUE(rows[0].status.ok());
  EXPECT_EQ(rows[0].value, "1");
  ASSERT_TRUE(rows[1].status.ok());
  EXPECT_EQ(rows[1].value, "override");
  ASSERT_TRUE(rows[2].status.ok());
  EXPECT_EQ(rows[2].value, "3");
  EXPECT_TRUE(rows[3].status.IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
  std::string value;
  ASSERT_TRUE(store->ReadCommitted("b", &value).ok());
  EXPECT_EQ(value, "override");
}


// ---------------------------------------------------------------------------
// Lock-time reuse of the snapshot read (DESIGN.md §10): a key the
// transaction read unlocked is locked from that read's record and etag, so a
// read-modify-write commit re-reads nothing; a stale copy loses the lock CAS.
// Every case runs on the sequential, fan-out ordered and fan-out no-wait
// lock paths.
// ---------------------------------------------------------------------------

enum class LockPath { kSequential, kFanoutOrdered, kFanoutNoWait };

class LockHintTest : public ::testing::TestWithParam<LockPath> {
 protected:
  void SetUp() override {
    base_ = std::make_shared<kv::ShardedStore>();
    counted_ = std::make_shared<kv::InstrumentedStore>(base_);
    // The default MultiGet is a per-key Get loop, so batched prefetches and
    // validation re-reads are counted per key too.
    counted_->set_hook([this](kv::InstrumentedStore::Op op,
                              const std::string& key, bool after) {
      if (after || op != kv::InstrumentedStore::Op::kGet) return;
      std::lock_guard<std::mutex> guard(mu_);
      ++gets_[key];
    });
  }

  std::unique_ptr<ClientTxnStore> MakeStore(TxnOptions options = {}) {
    if (GetParam() != LockPath::kSequential) {
      options.executor = std::make_shared<RpcExecutor>(4);
    }
    if (GetParam() == LockPath::kFanoutNoWait) {
      options.lock_acquire_mode = TxnOptions::LockAcquireMode::kNoWait;
    }
    return std::make_unique<ClientTxnStore>(counted_, ts_, options);
  }

  /// Gets per key since the previous call.
  std::map<std::string, int> TakeGets() {
    std::lock_guard<std::mutex> guard(mu_);
    return std::exchange(gets_, {});
  }

  std::shared_ptr<kv::ShardedStore> base_;
  std::shared_ptr<kv::InstrumentedStore> counted_;
  std::shared_ptr<HlcTimestampSource> ts_ =
      std::make_shared<HlcTimestampSource>();
  std::mutex mu_;
  std::map<std::string, int> gets_;
};

INSTANTIATE_TEST_SUITE_P(
    AllLockPaths, LockHintTest,
    ::testing::Values(LockPath::kSequential, LockPath::kFanoutOrdered,
                      LockPath::kFanoutNoWait),
    [](const ::testing::TestParamInfo<LockPath>& info) {
      switch (info.param) {
        case LockPath::kSequential: return "Sequential";
        case LockPath::kFanoutOrdered: return "FanoutOrdered";
        case LockPath::kFanoutNoWait: return "FanoutNoWait";
      }
      return "Unknown";
    });

TEST_P(LockHintTest, ReadThenWriteCommitIssuesNoGets) {
  auto store = MakeStore();
  store->LoadPut("a", "10");
  store->LoadPut("b", "20");
  auto rmw = store->Begin();
  std::vector<TxReadResult> rows;
  rmw->MultiRead({"a", "b"}, &rows);
  ASSERT_TRUE(rows[0].status.ok());
  ASSERT_TRUE(rows[1].status.ok());
  ASSERT_TRUE(rmw->Write("a", "9").ok());
  ASSERT_TRUE(rmw->Write("b", "21").ok());
  TakeGets();
  ASSERT_TRUE(rmw->Commit().ok());
  EXPECT_EQ(TakeGets(), (std::map<std::string, int>{}))
      << "the lock round re-read a key the snapshot had already loaded";

  // Keys the transaction never read still get their lock-time read.
  auto blind = store->Begin();
  ASSERT_TRUE(blind->Write("a", "1").ok());
  ASSERT_TRUE(blind->Write("c", "3").ok());
  ASSERT_TRUE(blind->Commit().ok());
  EXPECT_EQ(TakeGets(), (std::map<std::string, int>{{"a", 1}, {"c", 1}}));
  std::string value;
  ASSERT_TRUE(store->ReadCommitted("b", &value).ok());
  EXPECT_EQ(value, "21");
  ASSERT_TRUE(store->ReadCommitted("a", &value).ok());
  EXPECT_EQ(value, "1");
}

TEST_P(LockHintTest, StaleReadLosesTheLockCasAndConflicts) {
  auto store = MakeStore();
  store->LoadPut("j", "0");
  store->LoadPut("k", "0");
  auto t1 = store->Begin();
  std::string value;
  ASSERT_TRUE(t1->Read("j", &value).ok());
  ASSERT_TRUE(t1->Read("k", &value).ok());
  auto t2 = store->Begin();
  ASSERT_TRUE(t2->Write("k", "t2").ok());
  ASSERT_TRUE(t2->Commit().ok());

  ASSERT_TRUE(t1->Write("j", "t1").ok());
  ASSERT_TRUE(t1->Write("k", "t1").ok());
  TakeGets();
  Status s = t1->Commit();
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_EQ(TakeGets()["k"], 1) << "the lost CAS must re-read k fresh";
  ASSERT_TRUE(store->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "t2");
  ASSERT_TRUE(store->ReadCommitted("j", &value).ok());
  EXPECT_EQ(value, "0");
}

TEST_P(LockHintTest, ReadAbsentThenConcurrentInsertConflicts) {
  auto store = MakeStore();
  store->LoadPut("j", "0");
  auto t1 = store->Begin();
  std::string value;
  ASSERT_TRUE(t1->Read("j", &value).ok());
  ASSERT_TRUE(t1->Read("n", &value).IsNotFound());
  auto t2 = store->Begin();
  ASSERT_TRUE(t2->Write("n", "t2").ok());
  ASSERT_TRUE(t2->Commit().ok());

  ASSERT_TRUE(t1->Write("j", "t1").ok());
  ASSERT_TRUE(t1->Write("n", "t1").ok());
  Status s = t1->Commit();
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  ASSERT_TRUE(store->ReadCommitted("n", &value).ok());
  EXPECT_EQ(value, "t2") << "the concurrent insert was overwritten";
  ASSERT_TRUE(store->ReadCommitted("j", &value).ok());
  EXPECT_EQ(value, "0");
}

TEST_P(LockHintTest, KeyReadThroughACommittedOwnersLockIsReReadAtLockTime) {
  TxnOptions options;
  options.lock_wait_retries = 1;
  options.lock_wait_delay_us = 100;
  options.lock_wait_jitter = false;
  auto store = MakeStore(options);
  store->LoadPut("j", "0");

  // A committed owner mid-roll-forward: its TSR is durable and its lock
  // (fresh lease) still sits on k.
  TxRecord locked;
  locked.commit_ts = ts_->Next();
  locked.value = "old";
  locked.lock_owner = "owner";
  locked.lock_ts = WallMicros();
  locked.pending_value = "new";
  ASSERT_TRUE(base_->Put("k", EncodeTxRecord(locked)).ok());
  TsrRecord tsr;
  tsr.state = TsrRecord::State::kCommitted;
  tsr.commit_ts = ts_->Next();
  ASSERT_TRUE(
      base_->Put(store->options().tsr_prefix + "owner", EncodeTsr(tsr)).ok());

  auto txn = store->Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("j", &value).ok());
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "new") << "a committed owner's write is live";
  ASSERT_TRUE(txn->Write("j", "1").ok());
  ASSERT_TRUE(txn->Write("k", "newer").ok());
  TakeGets();
  Status s = txn->Commit();

  // Locking from the resolved view would CAS over the owner's live lock and
  // commit; the lock round must instead re-read k and find it busy.
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRetryable()) << s.ToString();
  std::map<std::string, int> gets = TakeGets();
  EXPECT_GE(gets["k"], 1);
  EXPECT_EQ(gets["j"], 0);
  EXPECT_GE(store->stats().lock_busy, 1u);
  TxRecord stored;
  std::string raw;
  ASSERT_TRUE(base_->Get("k", &raw).ok());
  ASSERT_TRUE(DecodeTxRecord(raw, &stored).ok());
  EXPECT_EQ(stored.lock_owner, "owner");
  ASSERT_TRUE(store->ReadCommitted("j", &value).ok());
  EXPECT_EQ(value, "0");
}

TEST_P(LockHintTest, SerializableValidationReReadsEveryReadOnlyKey) {
  auto store = MakeStore(TxnOptions{.isolation = Isolation::kSerializable});
  store->LoadPut("x", "1");
  store->LoadPut("y", "1");
  store->LoadPut("z", "1");
  auto txn = store->Begin();
  std::vector<TxReadResult> rows;
  txn->MultiRead({"x", "y", "z"}, &rows);
  for (const auto& row : rows) ASSERT_TRUE(row.status.ok());
  ASSERT_TRUE(txn->Write("x", "2").ok());
  ASSERT_TRUE(txn->Write("w", "2").ok());
  TakeGets();
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(TakeGets(),
            (std::map<std::string, int>{{"w", 1}, {"y", 1}, {"z", 1}}));
}

}  // namespace
}  // namespace txn
}  // namespace ycsbt
