#include "db/txn_db.h"

#include <gtest/gtest.h>

#include <memory>

#include "txn/client_txn_store.h"
#include "txn/local_2pl.h"

namespace ycsbt {
namespace {

class TxnDBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = std::make_shared<kv::ShardedStore>();
    store_ = std::make_shared<txn::ClientTxnStore>(
        base, std::make_shared<txn::HlcTimestampSource>());
    db_ = std::make_unique<TxnDB>(store_);
  }

  std::shared_ptr<txn::ClientTxnStore> store_;
  std::unique_ptr<TxnDB> db_;
};

TEST_F(TxnDBTest, IsTransactional) { EXPECT_TRUE(db_->Transactional()); }

TEST_F(TxnDBTest, AutoCommitOpsWorkOutsideTransactions) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"f", "v"}}).ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "v");
  ASSERT_TRUE(db_->Update("t", "k", {{"f", "w"}}).ok());
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "w");
  ASSERT_TRUE(db_->Delete("t", "k").ok());
  EXPECT_TRUE(db_->Read("t", "k", nullptr, &result).IsNotFound());
}

TEST_F(TxnDBTest, CommittedTransactionIsAtomic) {
  ASSERT_TRUE(db_->Insert("t", "a", {{"f", "1"}}).ok());
  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(db_->Update("t", "a", {{"f", "2"}}).ok());
  ASSERT_TRUE(db_->Insert("t", "b", {{"f", "3"}}).ok());
  ASSERT_TRUE(db_->Commit().ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "a", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "2");
  ASSERT_TRUE(db_->Read("t", "b", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "3");
}

TEST_F(TxnDBTest, AbortRollsBackEverything) {
  ASSERT_TRUE(db_->Insert("t", "a", {{"f", "1"}}).ok());
  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(db_->Update("t", "a", {{"f", "2"}}).ok());
  ASSERT_TRUE(db_->Insert("t", "b", {{"f", "3"}}).ok());
  ASSERT_TRUE(db_->Delete("t", "a").ok());
  ASSERT_TRUE(db_->Abort().ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "a", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "1");
  EXPECT_TRUE(db_->Read("t", "b", nullptr, &result).IsNotFound());
}

TEST_F(TxnDBTest, ReadYourWritesInsideTransaction) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"f", "old"}}).ok());
  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(db_->Update("t", "k", {{"f", "new"}}).ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "new");
  ASSERT_TRUE(db_->Commit().ok());
}

TEST_F(TxnDBTest, UpdateInsideTxnMergesAtomically) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"a", "1"}, {"b", "2"}}).ok());
  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(db_->Update("t", "k", {{"b", "NEW"}}).ok());
  ASSERT_TRUE(db_->Commit().ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("a"), "1");
  EXPECT_EQ(result.Get("b"), "NEW");
}

TEST_F(TxnDBTest, StateMachineGuards) {
  EXPECT_TRUE(db_->Commit().IsInvalidArgument());  // no txn active
  EXPECT_TRUE(db_->Abort().IsInvalidArgument());
  ASSERT_TRUE(db_->Start().ok());
  EXPECT_TRUE(db_->Start().IsInvalidArgument());  // nested txn
  ASSERT_TRUE(db_->Abort().ok());
  ASSERT_TRUE(db_->Start().ok());  // fresh txn after abort
  ASSERT_TRUE(db_->Commit().ok());
}

TEST_F(TxnDBTest, ScanInsideAndOutsideTransactions) {
  for (int i = 0; i < 10; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "u%02d", i);
    ASSERT_TRUE(db_->Insert("t", buf, {{"n", std::to_string(i)}}).ok());
  }
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->Scan("t", "u03", 4, nullptr, &rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].key, "u03");

  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(db_->Scan("t", "", 100, nullptr, &rows).ok());
  EXPECT_EQ(rows.size(), 10u);
  ASSERT_TRUE(db_->Commit().ok());
}

TEST_F(TxnDBTest, CommitFailurePropagatesConflict) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"f", "base"}}).ok());
  // Two bindings over the same store, racing on one key.
  TxnDB other(store_);
  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(db_->Update("t", "k", {{"f", "mine"}}).ok());
  ASSERT_TRUE(other.Update("t", "k", {{"f", "theirs"}}).ok());
  ASSERT_TRUE(db_->Commit().ok());
  Status s = other.Commit();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRetryable());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "mine");
}

TEST_F(TxnDBTest, HandleIsReusableAfterFailedCommit) {
  // Regression: whatever Commit()/Abort() return, the binding must shed its
  // transaction handle so the retry loop's next Start() gets a fresh one.
  ASSERT_TRUE(db_->Insert("t", "k", {{"f", "base"}}).ok());
  TxnDB other(store_);
  ASSERT_TRUE(db_->Start().ok());
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(db_->Update("t", "k", {{"f", "mine"}}).ok());
  ASSERT_TRUE(other.Update("t", "k", {{"f", "theirs"}}).ok());
  ASSERT_TRUE(db_->Commit().ok());
  ASSERT_FALSE(other.Commit().ok());  // lost the race

  // The loser must be able to start and commit a whole new transaction.
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(other.Update("t", "k", {{"f", "retry"}}).ok());
  ASSERT_TRUE(other.Commit().ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "retry");

  // Same guarantee after an explicit abort.
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(other.Update("t", "k", {{"f", "junk"}}).ok());
  ASSERT_TRUE(other.Abort().ok());
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(other.Commit().ok());
}

TEST_F(TxnDBTest, WorksWithLocal2PLEngine) {
  auto base = std::make_shared<kv::ShardedStore>();
  auto engine = std::make_shared<txn::Local2PLStore>(base);
  TxnDB db(engine);
  ASSERT_TRUE(db.Insert("t", "k", {{"f", "1"}}).ok());
  ASSERT_TRUE(db.Start().ok());
  ASSERT_TRUE(db.Update("t", "k", {{"f", "2"}}).ok());
  ASSERT_TRUE(db.Abort().ok());
  FieldMap result;
  ASSERT_TRUE(db.Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "1");
}

}  // namespace
}  // namespace ycsbt
