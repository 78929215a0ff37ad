#include "core/closed_economy_workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "db/field_codec.h"
#include "db/kvstore_db.h"
#include "db/txn_db.h"
#include "txn/client_txn_store.h"

namespace ycsbt {
namespace core {
namespace {

Properties CewProps(int64_t records, int64_t cash) {
  Properties p;
  p.Set("recordcount", std::to_string(records));
  p.Set("totalcash", std::to_string(cash));
  p.Set("requestdistribution", "zipfian");
  return p;
}

class ClosedEconomyTest : public ::testing::Test {
 protected:
  void LoadAll(ClosedEconomyWorkload& w, DB& db) {
    auto state = w.InitThread(0, 1);
    for (uint64_t i = 0; i < w.record_count(); ++i) {
      ASSERT_TRUE(w.DoInsert(db, state.get()));
    }
  }

  int64_t CountedCash(ClosedEconomyWorkload& w, DB& db) {
    ValidationResult result;
    EXPECT_TRUE(w.Validate(db, 1, &result).ok());
    for (auto& [k, v] : result.report) {
      if (k == "COUNTED CASH") return std::stoll(v);
    }
    return -1;
  }
};

TEST(BalanceTextTest, MatchesToStringAndRejectsMalformedText) {
  for (int64_t v : {INT64_MIN, int64_t{-1}, int64_t{0}, INT64_MAX}) {
    EXPECT_EQ(BalanceText(v).view(), std::to_string(v));
    int64_t parsed = 7;
    ASSERT_TRUE(ParseBalanceText(std::to_string(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
  for (const char* bad : {"12x", "", "99999999999999999999"}) {
    int64_t parsed = 7;
    EXPECT_FALSE(ParseBalanceText(bad, &parsed)) << bad;
    EXPECT_EQ(parsed, 7) << bad;
  }
}

TEST_F(ClosedEconomyTest, InitDefaultsMatchThePaper) {
  ClosedEconomyWorkload w;
  Properties p = CewProps(100, 100000);
  ASSERT_TRUE(w.Init(p).ok());
  EXPECT_EQ(w.total_cash(), 100000);
  EXPECT_EQ(w.capture_bank(), 0);
  // Default totalcash gives every account the $1000 of the paper's text.
  ClosedEconomyWorkload w2;
  Properties p2;
  p2.Set("recordcount", "50");
  ASSERT_TRUE(w2.Init(p2).ok());
  EXPECT_EQ(w2.total_cash(), 50 * 1000);
}

TEST_F(ClosedEconomyTest, RejectsInsufficientCash) {
  ClosedEconomyWorkload w;
  EXPECT_TRUE(w.Init(CewProps(100, 50)).IsInvalidArgument());
}

TEST_F(ClosedEconomyTest, LoadDistributesExactlyTotalCash) {
  ClosedEconomyWorkload w;
  // 1003 does not divide 100000: the remainder must not be lost.
  ASSERT_TRUE(w.Init(CewProps(1003, 100000)).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);
  EXPECT_EQ(CountedCash(w, db), 100000);
}

TEST_F(ClosedEconomyTest, SerialExecutionHasZeroAnomalyScore) {
  ClosedEconomyWorkload w;
  Properties p = CewProps(200, 200000);
  p.Set("readproportion", "0.5");
  p.Set("updateproportion", "0.1");
  p.Set("insertproportion", "0.1");
  p.Set("deleteproportion", "0.1");
  p.Set("scanproportion", "0.05");
  p.Set("readmodifywriteproportion", "0.15");
  p.Set("maxscanlength", "10");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);

  auto state = w.InitThread(0, 1);
  constexpr int kOps = 5000;
  for (int i = 0; i < kOps; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    w.OnTransactionOutcome(state.get(), r, r.ok);
  }
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, kOps, &result).ok());
  EXPECT_TRUE(result.performed);
  EXPECT_TRUE(result.passed)
      << "single-threaded execution must preserve the invariant";
  EXPECT_DOUBLE_EQ(result.anomaly_score, 0.0);
}

TEST_F(ClosedEconomyTest, TransfersMoveMoneyButPreserveSum) {
  ClosedEconomyWorkload w;
  Properties p = CewProps(100, 100000);
  p.Set("readproportion", "0");
  p.Set("readmodifywriteproportion", "1.0");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);
  auto state = w.InitThread(0, 1);
  for (int i = 0; i < 2000; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok);
    ASSERT_STREQ(r.op, "READMODIFYWRITE");
    w.OnTransactionOutcome(state.get(), r, true);
  }
  EXPECT_EQ(CountedCash(w, db), 100000);
}

TEST_F(ClosedEconomyTest, DeleteBanksMoneyAndInsertWithdrawsIt) {
  ClosedEconomyWorkload w;
  Properties p = CewProps(50, 50000);
  p.Set("readproportion", "0");
  p.Set("deleteproportion", "1.0");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);
  auto state = w.InitThread(0, 1);

  // Run deletes until the bank holds something.
  for (int i = 0; i < 20 && w.capture_bank() == 0; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok);
    w.OnTransactionOutcome(state.get(), r, true);
  }
  EXPECT_GT(w.capture_bank(), 0);
  // accounts + bank still == totalcash
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 20, &result).ok());
  EXPECT_TRUE(result.passed);
}

TEST_F(ClosedEconomyTest, AbortedTransactionRefundsTheBank) {
  // Mixed delete/update workload: deletes fill the capture bank, updates
  // withdraw from it.  An update whose commit "fails" must refund its
  // withdrawal — otherwise money would leak out of the economy on aborts.
  ClosedEconomyWorkload w;
  Properties p = CewProps(50, 50000);
  p.Set("readproportion", "0");
  p.Set("deleteproportion", "0.5");
  p.Set("updateproportion", "0.5");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);
  auto state = w.InitThread(0, 1);

  // Commit deletes until the bank holds money.
  int guard = 0;
  while (w.capture_bank() == 0 && guard++ < 200) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok);
    w.OnTransactionOutcome(state.get(), r, true);
  }
  ASSERT_GT(w.capture_bank(), 0);

  // Drive ops until an UPDATE runs, and report its commit as failed.
  for (int i = 0; i < 200; ++i) {
    int64_t bank_before = w.capture_bank();
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok);
    if (std::string(r.op) == "UPDATE") {
      w.OnTransactionOutcome(state.get(), r, /*committed=*/false);
      EXPECT_EQ(w.capture_bank(), bank_before)
          << "aborted update must refund its withdrawal";
      return;
    }
    w.OnTransactionOutcome(state.get(), r, true);
  }
  FAIL() << "no UPDATE operation drawn in 200 tries";
}

TEST_F(ClosedEconomyTest, ValidationDetectsTampering) {
  ClosedEconomyWorkload w;
  ASSERT_TRUE(w.Init(CewProps(100, 100000)).ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  LoadAll(w, db);

  // Steal $7 from some account behind the workload's back.
  std::vector<kv::ScanEntry> entries;
  ASSERT_TRUE(store->Scan("", 1, &entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  FieldMap fields;
  ASSERT_TRUE(DecodeFields(entries[0].value, &fields).ok());
  int64_t balance = std::stoll(std::string(fields.Get("field0")));
  fields.Set("field0", std::to_string(balance - 7));
  ASSERT_TRUE(store->Put(entries[0].key, EncodeFields(fields)).ok());

  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 1000, &result).ok());
  EXPECT_TRUE(result.performed);
  EXPECT_FALSE(result.passed);
  EXPECT_DOUBLE_EQ(result.anomaly_score, 7.0 / 1000.0);
}

TEST_F(ClosedEconomyTest, AnomalyScoreUsesOperationDenominator) {
  ClosedEconomyWorkload w;
  ASSERT_TRUE(w.Init(CewProps(10, 10000)).ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  LoadAll(w, db);
  ValidationResult r1, r2;
  ASSERT_TRUE(w.Validate(db, 100, &r1).ok());
  ASSERT_TRUE(w.Validate(db, 10000, &r2).ok());
  EXPECT_DOUBLE_EQ(r1.anomaly_score, 0.0);
  EXPECT_DOUBLE_EQ(r2.anomaly_score, 0.0);
}

TEST_F(ClosedEconomyTest, RejectsFewerThanTwoTransferAccounts) {
  ClosedEconomyWorkload w;
  Properties p = CewProps(100, 100000);
  p.Set("cew.transfer_accounts", "1");
  EXPECT_TRUE(w.Init(p).IsInvalidArgument());
}

TEST_F(ClosedEconomyTest, BatchedTransfersPreserveSumExactly) {
  // cew.transfer_accounts > 2 switches READMODIFYWRITE to the batched
  // variant (one payer sends $1 to W-1 payees in a single MultiRead +
  // BatchInsert).  The per-commit delta is still exactly zero, so serial
  // execution must keep the anomaly score at 0.
  ClosedEconomyWorkload w;
  Properties p = CewProps(100, 100000);
  p.Set("readproportion", "0");
  p.Set("readmodifywriteproportion", "1.0");
  p.Set("cew.transfer_accounts", "5");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);
  auto state = w.InitThread(0, 1);
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok);
    ASSERT_STREQ(r.op, "READMODIFYWRITE");
    w.OnTransactionOutcome(state.get(), r, true);
  }
  EXPECT_EQ(CountedCash(w, db), 100000);
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, kOps, &result).ok());
  EXPECT_TRUE(result.passed);
  EXPECT_DOUBLE_EQ(result.anomaly_score, 0.0);
}

TEST_F(ClosedEconomyTest, BatchOpsKeepTheEconomyClosed) {
  // Deletes bank money, BATCH_INSERT withdraws it to open funded accounts,
  // BATCH_READ sweeps snapshots — accounts + bank stays totalcash.
  ClosedEconomyWorkload w;
  Properties p = CewProps(100, 100000);
  p.Set("readproportion", "0");
  p.Set("readmodifywriteproportion", "0");
  p.Set("deleteproportion", "0.3");
  p.Set("batchreadproportion", "0.4");
  p.Set("batchinsertproportion", "0.3");
  p.Set("batch.size", "8");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  LoadAll(w, db);
  auto state = w.InitThread(0, 1);
  bool saw_batch_read = false, saw_batch_insert = false;
  constexpr int kOps = 1000;
  for (int i = 0; i < kOps; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok) << r.op;
    if (std::string(r.op) == "BATCH_READ") saw_batch_read = true;
    if (std::string(r.op) == "BATCH_INSERT") saw_batch_insert = true;
    w.OnTransactionOutcome(state.get(), r, true);
  }
  EXPECT_TRUE(saw_batch_read);
  EXPECT_TRUE(saw_batch_insert);
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, kOps, &result).ok());
  EXPECT_TRUE(result.passed);
  EXPECT_DOUBLE_EQ(result.anomaly_score, 0.0);
}

TEST_F(ClosedEconomyTest, WholeWorkloadOverTransactionalStoreStaysConsistent) {
  ClosedEconomyWorkload w;
  Properties p = CewProps(100, 100000);
  p.Set("readproportion", "0.5");
  p.Set("readmodifywriteproportion", "0.3");
  p.Set("updateproportion", "0.1");
  p.Set("deleteproportion", "0.05");
  p.Set("insertproportion", "0.05");
  ASSERT_TRUE(w.Init(p).ok());
  auto base = std::make_shared<kv::ShardedStore>();
  auto txn_store = std::make_shared<txn::ClientTxnStore>(
      base, std::make_shared<txn::HlcTimestampSource>());
  TxnDB db(txn_store);
  LoadAll(w, db);

  auto state = w.InitThread(0, 1);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Start().ok());
    TxnOpResult r = w.DoTransaction(db, state.get());
    bool committed = r.ok && db.Commit().ok();
    if (!r.ok) db.Abort();
    w.OnTransactionOutcome(state.get(), r, committed);
  }
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 2000, &result).ok());
  EXPECT_TRUE(result.passed);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
