#include "core/write_skew_workload.h"

#include <gtest/gtest.h>

#include "core/benchmark.h"
#include "db/kvstore_db.h"
#include "db/txn_db.h"
#include "txn/client_txn_store.h"

namespace ycsbt {
namespace core {
namespace {

Properties SkewProps(uint64_t pairs) {
  Properties p;
  p.Set("workload", "write_skew");
  p.Set("recordcount", std::to_string(pairs * 2));
  return p;
}

TEST(WriteSkewWorkloadTest, InitValidatesConfig) {
  WriteSkewWorkload w;
  Properties odd;
  odd.Set("recordcount", "7");
  EXPECT_TRUE(w.Init(odd).IsInvalidArgument());
  Properties zero;
  zero.Set("recordcount", "0");
  EXPECT_TRUE(w.Init(zero).IsInvalidArgument());
  Properties bad_dist = SkewProps(10);
  bad_dist.Set("requestdistribution", "latest");
  EXPECT_TRUE(w.Init(bad_dist).IsInvalidArgument());
  Properties negative = SkewProps(10);
  negative.Set("writeskew.initial", "-5");
  EXPECT_TRUE(w.Init(negative).IsInvalidArgument());
  EXPECT_TRUE(w.Init(SkewProps(10)).ok());
  EXPECT_EQ(w.pair_count(), 10u);
  EXPECT_EQ(w.record_count(), 20u);
}

TEST(WriteSkewWorkloadTest, PairKeysAreAdjacentAndOrdered) {
  WriteSkewWorkload w;
  ASSERT_TRUE(w.Init(SkewProps(3)).ok());
  EXPECT_LT(w.PairKey(0, 0), w.PairKey(0, 1));
  EXPECT_LT(w.PairKey(0, 1), w.PairKey(1, 0));
  EXPECT_LT(w.PairKey(9, 1), w.PairKey(10, 0));  // padding keeps order at width changes
}

TEST(WriteSkewWorkloadTest, LoadCreatesAllPairs) {
  WriteSkewWorkload w;
  ASSERT_TRUE(w.Init(SkewProps(25)).ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < w.record_count(); ++i) {
    ASSERT_TRUE(w.DoInsert(db, state.get()));
  }
  EXPECT_EQ(store->Count(), 50u);
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 0, &result).ok());
  EXPECT_TRUE(result.passed);
  EXPECT_DOUBLE_EQ(result.anomaly_score, 0.0);
}

TEST(WriteSkewWorkloadTest, SerialWithdrawalsNeverViolate) {
  WriteSkewWorkload w;
  Properties p = SkewProps(20);
  p.Set("readproportion", "0.2");
  ASSERT_TRUE(w.Init(p).ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < w.record_count(); ++i) {
    ASSERT_TRUE(w.DoInsert(db, state.get()));
  }
  for (int i = 0; i < 3000; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok) << r.op;
  }
  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 3000, &result).ok());
  EXPECT_TRUE(result.passed)
      << "every withdrawal checked the constraint; serial execution is safe";
}

TEST(WriteSkewWorkloadTest, ValidationDetectsPlantedViolation) {
  WriteSkewWorkload w;
  ASSERT_TRUE(w.Init(SkewProps(5)).ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < w.record_count(); ++i) {
    ASSERT_TRUE(w.DoInsert(db, state.get()));
  }
  // Force pair 2 negative behind the workload's back.
  FieldMap fields;
  fields.Set("balance", "-500");
  ASSERT_TRUE(db.Insert("skewtable", w.PairKey(2, 0), fields).ok());

  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 100, &result).ok());
  EXPECT_FALSE(result.passed);
  EXPECT_DOUBLE_EQ(result.anomaly_score, 1.0 / 100.0);
  bool found_overdraft = false;
  for (auto& [key, value] : result.report) {
    if (key == "TOTAL OVERDRAFT") {
      EXPECT_EQ(value, "400");  // -500 + 100 partner = -400
      found_overdraft = true;
    }
  }
  EXPECT_TRUE(found_overdraft);
}

TEST(WriteSkewWorkloadTest, SnapshotIsolationAdmitsSkewDeterministically) {
  // The anomaly, forced: two SI transactions read the same pair and debit
  // different sides.  Disjoint write sets -> both commit -> pair negative.
  WriteSkewWorkload w;
  ASSERT_TRUE(w.Init(SkewProps(1)).ok());
  auto base = std::make_shared<kv::ShardedStore>();
  auto store = std::make_shared<txn::ClientTxnStore>(
      base, std::make_shared<txn::HlcTimestampSource>());
  TxnDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 2; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));

  TxnDB db1(store), db2(store);
  std::string kx = w.PairKey(0, 0), ky = w.PairKey(0, 1);
  FieldMap rx, ry, wx, wy;
  wx.Set("balance", "-100");  // withdraws the full combined balance (200) from x
  wy.Set("balance", "-100");  // and the other from y
  ASSERT_TRUE(db1.Start().ok());
  ASSERT_TRUE(db2.Start().ok());
  ASSERT_TRUE(db1.Read("skewtable", kx, nullptr, &rx).ok());
  ASSERT_TRUE(db1.Read("skewtable", ky, nullptr, &ry).ok());
  ASSERT_TRUE(db2.Read("skewtable", kx, nullptr, &rx).ok());
  ASSERT_TRUE(db2.Read("skewtable", ky, nullptr, &ry).ok());
  ASSERT_TRUE(db1.Insert("skewtable", kx, wx).ok());
  ASSERT_TRUE(db2.Insert("skewtable", ky, wy).ok());
  EXPECT_TRUE(db1.Commit().ok());
  EXPECT_TRUE(db2.Commit().ok()) << "disjoint write sets: SI admits both";

  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 2, &result).ok());
  EXPECT_FALSE(result.passed) << "write skew must be visible to Tier 6";
}

TEST(WriteSkewWorkloadTest, SerializableRejectsTheSameInterleaving) {
  WriteSkewWorkload w;
  ASSERT_TRUE(w.Init(SkewProps(1)).ok());
  auto base = std::make_shared<kv::ShardedStore>();
  txn::TxnOptions options;
  options.isolation = txn::Isolation::kSerializable;
  auto store = std::make_shared<txn::ClientTxnStore>(
      base, std::make_shared<txn::HlcTimestampSource>(), options);
  TxnDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 2; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));

  TxnDB db1(store), db2(store);
  std::string kx = w.PairKey(0, 0), ky = w.PairKey(0, 1);
  FieldMap r, neg;
  neg.Set("balance", "-100");
  ASSERT_TRUE(db1.Start().ok());
  ASSERT_TRUE(db2.Start().ok());
  ASSERT_TRUE(db1.Read("skewtable", kx, nullptr, &r).ok());
  ASSERT_TRUE(db1.Read("skewtable", ky, nullptr, &r).ok());
  ASSERT_TRUE(db2.Read("skewtable", kx, nullptr, &r).ok());
  ASSERT_TRUE(db2.Read("skewtable", ky, nullptr, &r).ok());
  ASSERT_TRUE(db1.Insert("skewtable", kx, neg).ok());
  ASSERT_TRUE(db2.Insert("skewtable", ky, neg).ok());
  EXPECT_TRUE(db1.Commit().ok());
  EXPECT_FALSE(db2.Commit().ok()) << "read-set validation must reject t2";

  ValidationResult result;
  ASSERT_TRUE(w.Validate(db, 2, &result).ok());
  EXPECT_TRUE(result.passed);
}

TEST(WriteSkewWorkloadTest, EndToEndUnder2PLStaysClean) {
  Properties p = SkewProps(25);
  p.Set("db", "2pl+memkv");
  p.Set("operationcount", "2000");
  p.Set("threads", "6");
  p.Set("requestdistribution", "zipfian");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed);
}

TEST(WriteSkewWorkloadTest, EndToEndSerializableStaysClean) {
  Properties p = SkewProps(25);
  p.Set("db", "txn+memkv");
  p.Set("txn.isolation", "serializable");
  p.Set("operationcount", "2000");
  p.Set("threads", "6");
  p.Set("requestdistribution", "zipfian");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed);
  EXPECT_EQ(result.operations, result.committed + result.failed);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
