#include "db/db_factory.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace ycsbt {
namespace {

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

TEST(DBFactoryTest, UnknownNameRejected) {
  DBFactory factory(Props({{"db", "surelynot"}}));
  EXPECT_TRUE(factory.Init().IsInvalidArgument());
  DBFactory txn_factory(Props({{"db", "txn+surelynot"}}));
  EXPECT_TRUE(txn_factory.Init().IsInvalidArgument());
}

TEST(DBFactoryTest, CreateBeforeInitReturnsNull) {
  DBFactory factory(Props({{"db", "memkv"}}));
  EXPECT_EQ(factory.CreateClient(), nullptr);
}

TEST(DBFactoryTest, BasicByDefault) {
  DBFactory factory(Properties{});
  ASSERT_TRUE(factory.Init().ok());
  EXPECT_EQ(factory.db_name(), "basic");
  auto db = factory.CreateClient();
  ASSERT_NE(db, nullptr);
  EXPECT_FALSE(db->Transactional());
}

TEST(DBFactoryTest, MemkvClientsShareTheStore) {
  DBFactory factory(Props({{"db", "memkv"}}));
  ASSERT_TRUE(factory.Init().ok());
  auto db1 = factory.CreateClient();
  auto db2 = factory.CreateClient();
  ASSERT_TRUE(db1->Insert("t", "k", {{"f", "v"}}).ok());
  FieldMap result;
  ASSERT_TRUE(db2->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "v");
}

TEST(DBFactoryTest, InvalidTxnPropertiesRejected) {
  DBFactory bad_iso(
      Props({{"db", "txn+memkv"}, {"txn.isolation", "chaotic"}}));
  EXPECT_TRUE(bad_iso.Init().IsInvalidArgument());
  DBFactory bad_ts(
      Props({{"db", "txn+memkv"}, {"txn.timestamps", "sundial"}}));
  EXPECT_TRUE(bad_ts.Init().IsInvalidArgument());
}

TEST(DBFactoryTest, NoWaitLocksWithoutFanoutRejected) {
  // No-wait locking is a parallel lock round; with no fan-out executor it
  // would silently fall back to ordered locking.
  DBFactory no_pool(Props({{"db", "txn+memkv"},
                           {"txn.lock_acquire_mode", "nowait"}}));
  Status s = no_pool.Init();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("txn.lock_acquire_mode"), std::string::npos);
  EXPECT_NE(s.ToString().find("txn.fanout_threads"), std::string::npos);
  DBFactory pooled(Props({{"db", "txn+memkv"},
                          {"txn.lock_acquire_mode", "nowait"},
                          {"txn.fanout_threads", "2"}}));
  EXPECT_TRUE(pooled.Init().ok());
}

TEST(DBFactoryTest, TxnBindingSharesOneTransactionalStore) {
  DBFactory factory(Props({{"db", "txn+memkv"}}));
  ASSERT_TRUE(factory.Init().ok());
  EXPECT_NE(factory.client_txn_store(), nullptr);
  auto db1 = factory.CreateClient();
  auto db2 = factory.CreateClient();
  EXPECT_TRUE(db1->Transactional());
  ASSERT_TRUE(db1->Start().ok());
  ASSERT_TRUE(db1->Insert("t", "k", {{"f", "v"}}).ok());
  ASSERT_TRUE(db1->Commit().ok());
  FieldMap result;
  ASSERT_TRUE(db2->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "v");
  EXPECT_GE(factory.client_txn_store()->stats().commits, 1u);
}

TEST(DBFactoryTest, TwoPhaseLockingBinding) {
  DBFactory factory(Props({{"db", "2pl+memkv"}}));
  ASSERT_TRUE(factory.Init().ok());
  auto db = factory.CreateClient();
  EXPECT_TRUE(db->Transactional());
  ASSERT_TRUE(db->Start().ok());
  ASSERT_TRUE(db->Insert("t", "k", {{"f", "v"}}).ok());
  ASSERT_TRUE(db->Abort().ok());
  FieldMap result;
  EXPECT_TRUE(db->Read("t", "k", nullptr, &result).IsNotFound());
}

TEST(DBFactoryTest, CloudBindingExposesStore) {
  DBFactory factory(Props({{"db", "was"}, {"cloud.latency_scale", "0.001"}}));
  ASSERT_TRUE(factory.Init().ok());
  ASSERT_NE(factory.cloud_store(), nullptr);
  auto db = factory.CreateClient();
  ASSERT_TRUE(db->Insert("t", "k", {{"f", "v"}}).ok());
  EXPECT_GE(factory.cloud_store()->stats().requests, 1u);
}

TEST(DBFactoryTest, TxnOverCloudComposes) {
  DBFactory factory(Props({{"db", "txn+gcs"}, {"cloud.latency_scale", "0.001"}}));
  ASSERT_TRUE(factory.Init().ok());
  auto db = factory.CreateClient();
  ASSERT_TRUE(db->Start().ok());
  ASSERT_TRUE(db->Insert("t", "k", {{"f", "v"}}).ok());
  ASSERT_TRUE(db->Commit().ok());
  FieldMap result;
  ASSERT_TRUE(db->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("f"), "v");
}

TEST(DBFactoryTest, OracleTimestampsAccepted) {
  DBFactory factory(Props({{"db", "txn+memkv"},
                           {"txn.timestamps", "oracle"},
                           {"txn.oracle_rtt_us", "1"}}));
  ASSERT_TRUE(factory.Init().ok());
  auto db = factory.CreateClient();
  ASSERT_TRUE(db->Start().ok());
  ASSERT_TRUE(db->Insert("t", "k", {{"f", "v"}}).ok());
  EXPECT_TRUE(db->Commit().ok());
}

TEST(DBFactoryTest, DoubleInitRejected) {
  DBFactory factory(Props({{"db", "memkv"}}));
  ASSERT_TRUE(factory.Init().ok());
  EXPECT_TRUE(factory.Init().IsInvalidArgument());
}

TEST(DBFactoryTest, RawHttpBindingHasLatency) {
  // The loopback profile's default round trip: floor 1150 us.
  DBFactory factory(Props({{"db", "rawhttp"}}));
  ASSERT_TRUE(factory.Init().ok());
  auto db = factory.CreateClient();
  Stopwatch watch;
  ASSERT_TRUE(db->Insert("t", "k", {{"f", "v"}}).ok());
  EXPECT_GE(watch.ElapsedMicros(), 1000u);
}

}  // namespace
}  // namespace ycsbt
