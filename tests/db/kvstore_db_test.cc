#include "db/kvstore_db.h"

#include <gtest/gtest.h>

#include <memory>

namespace ycsbt {
namespace {

class KvStoreDBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<KvStoreDB>(std::make_shared<kv::ShardedStore>());
  }

  std::unique_ptr<KvStoreDB> db_;
};

TEST_F(KvStoreDBTest, InsertReadRoundTrip) {
  FieldMap values = {{"field0", "hello"}, {"field1", "world"}};
  ASSERT_TRUE(db_->Insert("usertable", "user1", values).ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("usertable", "user1", nullptr, &result).ok());
  EXPECT_EQ(result, values);
}

TEST_F(KvStoreDBTest, ReadMissingIsNotFound) {
  FieldMap result;
  EXPECT_TRUE(db_->Read("usertable", "ghost", nullptr, &result).IsNotFound());
}

TEST_F(KvStoreDBTest, ReadWithProjection) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"a", "1"}, {"b", "2"}}).ok());
  std::vector<std::string> fields = {"b"};
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", &fields, &result).ok());
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.Get("b"), "2");
}

TEST_F(KvStoreDBTest, UpdateMergesFields) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"a", "1"}, {"b", "2"}}).ok());
  ASSERT_TRUE(db_->Update("t", "k", {{"b", "NEW"}}).ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("a"), "1");
  EXPECT_EQ(result.Get("b"), "NEW");
}

TEST_F(KvStoreDBTest, UpdateMissingIsNotFound) {
  EXPECT_TRUE(db_->Update("t", "ghost", {{"a", "1"}}).IsNotFound());
}

TEST_F(KvStoreDBTest, InsertOverwritesExisting) {
  // Insert is the blind full-record write (upsert); CEW relies on this.
  ASSERT_TRUE(db_->Insert("t", "k", {{"a", "1"}}).ok());
  ASSERT_TRUE(db_->Insert("t", "k", {{"a", "2"}}).ok());
  FieldMap result;
  ASSERT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
  EXPECT_EQ(result.Get("a"), "2");
}

TEST_F(KvStoreDBTest, DeleteRemoves) {
  ASSERT_TRUE(db_->Insert("t", "k", {{"a", "1"}}).ok());
  ASSERT_TRUE(db_->Delete("t", "k").ok());
  FieldMap result;
  EXPECT_TRUE(db_->Read("t", "k", nullptr, &result).IsNotFound());
  EXPECT_TRUE(db_->Delete("t", "k").IsNotFound());
}

TEST_F(KvStoreDBTest, ScanReturnsOrderedRowsWithKeys) {
  for (int i = 0; i < 20; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "u%03d", i);
    ASSERT_TRUE(db_->Insert("t", buf, {{"n", std::to_string(i)}}).ok());
  }
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->Scan("t", "u005", 5, nullptr, &rows).ok());
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].key, "u005");
  EXPECT_EQ(rows[4].key, "u009");
  EXPECT_EQ(rows[2].fields.Get("n"), "7");
}

TEST_F(KvStoreDBTest, ScanStopsAtTableBoundary) {
  ASSERT_TRUE(db_->Insert("aaa", "k1", {{"f", "1"}}).ok());
  ASSERT_TRUE(db_->Insert("zzz", "k2", {{"f", "2"}}).ok());
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->Scan("aaa", "", 100, nullptr, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "k1");
}

TEST_F(KvStoreDBTest, TablesAreNamespaced) {
  ASSERT_TRUE(db_->Insert("t1", "k", {{"f", "one"}}).ok());
  ASSERT_TRUE(db_->Insert("t2", "k", {{"f", "two"}}).ok());
  FieldMap r1, r2;
  ASSERT_TRUE(db_->Read("t1", "k", nullptr, &r1).ok());
  ASSERT_TRUE(db_->Read("t2", "k", nullptr, &r2).ok());
  EXPECT_EQ(r1.Get("f"), "one");
  EXPECT_EQ(r2.Get("f"), "two");
}

TEST_F(KvStoreDBTest, TransactionMethodsAreBackwardCompatibleNoOps) {
  // The YCSB+T guarantee: non-transactional bindings accept the wrapping
  // calls and succeed without any transactional behaviour.
  EXPECT_FALSE(db_->Transactional());
  EXPECT_TRUE(db_->Start().ok());
  ASSERT_TRUE(db_->Insert("t", "k", {{"f", "v"}}).ok());
  EXPECT_TRUE(db_->Commit().ok());
  EXPECT_TRUE(db_->Abort().ok());
  FieldMap result;
  EXPECT_TRUE(db_->Read("t", "k", nullptr, &result).ok());
}

}  // namespace
}  // namespace ycsbt
