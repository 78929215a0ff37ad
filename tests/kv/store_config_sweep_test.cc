// Parameterised configuration sweep over the storage engine: the functional
// contract (CRUD, CAS, ordered scans, counting) must be identical for every
// shard count and durability configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "kv/store.h"
#include "str_cat.h"

namespace ycsbt {
namespace kv {
namespace {

struct StoreConfig {
  const char* name;
  int shards;
  bool wal;
  bool sync;
};

class StoreConfigSweep : public ::testing::TestWithParam<StoreConfig> {
 protected:
  void SetUp() override {
    const auto& config = GetParam();
    wal_path_ = ::testing::TempDir() + "sweep_" + config.name + "_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(wal_path_.c_str());
    StoreOptions options;
    options.num_shards = config.shards;
    if (config.wal) {
      options.wal_path = wal_path_;
      options.sync_wal = config.sync;
    }
    store_ = std::make_unique<ShardedStore>(options);
    ASSERT_TRUE(store_->Open().ok());
  }

  void TearDown() override { std::remove(wal_path_.c_str()); }

  std::string wal_path_;
  std::unique_ptr<ShardedStore> store_;
};

TEST_P(StoreConfigSweep, CrudContract) {
  uint64_t etag = 0;
  ASSERT_TRUE(store_->Put("k", "v1", &etag).ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(store_->ConditionalPut("k", "v2", etag + 7).IsConflict());
  ASSERT_TRUE(store_->ConditionalPut("k", "v2", etag).ok());
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Get("k", &value).IsNotFound());
}

TEST_P(StoreConfigSweep, ScanIsTotallyOrdered) {
  for (int i = 0; i < 64; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%03d", (i * 37) % 64);  // shuffled inserts
    ASSERT_TRUE(store_->Put(buf, "v").ok());
  }
  std::vector<ScanEntry> rows;
  ASSERT_TRUE(store_->Scan("", 100, &rows).ok());
  ASSERT_EQ(rows.size(), 64u);
  for (size_t i = 1; i < rows.size(); ++i) {
    ASSERT_LT(rows[i - 1].key, rows[i].key);
  }
  // Mid-range scans agree with the full order.
  std::vector<ScanEntry> mid;
  ASSERT_TRUE(store_->Scan("key032", 5, &mid).ok());
  ASSERT_EQ(mid.size(), 5u);
  EXPECT_EQ(mid.front().key, "key032");
  EXPECT_EQ(mid.back().key, "key036");
}

TEST_P(StoreConfigSweep, CountMatchesScan) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store_->Put(StrCat("n", i), "v").ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store_->Delete(StrCat("n", i * 3)).ok());
  }
  std::vector<ScanEntry> rows;
  ASSERT_TRUE(store_->Scan("", 1000, &rows).ok());
  EXPECT_EQ(store_->Count(), rows.size());
  EXPECT_EQ(store_->Count(), 20u);
}

TEST_P(StoreConfigSweep, EtagsUniqueAcrossShards) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    uint64_t etag = 0;
    ASSERT_TRUE(store_->Put(StrCat("e", i), "v", &etag).ok());
    EXPECT_TRUE(seen.insert(etag).second) << "etag reused";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, StoreConfigSweep,
    ::testing::Values(StoreConfig{"single_shard", 1, false, false},
                      StoreConfig{"default_shards", 16, false, false},
                      StoreConfig{"many_shards", 64, false, false},
                      StoreConfig{"walled", 16, true, false},
                      StoreConfig{"walled_sync", 4, true, true}),
    [](const ::testing::TestParamInfo<StoreConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace kv
}  // namespace ycsbt
