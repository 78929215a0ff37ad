#include "kv/store.h"
#include "str_cat.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

namespace ycsbt {
namespace kv {
namespace {

TEST(ShardedStoreTest, GetMissingIsNotFound) {
  ShardedStore store;
  std::string value;
  EXPECT_TRUE(store.Get("nope", &value).IsNotFound());
}

TEST(ShardedStoreTest, PutGetDelete) {
  ShardedStore store;
  uint64_t etag = 0;
  ASSERT_TRUE(store.Put("k", "v", &etag).ok());
  EXPECT_GT(etag, kEtagAbsent);
  std::string value;
  uint64_t read_etag = 0;
  ASSERT_TRUE(store.Get("k", &value, &read_etag).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(read_etag, etag);
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_TRUE(store.Get("k", &value).IsNotFound());
  EXPECT_TRUE(store.Delete("k").IsNotFound());
}

TEST(ShardedStoreTest, EtagsAdvanceOnEveryWrite) {
  ShardedStore store;
  uint64_t e1, e2;
  ASSERT_TRUE(store.Put("k", "v1", &e1).ok());
  ASSERT_TRUE(store.Put("k", "v2", &e2).ok());
  EXPECT_GT(e2, e1);
}

TEST(ShardedStoreTest, ConditionalPutIfAbsent) {
  ShardedStore store;
  uint64_t etag = 0;
  ASSERT_TRUE(store.ConditionalPut("k", "v", kEtagAbsent, &etag).ok());
  // Second if-absent put must lose.
  EXPECT_TRUE(store.ConditionalPut("k", "w", kEtagAbsent).IsConflict());
  std::string value;
  store.Get("k", &value);
  EXPECT_EQ(value, "v");
}

TEST(ShardedStoreTest, ConditionalPutIfMatch) {
  ShardedStore store;
  uint64_t etag = 0;
  ASSERT_TRUE(store.Put("k", "v1", &etag).ok());
  uint64_t etag2 = 0;
  ASSERT_TRUE(store.ConditionalPut("k", "v2", etag, &etag2).ok());
  EXPECT_GT(etag2, etag);
  // Stale etag loses.
  EXPECT_TRUE(store.ConditionalPut("k", "v3", etag).IsConflict());
  // Missing key with an if-match expectation is a conflict, not NotFound.
  EXPECT_TRUE(store.ConditionalPut("missing", "v", 42).IsConflict());
}

TEST(ShardedStoreTest, ConditionalDelete) {
  ShardedStore store;
  uint64_t etag = 0;
  ASSERT_TRUE(store.Put("k", "v", &etag).ok());
  EXPECT_TRUE(store.ConditionalDelete("k", etag + 99).IsConflict());
  ASSERT_TRUE(store.ConditionalDelete("k", etag).ok());
  EXPECT_TRUE(store.ConditionalDelete("k", etag).IsConflict());  // gone
}

TEST(ShardedStoreTest, ScanOrderedAcrossShards) {
  StoreOptions options;
  options.num_shards = 8;  // force cross-shard merge
  ShardedStore store(options);
  for (int i = 99; i >= 0; --i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%03d", i);
    ASSERT_TRUE(store.Put(buf, std::to_string(i)).ok());
  }
  std::vector<ScanEntry> out;
  ASSERT_TRUE(store.Scan("key010", 20, &out).ok());
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out.front().key, "key010");
  EXPECT_EQ(out.back().key, "key029");
  for (size_t i = 1; i < out.size(); ++i) ASSERT_LT(out[i - 1].key, out[i].key);
}

TEST(ShardedStoreTest, ScanHonoursLimitAndExhaustion) {
  ShardedStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  std::vector<ScanEntry> out;
  ASSERT_TRUE(store.Scan("", 10, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  ASSERT_TRUE(store.Scan("", 0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(store.Scan("zzz", 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ShardedStoreTest, CountTracksLiveKeys) {
  ShardedStore store;
  EXPECT_EQ(store.Count(), 0u);
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("a", "3");  // overwrite, not a new key
  EXPECT_EQ(store.Count(), 2u);
  store.Delete("a");
  EXPECT_EQ(store.Count(), 1u);
}

TEST(ShardedStoreTest, SingleKeyCasIsAtomicUnderContention) {
  // N threads CAS-increment one counter key; every increment must land.
  ShardedStore store;
  store.Put("counter", "0");
  constexpr int kThreads = 4, kIncrements = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          std::string value;
          uint64_t etag;
          ASSERT_TRUE(store.Get("counter", &value, &etag).ok());
          int64_t next = std::stoll(value) + 1;
          if (store.ConditionalPut("counter", std::to_string(next), etag).ok()) {
            break;
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::string value;
  store.Get("counter", &value);
  EXPECT_EQ(value, std::to_string(kThreads * kIncrements));
}

TEST(ShardedStoreTest, BlindPutsLoseUpdatesUnderContention) {
  // The non-transactional anomaly mechanism: read-modify-write with blind
  // puts drops increments under concurrency.  (Not a strict guarantee per
  // run, but with this much contention a loss is effectively certain.)
  ShardedStore store;
  store.Put("counter", "0");
  constexpr int kThreads = 8, kIncrements = 4000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        std::string value;
        ASSERT_TRUE(store.Get("counter", &value).ok());
        ASSERT_TRUE(store.Put("counter", std::to_string(std::stoll(value) + 1)).ok());
      }
    });
  }
  for (auto& th : pool) th.join();
  std::string value;
  store.Get("counter", &value);
  EXPECT_LE(std::stoll(value), static_cast<int64_t>(kThreads) * kIncrements);
}

class PersistentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ = ::testing::TempDir() + "store_wal_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(wal_path_.c_str());
  }
  void TearDown() override { std::remove(wal_path_.c_str()); }

  StoreOptions PersistentOptions() {
    StoreOptions options;
    options.wal_path = wal_path_;
    return options;
  }

  std::string wal_path_;
};

TEST_F(PersistentStoreTest, OpsBeforeOpenFail) {
  ShardedStore store(PersistentOptions());
  EXPECT_TRUE(store.Put("k", "v").IsIOError());
}

TEST_F(PersistentStoreTest, RecoversAfterRestart) {
  {
    ShardedStore store(PersistentOptions());
    ASSERT_TRUE(store.Open().ok());
    uint64_t etag = 0;
    ASSERT_TRUE(store.Put("a", "1").ok());
    ASSERT_TRUE(store.Put("b", "2").ok());
    ASSERT_TRUE(store.Put("a", "updated", &etag).ok());
    // Overwrites assign in place; a shorter value reuses the longer buffer.
    ASSERT_TRUE(store.ConditionalPut("a", "cas", etag).ok());
    ASSERT_TRUE(store.Delete("b").ok());
  }
  ShardedStore revived(PersistentOptions());
  ASSERT_TRUE(revived.Open().ok());
  std::string value;
  ASSERT_TRUE(revived.Get("a", &value).ok());
  EXPECT_EQ(value, "cas");
  EXPECT_TRUE(revived.Get("b", &value).IsNotFound());
  EXPECT_EQ(revived.Count(), 1u);
}

TEST_F(PersistentStoreTest, FailedWritesDrawNoEtagAndLogNoFrame) {
  ShardedStore store(PersistentOptions());
  ASSERT_TRUE(store.Open().ok());
  uint64_t etag = 0;
  ASSERT_TRUE(store.Put("k", "v", &etag).ok());
  ASSERT_EQ(store.DrainWalStats().appends, 1u);
  EXPECT_TRUE(store.Put("", "v").IsInvalidArgument());
  EXPECT_TRUE(store.ConditionalPut("k", "w", kEtagAbsent).IsConflict());
  EXPECT_TRUE(store.ConditionalPut("k", "w", etag + 99).IsConflict());
  EXPECT_TRUE(store.ConditionalPut("absent", "w", etag).IsConflict());
  EXPECT_TRUE(store.Delete("absent").IsNotFound());
  EXPECT_TRUE(store.ConditionalDelete("absent", etag).IsConflict());
  EXPECT_TRUE(store.ConditionalDelete("k", etag + 99).IsConflict());
  EXPECT_EQ(store.DrainWalStats().appends, 0u);
  uint64_t next = 0;
  ASSERT_TRUE(store.Put("k", "w", &next).ok());
  EXPECT_EQ(next, etag + 1);
}

TEST_F(PersistentStoreTest, ReopensWritableAfterTornTail) {
  {
    ShardedStore store(PersistentOptions());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Put("a", "1").ok());
    ASSERT_TRUE(store.Put("b", "2").ok());
  }
  // Crash mid-append: chop bytes off the final record.
  {
    std::ifstream in(wal_path_, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(wal_path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() - 3));
  }
  {
    ShardedStore revived(PersistentOptions());
    ASSERT_TRUE(revived.Open().ok());  // recovery stops at the last good record
    std::string value;
    ASSERT_TRUE(revived.Get("a", &value).ok());
    EXPECT_EQ(value, "1");
    EXPECT_TRUE(revived.Get("b", &value).IsNotFound());
    // The store must stay writable after the repair...
    ASSERT_TRUE(revived.Put("c", "3").ok());
  }
  // ...and the new write must itself be durable.
  ShardedStore again(PersistentOptions());
  ASSERT_TRUE(again.Open().ok());
  std::string value;
  ASSERT_TRUE(again.Get("c", &value).ok());
  EXPECT_EQ(value, "3");
}

TEST_F(PersistentStoreTest, ReopensWritableAfterCorruptLastRecord) {
  {
    ShardedStore store(PersistentOptions());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Put("a", "1").ok());
    ASSERT_TRUE(store.Put("b", "2").ok());
  }
  // Flip the final byte (inside the last record's payload): the CRC check
  // treats a corrupt FINAL frame as a torn tail, not fatal corruption.
  {
    std::fstream f(wal_path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    long last = static_cast<long>(f.tellg()) - 1;
    char c;
    f.seekg(last);
    f.get(c);
    f.seekp(last);
    f.put(static_cast<char>(c ^ 0xFF));
  }
  ShardedStore revived(PersistentOptions());
  ASSERT_TRUE(revived.Open().ok());
  std::string value;
  ASSERT_TRUE(revived.Get("a", &value).ok());
  EXPECT_TRUE(revived.Get("b", &value).IsNotFound());
  EXPECT_TRUE(revived.Put("c", "3").ok());
}

class CheckpointStoreTest : public PersistentStoreTest {
 protected:
  void SetUp() override {
    PersistentStoreTest::SetUp();
    checkpoint_path_ = wal_path_ + ".ckpt";
    std::remove(checkpoint_path_.c_str());
  }
  void TearDown() override {
    std::remove(checkpoint_path_.c_str());
    PersistentStoreTest::TearDown();
  }

  StoreOptions CheckpointOptions() {
    StoreOptions options = PersistentOptions();
    options.checkpoint_path = checkpoint_path_;
    return options;
  }

  size_t FileSize(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return 0;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    return size < 0 ? 0 : static_cast<size_t>(size);
  }

  std::string checkpoint_path_;
};

TEST_F(CheckpointStoreTest, RequiresBothPaths) {
  ShardedStore volatile_store;
  EXPECT_TRUE(volatile_store.Checkpoint().IsInvalidArgument());
}

TEST_F(CheckpointStoreTest, CheckpointTruncatesWalAndSurvivesRestart) {
  {
    ShardedStore store(CheckpointOptions());
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(store.Put(StrCat("k", i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(store.Delete("k50").ok());
    size_t wal_before = FileSize(wal_path_);
    ASSERT_GT(wal_before, 0u);
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(FileSize(wal_path_), 0u) << "WAL must be compacted away";
    EXPECT_GT(FileSize(checkpoint_path_), 0u);
    // Post-checkpoint writes land in the fresh WAL.
    ASSERT_TRUE(store.Put("after", "1").ok());
    EXPECT_GT(FileSize(wal_path_), 0u);
  }
  ShardedStore revived(CheckpointOptions());
  ASSERT_TRUE(revived.Open().ok());
  EXPECT_EQ(revived.Count(), 100u);  // 100 - deleted + after
  std::string value;
  ASSERT_TRUE(revived.Get("k99", &value).ok());
  EXPECT_EQ(value, "99");
  EXPECT_TRUE(revived.Get("k50", &value).IsNotFound());
  ASSERT_TRUE(revived.Get("after", &value).ok());
}

TEST_F(CheckpointStoreTest, StaleWalRecordsAreFilteredByWatermark) {
  // Crash window: checkpoint renamed but WAL not yet truncated -> on reopen
  // the WAL still holds records the snapshot already contains, including a
  // PUT of a key that was later deleted.  The watermark must filter them.
  uint64_t deleted_put_etag;
  {
    ShardedStore store(CheckpointOptions());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Put("keep", "v1").ok());
    ASSERT_TRUE(store.Put("gone", "x", &deleted_put_etag).ok());
    ASSERT_TRUE(store.Delete("gone").ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  // Simulate the un-truncated WAL: re-append the pre-checkpoint history.
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(wal_path_).ok());
    ASSERT_TRUE(
        wal.Append({WalRecord::Kind::kPut, deleted_put_etag, "gone", "x"}, false)
            .ok());
    ASSERT_TRUE(
        wal.Append({WalRecord::Kind::kPut, deleted_put_etag - 1, "keep", "v1"},
                   false)
            .ok());
  }
  ShardedStore revived(CheckpointOptions());
  ASSERT_TRUE(revived.Open().ok());
  std::string value;
  EXPECT_TRUE(revived.Get("gone", &value).IsNotFound())
      << "stale pre-checkpoint PUT must not resurrect a deleted key";
  ASSERT_TRUE(revived.Get("keep", &value).ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(CheckpointStoreTest, RepeatedCheckpointsCompose) {
  ShardedStore store(CheckpointOptions());
  ASSERT_TRUE(store.Open().ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.Put(StrCat("r", round, "k", i), "v").ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  ShardedStore revived(CheckpointOptions());
  ASSERT_TRUE(revived.Open().ok());
  EXPECT_EQ(revived.Count(), 60u);
}

TEST_F(CheckpointStoreTest, EtagsContinueAfterCheckpointRecovery) {
  uint64_t last_etag = 0;
  {
    ShardedStore store(CheckpointOptions());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Put("k", "v", &last_etag).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  ShardedStore revived(CheckpointOptions());
  ASSERT_TRUE(revived.Open().ok());
  uint64_t fresh = 0;
  ASSERT_TRUE(revived.Put("k2", "v2", &fresh).ok());
  EXPECT_GT(fresh, last_etag);
  // CAS on the checkpoint-recovered record still works.
  uint64_t recovered_etag = 0;
  std::string value;
  ASSERT_TRUE(revived.Get("k", &value, &recovered_etag).ok());
  EXPECT_EQ(recovered_etag, last_etag);
  EXPECT_TRUE(revived.ConditionalPut("k", "v2", recovered_etag).ok());
}

TEST_F(CheckpointStoreTest, EmptyKeysAreReserved) {
  ShardedStore store;
  EXPECT_TRUE(store.Put("", "v").IsInvalidArgument());
  EXPECT_TRUE(store.ConditionalPut("", "v", kEtagAbsent).IsInvalidArgument());
}

TEST_F(PersistentStoreTest, EtagSourceSurvivesRestart) {
  uint64_t etag_before = 0;
  {
    ShardedStore store(PersistentOptions());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Put("k", "v", &etag_before).ok());
  }
  ShardedStore revived(PersistentOptions());
  ASSERT_TRUE(revived.Open().ok());
  uint64_t etag_after = 0;
  ASSERT_TRUE(revived.Put("k2", "v2", &etag_after).ok());
  EXPECT_GT(etag_after, etag_before) << "etags must not repeat after recovery";
  // And the recovered record's etag still matches for CAS.
  uint64_t stored = 0;
  std::string value;
  ASSERT_TRUE(revived.Get("k", &value, &stored).ok());
  EXPECT_EQ(stored, etag_before);
  EXPECT_TRUE(revived.ConditionalPut("k", "v2", stored).ok());
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
