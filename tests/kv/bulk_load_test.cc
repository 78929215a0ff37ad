// BulkLoad fast path: sorted-run validation, etag continuity with per-key
// writes, interleaving with pre-existing keys, WAL replay, loads racing
// checkpoints, and the SortedInserter cursor it is built on — including a
// fresh cursor opened against an already-populated list (once an O(n)
// restart; see skiplist.h).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "kv/skiplist.h"
#include "kv/store.h"
#include "str_cat.h"

namespace ycsbt {
namespace kv {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

std::vector<std::pair<std::string, std::string>> SortedRun(int from, int to) {
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = from; i < to; ++i) records.emplace_back(Key(i), StrCat("v", Key(i)));
  return records;
}

TEST(BulkLoadTest, LoadsSortedRunAcrossShards) {
  StoreOptions options;
  options.num_shards = 8;  // hash-scatters the run over every shard
  ShardedStore store(options);
  ASSERT_TRUE(store.BulkLoad(SortedRun(0, 500)).ok());
  EXPECT_EQ(store.Count(), 500u);
  std::string value;
  for (int i = 0; i < 500; i += 37) {
    ASSERT_TRUE(store.Get(Key(i), &value).ok());
    EXPECT_EQ(value, StrCat("v", Key(i)));
  }
  // The merged scan must come back globally ordered despite sharding.
  std::vector<ScanEntry> out;
  ASSERT_TRUE(store.Scan(Key(100), 300, &out).ok());
  ASSERT_EQ(out.size(), 300u);
  EXPECT_EQ(out.front().key, Key(100));
  EXPECT_EQ(out.back().key, Key(399));
  for (size_t i = 1; i < out.size(); ++i) ASSERT_LT(out[i - 1].key, out[i].key);
}

TEST(BulkLoadTest, EmptyRunIsANoOp) {
  ShardedStore store;
  ASSERT_TRUE(store.BulkLoad({}).ok());
  EXPECT_EQ(store.Count(), 0u);
}

TEST(BulkLoadTest, RejectsUnsortedAndDuplicateRuns) {
  ShardedStore store;
  Status s = store.BulkLoad({{"b", "1"}, {"a", "2"}});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = store.BulkLoad({{"a", "1"}, {"a", "2"}});  // equal keys are not ascending
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = store.BulkLoad({{"a", "1"}, {"", "2"}});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(store.Count(), 0u);
}

TEST(BulkLoadTest, EtagsStayContiguousWithPerKeyWrites) {
  ShardedStore store;
  uint64_t before = 0;
  ASSERT_TRUE(store.Put("aaa", "x", &before).ok());
  ASSERT_TRUE(store.BulkLoad(SortedRun(0, 100)).ok());
  uint64_t after = 0;
  ASSERT_TRUE(store.Put("zzz", "y", &after).ok());
  // The run reserves exactly one etag per record between the two puts.
  EXPECT_EQ(after, before + 101);
  uint64_t etag = 0;
  std::string value;
  ASSERT_TRUE(store.Get(Key(0), &value, &etag).ok());
  EXPECT_EQ(etag, before + 1);
  ASSERT_TRUE(store.Get(Key(99), &value, &etag).ok());
  EXPECT_EQ(etag, before + 100);
}

TEST(BulkLoadTest, OverwritesAndInterleavesWithExistingKeys) {
  ShardedStore store;
  ASSERT_TRUE(store.Put(Key(5), "old").ok());
  ASSERT_TRUE(store.Put(Key(250), "kept").ok());
  ASSERT_TRUE(store.BulkLoad(SortedRun(0, 10)).ok());
  std::string value;
  ASSERT_TRUE(store.Get(Key(5), &value).ok());
  EXPECT_EQ(value, StrCat("v", Key(5)));  // run overwrites the equal key
  ASSERT_TRUE(store.Get(Key(250), &value).ok());
  EXPECT_EQ(value, "kept");  // keys outside the run are untouched
  EXPECT_EQ(store.Count(), 11u);
}

TEST(BulkLoadTest, SequentialRunsCompose) {
  // The orchestrator feeds the store one sorted batch at a time; each batch
  // opens fresh cursors against the data the previous batches left behind.
  ShardedStore store;
  for (int from = 0; from < 1000; from += 100) {
    ASSERT_TRUE(store.BulkLoad(SortedRun(from, from + 100)).ok());
  }
  EXPECT_EQ(store.Count(), 1000u);
  std::vector<ScanEntry> out;
  ASSERT_TRUE(store.Scan("", 1000, &out).ok());
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[i].key, Key(i));
}

TEST(BulkLoadTest, ReplaysFromWalAfterRestart) {
  std::string wal = ::testing::TempDir() + "/bulk_replay.wal";
  std::remove(wal.c_str());
  StoreOptions options;
  options.wal_path = wal;
  uint64_t tail_etag = 0;
  {
    ShardedStore store(options);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.BulkLoad(SortedRun(0, 300)).ok());
    ASSERT_TRUE(store.Put("tail", "t", &tail_etag).ok());
  }
  ShardedStore store(options);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.Count(), 301u);
  std::string value;
  uint64_t etag = 0;
  ASSERT_TRUE(store.Get(Key(299), &value, &etag).ok());
  EXPECT_EQ(value, StrCat("v", Key(299)));
  EXPECT_EQ(etag, tail_etag - 1);  // per-record etags survive replay
  // The etag source resumes past everything the log produced.
  uint64_t next = 0;
  ASSERT_TRUE(store.Put("after", "a", &next).ok());
  EXPECT_GT(next, tail_etag);
  std::remove(wal.c_str());
}

TEST(BulkLoadTest, AcknowledgedRowsSurviveConcurrentCheckpoints) {
  // A checkpoint between a load's WAL append and its insert would truncate
  // the frame away while the rows land after the snapshot: gone on reopen.
  // Loads, blind puts and back-to-back checkpoints run concurrently; every
  // row whose call returned OK must come back after the restart.  (A put
  // that drew its etag before a checkpoint's watermark but logged after the
  // truncation was filtered out of replay the same way.)
  const std::string dir = ::testing::TempDir();
  StoreOptions options;
  options.wal_path = dir + "/bulk_ckpt_race.wal";
  options.checkpoint_path = dir + "/bulk_ckpt_race.ckpt";
  std::remove(options.wal_path.c_str());
  std::remove(options.checkpoint_path.c_str());
  // Each checkpoint waits for both writers to finish a call since the last
  // one, so all of them land mid-flight; the writers stop once the
  // checkpointer is done (or at their cap).
  constexpr int kCheckpoints = 40;
  constexpr int kMaxLoads = 4000;
  constexpr int kRowsPerLoad = 16;
  constexpr int kMaxPuts = 20000;
  std::vector<int> loaded;  // load indices acknowledged OK
  std::vector<int> put;     // put indices acknowledged OK
  {
    ShardedStore store(options);
    ASSERT_TRUE(store.Open().ok());
    std::atomic<bool> done{false};
    std::atomic<int> writers{2};
    std::atomic<int> load_calls{0};
    std::atomic<int> put_calls{0};
    std::thread loader([&] {
      for (int l = 0; l < kMaxLoads && !done.load(); ++l) {
        std::vector<std::pair<std::string, std::string>> run;
        for (int r = 0; r < kRowsPerLoad; ++r) {
          run.emplace_back(StrCat("bulk", 100000 + l * kRowsPerLoad + r), StrCat("b", l));
        }
        if (store.BulkLoad(run).ok()) loaded.push_back(l);
        load_calls.fetch_add(1);
      }
      writers.fetch_sub(1);
    });
    std::thread putter([&] {
      for (int i = 0; i < kMaxPuts && !done.load(); ++i) {
        if (store.Put(StrCat("put", 100000 + i), StrCat("p", i)).ok()) put.push_back(i);
        put_calls.fetch_add(1);
      }
      writers.fetch_sub(1);
    });
    Status ckpt;
    int loads_seen = 0;
    int puts_seen = 0;
    for (int c = 0; c < kCheckpoints && ckpt.ok(); ++c) {
      while ((load_calls.load() == loads_seen || put_calls.load() == puts_seen) &&
             writers.load() > 0) {
        std::this_thread::yield();
      }
      loads_seen = load_calls.load();
      puts_seen = put_calls.load();
      ckpt = store.Checkpoint();
    }
    done.store(true);
    loader.join();
    putter.join();
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    ASSERT_FALSE(store.IsPoisoned());
  }
  ASSERT_FALSE(loaded.empty());
  ASSERT_FALSE(put.empty());

  ShardedStore revived(options);
  ASSERT_TRUE(revived.Open().ok());
  std::string value;
  size_t lost_rows = 0;
  for (int l : loaded) {
    for (int r = 0; r < kRowsPerLoad; ++r) {
      Status s = revived.Get(StrCat("bulk", 100000 + l * kRowsPerLoad + r), &value);
      if (!s.ok() || value != StrCat("b", l)) ++lost_rows;
    }
  }
  size_t lost_puts = 0;
  for (int i : put) {
    Status s = revived.Get(StrCat("put", 100000 + i), &value);
    if (!s.ok() || value != StrCat("p", i)) ++lost_puts;
  }
  EXPECT_EQ(lost_rows, 0u) << "of " << loaded.size() * kRowsPerLoad
                           << " acknowledged bulk-loaded rows";
  EXPECT_EQ(lost_puts, 0u) << "of " << put.size() << " acknowledged puts";
  EXPECT_EQ(revived.Count(), loaded.size() * kRowsPerLoad + put.size());
  std::remove(options.wal_path.c_str());
  std::remove(options.checkpoint_path.c_str());
}

TEST(MultiGetTest, ReportsMissingKeysPerRow) {
  StoreOptions options;
  options.num_shards = 4;
  ShardedStore store(options);
  ASSERT_TRUE(store.BulkLoad(SortedRun(0, 10)).ok());
  // Missing keys interleave with present ones; each row gets its own status.
  std::vector<std::string> keys = {Key(3), "missing-a", Key(7), "missing-b",
                                   Key(0)};
  std::vector<MultiGetResult> results;
  store.MultiGet(keys, &results);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].value, StrCat("v", Key(3)));
  EXPECT_GT(results[0].etag, 0u);
  EXPECT_TRUE(results[1].status.IsNotFound());
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[2].value, StrCat("v", Key(7)));
  EXPECT_TRUE(results[3].status.IsNotFound());
  EXPECT_TRUE(results[4].status.ok());
  EXPECT_EQ(results[4].value, StrCat("v", Key(0)));
}

TEST(SortedInserterTest, FreshCursorOverPopulatedListStartsMidRange) {
  // Regression: a cursor opened against existing data must position itself
  // with a top-down descent, not by walking level 0 from the head.
  SkipList<int> list;
  for (int i = 0; i < 2000; i += 2) list.Upsert(Key(i), i);
  SkipList<int>::SortedInserter cursor(&list);
  for (int i = 1001; i < 1200; i += 2) EXPECT_TRUE(cursor.Insert(Key(i), i));
  EXPECT_EQ(list.size(), 1000u + 100u);
  for (int i = 1001; i < 1200; i += 2) {
    auto* found = list.Find(Key(i));
    ASSERT_NE(found, nullptr) << Key(i);
    EXPECT_EQ(*found, i);
  }
  // Order is intact across the splice region.
  SkipList<int>::Iterator it(&list);
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ASSERT_LT(prev, it.key());
    prev = it.key();
  }
}

TEST(SortedInserterTest, OverwritesEqualPreExistingKey) {
  SkipList<int> list;
  list.Upsert(Key(10), -1);
  SkipList<int>::SortedInserter cursor(&list);
  EXPECT_TRUE(cursor.Insert(Key(9), 9));
  EXPECT_FALSE(cursor.Insert(Key(10), 10));  // overwrite, not a fresh node
  EXPECT_TRUE(cursor.Insert(Key(11), 11));
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(*list.Find(Key(10)), 10);
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
