#include "txn/occ_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/properties.h"
#include "core/benchmark.h"
#include "core/runner.h"
#include "str_cat.h"

namespace ycsbt {
namespace txn {
namespace {

OccOptions ManualEpochs() {
  OccOptions options;
  options.epoch_ms = 0;  // tests drive AdvanceEpoch by hand
  return options;
}

class OccEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::make_unique<OccEngine>(ManualEpochs()); }

  std::unique_ptr<OccEngine> engine_;
};

TEST_F(OccEngineTest, CommitMakesWritesVisible) {
  auto txn = engine_->Begin();
  ASSERT_TRUE(txn->Write("k", "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  std::string value;
  ASSERT_TRUE(engine_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(engine_->stats().commits, 1u);
}

TEST_F(OccEngineTest, AbortDiscardsBufferedWrites) {
  engine_->LoadPut("a", "original");
  auto txn = engine_->Begin();
  ASSERT_TRUE(txn->Write("a", "changed").ok());
  ASSERT_TRUE(txn->Write("new", "x").ok());
  ASSERT_TRUE(txn->Abort().ok());
  std::string value;
  ASSERT_TRUE(engine_->ReadCommitted("a", &value).ok());
  EXPECT_EQ(value, "original");
  EXPECT_TRUE(engine_->ReadCommitted("new", &value).IsNotFound());
  EXPECT_EQ(engine_->stats().aborts, 1u);
}

TEST_F(OccEngineTest, ReadSeesOwnBufferedWrites) {
  engine_->LoadPut("k", "committed");
  auto txn = engine_->Begin();
  std::string value;
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "committed");
  ASSERT_TRUE(txn->Write("k", "mine").ok());
  ASSERT_TRUE(txn->Read("k", &value).ok());
  EXPECT_EQ(value, "mine");
  ASSERT_TRUE(txn->Delete("k").ok());
  EXPECT_TRUE(txn->Read("k", &value).IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(engine_->ReadCommitted("k", &value).IsNotFound());
}

TEST_F(OccEngineTest, OpsAfterFinishReturnInvalidArgument) {
  auto txn = engine_->Begin();
  ASSERT_TRUE(txn->Commit().ok());
  std::string value;
  EXPECT_TRUE(txn->Read("k", &value).IsInvalidArgument());
  EXPECT_TRUE(txn->Write("k", "v").IsInvalidArgument());
  EXPECT_TRUE(txn->Commit().IsInvalidArgument());
  EXPECT_TRUE(txn->Abort().IsInvalidArgument());
}

TEST_F(OccEngineTest, ValidationFailsOnConflictingWrite) {
  engine_->LoadPut("k", "v0");
  auto reader = engine_->Begin();
  std::string value;
  ASSERT_TRUE(reader->Read("k", &value).ok());

  auto writer = engine_->Begin();
  ASSERT_TRUE(writer->Write("k", "v1").ok());
  ASSERT_TRUE(writer->Commit().ok());

  ASSERT_TRUE(reader->Write("other", "x").ok());
  Status s = reader->Commit();
  EXPECT_TRUE(s.IsConflict()) << s.ToString();
  EXPECT_EQ(engine_->stats().validation_fails, 1u);
  // The failed commit must not have installed its writes.
  EXPECT_TRUE(engine_->ReadCommitted("other", &value).IsNotFound());
  ASSERT_TRUE(engine_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(OccEngineTest, ReadOnlyTxnFailsValidationOnConflict) {
  engine_->LoadPut("k", "v0");
  auto reader = engine_->Begin();
  std::string value;
  ASSERT_TRUE(reader->Read("k", &value).ok());
  auto writer = engine_->Begin();
  ASSERT_TRUE(writer->Write("k", "v1").ok());
  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_TRUE(reader->Commit().IsConflict());
}

TEST_F(OccEngineTest, AbsentReadValidatedAtCommit) {
  auto reader = engine_->Begin();
  std::string value;
  EXPECT_TRUE(reader->Read("missing", &value).IsNotFound());

  auto creator = engine_->Begin();
  ASSERT_TRUE(creator->Write("missing", "now-here").ok());
  ASSERT_TRUE(creator->Commit().ok());

  ASSERT_TRUE(reader->Write("other", "x").ok());
  EXPECT_TRUE(reader->Commit().IsConflict());
}

TEST_F(OccEngineTest, DisabledValidationAdmitsStaleRead) {
  OccOptions options = ManualEpochs();
  options.read_validation = false;
  OccEngine engine(options);
  engine.LoadPut("k", "v0");
  auto reader = engine.Begin();
  std::string value;
  ASSERT_TRUE(reader->Read("k", &value).ok());
  auto writer = engine.Begin();
  ASSERT_TRUE(writer->Write("k", "v1").ok());
  ASSERT_TRUE(writer->Commit().ok());
  ASSERT_TRUE(reader->Write("other", "x").ok());
  // No read validation: the stale read does not block the commit.
  EXPECT_TRUE(reader->Commit().ok());
}

TEST_F(OccEngineTest, BlindWritesToSameKeyBothCommit) {
  auto t1 = engine_->Begin();
  auto t2 = engine_->Begin();
  ASSERT_TRUE(t1->Write("k", "from-t1").ok());
  ASSERT_TRUE(t2->Write("k", "from-t2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  ASSERT_TRUE(t2->Commit().ok());
  std::string value;
  ASSERT_TRUE(engine_->ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "from-t2");
}

TEST_F(OccEngineTest, ScanReturnsOrderedCommittedRows) {
  engine_->LoadPut("t/b", "2");
  engine_->LoadPut("t/a", "1");
  engine_->LoadPut("t/c", "3");
  engine_->LoadPut("u/d", "4");
  auto txn = engine_->Begin();
  ASSERT_TRUE(txn->Delete("t/c").ok());
  ASSERT_TRUE(txn->Commit().ok());

  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(engine_->ScanCommitted("t/", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);  // tombstoned t/c skipped, u/d included
  EXPECT_EQ(rows[0].key, "t/a");
  EXPECT_EQ(rows[1].key, "t/b");
  EXPECT_EQ(rows[2].key, "u/d");

  ASSERT_TRUE(engine_->ScanCommitted("t/", 2, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].key, "t/b");
}

TEST_F(OccEngineTest, TidMonotonicPerThreadAndCarriesEpoch) {
  uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    auto txn = engine_->Begin();
    ASSERT_TRUE(txn->Write("k", StrCat("v", i)).ok());
    ASSERT_TRUE(txn->Commit().ok());
    uint64_t tid = 0;
    ASSERT_TRUE(engine_->DebugTidOf("k", &tid));
    EXPECT_GT(tid, prev);
    prev = tid;
    if (i == 49) engine_->AdvanceEpoch();
  }
  EXPECT_EQ(OccEngine::TidEpoch(prev), engine_->current_epoch());
  EXPECT_EQ(OccEngine::TidThread(prev), 0u);

  // A second thread gets its own thread id in the TID word.
  std::thread other([this] {
    auto txn = engine_->Begin();
    ASSERT_TRUE(txn->Write("k2", "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  });
  other.join();
  uint64_t tid2 = 0;
  ASSERT_TRUE(engine_->DebugTidOf("k2", &tid2));
  EXPECT_EQ(OccEngine::TidThread(tid2), 1u);
}

TEST_F(OccEngineTest, ReclamationWaitsForPinnedReader) {
  OccOptions options = ManualEpochs();
  options.retire_batch = 1;  // sweep on every retire
  OccEngine engine(options);
  engine.LoadPut("k", "held-version");

  // An open transaction pins the current epoch after reading the version.
  auto reader = engine.Begin();
  std::string value;
  ASSERT_TRUE(reader->Read("k", &value).ok());

  // Overwrite twice with epoch advances in between: without the pin both
  // old versions would be reclaimable.
  for (int i = 0; i < 2; ++i) {
    auto writer = engine.Begin();
    ASSERT_TRUE(writer->Write("k", StrCat("v", i)).ok());
    ASSERT_TRUE(writer->Commit().ok());
    engine.AdvanceEpoch();
  }
  EXPECT_EQ(engine.stats().versions_retired, 2u);
  EXPECT_EQ(engine.stats().versions_freed, 0u);  // reader still pinned

  EXPECT_TRUE(reader->Commit().IsConflict());  // stale read, and unpins

  // Now a fresh commit's sweep reclaims both retired versions.
  auto writer = engine.Begin();
  ASSERT_TRUE(writer->Write("k", "final").ok());
  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_EQ(engine.stats().versions_freed, 2u);
}

// Reclamation exactness: one scripted single-thread history of writes,
// read-only commits, epoch advances and a reader held open across several
// of them, with (versions_retired, versions_freed) checked after every step.
// The expected columns were recorded before the prefix sweep and the epoch
// early-out went in, so they pin that neither changes which versions a
// sweep frees, nor when.
TEST(OccEngineReclaimTest, ScriptedEpochsFreeTheSameVersions) {
  using Counts = std::pair<uint64_t, uint64_t>;  // (retired, freed)
  const std::vector<std::pair<size_t, std::vector<Counts>>> cases = {
      {1, {{1, 0}, {2, 0}, {2, 0}, {2, 2}, {2, 2}, {3, 2}, {4, 2}, {4, 2},
           {5, 2}, {5, 2}, {5, 2}, {6, 2}, {7, 2}, {7, 2}, {8, 2}, {8, 2},
           {8, 5}, {8, 5}, {8, 8}, {9, 8}, {10, 8}, {10, 8}, {11, 10}}},
      {4, {{1, 0}, {2, 0}, {2, 0}, {2, 0}, {2, 0}, {3, 0}, {4, 2}, {4, 2},
           {5, 2}, {5, 2}, {5, 2}, {6, 2}, {7, 2}, {7, 2}, {8, 2}, {8, 2},
           {8, 5}, {8, 5}, {8, 5}, {9, 8}, {10, 8}, {10, 8}, {11, 8}}},
  };
  for (const auto& [batch, want] : cases) {
    SCOPED_TRACE(StrCat("retire_batch=", batch));
    OccOptions options = ManualEpochs();
    options.retire_batch = batch;
    OccEngine engine(options);
    for (int k = 0; k < 4; ++k) ASSERT_TRUE(engine.LoadPut(StrCat("k", k), "v").ok());

    int writes = 0;
    auto write = [&](int k) {
      auto txn = engine.Begin();
      ASSERT_TRUE(txn->Write(StrCat("k", k), StrCat("w", writes++)).ok());
      ASSERT_TRUE(txn->Commit().ok());
    };
    auto read_only = [&] {
      auto txn = engine.Begin();
      std::string value;
      ASSERT_TRUE(txn->Read("k3", &value).ok());
      ASSERT_TRUE(txn->Commit().ok());
    };
    std::unique_ptr<Transaction> reader;
    const std::vector<std::function<void()>> steps = {
        [&] { write(0); },
        [&] { write(1); },
        [&] { engine.AdvanceEpoch(); },
        [&] { read_only(); },
        [&] {
          reader = engine.Begin();  // pinned until its commit below
          std::string value;
          ASSERT_TRUE(reader->Read("k2", &value).ok());
        },
        [&] { write(2); },
        [&] { write(3); },
        [&] { engine.AdvanceEpoch(); },
        [&] { write(0); },
        [&] { read_only(); },
        [&] { engine.AdvanceEpoch(); },
        [&] { write(1); },
        [&] { ASSERT_TRUE(engine.LoadPut("k2", "loaded").ok()); },
        [&] { read_only(); },
        [&] { write(3); },
        [&] { EXPECT_TRUE(reader->Commit().IsConflict()); },
        [&] { read_only(); },
        [&] { engine.AdvanceEpoch(); },
        [&] { read_only(); },
        [&] { write(0); },
        [&] { write(1); },
        [&] { engine.AdvanceEpoch(); },
        [&] { write(2); },
    };
    std::vector<Counts> got;
    for (const auto& step : steps) {
      step();
      OccStats stats = engine.stats();
      got.push_back({stats.versions_retired, stats.versions_freed});
    }
    EXPECT_EQ(got, want);
  }
}

// 300 threads, one alive at a time, each commit a write on one engine.  An
// exited thread hands its registration on, so the 256-registration limit
// counts live threads only; the next thread keeps the TID sequence (no TID
// repeats) and the retire list, and frees those versions once the epochs
// move past them.
TEST(OccEngineReclaimTest, ExitedThreadsHandTheirRegistrationOn) {
  OccOptions options = ManualEpochs();
  options.retire_batch = 1;
  OccEngine engine(options);
  constexpr int kThreads = 300;
  std::set<uint64_t> tids;
  for (int i = 0; i < kThreads; ++i) {
    std::thread client([&engine, i] {
      auto txn = engine.Begin();
      ASSERT_TRUE(txn->Write("k", StrCat("v", i)).ok());
      ASSERT_TRUE(txn->Commit().ok());
    });
    client.join();
    uint64_t tid = 0;
    ASSERT_TRUE(engine.DebugTidOf("k", &tid));
    EXPECT_EQ(OccEngine::TidThread(tid), 0u);  // one registration, recycled
    tids.insert(tid);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  OccStats stats = engine.stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.versions_retired, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.versions_freed, 0u);  // every stamp is in the current epoch

  // Once the epoch moves on, the next thread to take the registration frees
  // everything its predecessors retired.
  engine.AdvanceEpoch();
  std::thread next([&engine] {
    auto txn = engine.Begin();
    ASSERT_TRUE(txn->Write("k", "last").ok());
    ASSERT_TRUE(txn->Commit().ok());
  });
  next.join();
  stats = engine.stats();
  EXPECT_EQ(stats.versions_retired, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.versions_freed, static_cast<uint64_t>(kThreads - 1));
}

TEST(OccEngineTickerTest, TickerAdvancesEpochsAndStopsPromptly) {
  OccOptions options;
  options.epoch_ms = 2;
  auto engine = std::make_unique<OccEngine>(options);
  uint64_t start_epoch = engine->current_epoch();
  for (int i = 0; i < 100 && engine->stats().epoch_advances == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(engine->stats().epoch_advances, 0u);
  EXPECT_GT(engine->current_epoch(), start_epoch);
  engine.reset();  // teardown must not hang on the ticker nap
}

// The EBR torture case the sanitizer CI targets: 8 threads hammer a small
// hot set with a fast ticker and an aggressive retire threshold while
// readers copy values out of the versions they hold pinned.  A reclamation
// bug is a use-after-free (ASan) or a racy free (TSan); the value-shape
// check catches torn installs on any build.
TEST(OccEngineStressTest, ReclamationNeverFreesHeldVersions) {
  OccOptions options;
  options.epoch_ms = 1;
  options.retire_batch = 4;
  OccEngine engine(options);

  constexpr int kKeys = 16;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kOpsPerThread = 4000;
  auto key_of = [](int i) { return StrCat("key", i); };
  // Values are 64 copies of one digit: a reader holding a version across
  // concurrent overwrites must still see an internally consistent value.
  auto value_of = [](int v) { return std::string(64, char('0' + (v % 10))); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(engine.LoadPut(key_of(i), value_of(0)).ok());
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = engine.Begin();
        int k = (w + i) % kKeys;
        if (!txn->Write(key_of(k), value_of(i)).ok()) failed = true;
        txn->Commit();  // Conflict is fine; installs must still be atomic
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = engine.Begin();
        std::string a, b;
        int k = (r + i) % kKeys;
        if (!txn->Read(key_of(k), &a).ok()) failed = true;
        if (!txn->Read(key_of((k + 1) % kKeys), &b).ok()) failed = true;
        for (const std::string& v : {a, b}) {
          if (v.size() != 64 ||
              v.find_first_not_of(v[0]) != std::string::npos) {
            failed = true;
          }
        }
        txn->Commit();  // validation may fail; reads above must be intact
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  OccStats stats = engine.stats();
  EXPECT_EQ(stats.commits + stats.aborts,
            static_cast<uint64_t>((kWriters + kReaders) * kOpsPerThread));
  EXPECT_GT(stats.versions_retired, 0u);
  EXPECT_GT(stats.versions_freed, 0u);
}

// Reclaimed versions go back into the committing thread's pool and are
// rewritten in place by its next install, so a reuse that raced a pinned
// reader would tear the value that reader copies.  Writers install
// self-checking values (key, counter, padding, checksum) with a fast ticker
// and a sweep on every retire; readers hold one pin across every key and
// verify each value they copy.
TEST(OccEngineStressTest, RecycledVersionsStayInvisibleToPinnedReaders) {
  OccOptions options;
  options.epoch_ms = 1;
  options.retire_batch = 1;
  OccEngine engine(options);

  constexpr int kKeys = 8;
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kOpsPerThread = 3000;
  auto key_of = [](int i) { return StrCat("key", i); };
  auto checksum = [](std::string_view body) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (char c : body) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
  };
  // Lengths vary with the counter, so a reused buffer changes size as well
  // as content.
  auto value_of = [&](const std::string& key, int writer, int counter) {
    std::string body = StrCat(key, "|", writer, ":", counter, "|");
    body.append(static_cast<size_t>(200 + counter % 157), char('a' + counter % 26));
    return StrCat(body, "#", checksum(body));
  };
  auto intact = [&](const std::string& key, const std::string& value) {
    size_t mark = value.rfind('#');
    if (mark == std::string::npos) return false;
    std::string_view body(value.data(), mark);
    return value.compare(mark + 1, std::string::npos, StrCat(checksum(body))) == 0 &&
           body.substr(0, key.size() + 1) == StrCat(key, "|");
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(engine.LoadPut(key_of(i), value_of(key_of(i), 0, 0)).ok());
  }

  std::atomic<int> torn{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 1; i <= kOpsPerThread; ++i) {
        auto txn = engine.Begin();
        for (int k : {(w + i) % kKeys, (w + 3 * i + 1) % kKeys}) {
          if (!txn->Write(key_of(k), value_of(key_of(k), w, i)).ok()) failed = true;
        }
        if (!txn->Commit().ok()) failed = true;  // blind writes always commit
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::string value;
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = engine.Begin();  // one pin across every read below
        for (int k = 0; k < kKeys; ++k) {
          if (!txn->Read(key_of(k), &value).ok()) failed = true;
          if (!intact(key_of(k), value)) torn.fetch_add(1);
        }
        txn->Commit();  // validation may fail; the copies above must be intact
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(torn.load(), 0);
  for (int k = 0; k < kKeys; ++k) {
    std::string value;
    ASSERT_TRUE(engine.ReadCommitted(key_of(k), &value).ok());
    EXPECT_TRUE(intact(key_of(k), value)) << value;
  }
  OccStats stats = engine.stats();
  EXPECT_EQ(stats.versions_retired, 2u * kWriters * kOpsPerThread);
  EXPECT_GT(stats.versions_freed, 0u);
}

// The index grows by publishing a doubled table while readers probe without
// a lock.  Creators commit fresh keys across several doublings; readers must
// find every key whose commit they have seen, whichever table they probe.
TEST(OccEngineStressTest, IndexGrowthUnderConcurrentReaders) {
  OccEngine engine(ManualEpochs());
  constexpr int kCreators = 2;
  constexpr int kReaders = 2;
  constexpr int kKeysPerCreator = 12000;  // 24k keys: six doublings of 1024
  auto key_of = [](int creator, int i) { return StrCat("c", creator, "/", i); };
  std::vector<std::atomic<int>> committed(kCreators);  // keys [0, n) are in
  std::atomic<int> creators_left{kCreators};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kCreators; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kKeysPerCreator; ++i) {
        auto txn = engine.Begin();
        if (!txn->Write(key_of(c, i), StrCat("v", i)).ok() ||
            !txn->Commit().ok()) {
          failed = true;
        }
        committed[c].store(i + 1, std::memory_order_release);
      }
      creators_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t probe = static_cast<uint64_t>(r);
      while (creators_left.load() > 0) {
        for (int c = 0; c < kCreators; ++c) {
          int n = committed[c].load(std::memory_order_acquire);
          if (n == 0) continue;
          // The newest key and a spread of older ones.
          probe = probe * 6364136223846793005ull + 1442695040888963407ull;
          for (int i : {n - 1, static_cast<int>((probe >> 33) % static_cast<uint64_t>(n))}) {
            auto txn = engine.Begin();
            std::string value;
            if (!txn->Read(key_of(c, i), &value).ok() || value != StrCat("v", i)) {
              failed = true;
            }
            txn->Commit();
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  for (int c = 0; c < kCreators; ++c) {
    for (int i = 0; i < kKeysPerCreator; ++i) {
      std::string value;
      ASSERT_TRUE(engine.ReadCommitted(key_of(c, i), &value).ok()) << key_of(c, i);
    }
  }
  std::vector<TxScanEntry> rows;
  ASSERT_TRUE(engine.ScanCommitted("", kCreators * kKeysPerCreator + 1, &rows).ok());
  EXPECT_EQ(rows.size(), static_cast<size_t>(kCreators * kKeysPerCreator));
}

// Serializability acceptance: concurrent transfers keep a two-account sum
// invariant; any reader whose commit validates must have seen a consistent
// (un-torn, un-skewed) snapshot of the pair.
TEST(OccEngineStressTest, ValidatedReadersSeeConsistentPairs) {
  OccOptions options;
  options.epoch_ms = 1;
  OccEngine engine(options);
  constexpr int kTotal = 1000;
  ASSERT_TRUE(engine.LoadPut("acct/a", std::to_string(kTotal / 2)).ok());
  ASSERT_TRUE(engine.LoadPut("acct/b", std::to_string(kTotal / 2)).ok());

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> validated_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        auto txn = engine.Begin();
        std::string a, b;
        if (!txn->Read("acct/a", &a).ok() || !txn->Read("acct/b", &b).ok()) {
          failed = true;
          break;
        }
        int av = std::stoi(a), bv = std::stoi(b);
        int delta = (i % 7) - 3;
        if (av - delta < 0 || bv + delta < 0) delta = 0;
        txn->Write("acct/a", std::to_string(av - delta));
        txn->Write("acct/b", std::to_string(bv + delta));
        txn->Commit();  // Conflict just means this transfer didn't happen
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        auto txn = engine.Begin();
        std::string a, b;
        if (!txn->Read("acct/a", &a).ok() || !txn->Read("acct/b", &b).ok()) {
          failed = true;
          break;
        }
        if (txn->Commit().ok()) {
          validated_reads.fetch_add(1);
          if (std::stoi(a) + std::stoi(b) != kTotal) failed = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(validated_reads.load(), 0u);

  std::string a, b;
  ASSERT_TRUE(engine.ReadCommitted("acct/a", &a).ok());
  ASSERT_TRUE(engine.ReadCommitted("acct/b", &b).ok());
  EXPECT_EQ(std::stoi(a) + std::stoi(b), kTotal);
}

// Regression: commit-time absent-read validation must never wait on another
// committer's write-set lock while it holds its own (the old spinning read
// there deadlocked: T1 holds its lock on A and spins on B, T2 holds B and
// spins on A — outside the ordered-acquisition argument).  Each round a
// thread pair starts together on fresh cross keys, so both committers
// routinely hold a just-created record the other probes as an absent read;
// a locked/unstable probe must surface as Conflict, never a hang.
TEST(OccEngineStressTest, AbsentReadValidationNeverDeadlocks) {
  OccOptions options;
  options.epoch_ms = 1;
  OccEngine engine(options);
  constexpr int kPairs = 4;
  constexpr int kRounds = 2000;

  std::atomic<bool> failed{false};
  std::vector<std::unique_ptr<std::atomic<int>>> gates;
  for (int p = 0; p < kPairs; ++p) {
    gates.push_back(std::make_unique<std::atomic<int>>(0));
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    for (int side = 0; side < 2; ++side) {
      threads.emplace_back([&, p, side] {
        std::atomic<int>& gate = *gates[p];
        for (int r = 0; r < kRounds; ++r) {
          gate.fetch_add(1);
          while (gate.load() < 2 * (r + 1)) std::this_thread::yield();
          std::string prefix =
              StrCat("p", p, "/", r, "/");
          auto txn = engine.Begin();
          std::string value;
          Status read = txn->Read(prefix + std::to_string(1 - side), &value);
          if (!read.ok() && !read.IsNotFound()) failed = true;
          if (!txn->Write(prefix + std::to_string(side), "v").ok()) {
            failed = true;
          }
          Status commit = txn->Commit();
          if (!commit.ok() && !commit.IsConflict()) failed = true;
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  OccStats stats = engine.stats();
  EXPECT_EQ(stats.commits + stats.aborts,
            static_cast<uint64_t>(kPairs * 2 * kRounds));
}

// End-to-end acceptance on the real benchmark pipeline: the Closed Economy
// Workload over occ+memkv with retries must validate with anomaly score 0 —
// conflicted transactions abort cleanly and ride the runner's retry loop
// (`OnTransactionRetry` keeps the expected cash exact).  Two same-seed runs
// pin the determinism of the acceptance itself.
TEST(OccBenchmarkTest, ClosedEconomyAnomalyScoreZeroWithRetries) {
  for (int round = 0; round < 2; ++round) {
    Properties props;
    props.Set("db", "occ+memkv");
    props.Set("workload", "closed_economy");
    props.Set("recordcount", "200");
    props.Set("operationcount", "20000");
    props.Set("threads", "8");
    props.Set("loadthreads", "4");
    props.Set("fieldcount", "1");
    props.Set("readproportion", "0.5");
    props.Set("readmodifywriteproportion", "0.5");
    props.Set("requestdistribution", "zipfian");
    props.Set("totalcash", "100000");
    props.Set("retry.max_attempts", "16");
    props.Set("seed", "20140331");
    props.Set("occ.epoch_ms", "2");
    core::RunResult result;
    Status s = core::RunBenchmark(props, &result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(result.validation.performed);
    EXPECT_TRUE(result.validation.passed);
    EXPECT_EQ(result.validation.anomaly_score, 0.0);
    EXPECT_GT(result.Counter("OCC COMMITS"), 0u);
  }
}

// Write-skew acceptance: OCC with read validation is serializable, so the
// skew SI admits (both siblings read the pair, each debits a different
// side) must come out at zero violated pairs.
TEST(OccBenchmarkTest, WriteSkewZeroAnomaliesUnderOcc) {
  Properties props;
  props.Set("db", "occ+memkv");
  props.Set("workload", "write_skew");
  props.Set("recordcount", "200");
  props.Set("operationcount", "12000");
  props.Set("threads", "8");
  props.Set("loadthreads", "4");
  props.Set("requestdistribution", "zipfian");
  props.Set("retry.max_attempts", "16");
  props.Set("seed", "20140331");
  props.Set("occ.epoch_ms", "2");
  core::RunResult result;
  Status s = core::RunBenchmark(props, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed) << "write skew admitted under OCC";
  EXPECT_EQ(result.validation.anomaly_score, 0.0);
}

}  // namespace
}  // namespace txn
}  // namespace ycsbt
