// Concurrent ShardedStore stress: point reads and writes from four threads
// race a scanning thread over a small key space, with shadow state checked
// after every operation.  Each thread owns a quarter of the keys for the
// ops that change whether a key exists (blind Put, Delete, insert-if-absent),
// so the live count is known exactly; every thread reads every key and
// overwrites any key by etag CAS, so writers still collide on keys and
// shards.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "kv/store.h"
#include "str_cat.h"

namespace ycsbt {
namespace kv {
namespace {

constexpr int kKeys = 1024;
constexpr int kWriters = 4;
constexpr int kOpsPerWriter = 30000;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

int KeyIndex(const std::string& key) { return std::stoi(key.substr(3)); }

/// Values are "<key>|<thread>|<seq>": a read can tell which write it saw.
std::string Value(const std::string& key, int thread, uint64_t seq) {
  return StrCat(key, "|", thread, "|", seq);
}

/// Shadow state shared by the threads: how many writes each thread has
/// issued (bumped before the store call, so a read that sees write `seq`
/// of thread t afterwards loads a count above `seq`).
struct Shadow {
  std::array<std::atomic<uint64_t>, kWriters> issued{};
};

/// True when `value` is one some writer wrote for `key`.
::testing::AssertionResult WrittenFor(const Shadow& shadow, const std::string& key,
                                      const std::string& value) {
  const std::string prefix = key + "|";
  if (value.compare(0, prefix.size(), prefix) != 0) {
    return ::testing::AssertionFailure() << key << " holds " << value;
  }
  const size_t bar = value.find('|', prefix.size());
  if (bar == std::string::npos) {
    return ::testing::AssertionFailure() << key << " holds " << value;
  }
  const int thread = std::stoi(value.substr(prefix.size(), bar - prefix.size()));
  const uint64_t seq = std::stoull(value.substr(bar + 1));
  if (thread < 0 || thread >= kWriters ||
      seq >= shadow.issued[static_cast<size_t>(thread)].load()) {
    return ::testing::AssertionFailure() << key << " holds unwritten " << value;
  }
  return ::testing::AssertionSuccess();
}

TEST(ShardedStoreStressTest, ConcurrentPointOpsAndScansKeepInvariants) {
  ShardedStore store;
  Shadow shadow;
  std::atomic<int> writers_left{kWriters};
  std::array<int64_t, kWriters> live{};  // keys each owner left present

  auto write_loop = [&](int t) {
    Random64 rng(1000 + static_cast<uint64_t>(t));
    std::vector<uint64_t> seen_etag(kKeys, 0);  // this thread's view, per key
    std::vector<bool> present(kKeys, false);    // owned keys only
    auto observe = [&](int k, uint64_t etag, bool fresh_write) {
      uint64_t& last = seen_etag[static_cast<size_t>(k)];
      if (fresh_write) {
        EXPECT_GT(etag, last) << Key(k);
      } else {
        EXPECT_GE(etag, last) << Key(k);
      }
      if (etag > last) last = etag;
    };
    for (int op = 0; op < kOpsPerWriter; ++op) {
      const int k = static_cast<int>(rng.Uniform(kKeys));
      const std::string key = Key(k);
      const bool owned = k % kWriters == t;
      std::string value;
      uint64_t etag = 0;
      switch (rng.Uniform(4)) {
        case 0: {  // Get, any key
          Status s = store.Get(key, &value, &etag);
          if (s.ok()) {
            EXPECT_TRUE(WrittenFor(shadow, key, value));
            observe(k, etag, false);
          } else {
            EXPECT_TRUE(s.IsNotFound()) << s.ToString();
            if (owned) {
              EXPECT_FALSE(present[static_cast<size_t>(k)]) << key;
            }
          }
          break;
        }
        case 1: {  // ConditionalPut: if-absent on owned keys, by etag anywhere
          if (owned && !present[static_cast<size_t>(k)]) {
            uint64_t seq = shadow.issued[static_cast<size_t>(t)].fetch_add(1);
            Status s = store.ConditionalPut(key, Value(key, t, seq), kEtagAbsent, &etag);
            ASSERT_TRUE(s.ok()) << s.ToString();
            present[static_cast<size_t>(k)] = true;
            observe(k, etag, true);
            break;
          }
          uint64_t read_etag = 0;
          if (!store.Get(key, &value, &read_etag).ok()) break;
          EXPECT_TRUE(WrittenFor(shadow, key, value));
          observe(k, read_etag, false);
          uint64_t seq = shadow.issued[static_cast<size_t>(t)].fetch_add(1);
          Status s = store.ConditionalPut(key, Value(key, t, seq), read_etag, &etag);
          if (s.ok()) {
            observe(k, etag, true);
          } else {
            EXPECT_TRUE(s.IsConflict()) << s.ToString();
          }
          break;
        }
        case 2: {  // blind Put, owned keys
          if (!owned) break;
          uint64_t seq = shadow.issued[static_cast<size_t>(t)].fetch_add(1);
          ASSERT_TRUE(store.Put(key, Value(key, t, seq), &etag).ok());
          present[static_cast<size_t>(k)] = true;
          observe(k, etag, true);
          break;
        }
        case 3: {  // Delete, owned keys
          if (!owned) break;
          Status s = store.Delete(key);
          EXPECT_EQ(s.ok(), present[static_cast<size_t>(k)]) << s.ToString();
          present[static_cast<size_t>(k)] = false;
          break;
        }
      }
    }
    int64_t mine = 0;
    for (int k = t; k < kKeys; k += kWriters) mine += present[static_cast<size_t>(k)] ? 1 : 0;
    live[static_cast<size_t>(t)] = mine;
  };

  auto scanner = [&] {
    Random64 rng(77);
    std::vector<uint64_t> seen_etag(kKeys, 0);
    std::vector<ScanEntry> out;
    uint64_t scans = 0;
    while (writers_left.load() > 0 || scans == 0) {
      ASSERT_TRUE(store.Scan(Key(static_cast<int>(rng.Uniform(kKeys))), 64, &out).ok());
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(out[i - 1].key, out[i].key);
        }
        EXPECT_TRUE(WrittenFor(shadow, out[i].key, out[i].value));
        uint64_t& last = seen_etag[static_cast<size_t>(KeyIndex(out[i].key))];
        EXPECT_GE(out[i].etag, last) << out[i].key;
        if (out[i].etag > last) last = out[i].etag;
      }
      ++scans;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    // Counted down even when a fatal assertion ends the loop early, so the
    // scanner always stops.
    threads.emplace_back([&, t] {
      write_loop(t);
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back(scanner);
  for (auto& th : threads) th.join();

  int64_t expected = 0;
  for (int64_t n : live) expected += n;
  EXPECT_EQ(static_cast<int64_t>(store.Count()), expected);
  std::vector<ScanEntry> all;
  ASSERT_TRUE(store.Scan("", kKeys + 1, &all).ok());
  EXPECT_EQ(static_cast<int64_t>(all.size()), expected);
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
