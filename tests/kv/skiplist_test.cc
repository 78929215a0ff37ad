#include "kv/skiplist.h"
#include "str_cat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace ycsbt {
namespace kv {
namespace {

TEST(SkipListTest, EmptyList) {
  SkipList<int> list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.Find("anything"), nullptr);
  SkipList<int>::Iterator it(&list);
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, InsertFindErase) {
  SkipList<int> list;
  EXPECT_TRUE(list.Upsert("b", 2));
  EXPECT_TRUE(list.Upsert("a", 1));
  EXPECT_TRUE(list.Upsert("c", 3));
  EXPECT_EQ(list.size(), 3u);
  ASSERT_NE(list.Find("b"), nullptr);
  EXPECT_EQ(*list.Find("b"), 2);
  EXPECT_TRUE(list.Erase("b"));
  EXPECT_EQ(list.Find("b"), nullptr);
  EXPECT_FALSE(list.Erase("b"));
  EXPECT_EQ(list.size(), 2u);
}

TEST(SkipListTest, UpsertOverwrites) {
  SkipList<int> list;
  EXPECT_TRUE(list.Upsert("k", 1));
  EXPECT_FALSE(list.Upsert("k", 2));  // not newly inserted
  EXPECT_EQ(*list.Find("k"), 2);
  EXPECT_EQ(list.size(), 1u);
}

TEST(SkipListTest, IterationIsSorted) {
  SkipList<int> list;
  std::vector<std::string> keys = {"delta", "alpha", "echo", "charlie", "bravo"};
  for (size_t i = 0; i < keys.size(); ++i) {
    list.Upsert(keys[i], static_cast<int>(i));
  }
  SkipList<int>::Iterator it(&list);
  std::vector<std::string> seen;
  for (it.SeekToFirst(); it.Valid(); it.Next()) seen.emplace_back(it.key());
  std::vector<std::string> expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST(SkipListTest, SeekFindsLowerBound) {
  SkipList<int> list;
  list.Upsert("b", 1);
  list.Upsert("d", 2);
  list.Upsert("f", 3);
  SkipList<int>::Iterator it(&list);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("d");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("g");
  EXPECT_FALSE(it.Valid());
  it.Seek("");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "b");
}

TEST(SkipListTest, MatchesReferenceMapUnderRandomOps) {
  // Property test: a long random op sequence must agree with std::map.  The
  // small key space is churned by insert, overwrite, erase and re-insert, so
  // the point index grows through several doublings and backward-shift
  // deletion runs through long probe runs; a full sweep every 10k ops checks
  // that every key is still reachable from its home slot (and every erased
  // one is gone).
  SkipList<uint64_t> list;
  std::map<std::string, uint64_t> reference;
  Random64 rng(2024);
  constexpr uint64_t kKeySpace = 3000;
  for (int i = 0; i < 120000; ++i) {
    std::string key = StrCat("k", rng.Uniform(kKeySpace));
    switch (rng.Uniform(5)) {
      case 0:
      case 1: {  // upsert: a fresh insert, a re-insert or an overwrite
        uint64_t v = rng.Next();
        bool fresh = list.Upsert(key, v);
        bool expected_fresh = reference.find(key) == reference.end();
        ASSERT_EQ(fresh, expected_fresh);
        reference[key] = v;
        break;
      }
      case 2: {  // erase
        bool a = list.Erase(key);
        bool b = reference.erase(key) > 0;
        ASSERT_EQ(a, b);
        break;
      }
      default: {  // lookup
        auto* found = list.Find(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    if (i % 10000 == 9999) {
      ASSERT_EQ(list.size(), reference.size());
      for (uint64_t k = 0; k < kKeySpace; ++k) {
        std::string probe = StrCat("k", k);
        auto it = reference.find(probe);
        const uint64_t* found = list.Find(probe);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr) << probe;
        } else {
          ASSERT_NE(found, nullptr) << probe;
          ASSERT_EQ(*found, it->second) << probe;
        }
      }
    }
  }
  ASSERT_EQ(list.size(), reference.size());
  // Final full-order comparison.
  SkipList<uint64_t>::Iterator it(&list);
  auto rit = reference.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++rit) {
    ASSERT_NE(rit, reference.end());
    EXPECT_EQ(it.key(), rit->first);
    EXPECT_EQ(it.value(), rit->second);
  }
  EXPECT_EQ(rit, reference.end());
}

TEST(SkipListTest, EraseEverythingThenRefill) {
  // Draining the index to empty by backward shifts, then refilling it,
  // must leave no stale slot behind.
  SkipList<int> list;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 2000; ++i) ASSERT_TRUE(list.Upsert(StrCat("key", i), i + round));
    for (int i = 0; i < 2000; i += 2) ASSERT_TRUE(list.Erase(StrCat("key", i)));
    for (int i = 1; i < 2000; i += 2) ASSERT_TRUE(list.Erase(StrCat("key", i)));
    EXPECT_TRUE(list.empty());
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(list.Find(StrCat("key", i)), nullptr);
    SkipList<int>::Iterator it(&list);
    it.SeekToFirst();
    EXPECT_FALSE(it.Valid());
  }
}

TEST(SkipListTest, LongAndBinaryKeys) {
  // Keys past the small-string buffer and keys with embedded NULs live in
  // the node's inline key bytes: their full length must take part in both
  // the index match and the ordered comparison.
  SkipList<int> list;
  const std::string long_a(300, 'a');
  const std::string long_b = long_a + "b";
  const std::string nul_1("k\0a", 3);
  const std::string nul_2("k\0b", 3);
  const std::string nul_3("k\0", 2);
  EXPECT_TRUE(list.Upsert(long_b, 1));
  EXPECT_TRUE(list.Upsert(long_a, 2));
  EXPECT_TRUE(list.Upsert(nul_2, 3));
  EXPECT_TRUE(list.Upsert(nul_1, 4));
  EXPECT_TRUE(list.Upsert(nul_3, 5));
  EXPECT_TRUE(list.Upsert("k", 6));
  EXPECT_EQ(list.size(), 6u);
  EXPECT_EQ(*list.Find(long_a), 2);
  EXPECT_EQ(*list.Find(long_b), 1);
  EXPECT_EQ(list.Find(std::string(299, 'a')), nullptr);
  EXPECT_EQ(*list.Find(nul_1), 4);
  EXPECT_EQ(*list.Find(nul_2), 3);
  EXPECT_EQ(*list.Find(nul_3), 5);
  EXPECT_EQ(*list.Find("k"), 6);
  EXPECT_EQ(list.Find(std::string("k\0c", 3)), nullptr);

  std::vector<std::string> seen;
  SkipList<int>::Iterator it(&list);
  for (it.SeekToFirst(); it.Valid(); it.Next()) seen.emplace_back(it.key());
  std::vector<std::string> expected = {long_a, long_b, "k", nul_3, nul_1, nul_2};
  EXPECT_EQ(seen, expected);
  it.Seek(nul_3);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), nul_3);

  EXPECT_TRUE(list.Erase(nul_1));
  EXPECT_EQ(list.Find(nul_1), nullptr);
  EXPECT_EQ(*list.Find(nul_2), 3);
  EXPECT_FALSE(list.Upsert(long_a, 7));
  EXPECT_EQ(*list.Find(long_a), 7);
}

TEST(SkipListTest, ReservedHeadKeyIsNotFindable) {
  // The head node carries the reserved empty key and is never indexed.
  SkipList<int> list;
  EXPECT_EQ(list.Find(""), nullptr);
  list.Upsert("a", 1);
  list.Upsert("b", 2);
  EXPECT_EQ(list.Find(""), nullptr);
  EXPECT_FALSE(list.Erase(""));
  EXPECT_EQ(list.size(), 2u);
  SkipList<int>::Iterator it(&list);
  it.SeekToFirst();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "a");
}

TEST(SkipListTest, SortedInserterKeysAreFindableAndErasable) {
  SkipList<int> list;
  for (int i = 0; i < 1000; i += 3) list.Upsert(StrCat("key", 10000 + i), -i);
  SkipList<int>::SortedInserter cursor(&list);
  int fresh = 0;
  for (int i = 0; i < 1000; i += 2) {
    fresh += cursor.Insert(StrCat("key", 10000 + i), i) ? 1 : 0;
  }
  EXPECT_EQ(fresh, 500 - 167);  // multiples of 6 were already there
  ASSERT_EQ(list.size(), 334u + 333u);
  for (int i = 0; i < 1000; ++i) {
    const int* v = list.Find(StrCat("key", 10000 + i));
    if (i % 2 == 0) {
      ASSERT_NE(v, nullptr) << i;
      EXPECT_EQ(*v, i);
    } else if (i % 3 == 0) {
      ASSERT_NE(v, nullptr) << i;
      EXPECT_EQ(*v, -i);
    } else {
      EXPECT_EQ(v, nullptr) << i;
    }
  }
  for (int i = 0; i < 1000; i += 2) ASSERT_TRUE(list.Erase(StrCat("key", 10000 + i)));
  for (int i = 0; i < 1000; i += 2) EXPECT_EQ(list.Find(StrCat("key", 10000 + i)), nullptr);
  EXPECT_EQ(list.size(), 167u);
}

TEST(SkipListTest, ReservedIndexKeepsEveryKeyFindable) {
  SkipList<int> list;
  for (int i = 0; i < 100; ++i) list.Upsert(StrCat("key", 10000 + 2 * i), i);
  list.ReserveIndex(3000);  // re-slots the 100 indexed nodes once
  list.ReserveIndex(10);    // never shrinks
  SkipList<int>::SortedInserter cursor(&list);
  for (int i = 0; i < 1000; ++i) cursor.Insert(StrCat("key", 10000 + 2 * i + 1), -i);
  ASSERT_EQ(list.size(), 1100u);
  for (int i = 0; i < 100; ++i) {
    const int* v = list.Find(StrCat("key", 10000 + 2 * i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  for (int i = 0; i < 1000; ++i) {
    const int* v = list.Find(StrCat("key", 10000 + 2 * i + 1));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, -i);
  }
}

TEST(SkipListTest, FindPointerIsStableAcrossOverwritesAndGrowth) {
  SkipList<std::string> list;
  list.Upsert("anchor", "v1");
  std::string* p = list.Find("anchor");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(list.Upsert("anchor", "v2"));
  EXPECT_EQ(list.Find("anchor"), p);
  EXPECT_EQ(*p, "v2");
  // Index doubling re-slots the node pointers but never moves a node.
  for (int i = 0; i < 5000; ++i) list.Upsert(StrCat("filler", i), "f");
  EXPECT_EQ(list.Find("anchor"), p);
  EXPECT_EQ(*p, "v2");
  for (int i = 0; i < 5000; i += 2) list.Erase(StrCat("filler", i));
  EXPECT_EQ(list.Find("anchor"), p);
}

TEST(SkipListTest, LargeSequentialInsert) {
  SkipList<int> list;
  for (int i = 0; i < 10000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%06d", i);
    list.Upsert(buf, i);
  }
  EXPECT_EQ(list.size(), 10000u);
  EXPECT_EQ(*list.Find("005000"), 5000);
  SkipList<int>::Iterator it(&list);
  it.Seek("009999");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), 9999);
  it.Next();
  EXPECT_FALSE(it.Valid());
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
