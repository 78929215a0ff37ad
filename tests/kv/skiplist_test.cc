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
  for (it.SeekToFirst(); it.Valid(); it.Next()) seen.push_back(it.key());
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
  // Property test: a long random op sequence must agree with std::map.
  SkipList<uint64_t> list;
  std::map<std::string, uint64_t> reference;
  Random64 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    std::string key = StrCat("k", rng.Uniform(500));
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // upsert
        uint64_t v = rng.Next();
        list.Upsert(key, v);
        reference[key] = v;
        break;
      }
      case 2: {  // erase
        bool a = list.Erase(key);
        bool b = reference.erase(key) > 0;
        ASSERT_EQ(a, b);
        break;
      }
      case 3: {  // lookup
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
