#include "common/properties.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace ycsbt {
namespace {

TEST(PropertiesTest, SetAndGet) {
  Properties p;
  p.Set("db", "memkv");
  EXPECT_TRUE(p.Contains("db"));
  EXPECT_EQ(p.Get("db"), "memkv");
  EXPECT_EQ(p.Get("missing", "fallback"), "fallback");
  EXPECT_EQ(p.size(), 1u);
}

TEST(PropertiesTest, LaterSetWins) {
  Properties p;
  p.Set("threads", "4");
  p.Set("threads", "16");
  EXPECT_EQ(p.GetInt("threads", 0), 16);
}

TEST(PropertiesTest, ParsesListing2StyleFile) {
  // The paper's Listing 2 shape.
  const char* text =
      "recordcount=10000\n"
      "operationcount=1000000\n"
      "workload=com.yahoo.ycsb.workloads.ClosedEconomyWorkload\n"
      "totalcash=100000000\n"
      "readproportion=0.9\n"
      "readmodifywriteproportion=0.1\n"
      "requestdistribution=zipfian\n";
  Properties p;
  ASSERT_TRUE(p.LoadFromString(text).ok());
  EXPECT_EQ(p.GetUint("recordcount", 0), 10000u);
  EXPECT_EQ(p.Get("workload"), "com.yahoo.ycsb.workloads.ClosedEconomyWorkload");
  EXPECT_DOUBLE_EQ(p.GetDouble("readproportion", 0), 0.9);
}

TEST(PropertiesTest, IgnoresCommentsAndBlanks) {
  Properties p;
  ASSERT_TRUE(p.LoadFromString("# comment\n\n  ! also comment\nkey=value\n").ok());
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.Get("key"), "value");
}

TEST(PropertiesTest, TrimsWhitespace) {
  Properties p;
  ASSERT_TRUE(p.LoadFromString("  key  =  value with spaces  \n").ok());
  EXPECT_EQ(p.Get("key"), "value with spaces");
}

TEST(PropertiesTest, MalformedLineIsRejected) {
  Properties p;
  Status s = p.LoadFromString("key=ok\nnot a property line\n");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(PropertiesTest, TypedGettersParse) {
  Properties p;
  ASSERT_TRUE(p.LoadFromString("i=-42\nu=99\nd=2.5\nbt=true\nbf=off\n").ok());
  EXPECT_EQ(p.GetInt("i", 0), -42);
  EXPECT_EQ(p.GetUint("u", 0), 99u);
  EXPECT_DOUBLE_EQ(p.GetDouble("d", 0.0), 2.5);
  EXPECT_TRUE(p.GetBool("bt", false));
  EXPECT_FALSE(p.GetBool("bf", true));
}

TEST(PropertiesTest, TypedGettersFallBackOnGarbage) {
  Properties p;
  p.Set("i", "not-a-number");
  p.Set("h", "0x10");  // integers are decimal only
  p.Set("b", "maybe");
  EXPECT_EQ(p.GetInt("i", 7), 7);
  EXPECT_EQ(p.GetInt("h", 7), 7);
  EXPECT_TRUE(p.GetBool("b", true));
  EXPECT_FALSE(p.GetBool("b", false));
}

TEST(PropertiesTest, MergeOverrides) {
  Properties base, override_set;
  base.Set("a", "1");
  base.Set("b", "2");
  override_set.Set("b", "3");
  override_set.Set("c", "4");
  base.Merge(override_set);
  EXPECT_EQ(base.Get("a"), "1");
  EXPECT_EQ(base.Get("b"), "3");
  EXPECT_EQ(base.Get("c"), "4");
}

TEST(PropertiesTest, KeysAreSorted) {
  Properties p;
  p.Set("zebra", "1");
  p.Set("alpha", "2");
  auto keys = p.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "zebra");
}

TEST(PropertiesTest, LoadFromFileRoundTrip) {
  std::string path = ::testing::TempDir() + "props_test.properties";
  {
    std::ofstream out(path);
    out << "db=rawhttp\nthreads=16\n";
  }
  Properties p;
  ASSERT_TRUE(p.LoadFromFile(path).ok());
  EXPECT_EQ(p.Get("db"), "rawhttp");
  EXPECT_EQ(p.GetInt("threads", 0), 16);
  std::remove(path.c_str());
}

TEST(PropertiesTest, LoadFromMissingFileFails) {
  Properties p;
  EXPECT_TRUE(p.LoadFromFile("/nonexistent/nowhere.properties").IsIOError());
}

}  // namespace
}  // namespace ycsbt
