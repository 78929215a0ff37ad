#include "generator/zipfian_generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "generator/scrambled_zipfian_generator.h"
#include "generator/skewed_latest_generator.h"

namespace ycsbt {
namespace {

TEST(ZipfianTest, ZetaMatchesDirectSum) {
  double direct = 0.0;
  for (int i = 1; i <= 100; ++i) direct += 1.0 / std::pow(i, 0.99);
  EXPECT_NEAR(ZipfianGenerator::Zeta(100, 0.99), direct, 1e-12);
}

TEST(ZipfianTest, ZetaIncrementalMatchesFull) {
  double first = ZipfianGenerator::Zeta(500, 0.99);
  double extended = ZipfianGenerator::ZetaIncremental(500, 1000, first, 0.99);
  EXPECT_NEAR(extended, ZipfianGenerator::Zeta(1000, 0.99), 1e-12);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator gen(10, 109);
  Random64 rng(1);
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 109u);
  }
}

TEST(ZipfianTest, FirstItemIsMostPopular) {
  ZipfianGenerator gen(0, 999);
  Random64 rng(2);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[gen.Next(rng)];
  int max_count = 0;
  uint64_t max_key = 0;
  for (auto& [k, c] : counts) {
    if (c > max_count) {
      max_count = c;
      max_key = k;
    }
  }
  EXPECT_EQ(max_key, 0u);
  // Theoretical share of item 1 with theta=.99 over 1000 items: 1/zeta ~ 13%.
  double expected = 1.0 / ZipfianGenerator::Zeta(1000, 0.99);
  EXPECT_NEAR(static_cast<double>(max_count) / kSamples, expected, 0.01);
}

TEST(ZipfianTest, PopularityRatioFollowsTheta) {
  ZipfianGenerator gen(0, 9999);
  Random64 rng(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 400000; ++i) ++counts[gen.Next(rng)];
  // P(1)/P(2) should be ~2^theta.
  double ratio = static_cast<double>(counts[0]) / counts[1];
  EXPECT_NEAR(ratio, std::pow(2.0, 0.99), 0.35);
}

TEST(ZipfianTest, GrowingItemCountExtendsRange) {
  ZipfianGenerator gen(0, 99);
  Random64 rng(4);
  bool saw_beyond = false;
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = gen.Next(rng, 200);
    ASSERT_LT(v, 200u);
    if (v >= 100) saw_beyond = true;
  }
  EXPECT_TRUE(saw_beyond);
  EXPECT_EQ(gen.item_count(), 200u);
}

TEST(ZipfianTest, ShrinkingItemCountRecomputes) {
  ZipfianGenerator gen(0, 999);
  Random64 rng(5);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(gen.Next(rng, 50), 50u);
}

TEST(ZipfianTest, ConcurrentNextIsSafeAndInRange) {
  ZipfianGenerator gen(0, 9999);
  std::vector<std::thread> pool;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(100 + t));
      for (int i = 0; i < 50000; ++i) {
        if (gen.Next(rng) > 9999u) ok.store(false);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_TRUE(ok.load());
}

/// FNV-1a fold of the first `n` draws of `gen` from seed 7.
uint64_t DrawDigest(IntegerGenerator& gen, int n) {
  Random64 rng(7);
  uint64_t digest = 14695981039346656037ull;
  for (int i = 0; i < n; ++i) {
    digest ^= gen.Next(rng);
    digest *= 1099511628211ull;
  }
  return digest;
}

// The draw streams are part of every seeded run's replay: these digests of
// the first million draws were recorded before the per-draw constants were
// hoisted out of Next, so they pin that the hoisting moved no draw.
TEST(ZipfianTest, FirstMillionDrawsArePinned) {
  ScrambledZipfianGenerator scrambled(0, 99999);
  EXPECT_EQ(DrawDigest(scrambled, 1000000), 16592009183049754252ull);
  ZipfianGenerator plain(1, 100);
  EXPECT_EQ(DrawDigest(plain, 1000000), 5501872658012209041ull);
}

TEST(ScrambledZipfianTest, StaysInRangeAndScatters) {
  ScrambledZipfianGenerator gen(0, 9999);
  Random64 rng(6);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_LE(v, 9999u);
    ++counts[v];
  }
  // The hottest key must NOT be key 0 systematically — find the hottest and
  // check the top of the distribution is spread across the space.
  uint64_t hottest = 0;
  int hottest_count = 0;
  for (auto& [k, c] : counts) {
    if (c > hottest_count) {
      hottest_count = c;
      hottest = k;
    }
  }
  // Still zipfian-hot: the hottest key takes a few percent of all traffic.
  EXPECT_GT(hottest_count, kSamples / 100);
  // Dispersal: hot keys land anywhere; with FNV it is astronomically
  // unlikely the hottest rank hashes to slot 0.
  EXPECT_NE(hottest, 0u);
}

TEST(ScrambledZipfianTest, MinOffsetRespected) {
  ScrambledZipfianGenerator gen(500, 599);
  Random64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_GE(v, 500u);
    ASSERT_LE(v, 599u);
  }
}

TEST(SkewedLatestTest, FavoursNewestKeys) {
  CounterGenerator basis(0);
  Random64 rng(8);
  for (int i = 0; i < 1000; ++i) basis.Next(rng);  // keys 0..999 inserted
  SkewedLatestGenerator gen(&basis);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_LE(v, 999u);
    ++counts[v];
  }
  // The newest key (999) must be the most popular.
  int max_count = 0;
  uint64_t max_key = 0;
  for (auto& [k, c] : counts) {
    if (c > max_count) {
      max_count = c;
      max_key = k;
    }
  }
  EXPECT_EQ(max_key, 999u);
}

TEST(SkewedLatestTest, TracksGrowingBasis) {
  CounterGenerator basis(0);
  Random64 rng(9);
  basis.Next(rng);
  SkewedLatestGenerator gen(&basis);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.Next(rng), 0u);
  for (int i = 0; i < 500; ++i) basis.Next(rng);
  bool saw_new = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_LE(v, basis.Last());
    if (v > 0) saw_new = true;
  }
  EXPECT_TRUE(saw_new);
}

}  // namespace
}  // namespace ycsbt
