#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "generator/acknowledged_counter_generator.h"
#include "generator/discrete_generator.h"
#include "generator/exponential_generator.h"
#include "generator/generator.h"
#include "generator/hotspot_generator.h"
#include "generator/sequential_generator.h"
#include "generator/uniform_generator.h"

namespace ycsbt {
namespace {

TEST(ConstantGeneratorTest, AlwaysSameValue) {
  ConstantGenerator<uint64_t> gen(42);
  Random64 rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gen.Next(rng), 42u);
}

TEST(CounterGeneratorTest, SequentialFromStart) {
  CounterGenerator gen(100);
  Random64 rng(1);
  EXPECT_EQ(gen.Next(rng), 100u);
  EXPECT_EQ(gen.Next(rng), 101u);
  EXPECT_EQ(gen.Last(), 101u);
}

TEST(CounterGeneratorTest, ConcurrentNextsAreUnique) {
  CounterGenerator gen(0);
  constexpr int kThreads = 4, kPer = 10000;
  std::vector<std::vector<uint64_t>> out(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t));
      for (int i = 0; i < kPer; ++i) out[static_cast<size_t>(t)].push_back(gen.Next(rng));
    });
  }
  for (auto& th : pool) th.join();
  std::set<uint64_t> all;
  for (auto& v : out) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPer);
  EXPECT_EQ(*all.rbegin(), static_cast<uint64_t>(kThreads) * kPer - 1);
}

TEST(AcknowledgedCounterTest, LastLagsUntilAcknowledged) {
  AcknowledgedCounterGenerator gen(10);
  Random64 rng(1);
  EXPECT_EQ(gen.Last(), 9u);  // nothing acknowledged yet
  uint64_t a = gen.Next(rng);
  uint64_t b = gen.Next(rng);
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 11u);
  EXPECT_EQ(gen.Last(), 9u);
  // Out-of-order acknowledgement: b first does not advance past the gap.
  gen.Acknowledge(b);
  EXPECT_EQ(gen.Last(), 9u);
  gen.Acknowledge(a);
  EXPECT_EQ(gen.Last(), 11u);  // contiguous prefix complete
}

TEST(AcknowledgedCounterTest, ManyInterleavedAcks) {
  AcknowledgedCounterGenerator gen(0);
  Random64 rng(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 100; ++i) values.push_back(gen.Next(rng));
  // Acknowledge in reverse: limit only moves once 0 arrives.
  for (int i = 99; i > 0; --i) gen.Acknowledge(values[static_cast<size_t>(i)]);
  EXPECT_EQ(gen.Last(), static_cast<uint64_t>(-1));
  gen.Acknowledge(values[0]);
  EXPECT_EQ(gen.Last(), 99u);
}

// Last() is a lock-free load while Acknowledge serialises: readers racing
// the ackers must see a nondecreasing limit, and every key at or below a
// limit they saw must already be acknowledged.
TEST(AcknowledgedCounterTest, ConcurrentLastIsMonotonicAndAcknowledged) {
  constexpr int kAckers = 4;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerAcker = 20000;
  constexpr uint64_t kTotal = kAckers * kPerAcker;
  AcknowledgedCounterGenerator gen(1);  // limit starts at 0
  std::vector<std::atomic<bool>> acked(kTotal + 1);
  std::atomic<int> ackers_left{kAckers};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kAckers; ++t) {
    pool.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kPerAcker; ++i) {
        uint64_t v = gen.Next(rng);
        acked[v].store(true, std::memory_order_relaxed);
        gen.Acknowledge(v);
      }
      ackers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    pool.emplace_back([&] {
      uint64_t prev = 0;
      while (ackers_left.load() > 0) {
        uint64_t last = gen.Last();
        if (last < prev || last > kTotal) failed = true;
        if (last > 0 && !acked[last].load(std::memory_order_relaxed)) {
          failed = true;
        }
        prev = last;
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(gen.Last(), kTotal);
}

TEST(DiscreteGeneratorTest, RespectsWeights) {
  DiscreteGenerator<std::string> gen;
  gen.AddValue("read", 0.9);
  gen.AddValue("write", 0.1);
  Random64 rng(17);
  std::map<std::string, int> counts;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[gen.Next(rng)];
  EXPECT_NEAR(counts["read"], kSamples * 0.9, kSamples * 0.02);
  EXPECT_NEAR(counts["write"], kSamples * 0.1, kSamples * 0.02);
}

TEST(DiscreteGeneratorTest, SingleValueAlwaysChosen) {
  DiscreteGenerator<std::string> gen;
  gen.AddValue("only", 0.42);
  Random64 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.Next(rng), "only");
}

TEST(DiscreteGeneratorTest, WeightsNeedNotSumToOne) {
  DiscreteGenerator<int> gen;
  gen.AddValue(1, 3.0);
  gen.AddValue(2, 1.0);
  Random64 rng(5);
  int ones = 0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next(rng) == 1) ++ones;
  }
  EXPECT_NEAR(ones, kSamples * 0.75, kSamples * 0.03);
}

TEST(UniformLongGeneratorTest, CoversRangeInclusive) {
  UniformLongGenerator gen(10, 13);
  Random64 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SequentialGeneratorTest, WrapsAround) {
  SequentialGenerator gen(5, 7);  // 5,6,7,5,6,7,...
  Random64 rng(1);
  EXPECT_EQ(gen.Next(rng), 5u);
  EXPECT_EQ(gen.Next(rng), 6u);
  EXPECT_EQ(gen.Next(rng), 7u);
  EXPECT_EQ(gen.Next(rng), 5u);
}

TEST(HotspotGeneratorTest, HotSetGetsConfiguredShare) {
  // 20% of keys take 80% of traffic.
  HotspotIntegerGenerator gen(0, 999, 0.2, 0.8);
  EXPECT_EQ(gen.hot_interval(), 200u);
  Random64 rng(21);
  int hot_hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = gen.Next(rng);
    ASSERT_LE(v, 999u);
    if (v < 200) ++hot_hits;
  }
  EXPECT_NEAR(hot_hits, kSamples * 0.8, kSamples * 0.02);
}

TEST(HotspotGeneratorTest, DegenerateAllHot) {
  HotspotIntegerGenerator gen(0, 9, 1.0, 0.5);
  Random64 rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(gen.Next(rng), 9u);
}

TEST(ExponentialGeneratorTest, PercentileMassInsideRange) {
  // 95% of the mass within 1000.
  ExponentialGenerator gen(95.0, 1000.0);
  Random64 rng(31);
  int inside = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (gen.Next(rng) <= 1000) ++inside;
  }
  EXPECT_NEAR(inside, kSamples * 0.95, kSamples * 0.01);
}

TEST(ExponentialGeneratorTest, SmallValuesDominate) {
  ExponentialGenerator gen(95.0, 1000.0);
  Random64 rng(32);
  int below_mean = 0;
  constexpr int kSamples = 50000;
  double mean = 1.0 / gen.gamma();
  for (int i = 0; i < kSamples; ++i) {
    if (static_cast<double>(gen.Next(rng)) < mean) ++below_mean;
  }
  // P(X < mean) = 1 - 1/e ~ 0.632 for exponential.
  EXPECT_NEAR(below_mean, kSamples * 0.632, kSamples * 0.02);
}

}  // namespace
}  // namespace ycsbt
