#include "common/clock.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace ycsbt {
namespace {

TEST(ClockTest, SteadyNanosMonotone) {
  uint64_t a = SteadyNanos();
  uint64_t b = SteadyNanos();
  EXPECT_LE(a, b);
}

TEST(StopwatchTest, MeasuresSleeps) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.ElapsedMicros(), 18000u);
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  watch.Restart();
  EXPECT_LT(watch.ElapsedMicros(), 10000u);
}

TEST(LatencyTimerTest, ReportsItsSource) {
  std::string source = LatencyTimer::Source();
  std::printf("LatencyTimer source: %s\n", source.c_str());
  RecordProperty("latency_timer_source", source);
  EXPECT_TRUE(source == "tsc" || source == "steady_clock") << source;
}

// The TSC scale is calibrated once against the steady clock, so over sleeps
// of every scale the two must agree within the calibration's error.  The
// clocks are started and read one after the other, so a preemption between
// two reads widens one try's gap; the smallest gap of a few tries is the
// calibration's.
TEST(LatencyTimerTest, AgreesWithStopwatchOverSleeps) {
  constexpr int kTries = 5;
  for (int ms : {1, 5, 20}) {
    uint64_t best_gap = ~uint64_t{0}, timer_ns = 0, watch_ns = 0;
    for (int t = 0; t < kTries; ++t) {
      Stopwatch watch;
      LatencyTimer timer;
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      uint64_t timer_try = timer.ElapsedNanos();
      uint64_t watch_try = watch.ElapsedNanos();
      uint64_t gap = timer_try > watch_try ? timer_try - watch_try : watch_try - timer_try;
      if (gap < best_gap) {
        best_gap = gap;
        timer_ns = timer_try;
        watch_ns = watch_try;
      }
    }
    EXPECT_LE(best_gap, watch_ns / 200 + 5000)
        << ms << " ms sleep: timer " << timer_ns << " ns, stopwatch " << watch_ns
        << " ns, source " << LatencyTimer::Source();
    EXPECT_GE(timer_ns, static_cast<uint64_t>(ms) * 900'000);
  }
}

// A timer started on one CPU and read on another must neither wrap (a
// backwards tick difference) nor run ahead of the steady clock.  Only the
// test's own thread is moved.
TEST(LatencyTimerTest, ElapsedStaysSaneAcrossCpuHops) {
  std::thread hopper([] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    std::vector<int> cpus;
    // Skew between cores shows within a few pairs; the first 16 allowed
    // CPUs keep the hop count small on a large host.
    constexpr size_t kMaxCpus = 16;
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < kMaxCpus; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    ASSERT_FALSE(cpus.empty());
    auto pin = [](int cpu) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0;
    };
    int hops = 0;
    for (int round = 0; round < 3; ++round) {
      for (int from : cpus) {
        for (int to : cpus) {
          if (!pin(from)) continue;
          LatencyTimer timer;
          Stopwatch watch;
          if (!pin(to)) continue;
          uint64_t timer_ns = timer.ElapsedNanos();
          uint64_t watch_ns = watch.ElapsedNanos();
          EXPECT_LE(timer_ns, watch_ns + 1'000'000)
              << "cpu " << from << " -> " << to << ", source "
              << LatencyTimer::Source();
          ++hops;
        }
      }
    }
    EXPECT_GT(hops, 0);
    std::printf("LatencyTimer source %s: %d hops over %zu cpus\n",
                LatencyTimer::Source(), hops, cpus.size());
  });
  hopper.join();
}

TEST(HlcTest, StrictlyMonotonic) {
  HybridLogicalClock clock;
  uint64_t prev = 0;
  for (int i = 0; i < 100000; ++i) {
    uint64_t now = clock.Now();
    ASSERT_GT(now, prev);
    prev = now;
  }
}

TEST(HlcTest, MonotonicAcrossThreads) {
  // Concurrent Now() calls must produce unique, advancing timestamps.
  HybridLogicalClock clock;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::vector<uint64_t>> seen(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      seen[static_cast<size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        seen[static_cast<size_t>(t)].push_back(clock.Now());
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<uint64_t> all;
  for (auto& v : seen) {
    // Per-thread sequences are strictly increasing.
    for (size_t i = 1; i < v.size(); ++i) ASSERT_GT(v[i], v[i - 1]);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate timestamp issued";
}

TEST(HlcTest, ObservePushesClockForward) {
  HybridLogicalClock clock;
  uint64_t now = clock.Now();
  uint64_t remote = now + (1000ull << HybridLogicalClock::kLogicalBits);
  clock.Observe(remote);
  EXPECT_GT(clock.Now(), remote);
}

TEST(HlcTest, ObserveOfPastIsNoop) {
  HybridLogicalClock clock;
  uint64_t now = clock.Now();
  clock.Observe(now / 2);
  EXPECT_GT(clock.Now(), now);
}

TEST(HlcTest, PhysicalLogicalRoundTrip) {
  uint64_t ts = (12345ull << HybridLogicalClock::kLogicalBits) | 42ull;
  EXPECT_EQ(HybridLogicalClock::Physical(ts), 12345ull);
  EXPECT_EQ(HybridLogicalClock::Logical(ts), 42ull);
}

TEST(HlcTest, PhysicalComponentTracksWallClock) {
  HybridLogicalClock clock;
  uint64_t wall_before = WallMillis();
  uint64_t ts = clock.Now();
  uint64_t wall_after = WallMillis() + 1;
  uint64_t phys = HybridLogicalClock::Physical(ts);
  EXPECT_GE(phys, wall_before - 10);
  EXPECT_LE(phys, wall_after + 10);
}

}  // namespace
}  // namespace ycsbt
