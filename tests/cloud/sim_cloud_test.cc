#include "cloud/sim_cloud_store.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/op_context.h"
#include "common/retry_policy.h"
#include "str_cat.h"

namespace ycsbt {
namespace cloud {
namespace {

/// A fast profile exercising the same code paths at test speed.
CloudProfile FastProfile() {
  CloudProfile p = CloudProfile::Was();
  p.read_latency_median_us = 200.0;
  p.write_latency_median_us = 250.0;
  p.latency_floor_us = 100.0;
  p.client_serial_us_per_inflight = 1.0;
  p.container_rate_limit = 0.0;  // uncapped unless a test sets it
  return p;
}

TEST(SimCloudStoreTest, FunctionalPassThrough) {
  SimCloudStore store(FastProfile());
  uint64_t etag = 0;
  ASSERT_TRUE(store.Put("k", "v", &etag).ok());
  std::string value;
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(store.ConditionalPut("k", "w", etag + 1).IsConflict());
  ASSERT_TRUE(store.ConditionalPut("k", "w", etag).ok());
  std::vector<kv::ScanEntry> rows;
  ASSERT_TRUE(store.Scan("", 10, &rows).ok());
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_TRUE(store.Get("k", &value).IsNotFound());
  EXPECT_EQ(store.stats().requests, 7u);
}

TEST(SimCloudStoreTest, InjectsServiceLatency) {
  SimCloudStore store(FastProfile());
  store.Put("k", "v");
  Stopwatch watch;
  std::string value;
  for (int i = 0; i < 10; ++i) store.Get("k", &value);
  // 10 reads with a 200us median and 100us floor: >= 1ms total.
  EXPECT_GE(watch.ElapsedMicros(), 1000u);
}

TEST(SimCloudStoreTest, WritesSlowerThanReads) {
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 150.0;
  p.write_latency_median_us = 1500.0;
  p.latency_sigma = 0.05;
  SimCloudStore store(p);
  store.Put("k", "v");
  Stopwatch reads;
  std::string value;
  for (int i = 0; i < 5; ++i) store.Get("k", &value);
  uint64_t read_time = reads.ElapsedMicros();
  Stopwatch writes;
  for (int i = 0; i < 5; ++i) store.Put("k", "v");
  EXPECT_GT(writes.ElapsedMicros(), read_time);
}

TEST(SimCloudStoreTest, ContainerRateCapBoundsThroughput) {
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 0.0;  // isolate the rate cap
  p.write_latency_median_us = 0.0;
  p.latency_floor_us = 0.0;
  p.container_rate_limit = 500.0;
  SimCloudStore store(p);
  store.Put("k", "v");

  // Drain the burst bucket first.
  std::string value;
  for (int i = 0; i < 600; ++i) store.Get("k", &value);

  Stopwatch watch;
  int ops = 0;
  while (watch.ElapsedSeconds() < 0.3) {
    store.Get("k", &value);
    ++ops;
  }
  double rate = ops / watch.ElapsedSeconds();
  EXPECT_LT(rate, 500.0 * 1.4);
  EXPECT_GT(store.stats().queue_delayed, 0u);
}

TEST(SimCloudStoreTest, SaturationBeyondQueueBoundThrottles) {
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 0.0;
  p.write_latency_median_us = 0.0;
  p.latency_floor_us = 0.0;
  p.container_rate_limit = 100.0;
  p.max_queue_delay_us = 1000.0;  // almost no queueing allowed
  SimCloudStore store(p);
  store.Put("k", "v");
  std::string value;
  int rate_limited = 0;
  for (int i = 0; i < 500; ++i) {
    if (store.Get("k", &value).IsRateLimited()) ++rate_limited;
  }
  EXPECT_GT(rate_limited, 0);
  EXPECT_EQ(store.stats().throttled, static_cast<uint64_t>(rate_limited));
}

TEST(SimCloudStoreTest, QueueWaitBeyondThePropagatedDeadlineRejectsImmediately) {
  // A saturated container whose queue wait exceeds the caller's remaining
  // deadline must reject the request as RateLimited *now* — sleeping out a
  // delay the caller can no longer use just burns a doomed txn's time.
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 0.0;
  p.write_latency_median_us = 0.0;
  p.latency_floor_us = 0.0;
  p.container_rate_limit = 50.0;        // 20ms of queue delay per token
  p.container_burst_fraction = 0.05;    // ~2-token burst, drained instantly
  p.max_queue_delay_us = 10'000'000.0;  // the server itself would queue
  SimCloudStore store(p);
  store.Put("k", "v");

  // With the deadline installed up front the tight loop never sleeps: the
  // burst tokens are admitted instantly, and the first request that would
  // owe a 20ms queue wait is rejected on the spot.  (No self-paced drain
  // phase — a drain sleep that overshoots under CI load would let the
  // bucket refill and the saturation evaporate.)
  OpDeadlineScope deadline(100);  // 0.1ms budget vs a 20ms queue wait
  std::string value;
  Status s = Status::OK();
  Stopwatch watch;
  int admitted = 0;
  for (int i = 0; i < 10 && s.ok(); ++i) {
    s = store.Get("k", &value);
    if (s.ok()) ++admitted;
  }
  EXPECT_TRUE(s.IsRateLimited()) << s.ToString();
  EXPECT_GT(admitted, 0);  // the burst itself was admitted
  // Rejected up front, not after sleeping out the queue delay.
  EXPECT_LT(watch.ElapsedMicros(), 10'000u);
  // The rejection carries the server-suggested wait for the retry loop.
  EXPECT_GT(RetryAfterUsHint(s), 0u);
  EXPECT_EQ(store.stats().throttled, 1u);
}

TEST(SimCloudStoreTest, GenerousDeadlineStillWaitsOutTheQueue) {
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 0.0;
  p.write_latency_median_us = 0.0;
  p.latency_floor_us = 0.0;
  p.container_rate_limit = 1000.0;
  p.max_queue_delay_us = 10'000'000.0;
  SimCloudStore store(p);
  store.Put("k", "v");
  std::string value;
  for (int i = 0; i < 200; ++i) store.Get("k", &value);

  OpDeadlineScope deadline(5'000'000);  // 5s: plenty for a ~1ms wait
  ASSERT_TRUE(store.Get("k", &value).ok());
  EXPECT_GT(store.stats().queue_delayed, 0u);
}

TEST(SimCloudStoreTest, PerOutcomeCountersPartitionRequests) {
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 0.0;
  p.write_latency_median_us = 0.0;
  p.latency_floor_us = 0.0;
  p.container_rate_limit = 200.0;
  p.max_queue_delay_us = 2000.0;
  SimCloudStore store(p);
  store.Put("k", "v");
  std::string value;
  int rate_limited = 0;
  for (int i = 0; i < 400; ++i) {
    Status s = store.Get("k", &value);
    if (!s.ok()) {
      // The only rejection this store produces is the rate cap.
      EXPECT_TRUE(s.IsRateLimited()) << s.ToString();
      ++rate_limited;
    }
  }
  CloudStats stats = store.stats();
  EXPECT_EQ(stats.throttled, static_cast<uint64_t>(rate_limited));
  EXPECT_GT(stats.ok, 0u);
  // throttled / queue-delayed / ok partition the request stream exactly.
  EXPECT_EQ(stats.throttled + stats.queue_delayed + stats.ok, stats.requests);
}

TEST(SimCloudStoreTest, UncappedStoreCountsEverythingOk) {
  SimCloudStore store(FastProfile());  // container_rate_limit = 0: uncapped
  store.Put("k", "v");
  std::string value;
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(store.Get("k", &value).ok());
  CloudStats stats = store.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.ok, 10u);
  EXPECT_EQ(stats.throttled, 0u);
  EXPECT_EQ(stats.queue_delayed, 0u);
}

TEST(SimCloudStoreTest, ClientContentionGrowsWithInflight) {
  // With a large per-inflight serialized cost, many threads must take
  // disproportionately longer per op than one thread — the Fig 2 decline.
  CloudProfile p = FastProfile();
  p.read_latency_median_us = 0.0;
  p.write_latency_median_us = 0.0;
  p.latency_floor_us = 0.0;
  p.client_serial_us_per_inflight = 100.0;
  p.client_contention_free_threads = 1;
  SimCloudStore store(p);
  store.Put("k", "v");

  auto measure = [&](int threads, int ops_per_thread) {
    Stopwatch watch;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        std::string value;
        for (int i = 0; i < ops_per_thread; ++i) store.Get("k", &value);
      });
    }
    for (auto& th : pool) th.join();
    double seconds = watch.ElapsedSeconds();
    return threads * ops_per_thread / seconds;  // aggregate ops/sec
  };

  double solo = measure(1, 50);
  double crowded = measure(8, 50);
  // Throughput must NOT scale with threads; the serialized section with
  // inflight-scaled cost makes the crowded run slower in aggregate.
  EXPECT_LT(crowded, solo * 1.5);
}

TEST(SimCloudStoreTest, ScaleLatencySpeedsEverythingUp) {
  CloudProfile p = CloudProfile::Gcs();
  SimCloudStore store(p, nullptr);
  store.ScaleLatency(0.01);
  EXPECT_NEAR(store.profile().read_latency_median_us,
              CloudProfile::Gcs().read_latency_median_us * 0.01, 1.0);
  Stopwatch watch;
  store.Put("k", "v");
  EXPECT_LT(watch.ElapsedMicros(), 100000u);
}

TEST(SimCloudStoreTest, MultipleContainersRaiseTheAggregateCap) {
  // Same offered load against 1 vs 4 containers: the partitioned store
  // sustains a higher rate (each container has its own token bucket).
  auto run = [](int containers) {
    CloudProfile p = FastProfile();
    p.read_latency_median_us = 0.0;
    p.write_latency_median_us = 0.0;
    p.latency_floor_us = 0.0;
    p.client_serial_us_per_inflight = 0.0;
    p.container_rate_limit = 300.0;
    p.containers = containers;
    SimCloudStore store(p);
    // Spread keys so hashing actually uses all containers.
    for (int i = 0; i < 64; ++i) store.Put(StrCat("k", i), "v");
    // Drain the burst buckets.
    std::string value;
    for (int i = 0; i < 200; ++i) store.Get(StrCat("k", i % 64), &value);
    Stopwatch watch;
    int ops = 0;
    while (watch.ElapsedSeconds() < 0.25) {
      store.Get(StrCat("k", ops % 64), &value);
      ++ops;
    }
    return ops / watch.ElapsedSeconds();
  };
  double single = run(1);
  double quad = run(4);
  EXPECT_LT(single, 300.0 * 1.5);
  EXPECT_GT(quad, single * 2.0);
}

TEST(CloudProfileTest, PresetsDiffer) {
  CloudProfile was = CloudProfile::Was();
  CloudProfile gcs = CloudProfile::Gcs();
  EXPECT_EQ(was.name, "was");
  EXPECT_EQ(gcs.name, "gcs");
  EXPECT_NE(was.read_latency_median_us, gcs.read_latency_median_us);
  EXPECT_GT(was.container_rate_limit, 0.0);
}

}  // namespace
}  // namespace cloud
}  // namespace ycsbt
