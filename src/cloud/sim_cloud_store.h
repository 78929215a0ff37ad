#ifndef YCSBT_CLOUD_SIM_CLOUD_STORE_H_
#define YCSBT_CLOUD_SIM_CLOUD_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/latency_model.h"
#include "common/properties.h"
#include "common/property_schema.h"
#include "common/rate_limiter.h"
#include "common/stats_layer.h"
#include "kv/store.h"
#include "kv/store_decorator.h"

namespace ycsbt {
namespace cloud {

/// Overrides of the `was`/`gcs`/`rawhttp` profile below.
inline constexpr PropertyDecl kCloudRateLimit = Derived(
    DoubleProperty("cloud.rate_limit", 0.0, 0.0, kNoLimit,
                   "requests/s one container sustains; 0 = uncapped"),
    "profile");
inline constexpr PropertyDecl kCloudContainers = IntProperty(
    "cloud.containers", 1, 1, kIntMax,
    "storage containers the keyspace is hash-partitioned over");
inline constexpr PropertyDecl kCloudClientSerialUs = Derived(
    DoubleProperty("cloud.client_serial_us", 0.0, 0.0, kNoLimit,
                   "serialized client cost per request per in-flight request"),
    "profile");
inline constexpr PropertyDecl kCloudMaxQueueDelayUs = DoubleProperty(
    "cloud.max_queue_delay_us", 2'000'000.0, 0.0, kNoLimit,
    "container queue wait beyond which a request is rejected RateLimited");
inline constexpr PropertyDecl kCloudLatencyScale = DoubleProperty(
    "cloud.latency_scale", 1.0, 0.0, kNoLimit,
    "multiplies every simulated latency (quick runs use < 1)");
inline constexpr const PropertyDecl* kCloudProfileProperties[] = {
    &kCloudRateLimit, &kCloudContainers, &kCloudClientSerialUs, &kCloudMaxQueueDelayUs,
    &kCloudLatencyScale};

/// Performance profile of a simulated cloud object store.
///
/// The paper's Figure 2 testbed (EC2 client against one WAS container, GCS
/// for comparison) exhibits three regimes, each driven by one mechanism the
/// profile parameterises explicitly:
///   1. *latency-bound linear scaling* — per-request service latency
///      (lognormal; REST-over-WAN numbers, tens of milliseconds);
///   2. *container request-rate ceiling* — "a bottleneck in the network or
///      the data store container itself" (§V-A): a token bucket caps each
///      container's request rate, flattening throughput beyond ~16 threads;
///   3. *client thread contention* — the decline at 64/128 threads: each
///      request passes through a serialized client section (connection pool
///      + scheduler overhead) whose cost grows with the number of in-flight
///      threads.
struct CloudProfile {
  std::string name = "cloud";

  /// Median service latency per operation kind, microseconds.
  double read_latency_median_us = 11500.0;
  double write_latency_median_us = 12500.0;
  /// Lognormal shape; ~0.35 gives the tight-body/long-tail REST profile.
  double latency_sigma = 0.35;
  /// Hard per-request floor (protocol + TLS cost).
  double latency_floor_us = 2000.0;

  /// Requests/second one container sustains; <= 0 disables the cap.
  double container_rate_limit = 650.0;
  /// Burst the container absorbs before the cap bites, as a fraction of one
  /// second's tokens (kept small so the ceiling shows up even in short runs).
  double container_burst_fraction = 0.05;
  /// Number of storage containers the keyspace is hash-partitioned over;
  /// each has its own rate cap.  The paper's §V-A setup used one container
  /// (hence its plateau); more containers model the scale-out answer.
  int containers = kCloudContainers.Default<int>();
  /// Queueing delay beyond which the request fails with RateLimited
  /// (the HTTP 503 / server-busy analogue).
  double max_queue_delay_us = kCloudMaxQueueDelayUs.Default<double>();

  /// Serialized client-side cost per request, microseconds, multiplied by
  /// the number of concurrently in-flight requests.  Models the thread
  /// contention the paper blames for the 64/128-thread degradation.
  double client_serial_us_per_inflight = 45.0;
  /// In-flight count below which the serialized cost stays at its base.
  int client_contention_free_threads = 16;

  /// Windows Azure Storage-like profile (single container).
  static CloudProfile Was();
  /// Google Cloud Storage-like profile (slightly slower, higher cap).
  static CloudProfile Gcs();
  /// The paper's WiredTiger behind a loopback Boost-ASIO HTTP server
  /// (`rawhttp`): Listing 3's round trip (min ~1.2 ms, mean ~1.5 ms, long
  /// tail), no rate cap and no client-serial cost.
  static CloudProfile Loopback();

  /// `profile` with the `cloud.*` overrides above applied.
  static CloudProfile FromProperties(const Properties& props,
                                     CloudProfile profile);

  /// Multiplies every latency the profile models: service medians, floor
  /// and the serialized client cost.
  void ScaleLatency(double factor);
};

/// Running counters exposed for benches and tests.  Per-outcome counts
/// partition `requests`: every request is exactly one of throttled
/// (rejected with RateLimited), queue_delayed (admitted after waiting on
/// the rate cap) or ok (admitted without queueing).
struct CloudStats {
  uint64_t requests = 0;
  uint64_t throttled = 0;       ///< requests rejected with RateLimited
  uint64_t queue_delayed = 0;   ///< requests that waited on the rate cap
  uint64_t ok = 0;              ///< requests admitted without queue delay
};

/// A simulated cloud object store implementing the `kv::Store` interface.
///
/// Functionally it is the backing `ShardedStore` (single-item linearizable
/// ops, etags, conditional put = If-Match, no multi-item transactions);
/// performance-wise every request pays, in order: the serialized client
/// section, the container rate-cap queue, and the sampled service latency.
///
/// The rate-cap queue honours the caller's ambient `OpContext` deadline: a
/// request whose queueing delay would outlive the deadline is rejected
/// immediately as `RateLimited` (with a `retry_after_us=` hint) instead of
/// sleeping out a wait whose answer is already useless.
class SimCloudStore : public kv::StoreDecorator<SimCloudStore>, public StatsLayer {
 public:
  explicit SimCloudStore(CloudProfile profile,
                         std::shared_ptr<kv::Store> backing = nullptr);

  size_t Count() const override;

  const CloudProfile& profile() const { return profile_; }

  CloudStats stats() const {
    return CloudStats{requests_.load(), throttled_.load(), queue_delayed_.load(),
                      ok_.load()};
  }

  const char* name() const override { return "cloud"; }
  /// `CLOUD REQUESTS` / `CLOUD THROTTLED` / `CLOUD QUEUE-DELAYED`.
  void Collect(LayerStats* out) override;

  /// Scales all latency parameters by `factor` (tests use ~0.01 so suites
  /// stay fast while exercising the same code paths).
  void ScaleLatency(double factor);

 private:
  friend class kv::StoreDecorator<SimCloudStore>;

  /// The one body of every request: `BeginRequest`, then `call` on the
  /// backing store, then the in-flight decrement.
  template <typename Call>
  Status Request(Op op, const std::string& key, const Call& call) {
    Status s = BeginRequest(IsWrite(op), key);
    if (!s.ok()) return s;
    s = call(*backing_);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return s;
  }

  /// Front half of every request; returns RateLimited when the container
  /// queue is saturated.  `is_write` selects the latency model; `key`
  /// selects the container (hash partitioning).
  Status BeginRequest(bool is_write, const std::string& key);

  TokenBucket& ContainerFor(const std::string& key);

  CloudProfile profile_;
  std::shared_ptr<kv::Store> backing_;
  LatencyModel read_latency_;
  LatencyModel write_latency_;
  std::vector<std::unique_ptr<TokenBucket>> container_limits_;

  /// The serialized client section is modelled as a single-server queue:
  /// each request reserves `serial_cost` of exclusive service time after the
  /// previous reservation and sleeps until its slot has passed.  (Advancing
  /// a shared deadline instead of sleeping under a mutex keeps the modelled
  /// cost exact regardless of OS sleep granularity.)
  std::atomic<uint64_t> serial_next_free_ns_{0};
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> throttled_{0};
  std::atomic<uint64_t> queue_delayed_{0};
  std::atomic<uint64_t> ok_{0};
  CloudStats collected_;  ///< `stats()` as of the previous Collect
};

}  // namespace cloud
}  // namespace ycsbt

#endif  // YCSBT_CLOUD_SIM_CLOUD_STORE_H_
