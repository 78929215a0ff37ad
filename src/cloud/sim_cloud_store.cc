#include "cloud/sim_cloud_store.h"

#include <algorithm>
#include <string>

#include "common/clock.h"
#include "common/op_context.h"
#include "common/random.h"

namespace ycsbt {
namespace cloud {

CloudProfile CloudProfile::Was() {
  CloudProfile p;
  p.name = "was";
  p.read_latency_median_us = 11500.0;
  p.write_latency_median_us = 20000.0;
  p.latency_sigma = 0.35;
  p.latency_floor_us = 2000.0;
  p.container_rate_limit = 650.0;
  p.client_serial_us_per_inflight = 45.0;
  p.client_contention_free_threads = 16;
  return p;
}

CloudProfile CloudProfile::Gcs() {
  CloudProfile p;
  p.name = "gcs";
  p.read_latency_median_us = 14500.0;
  p.write_latency_median_us = 24000.0;
  p.latency_sigma = 0.40;
  p.latency_floor_us = 2500.0;
  p.container_rate_limit = 800.0;
  p.client_serial_us_per_inflight = 45.0;
  p.client_contention_free_threads = 16;
  return p;
}

CloudProfile CloudProfile::Loopback() {
  CloudProfile p;
  p.name = "loopback";
  p.read_latency_median_us = 1450.0;
  p.write_latency_median_us = 1450.0;
  p.latency_sigma = 0.35;
  p.latency_floor_us = 1150.0;
  p.container_rate_limit = 0.0;
  p.client_serial_us_per_inflight = 0.0;
  return p;
}

SimCloudStore::SimCloudStore(CloudProfile profile, std::shared_ptr<kv::Store> backing)
    : profile_(std::move(profile)),
      backing_(backing != nullptr
                   ? std::move(backing)
                   : std::make_shared<kv::ShardedStore>(kv::StoreOptions{})),
      read_latency_(profile_.read_latency_median_us, profile_.latency_sigma,
                    profile_.latency_floor_us),
      write_latency_(profile_.write_latency_median_us, profile_.latency_sigma,
                     profile_.latency_floor_us) {
  if (profile_.containers < 1) profile_.containers = 1;
  for (int i = 0; i < profile_.containers; ++i) {
    container_limits_.push_back(std::make_unique<TokenBucket>(
        profile_.container_rate_limit,
        profile_.container_rate_limit * profile_.container_burst_fraction));
  }
}

TokenBucket& SimCloudStore::ContainerFor(const std::string& key) {
  if (container_limits_.size() == 1) return *container_limits_[0];
  uint64_t h = FNVHash64(std::hash<std::string>{}(key));
  return *container_limits_[h % container_limits_.size()];
}

void SimCloudStore::Collect(LayerStats* out) {
  CloudStats now = stats();
  out->Count("CLOUD REQUESTS", now.requests - collected_.requests);
  out->Count("CLOUD THROTTLED", now.throttled - collected_.throttled);
  out->Count("CLOUD QUEUE-DELAYED", now.queue_delayed - collected_.queue_delayed);
  collected_ = now;
}

CloudProfile CloudProfile::FromProperties(const Properties& props,
                                          CloudProfile p) {
  p.container_rate_limit =
      kCloudRateLimit.Get<double>(props, p.container_rate_limit);
  p.containers = kCloudContainers.Get<int>(props, p.containers);
  p.client_serial_us_per_inflight =
      kCloudClientSerialUs.Get<double>(props, p.client_serial_us_per_inflight);
  p.max_queue_delay_us =
      kCloudMaxQueueDelayUs.Get<double>(props, p.max_queue_delay_us);
  double scale = kCloudLatencyScale.Get<double>(props);
  if (scale != 1.0) p.ScaleLatency(scale);
  return p;
}

void CloudProfile::ScaleLatency(double factor) {
  read_latency_median_us *= factor;
  write_latency_median_us *= factor;
  latency_floor_us *= factor;
  client_serial_us_per_inflight *= factor;
}

void SimCloudStore::ScaleLatency(double factor) {
  profile_.ScaleLatency(factor);
  read_latency_ = LatencyModel(profile_.read_latency_median_us,
                               profile_.latency_sigma, profile_.latency_floor_us);
  write_latency_ = LatencyModel(profile_.write_latency_median_us,
                                profile_.latency_sigma, profile_.latency_floor_us);
}

Status SimCloudStore::BeginRequest(bool is_write, const std::string& key) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;

  // 1. Serialized client section: connection pool + request marshalling.
  //    Cost grows once the host runs more in-flight requests than it has
  //    contention-free capacity for — the Fig 2 degradation mechanism.
  //    Modelled as a single-server queue over a shared deadline.
  if (profile_.client_serial_us_per_inflight > 0.0) {
    double serial_us = profile_.client_serial_us_per_inflight *
                       std::max(inflight, profile_.client_contention_free_threads);
    uint64_t serial_ns = static_cast<uint64_t>(serial_us * 1000.0);
    uint64_t now = SteadyNanos();
    uint64_t prev = serial_next_free_ns_.load(std::memory_order_relaxed);
    uint64_t end;
    do {
      end = std::max(now, prev) + serial_ns;
    } while (!serial_next_free_ns_.compare_exchange_weak(
        prev, end, std::memory_order_relaxed));
    if (end > now) SleepMicros((end - now) / 1000);
  }

  // 2. Container request-rate cap (token-bucket queue), per partition.
  //    A wait that would overflow the server's queue bound *or* the caller's
  //    propagated deadline is rejected up front — the server-busy 503 with a
  //    Retry-After hint, instead of sleeping through a wait whose answer the
  //    caller can no longer use.
  bool delayed = false;
  TokenBucket& container = ContainerFor(key);
  if (!container.Unlimited()) {
    uint64_t delay_ns = container.AcquireDelayNanos();
    if (delay_ns > 0) {
      // Exempt traffic — the harness's load/validation phases and the txn
      // protocol's post-commit-point cleanup — is *patient*: it opts out of
      // the busy rejection and waits the queue out instead, so a saturated
      // run can still be set up, audited, and have its committed work
      // settled.
      if (!OpExempt() &&
          (static_cast<double>(delay_ns) / 1000.0 > profile_.max_queue_delay_us ||
           delay_ns > OpDeadlineRemainingNanos())) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        throttled_.fetch_add(1, std::memory_order_relaxed);
        return Status::RateLimited(profile_.name +
                                   " container busy; retry_after_us=" +
                                   std::to_string(delay_ns / 1000));
      }
      delayed = true;
      queue_delayed_.fetch_add(1, std::memory_order_relaxed);
      SleepMicros(delay_ns / 1000);
    }
  }
  if (!delayed) ok_.fetch_add(1, std::memory_order_relaxed);

  // 3. Service latency for the request itself.
  (is_write ? write_latency_ : read_latency_).Inject(ThreadLocalRandom());
  return Status::OK();
}

size_t SimCloudStore::Count() const { return backing_->Count(); }

}  // namespace cloud
}  // namespace ycsbt
