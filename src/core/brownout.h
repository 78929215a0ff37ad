#ifndef YCSBT_CORE_BROWNOUT_H_
#define YCSBT_CORE_BROWNOUT_H_

#include <atomic>
#include <cstdint>

#include "common/properties.h"
#include "common/property_schema.h"
#include "kv/resilient_store.h"

namespace ycsbt {
namespace core {

inline constexpr PropertyDecl kShedEnabled =
    BoolProperty("shed.enabled", false, "brownout admission control in the runner");
/// Kept above zero by default so a trickle of traffic still reaches the
/// breaker: the probes that eventually re-close it.
inline constexpr PropertyDecl kShedMaxInflight = IntProperty(
    "shed.max_inflight", 2, 0, kIntMax,
    "in-flight transaction cap while browned out (0 = no cap)");
inline constexpr PropertyDecl kShedDropReads =
    BoolProperty("shed.drop_reads", true, "shed read-only transactions first");
inline constexpr PropertyDecl kShedQueueDelayUs = DoubleProperty(
    "shed.queue_delay_us", 0.0, 0.0, kNoLimit,
    "window mean txn latency that counts as queue delay (0 = breaker trigger only)");
inline constexpr PropertyDecl kShedWindows = IntProperty(
    "shed.windows", 2, 1, kIntMax,
    "consecutive hot status windows before the latency trigger fires");
inline constexpr const PropertyDecl* kBrownoutProperties[] = {
    &kShedEnabled, &kShedMaxInflight, &kShedDropReads, &kShedQueueDelayUs, &kShedWindows};

/// Brownout/load-shedding policy, from the `shed.*` properties declared
/// above.
struct BrownoutOptions {
  bool enabled = kShedEnabled.Default<bool>();
  int max_inflight = kShedMaxInflight.Default<int>();
  bool drop_read_only = kShedDropReads.Default<bool>();
  double queue_delay_us = kShedQueueDelayUs.Default<double>();
  int windows = kShedWindows.Default<int>();

  static BrownoutOptions FromProperties(const Properties& props);
};

/// Admission controller for the client threads: while the system is
/// *browned out* — a backend breaker is Open, or the watchdog has seen
/// sustained queue delay — new transactions are shed (read-only ones first,
/// then everything over the in-flight cap) instead of joining the queue and
/// grinding the tail.
///
/// Determinism: the breaker trigger is a pure function of the seeded fault
/// schedule, and with a single client thread the in-flight/read-only
/// decisions replay exactly — the SHED counters of two same-seed chaos runs
/// are identical (the latency trigger, wall-clock by nature, defaults off).
class BrownoutController {
 public:
  BrownoutController(const BrownoutOptions& options,
                     kv::ResilientStore* resilience)
      : options_(options), resilience_(resilience) {}

  /// True while shedding decisions apply.
  bool BrownedOut() const {
    return (resilience_ != nullptr && resilience_->AnyBreakerOpen()) ||
           latency_brownout_.load(std::memory_order_relaxed) ||
           arrival_brownout_.load(std::memory_order_relaxed);
  }

  /// Whether the runner should bother computing the read-only peek.
  bool WantsReadOnlyHint() const {
    return options_.drop_read_only && BrownedOut();
  }

  /// Gate for one transaction.  True admits (and counts it in flight until
  /// `OnTxnDone`); false sheds.
  bool AdmitTxn(bool read_only) {
    if (!BrownedOut()) {
      inflight_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (options_.drop_read_only && read_only) {
      sheds_.fetch_add(1, std::memory_order_relaxed);
      shed_reads_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (options_.max_inflight > 0) {
      int cur = inflight_.load(std::memory_order_relaxed);
      do {
        if (cur >= options_.max_inflight) {
          sheds_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
      } while (!inflight_.compare_exchange_weak(cur, cur + 1,
                                                std::memory_order_relaxed));
      return true;
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void OnTxnDone() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

  /// Watchdog feed: average whole-transaction latency of the last status
  /// window.  Drives the sustained-queue-delay trigger.
  void ReportWindow(double avg_latency_us) {
    if (options_.queue_delay_us <= 0.0) return;
    if (avg_latency_us > options_.queue_delay_us) {
      int hot = hot_windows_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (hot >= options_.windows) {
        latency_brownout_.store(true, std::memory_order_relaxed);
      }
    } else {
      hot_windows_.store(0, std::memory_order_relaxed);
      latency_brownout_.store(false, std::memory_order_relaxed);
    }
  }

  /// Open-loop arrival feed (the third brownout trigger, after breakers and
  /// queue delay): a client thread reports its pending-arrival backlog depth
  /// each iteration.  A full backlog — the scheduler is dropping arrivals —
  /// enters brownout; draining back below half the cap leaves it.  While
  /// browned out the existing shed path applies, so an overloaded open-loop
  /// run degrades (reads shed first) instead of queueing without bound.
  void ReportArrivalBacklog(uint64_t depth, uint64_t cap) {
    if (cap == 0) return;
    if (depth >= cap) {
      arrival_brownout_.store(true, std::memory_order_relaxed);
    } else if (depth <= cap / 2) {
      arrival_brownout_.store(false, std::memory_order_relaxed);
    }
  }

  uint64_t sheds() const { return sheds_.load(std::memory_order_relaxed); }
  uint64_t shed_reads() const {
    return shed_reads_.load(std::memory_order_relaxed);
  }
  const BrownoutOptions& options() const { return options_; }

 private:
  const BrownoutOptions options_;
  kv::ResilientStore* resilience_;  // borrowed; may be null

  std::atomic<int> inflight_{0};
  std::atomic<int> hot_windows_{0};
  std::atomic<bool> latency_brownout_{false};
  std::atomic<bool> arrival_brownout_{false};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> shed_reads_{0};
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_BROWNOUT_H_
