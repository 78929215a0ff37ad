#ifndef YCSBT_KV_FAULT_INJECTING_STORE_H_
#define YCSBT_KV_FAULT_INJECTING_STORE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/properties.h"
#include "common/property_schema.h"
#include "common/stats_layer.h"
#include "kv/store.h"
#include "kv/store_decorator.h"

namespace ycsbt {
namespace kv {

inline constexpr PropertyDecl kFaultSeed = UintProperty(
    "fault.seed", 0xFA117C0DE, "injection schedule is a pure function of this seed");
inline constexpr PropertyDecl kFaultErrorRate = DoubleProperty(
    "fault.error_rate", 0.0, 0.0, 1.0,
    "transient per-request Timeout/IOError rejections");
inline constexpr PropertyDecl kFaultThrottleRate = DoubleProperty(
    "fault.throttle_rate", 0.0, 0.0, 1.0, "probability of starting a RateLimited burst");
inline constexpr PropertyDecl kFaultThrottleBurst = IntProperty(
    "fault.throttle_burst", 4, 1, kIntMax,
    "consecutive requests rejected per burst, the trigger included");
inline constexpr PropertyDecl kFaultLatencySpikeRate = DoubleProperty(
    "fault.latency_spike_rate", 0.0, 0.0, 1.0,
    "probability of a per-request latency spike");
inline constexpr PropertyDecl kFaultLatencySpikeUs =
    UintProperty("fault.latency_spike_us", 2000, "spike duration");
inline constexpr PropertyDecl kFaultLostReplyRate = DoubleProperty(
    "fault.lost_reply_rate", 0.0, 0.0, 1.0,
    "mutation applies but reports Timeout (ambiguous outcome)");
inline constexpr PropertyDecl kFaultCrashRate = DoubleProperty(
    "fault.crash_rate", 0.0, 0.0, 1.0,
    "probability per enabled commit-pipeline crash point");
inline constexpr PropertyDecl kFaultCrashPoints = ListProperty(
    "fault.crash_points", "", kCrashPointTokens,
    "comma list of after_lock_puts, after_tsr_put (alias before_roll_forward), "
    "mid_roll_forward, before_tsr_delete, or all");
inline constexpr const PropertyDecl* kFaultProperties[] = {
    &kFaultSeed, &kFaultErrorRate, &kFaultThrottleRate, &kFaultThrottleBurst,
    &kFaultLatencySpikeRate, &kFaultLatencySpikeUs, &kFaultLostReplyRate,
    &kFaultCrashRate, &kFaultCrashPoints};

/// Configuration of the fault-injection layer, from the `fault.*`
/// properties declared above.
struct FaultOptions {
  uint64_t seed = kFaultSeed.Default<uint64_t>();
  double error_rate = kFaultErrorRate.Default<double>();
  double throttle_rate = kFaultThrottleRate.Default<double>();
  int throttle_burst = kFaultThrottleBurst.Default<int>();
  double latency_spike_rate = kFaultLatencySpikeRate.Default<double>();
  uint64_t latency_spike_us = kFaultLatencySpikeUs.Default<uint64_t>();
  double lost_reply_rate = kFaultLostReplyRate.Default<double>();
  double crash_rate = kFaultCrashRate.Default<double>();
  uint32_t crash_points = 0;  ///< bitmask of CrashPointBit()

  /// True when any fault can actually fire (the factory only wraps the
  /// store when this holds).
  bool Any() const {
    return error_rate > 0.0 || throttle_rate > 0.0 || latency_spike_rate > 0.0 ||
           lost_reply_rate > 0.0 || (crash_rate > 0.0 && crash_points != 0);
  }

  static FaultOptions FromProperties(const Properties& props);
};

/// Counters of every fault actually injected, for tests and determinism
/// checks (`fault.seed` fixed => identical counts for identical request
/// streams).  All but the last two count primary requests only; hedges,
/// whose number is a wall-clock matter, are counted apart.
struct FaultStats {
  uint64_t requests = 0;        ///< requests seen while armed
  uint64_t errors = 0;          ///< injected IOError rejections
  uint64_t timeouts = 0;        ///< injected Timeout rejections
  uint64_t throttles = 0;       ///< injected RateLimited rejections
  uint64_t latency_spikes = 0;  ///< injected latency spikes
  uint64_t lost_replies = 0;    ///< mutations applied but reported lost
  uint64_t crashes = 0;         ///< commit-pipeline crash points fired
  uint64_t hedges = 0;          ///< hedge requests seen while armed
  uint64_t hedge_faults = 0;    ///< spikes, throttles and errors on hedges

  uint64_t TotalInjected() const {
    return errors + timeouts + throttles + lost_replies + crashes;
  }
};

/// A seeded, deterministic fault-injecting decorator over any `kv::Store`.
///
/// Every request, while the layer is *armed* (`set_enabled(true)`), draws a
/// ticket from an atomic counter; all fault decisions are pure functions of
/// (seed, ticket), so a single-threaded request stream replays the exact
/// same fault schedule run after run, and a fixed-length multi-threaded run
/// injects the same fault *counts* (the set of firing tickets is fixed even
/// when their assignment to threads races).  Hedged duplicates of a read
/// (`OpContext::hedge`) are faulted too, but draw from a second ticket
/// stream, never drain or start a throttle burst and are counted apart:
/// whether a hedge fires is a wall-clock decision, and must not shift the
/// primaries' schedule or its counts.
///
/// Faults injected per request, in order:
///   1. latency spike (sleep, then proceed);
///   2. throttle burst (reject with RateLimited; the next `throttle_burst-1`
///      requests across all threads are rejected too — the 503 storm shape
///      cloud stores actually produce);
///   3. transient error (reject with IOError or Timeout before the base op
///      runs — the op does NOT apply);
///   4. lost reply (mutations only: the base op RUNS and applies, then the
///      caller is told Timeout — the ambiguity that forces etag /
///      conditional-put arbitration in the transaction layer).
///
/// The same object implements `CrashInjector`, so the transaction library
/// can consult the identical deterministic schedule at its commit-pipeline
/// crash points.
class FaultInjectingStore : public StoreDecorator<FaultInjectingStore>,
                            public CrashInjector,
                            public StatsLayer {
 public:
  FaultInjectingStore(std::shared_ptr<Store> base, FaultOptions options);

  /// Arms/disarms injection (the benchmark driver arms only the measured
  /// run phase, never the load or validation sweeps).  Thread-safe.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  const FaultOptions& options() const { return options_; }
  FaultStats stats() const;

  const char* name() const override { return "fault"; }
  /// `FAULT REQUESTS` (seen while armed) and one `FAULT <KIND>` line per
  /// injected fault kind, then `FAULT HEDGES` and `FAULT HEDGE FAULTS`.
  void Collect(LayerStats* out) override;
  void Arm(bool armed) override { set_enabled(armed); }

  /// Batch ops go through `AdmitInOrder`: every item pays its own fault
  /// gate and, for mutations, its own lost-reply draw, in item order.
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<MultiGetResult>* results) override;
  void MultiWrite(const std::vector<WriteOp>& ops,
                  std::vector<WriteResult>* results) override;
  size_t Count() const override;

  // CrashInjector interface (consulted by the transaction library).
  bool ShouldCrash(CrashPoint point) override;

 private:
  friend class StoreDecorator<FaultInjectingStore>;

  /// The one body of every single-key request: the pre-op gate, then
  /// `call` on the base store, then (mutations only) the lost-reply draw.
  template <typename Call>
  Status Request(Op op, const std::string& /*key*/, const Call& call) {
    Status s = BeginRequest();
    if (!s.ok()) return s;
    s = call(*base_);
    if (IsWrite(op) && s.ok() && LoseReply()) {
      return Status::Timeout("injected: reply lost");
    }
    return s;
  }

  /// Pre-op fault gate shared by every request.  OK = proceed to the base
  /// op; anything else is the injected rejection.
  Status BeginRequest();

  /// Post-apply gate for mutations: true = swallow the success and report
  /// a lost reply instead.
  bool LoseReply();

  /// Top bit set on hedge tickets: their draws never repeat a primary's.
  static constexpr uint64_t kHedgeStream = uint64_t{1} << 63;

  std::shared_ptr<Store> base_;
  FaultOptions options_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint64_t> hedge_ticket_{0};  ///< tagged with `kHedgeStream`
  std::atomic<uint64_t> crash_ticket_{0};
  std::atomic<int> throttle_burst_left_{0};

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> throttles_{0};
  std::atomic<uint64_t> latency_spikes_{0};
  std::atomic<uint64_t> lost_replies_{0};
  std::atomic<uint64_t> crashes_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> hedge_faults_{0};
  FaultStats collected_;  ///< `stats()` as of the previous Collect
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_FAULT_INJECTING_STORE_H_
