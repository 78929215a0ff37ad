#ifndef YCSBT_KV_FAULT_INJECTING_STORE_H_
#define YCSBT_KV_FAULT_INJECTING_STORE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/properties.h"
#include "common/stats_layer.h"
#include "kv/store.h"

namespace ycsbt {
namespace kv {

/// Configuration of the fault-injection layer, read from the `fault.*`
/// property namespace:
///
///   fault.seed              determinism seed (default 0xFA117C0DE)
///   fault.error_rate        transient IOError/Timeout per request (0..1)
///   fault.throttle_rate     probability a request starts a throttle burst
///   fault.throttle_burst    requests rejected per burst, incl. the trigger
///   fault.latency_spike_rate  probability of an injected latency spike
///   fault.latency_spike_us  spike duration (default 2000)
///   fault.lost_reply_rate   mutations only: the write APPLIES but the
///                           caller sees Timeout (reply lost after apply)
///   fault.crash_rate        probability per crash-point pass (0..1)
///   fault.crash_points      comma list of after_lock_puts, after_tsr_put
///                           (alias before_roll_forward), mid_roll_forward,
///                           before_tsr_delete, or "all"
struct FaultOptions {
  uint64_t seed = 0xFA117C0DEull;
  double error_rate = 0.0;
  double throttle_rate = 0.0;
  int throttle_burst = 4;
  double latency_spike_rate = 0.0;
  uint64_t latency_spike_us = 2000;
  double lost_reply_rate = 0.0;
  double crash_rate = 0.0;
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
class FaultInjectingStore : public Store, public CrashInjector, public StatsLayer {
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

  // kv::Store interface.
  Status Get(const std::string& key, std::string* value,
             uint64_t* etag = nullptr) override;
  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out = nullptr) override;
  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag,
                        uint64_t* etag_out = nullptr) override;
  Status Delete(const std::string& key) override;
  Status ConditionalDelete(const std::string& key,
                           uint64_t expected_etag) override;
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<ScanEntry>* out) override;
  /// Batch ops: every item pays its own fault gate (and, for mutations, its
  /// own lost-reply draw), evaluated sequentially in item order so the
  /// ticket schedule stays deterministic; only the admitted subset is passed
  /// down as a (possibly concurrent) sub-batch.
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<MultiGetResult>* results) override;
  void MultiWrite(const std::vector<WriteOp>& ops,
                  std::vector<WriteResult>* results) override;
  size_t Count() const override;

  // CrashInjector interface (consulted by the transaction library).
  bool ShouldCrash(CrashPoint point) override;

 private:
  /// Pre-op fault gate shared by every request.  OK = proceed to the base
  /// op; anything else is the injected rejection.
  Status BeginRequest();

  /// Post-apply gate for mutations: true = swallow the success and report
  /// a lost reply instead.
  bool LoseReply();

  /// Deterministic uniform double in [0,1) for ticket `ticket` and fault
  /// stream `salt` (distinct salts give independent streams).
  double Draw(uint64_t ticket, uint64_t salt) const;

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
