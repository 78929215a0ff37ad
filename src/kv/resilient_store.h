#ifndef YCSBT_KV_RESILIENT_STORE_H_
#define YCSBT_KV_RESILIENT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/op_context.h"
#include "common/properties.h"
#include "common/property_schema.h"
#include "common/stats_layer.h"
#include "kv/store.h"

namespace ycsbt {

class RpcExecutor;

namespace kv {

inline constexpr PropertyDecl kHedgeEnabled = BoolProperty(
    "hedge.enabled", false, "hedge idempotent reads (Get/Scan) after a delay");
inline constexpr PropertyDecl kHedgeDelayUs = IntProperty(
    "hedge.delay_us", -1, -kNoLimit, kNoLimit,
    "fixed hedge delay; < 0 = adaptive from observed read latency");
inline constexpr PropertyDecl kHedgePercentile = DoubleProperty(
    "hedge.percentile", 95.0, 1.0, 100.0, "percentile the adaptive delay tracks");
inline constexpr PropertyDecl kHedgeDelayMinUs =
    UintProperty("hedge.delay_min_us", 1'000, "floor of the adaptive delay");
inline constexpr PropertyDecl kHedgeDelayMaxUs = UintProperty(
    "hedge.delay_max_us", 100'000,
    "cap of the adaptive delay (raised to the floor when below it)");
inline constexpr PropertyDecl kHedgeWorkers =
    IntProperty("hedge.workers", 4, 1, kIntMax, "pool threads running hedged primaries");
inline constexpr const PropertyDecl* kResilienceProperties[] = {
    &kHedgeEnabled, &kHedgeDelayUs, &kHedgePercentile, &kHedgeDelayMinUs,
    &kHedgeDelayMaxUs, &kHedgeWorkers};

/// Configuration of the overload-tolerance decorator: `breaker.*` is the
/// per-backend circuit breaker (see `CircuitBreakerOptions`), the rest the
/// properties declared above.
struct ResilienceOptions {
  CircuitBreakerOptions breaker;
  bool hedge_enabled = kHedgeEnabled.Default<bool>();
  int64_t hedge_delay_us = kHedgeDelayUs.Default<int64_t>();
  double hedge_percentile = kHedgePercentile.Default<double>();
  uint64_t hedge_delay_min_us = kHedgeDelayMinUs.Default<uint64_t>();
  uint64_t hedge_delay_max_us = kHedgeDelayMaxUs.Default<uint64_t>();
  int hedge_workers = kHedgeWorkers.Default<int>();

  static ResilienceOptions FromProperties(const Properties& props);
};

/// Monotonic counters the decorator exposes; `Collect` reports their growth
/// as the `BREAKER *` / `HEDGES *` / `DEADLINE ABANDONS` summary lines.
struct ResilienceStats {
  BreakerStats breaker;
  uint64_t hedges_sent = 0;    ///< hedge requests issued
  uint64_t hedges_won = 0;     ///< hedge finished first with a usable answer
  uint64_t hedges_wasted = 0;  ///< hedge finished after the primary (its
                               ///< result cancelled/discarded) or failed
  uint64_t deadline_rejects = 0;  ///< ops failed fast on an expired deadline
};

/// The overload-tolerance layer over the cloud-store path, as a `kv::Store`
/// decorator stacked *above* fault injection (so the breaker sees injected
/// throttle bursts exactly as it would see real 503s):
///
///   ClientTxnStore -> ResilientStore -> FaultInjectingStore -> SimCloudStore
///
/// Three mechanisms, each gated by the ambient `OpContext`:
///
///  1. *Deadline fail-fast*: once the per-transaction deadline has passed,
///     every further request fails immediately with `Timeout` instead of
///     paying another RPC round trip the caller can no longer use.
///  2. *Circuit breaking*: one rolling-window breaker per backend partition
///     (per cloud container).  Open breakers reject arrivals with
///     `Status::Unavailable` carrying a `retry_after_us=` hint, so the retry
///     loop cools down instead of hammering the saturated container.
///  3. *Hedged reads*: an idempotent Get/Scan whose primary has not answered
///     within the (p95-adaptive) hedge delay issues one duplicate request
///     (marked with `OpHedgeScope`) and takes the first usable answer.
///     Mutations — lock puts, TSR puts, deletes of the transaction protocol
///     above — are never hedged, by construction: only `Get`/`Scan` ever
///     reach the hedging path.
///
/// Exempt sections (`OpExemptScope`, installed by the transaction library
/// around post-commit-point cleanup) bypass all three: a committed
/// transaction's roll-forward must not be cut off mid-flight just because
/// its deadline expired, and hedging it would duplicate mutations.
class ResilientStore : public Store, public StatsLayer {
 public:
  /// `backends` must match the partitioning of the store below (the cloud
  /// profile's container count) so each breaker fences one real backend.
  ResilientStore(std::shared_ptr<Store> base, ResilienceOptions options,
                 int backends);
  ~ResilientStore() override;

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
  /// Batch ops go through `AdmitInOrder`: each item's admission and breaker
  /// settlement, in item order.  With hedging on, a `MultiGet` is instead
  /// the base class's per-key loop over the hedged `Get` (fanned out on the
  /// attached executor), so each request keeps its straggler protection;
  /// mutations are batched but never hedged.
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<MultiGetResult>* results) override;
  void MultiWrite(const std::vector<WriteOp>& ops,
                  std::vector<WriteResult>* results) override;
  size_t Count() const override;

  /// Overrides the key->backend mapping the per-backend breakers charge.
  /// By default keys hash over the backends (the cloud store's container
  /// partitioning); a replicated store instead supplies the *region*
  /// currently serving the key, so a partitioned region's failures open
  /// only that region's breaker.  Install before traffic; must be
  /// thread-safe and return an index < the construction-time `backends`.
  void set_backend_resolver(std::function<size_t(const std::string&)> resolver) {
    backend_resolver_ = std::move(resolver);
  }

  ResilienceStats stats() const;

  const char* name() const override { return "resilience"; }
  void Collect(LayerStats* out) override;

  /// True while any backend's breaker is Open — the brownout trigger.
  bool AnyBreakerOpen() const {
    return breakers_ != nullptr && breakers_->AnyOpen();
  }
  CircuitBreakerSet* breakers() { return breakers_.get(); }
  const ResilienceOptions& options() const { return options_; }

  /// The hedge delay the next hedged read would use (exposed for tests).
  uint64_t CurrentHedgeDelayUs() const;

 private:
  /// Result of one read-class request (Scan fills `entries`, Get the rest).
  struct ReadResult {
    Status status;
    std::string value;
    uint64_t etag = 0;
    std::vector<ScanEntry> entries;
  };
  using ReadFn = std::function<Status(Store&, ReadResult*)>;

  /// Rendezvous between a hedged read's primary (on a pool worker) and its
  /// caller; heap-allocated and shared so the caller may return with the
  /// hedge's answer while the stalled primary is still in flight.
  struct HedgeCell {
    std::mutex mu;
    std::condition_variable cv;
    bool primary_done = false;
    int winner = 0;  // 0 = undecided, 1 = primary, 2 = hedge
    ReadResult primary;
  };

  /// An admitted request's breaker ticket, settled with its outcome (no
  /// breaker, or an exempt request: nothing to settle).
  struct Admission {
    CircuitBreaker* breaker = nullptr;
    bool probe = false;
    void Settle(const Status& s) const {
      if (breaker != nullptr) breaker->OnResult(s, probe);
    }
  };

  /// Deadline + breaker admission shared by every op.  OK fills
  /// `*admission`; a non-OK return is the fail-fast status.
  Status Preflight(const std::string& key, Admission* admission);

  /// A single-key mutation: admission, `op()`, settlement.
  template <typename Op>
  Status Mutate(const std::string& key, const Op& op);

  /// A batch through `AdmitInOrder` with `Preflight` and the breaker's
  /// settlement.
  template <typename Item, typename Row>
  void AdmitBatch(const std::vector<Item>& items, std::vector<Row>* rows);

  /// A usable answer callers take as final: everything except the
  /// infrastructure failures the breaker counts (throttle/timeout/IO).
  /// NotFound or a lost CAS is the backend *working*.
  static bool Definitive(const Status& s) {
    return !CircuitBreaker::CountsAsFailure(s);
  }

  Status RunRead(const std::string& key, const ReadFn& op, ReadResult* out);
  Status HedgedRead(const std::string& key, const ReadFn& op,
                    Admission admission, ReadResult* out);

  void RecordReadSampleUs(uint64_t us);

  const std::shared_ptr<Store> base_;
  const ResilienceOptions options_;
  std::unique_ptr<CircuitBreakerSet> breakers_;  // null when breaker is off
  std::function<size_t(const std::string&)> backend_resolver_;  // null = hash

  std::atomic<uint64_t> hedges_sent_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> hedges_wasted_{0};
  std::atomic<uint64_t> deadline_rejects_{0};
  ResilienceStats collected_;  ///< `stats()` as of the previous Collect

  /// Recent primary-read latencies feeding the adaptive hedge delay.
  mutable std::mutex samples_mu_;
  std::vector<uint64_t> read_samples_us_;
  size_t samples_next_ = 0;

  /// `hedge.workers` threads running hedged primaries, so a caller whose
  /// primary is stuck behind a latency spike can take the hedge's answer
  /// and move on; null when hedging is off.  Last member: destroyed
  /// (joined) first, before `base_` goes away.
  std::unique_ptr<RpcExecutor> hedge_pool_;
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_RESILIENT_STORE_H_
