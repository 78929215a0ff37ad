#ifndef YCSBT_CORE_RUNNER_H_
#define YCSBT_CORE_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/retry_policy.h"
#include "common/stats_layer.h"
#include "core/arrival.h"
#include "core/brownout.h"
#include "core/workload.h"
#include "db/db_factory.h"
#include "measurement/exporter.h"
#include "measurement/measurements.h"

namespace ycsbt {
namespace core {

/// The benchmark driver's properties (`RunBenchmark` turns them into the
/// options below).
inline constexpr PropertyDecl kThreads =
    IntProperty("threads", 1, 1, kIntMax, "client threads of the run phase");
inline constexpr PropertyDecl kLoadThreads = Derived(
    IntProperty("loadthreads", 1, 1, kIntMax, "client threads of the load phase"),
    "threads");
inline constexpr PropertyDecl kLoadWrapped =
    BoolProperty("loadwrapped", false, "wrap every load insert in a transaction");
inline constexpr PropertyDecl kBulkLoadBatch = UintProperty(
    "bulkload.batch", 0, "records per engine BulkLoad frame (0 = per-op load)");
inline constexpr PropertyDecl kSkipLoad =
    BoolProperty("skipload", false, "skip the load phase");
inline constexpr PropertyDecl kSkipRun =
    BoolProperty("skiprun", false, "skip the run phase");
inline constexpr PropertyDecl kOperationCount =
    UintProperty("operationcount", 1000, "operations across all threads (0 = no budget)");
inline constexpr PropertyDecl kMaxExecutionTime = DoubleProperty(
    "maxexecutiontime", 0.0, 0.0, kNoLimit, "run wall-clock cap, s (0 = none)");
inline constexpr PropertyDecl kTarget = DoubleProperty(
    "target", 0.0, 0.0, kNoLimit,
    "closed-loop target throughput, ops/s (0 = unthrottled)");
inline constexpr PropertyDecl kDoTransactions = BoolProperty(
    "dotransactions", true, "YCSB+T transactional wrapping of each operation");
inline constexpr PropertyDecl kStatusInterval =
    DoubleProperty("status.interval", 0.0, 0.0, kNoLimit, "progress window, s (0 = off)");
inline constexpr PropertyDecl kStatusStallWindows = IntProperty(
    "status.stall_windows", 3, 0, kIntMax,
    "no-progress status windows before the watchdog flags a thread (0 = off)");
inline constexpr const PropertyDecl* kRunProperties[] = {
    &kThreads, &kLoadThreads, &kLoadWrapped, &kBulkLoadBatch, &kSkipLoad, &kSkipRun,
    &kOperationCount, &kMaxExecutionTime, &kTarget, &kDoTransactions, &kStatusInterval,
    &kStatusStallWindows};

/// Parameters of the load phase.
struct LoadOptions {
  int threads = 1;
  /// Wrap every insert in Start/Commit (the strict paper behaviour).  Off by
  /// default: the load phase is setup, not measurement.
  bool wrap_in_transactions = false;
  /// Records per engine `BulkLoad` frame (`bulkload.batch`); 0 keeps the
  /// per-op DoInsert path.  The sorted fast path needs a binding whose
  /// factory `SupportsBulkLoad()` and non-transactional loading; otherwise
  /// the runner warns once and falls back to per-op inserts.
  uint64_t bulk_batch = 0;
};

/// Parameters of the transaction (run) phase.
struct RunOptions {
  int threads = 1;
  /// Total operations across all threads; 0 = no budget (requires
  /// max_execution_seconds).
  uint64_t operation_count = 0;
  /// Wall-clock cap on the run; 0 = none (requires operation_count).
  double max_execution_seconds = 0.0;
  /// Aggregate target throughput for throttled runs; 0 = unthrottled.
  /// Closed-loop pacing: the stopwatch still starts when the transaction
  /// starts, so queueing delay behind a slow op is invisible (coordinated
  /// omission) — use `arrival` for honest latency under load.
  double target_ops_per_sec = 0.0;

  /// Open-loop arrival scheduling (`arrival.*` properties).  When
  /// `arrival.open_loop()`, every client thread draws intended start times
  /// from its share of the scripted rate and measures a second latency series
  /// (`TX-<OP>-INTENDED`) from the *intended* start, so the coordinated-
  /// omission gap is itself a measured quantity; arrivals due while the
  /// per-thread backlog is at `arrival.max_backlog` are dropped
  /// (ARRIVAL-DROP, consuming quota like a shed) and a full backlog flips
  /// the brownout controller into its shed path.  Overrides
  /// `target_ops_per_sec` when both are set.
  ArrivalOptions arrival;
  /// YCSB+T transactional wrapping (§IV-A).  When false the client threads
  /// never call Start/Commit/Abort — the plain-YCSB mode that Tier 5
  /// compares against.
  bool wrap_in_transactions = true;

  /// Emit a progress sample every this many seconds (YCSB's status thread);
  /// 0 disables.  Samples go to `status_callback`, or the framework log when
  /// the callback is empty, and are recorded as the run's `IntervalSample`
  /// time series (one window per tick plus a final partial window, so the
  /// windows' operations sum to `RunResult::operations`).
  double status_interval_seconds = 0.0;
  /// Receives (elapsed seconds, total ops so far, ops/sec over the last
  /// interval).  Called from the watchdog thread.
  std::function<void(double, uint64_t, double)> status_callback;

  /// Transaction retry discipline (only in `wrap_in_transactions` mode): a
  /// transaction failing with a retryable status is re-run — with the
  /// workload's `OnTransactionRetry` hook between attempts — after a backoff.
  /// Default: retries off (the seed behaviour).
  RetryPolicy retry;

  /// Watchdog stall detection: a client thread whose operation counter does
  /// not advance for this many consecutive status windows is flagged (warn
  /// log + `watchdog stalls` summary note).  Needs a status interval; 0
  /// disables.  Shed transactions and in-flight retry attempts count as
  /// progress — a thread gracefully shedding under brownout, or backing off
  /// through an election/throttle window, is degrading, not stuck.
  int stall_windows = kStatusStallWindows.Default<int>();

  /// Brownout/load-shedding policy (`shed.*` properties).  When enabled the
  /// runner gates every transaction through a `BrownoutController` wired to
  /// the factory's resilience layer; the latency trigger additionally needs
  /// a status interval (the watchdog feeds it per-window latency).
  BrownoutOptions shed;
};

/// Everything a finished run reports.
struct RunResult {
  double runtime_ms = 0.0;
  double throughput_ops_sec = 0.0;
  uint64_t operations = 0;  ///< workload transactions attempted (shed
                            ///< transactions and dropped arrivals consume
                            ///< quota but never start, so they are counted in
                            ///< the `SHED TXNS` / `ARRIVAL DROPS` lines instead)
  uint64_t committed = 0;   ///< transactions whose commit succeeded
  uint64_t failed = 0;      ///< workload failures + failed commits

  // Retry accounting (zero when retries are off), restating the `runner`
  // layer's TX-RETRIES / TIME IN BACKOFF(us) lines for perfbench.
  uint64_t retries = 0;          ///< extra attempts made across all txns
  uint64_t backoff_time_us = 0;  ///< total wall time spent sleeping between attempts

  /// WAL records acknowledged during the run (the engine layer's
  /// `WAL APPENDS`; 0 without a WAL).
  uint64_t wal_appends = 0;

  /// Every counter line of the run, grouped by layer: first the runner's own
  /// (`runner`: retry, shed, arrival and watchdog lines for the features
  /// switched on), then each registered stack layer's in registration order.
  std::vector<LayerCounters> layers;

  ValidationResult validation;
  std::vector<OpStats> op_stats;
  /// Per-window progress trajectory (empty unless the run had a status
  /// interval); windows partition the run, so their `operations` sum to
  /// `operations` above.
  std::vector<IntervalSample> intervals;

  double abort_rate() const {
    return operations == 0 ? 0.0
                           : static_cast<double>(failed) /
                                 static_cast<double>(operations);
  }

  /// The counter line `name` from `layers`; nullopt when no layer reported it.
  std::optional<uint64_t> Counter(std::string_view name) const {
    return FindCounter(layers, name);
  }

  /// Converts to the exporter's run summary (Listing-3 shape).
  RunSummary MakeSummary() const;
};

/// The workload executor of the YCSB+T architecture (paper Fig 1): drives
/// the load phase, the transaction phase (spawning `threads` client threads,
/// each with its own MeasuredDB-wrapped binding), and the validation stage.
///
/// The client-thread loop implements §IV-A verbatim: `DB.Start()`, then the
/// workload's DoTransaction, then `DB.Commit()` on success or `DB.Abort()`
/// on failure — with the whole sequence's latency recorded as `TX-<OP>`.
///
/// Every client thread owns a `ThreadSink`, so recording a sample is
/// lock-free thread-local work; sinks merge into the shared `Measurements`
/// when the thread finishes.  The watchdog/status thread never touches the
/// histograms mid-run — it reads per-thread interval counters (padded to a
/// cache line each) and turns them into the run's `IntervalSample` series.
class WorkloadRunner {
 public:
  /// All pointers are borrowed and must outlive the runner.
  WorkloadRunner(DBFactory* factory, Workload* workload, Measurements* measurements)
      : factory_(factory), workload_(workload), measurements_(measurements) {}

  /// Inserts `workload->record_count()` records.
  Status Load(const LoadOptions& options);

  /// Runs the transaction phase.
  Status Run(const RunOptions& options, RunResult* result);

  /// Runs the Tier-6 validation stage with an unmeasured client.
  /// `operations_executed` feeds the anomaly-score denominator; pass
  /// `result->operations` from the preceding Run.
  Status Validate(uint64_t operations_executed, ValidationResult* out);

  /// Convenience: Load + Run + Validate, filling `result` completely.
  Status Execute(const LoadOptions& load, const RunOptions& run, RunResult* result);

 private:
  /// The sorted bulk-load fast path: collects every thread's deterministic
  /// record stream via `BuildNextInsert`, sorts the engine-level keys, and
  /// feeds `ShardedStore::BulkLoad` in `bulk_batch`-record frames.
  Status BulkLoadPhase(const LoadOptions& options);

  DBFactory* factory_;
  Workload* workload_;
  Measurements* measurements_;
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_RUNNER_H_
