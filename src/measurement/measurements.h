#ifndef YCSBT_MEASUREMENT_MEASUREMENTS_H_
#define YCSBT_MEASUREMENT_MEASUREMENTS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "measurement/op_registry.h"

namespace ycsbt {

/// Snapshot of one operation series, as consumed by exporters and tests.
struct OpStats {
  std::string name;
  uint64_t operations = 0;
  double average_latency_us = 0.0;
  int64_t min_latency_us = 0;
  int64_t max_latency_us = 0;
  int64_t p50_latency_us = 0;
  int64_t p95_latency_us = 0;
  int64_t p99_latency_us = 0;
  int64_t p999_latency_us = 0;
  /// Count of completions per status code name ("OK", "NotFound", ...);
  /// the analogue of YCSB's `Return=<code>` lines.
  std::map<std::string, uint64_t> return_counts;
};

/// One window of the status thread's progress time series: what the run
/// looked like between the previous sample and `end_seconds`.
struct IntervalSample {
  double end_seconds = 0.0;      ///< elapsed run time at the window's end
  uint64_t operations = 0;       ///< transactions completed in this window
  double ops_per_sec = 0.0;      ///< window throughput
  double avg_latency_us = 0.0;   ///< mean whole-transaction latency; 0 if idle

  // Open-loop arrival trajectory (all zero in closed-loop runs; rendered by
  // the exporters only when the run was open-loop).
  double sched_lag_avg_us = 0.0; ///< mean intended-vs-actual start lag
  uint64_t backlog = 0;          ///< pending arrivals at the window's end
  uint64_t arrival_drops = 0;    ///< arrivals dropped over a full backlog
};

class Measurements;

/// Unsynchronised per-thread accumulator: plain histograms and dense
/// return-code counters indexed by `OpId`, owned by exactly one client
/// thread.  Recording a sample touches no lock and allocates nothing; the
/// owner drains everything into the shared `Measurements` with `Flush()` at
/// its merge points (end of run, or whenever it likes).
///
/// Created via `Measurements::CreateSink()`, which registers the sink with
/// (and transfers ownership to) the parent; the sink stays valid until the
/// parent is reset or destroyed.  Only the owning thread may call the
/// recording methods and `Flush()`.  An owner that is done hands the sink
/// back with `Measurements::ReleaseSink()`, and a later `CreateSink()` reuses
/// it, histograms and all.
class ThreadSink {
 public:
  ThreadSink(const ThreadSink&) = delete;
  ThreadSink& operator=(const ThreadSink&) = delete;

  /// Records one completed operation: its latency and its return code.
  void Record(OpId op, int64_t latency_us, Status::Code code) {
    Slot& slot = SlotFor(op);
    slot.histogram.Add(latency_us);
    ++slot.returns[static_cast<size_t>(code)];
  }

  /// Records a latency sample only.
  void Measure(OpId op, int64_t latency_us) {
    SlotFor(op).histogram.Add(latency_us);
  }

  /// Merges all locally accumulated samples into the parent `Measurements`
  /// and resets the local accumulators.  Owner thread only; may be called
  /// repeatedly.
  void Flush();

 private:
  friend class Measurements;

  struct Slot {
    Histogram histogram;
    std::array<uint64_t, kStatusCodeCount> returns{};
  };

  explicit ThreadSink(Measurements* parent) : parent_(parent) {}

  Slot& SlotFor(OpId op) {
    if (op.index >= slots_.size()) slots_.resize(op.index + 1);
    return slots_[op.index];
  }

  Measurements* parent_;
  std::vector<Slot> slots_;
};

/// Registry of all operation series produced by a benchmark run.
///
/// This is the measurement half of the YCSB+T architecture (paper Fig 1):
/// the `MeasuredDB` wrapper reports a latency sample and a return code for
/// every CRUD/scan call and for each `START`/`COMMIT`/`ABORT`, and the client
/// threads report whole-transaction `TX-<OP>` samples — giving Tier 5 its
/// transactional-overhead data.
///
/// Clients intern their op names to `OpId`s once at setup (`RegisterOp`).
/// Two recording paths exist:
///  - The hot path: a client obtains a `ThreadSink` (`CreateSink`) and
///    records lock-free into thread-local state that is merged here only at
///    flush points.  This is what `WorkloadRunner` and `MeasuredDB` use, so
///    client threads never serialise through the measurement layer mid-run.
///  - `Record` and `MergeHistogram` into the shared series under its mutex,
///    for setup-time and one-off callers.
///
/// Snapshots observe everything flushed (or recorded directly) so far;
/// live per-window progress comes from the runner's interval counters, which
/// feed the `IntervalSample` time series stored here.
///
/// One instance per run (not a process-wide singleton, unlike YCSB) so tests
/// and multi-run benches can measure in isolation.
class Measurements {
 public:
  Measurements() = default;
  Measurements(const Measurements&) = delete;
  Measurements& operator=(const Measurements&) = delete;

  // --- setup-time interning ---

  /// Interns `op`, returning its dense id (idempotent).
  OpId RegisterOp(const std::string& op) { return registry_.Intern(op); }

  /// Name of a registered op id ("" if invalid).
  std::string OpName(OpId op) const { return registry_.Name(op); }

  /// Number of registered op series.
  size_t op_count() const { return registry_.size(); }

  // --- per-thread sinks (the lock-free hot path) ---

  /// Hands out a sink owned by this registry, reusing a released one when
  /// there is one; the calling thread becomes its owner.  The pointer stays
  /// valid until `Reset()` or destruction.
  ThreadSink* CreateSink();

  /// Flushes `sink` and returns it for reuse by a later `CreateSink()`.  The
  /// owner must not touch it afterwards.  Without this, every `Run` of a
  /// long-lived registry would add one sink (a histogram per op series) per
  /// client thread.
  void ReleaseSink(ThreadSink* sink);

  /// Sinks created so far, in use or released (tests).
  size_t sink_count() const;

  // --- the shared-series path (setup and one-off callers; locks) ---

  /// Records one completed operation into the shared series.
  void Record(OpId op, int64_t latency_us, Status::Code code);

  /// Folds a subsystem-owned histogram into `op`'s series in one locked pass,
  /// counting its samples under `code` — how aggregates accumulated outside
  /// the measurement layer (the WAL's sync-latency and batch-size stats)
  /// enter the exporter pipeline.  No-op when `histogram` is empty.
  void MergeHistogram(OpId op, const Histogram& histogram, Status::Code code);

  // --- interval time series (fed by the runner's status thread) ---

  /// Appends one progress window to the run's time series.
  void RecordInterval(const IntervalSample& sample);

  /// The per-window time series recorded so far.
  std::vector<IntervalSample> Intervals() const;

  // --- snapshots ---

  /// Snapshot of every non-empty series, sorted by op name.  Reflects all
  /// flushed sinks and shared-series records; samples still buffered in an
  /// unflushed `ThreadSink` are not visible yet.
  std::vector<OpStats> Snapshot() const;

  /// Snapshot of a single series; zeroed stats if the op never ran.
  OpStats SnapshotOp(const std::string& op) const;
  OpStats SnapshotOp(OpId op) const;

  /// Sum of `operations` across series whose name matches exactly one of the
  /// workload-level ops (helper for computing overall counts in tests).
  uint64_t TotalOperations(const std::vector<std::string>& ops) const;

  /// Drops all recorded series, sinks and intervals.  Invalidates every
  /// pointer returned by `CreateSink`; callers must not reset while client
  /// threads are still recording.
  void Reset();

 private:
  friend class ThreadSink;

  /// One shared series cell, merged into under its own mutex.
  struct Series {
    mutable std::mutex mu;
    Histogram histogram;
    std::array<uint64_t, kStatusCodeCount> returns{};
  };

  /// Cell for `op`, growing the dense store on demand.  The returned pointer
  /// is stable (deque storage).
  Series* SeriesFor(OpId op);
  const Series* SeriesForIfPresent(OpId op) const;

  void MergeSlot(OpId op, const ThreadSink::Slot& slot);

  OpStats SnapshotCell(const Series& cell, std::string name) const;

  OpRegistry registry_;

  /// Guards the deque's *structure* (growth); each element has its own lock.
  mutable std::shared_mutex series_mu_;
  std::deque<Series> series_;  // dense by OpId; deque keeps elements stable

  mutable std::mutex sinks_mu_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
  std::vector<ThreadSink*> free_sinks_;  ///< released, flushed, reusable

  mutable std::mutex intervals_mu_;
  std::vector<IntervalSample> intervals_;
};

}  // namespace ycsbt

#endif  // YCSBT_MEASUREMENT_MEASUREMENTS_H_
