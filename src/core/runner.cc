#include "core/runner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/latency_model.h"
#include "common/logging.h"
#include "common/op_context.h"
#include "common/sync.h"
#include "db/field_codec.h"
#include "db/kvstore_db.h"
#include "db/measured_db.h"

namespace ycsbt {
namespace core {

RunSummary RunResult::MakeSummary() const {
  RunSummary summary;
  summary.runtime_ms = runtime_ms;
  summary.throughput_ops_sec = throughput_ops_sec;
  summary.operations = operations;
  summary.has_validation = validation.performed;
  summary.validation_passed = validation.passed;
  summary.extra = validation.report;
  summary.counters = layers;
  summary.intervals = intervals;
  // The runner reports arrival lines exactly for open-loop runs.
  summary.open_loop = Counter("ARRIVAL DROPS").has_value();
  return summary;
}

namespace {

/// Per-thread slice of a total budget: thread i of n gets an equal share,
/// with the remainder spread over the first threads.
uint64_t ShareOf(uint64_t total, int thread_id, int threads) {
  uint64_t base = total / static_cast<uint64_t>(threads);
  uint64_t extra = thread_id < static_cast<int>(total % threads) ? 1 : 0;
  return base + extra;
}

/// Interval counters one client thread publishes for the watchdog: each
/// thread owns one cache line and stores its locally accumulated totals with
/// relaxed ordering, so publishing progress never contends with the other
/// clients (unlike the seed's shared fetch_add counters).
struct alignas(64) ClientProgress {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> latency_sum_us{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> giveups{0};
  std::atomic<uint64_t> backoff_us{0};
  std::atomic<uint64_t> sheds{0};
  /// Open-loop arrival bookkeeping: cumulative intended-vs-actual start lag
  /// (and its per-thread maximum), the current and peak pending-arrival
  /// backlog, and arrivals dropped over a full backlog.  All zero in
  /// closed-loop runs.
  std::atomic<uint64_t> sched_lag_sum_us{0};
  std::atomic<uint64_t> sched_lag_max_us{0};
  std::atomic<uint64_t> backlog{0};
  std::atomic<uint64_t> backlog_peak{0};
  std::atomic<uint64_t> arrival_drops{0};
  /// Ticks once per bounded slice of a backoff sleep, so a thread waiting
  /// out a long election/throttle window keeps signalling liveness to the
  /// stall detector for the whole nap, not just at its start.
  std::atomic<uint64_t> wait_ticks{0};
  /// Set when the thread exits its loop, so the watchdog's stall detector
  /// does not flag finished threads.
  std::atomic<bool> done{false};
};

/// Sums one field across all client progress lines (relaxed reads; exact
/// once the clients have finished).
template <typename Field>
uint64_t SumProgress(const std::vector<ClientProgress>& progress, Field field) {
  uint64_t total = 0;
  for (const auto& p : progress) total += (p.*field).load(std::memory_order_relaxed);
  return total;
}

/// Maximum of one field across all client progress lines.
template <typename Field>
uint64_t MaxProgress(const std::vector<ClientProgress>& progress, Field field) {
  uint64_t max_value = 0;
  for (const auto& p : progress) {
    max_value = std::max(max_value, (p.*field).load(std::memory_order_relaxed));
  }
  return max_value;
}

/// Per-thread cache of `TX-<OP><suffix>` series handles.  Workloads report
/// ops as string literals, so a pointer-identity scan over a handful of
/// entries resolves the series without building a string or hashing; a miss
/// (first sight of an op, or a non-literal pointer) interns through the
/// registry and is remembered.  The suffix distinguishes the actual-start
/// series ("") from the open-loop intended-start series ("-INTENDED").
class TxSeriesCache {
 public:
  explicit TxSeriesCache(Measurements* measurements, const char* suffix = "")
      : measurements_(measurements), suffix_(suffix) {}

  OpId Get(const char* op) {
    for (const auto& [ptr, id] : entries_) {
      if (ptr == op) return id;
    }
    OpId id = measurements_->RegisterOp(std::string("TX-") + op + suffix_);
    entries_.emplace_back(op, id);
    return id;
  }

 private:
  Measurements* measurements_;
  const char* suffix_;
  std::vector<std::pair<const char*, OpId>> entries_;
};

/// Sleeps until the monotonic deadline, in bounded slices: each slice ticks
/// the thread's `wait_ticks` progress channel (so the watchdog never
/// mistakes a long pacing/arrival wait for a stall), the deadline is
/// re-checked after every slice with the sub-microsecond remainder rounded
/// *up* (so a throttled thread never wakes early and the achieved rate never
/// overshoots the target), and a raised stop flag abandons the wait.
void SlicedWaitUntil(uint64_t deadline_ns, const std::atomic<bool>& stop,
                     std::atomic<uint64_t>* wait_ticks) {
  for (;;) {
    uint64_t now = SteadyNanos();
    if (now >= deadline_ns) return;
    if (stop.load(std::memory_order_relaxed)) return;
    uint64_t left_us = (deadline_ns - now + 999) / 1000;  // ceil: never early
    SleepMicros(std::min<uint64_t>(left_us, 20'000));
    wait_ticks->fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

Status WorkloadRunner::BulkLoadPhase(const LoadOptions& options) {
  int threads = std::max(options.threads, 1);
  uint64_t total = workload_->record_count();

  // Build every thread's record stream in data form.  Thread t draws from
  // the same InitThread(t) state and quota as the per-op path, so the
  // records — keys and values — are byte-identical to what DoInsert would
  // have written.
  std::vector<std::vector<std::pair<std::string, std::string>>> parts(
      static_cast<size_t>(threads));
  std::atomic<bool> unsupported{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t quota = ShareOf(total, t, threads);
      auto state = workload_->InitThread(t, threads);
      auto& out = parts[static_cast<size_t>(t)];
      out.reserve(quota);
      Workload::LoadRecord record;
      for (uint64_t i = 0; i < quota; ++i) {
        if (!workload_->BuildNextInsert(state.get(), &record)) {
          unsupported.store(true, std::memory_order_relaxed);
          return;
        }
        out.emplace_back(
            KvStoreDB::ComposeKey(record.table, record.key),
            factory_->EncodeBulkValue(EncodeFields(record.values)));
      }
    });
  }
  for (auto& th : pool) th.join();
  if (unsupported.load()) {
    return Status::NotSupported("workload has no data-form load stream");
  }

  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(total);
  for (auto& part : parts) {
    std::move(part.begin(), part.end(), std::back_inserter(records));
    part.clear();
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Hashed key order can (in principle) collide two key numbers onto one key
  // string; keep the last write like the per-op path's overwrite would.
  size_t w = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    if (w > 0 && records[w - 1].first == records[r].first) {
      records[w - 1] = std::move(records[r]);
    } else {
      if (w != r) records[w] = std::move(records[r]);
      ++w;
    }
  }
  records.resize(w);

  kv::ShardedStore* engine = factory_->local_engine();
  size_t batch = static_cast<size_t>(options.bulk_batch);
  for (size_t off = 0; off < records.size(); off += batch) {
    size_t len = std::min(batch, records.size() - off);
    std::vector<std::pair<std::string, std::string>> frame(
        std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(off)),
        std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(off + len)));
    Status s = engine->BulkLoad(frame);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status WorkloadRunner::Load(const LoadOptions& options) {
  if (options.bulk_batch > 0) {
    if (!options.wrap_in_transactions && factory_->SupportsBulkLoad()) {
      Status s = BulkLoadPhase(options);
      // NotSupported = no data-form stream for this workload; every other
      // status — success or a real ingest failure — is final.
      if (!s.IsNotSupported()) return s;
      YCSBT_WARN("bulkload.batch set but the workload has no bulk load "
                 "stream; falling back to per-op inserts");
    } else {
      YCSBT_WARN("bulkload.batch set but the binding cannot bulk load "
                 "(transactional load or no local engine); falling back to "
                 "per-op inserts");
    }
  }
  int threads = std::max(options.threads, 1);
  uint64_t total = workload_->record_count();
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> skipped{0};
  std::vector<std::thread> pool;
  std::vector<Status> init_errors(static_cast<size_t>(threads));
  pool.reserve(static_cast<size_t>(threads));

  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t quota = ShareOf(total, t, threads);
      auto db = factory_->CreateClient();
      Status init = db == nullptr ? Status::Internal("factory returned no client")
                                  : db->Init();
      if (!init.ok()) {
        // A thread that cannot initialise skips its whole quota; surface
        // both the cause and the missing inserts instead of silently
        // under-loading the table.
        init_errors[static_cast<size_t>(t)] = init;
        skipped.fetch_add(quota, std::memory_order_relaxed);
        return;
      }
      // The load phase is setup, not measured client traffic: like the
      // fault layer (armed only around the run), the resilience layer's
      // breakers/deadlines/hedging must not apply to it.
      OpExemptScope resilience_exempt;
      auto state = workload_->InitThread(t, threads);
      for (uint64_t i = 0; i < quota; ++i) {
        bool ok;
        if (options.wrap_in_transactions) {
          db->Start();
          ok = workload_->DoInsert(*db, state.get());
          Status cs = ok ? db->Commit() : db->Abort();
          ok = ok && cs.ok();
        } else {
          ok = workload_->DoInsert(*db, state.get());
        }
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
      db->Cleanup();
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& s : init_errors) {
    if (!s.ok()) {
      return Status::Internal("load client init failed: " + s.ToString() +
                              "; skipped " + std::to_string(skipped.load()) +
                              " inserts");
    }
  }
  if (failures.load() != 0) {
    return Status::Internal(std::to_string(failures.load()) + " inserts failed");
  }
  return Status::OK();
}

Status WorkloadRunner::Run(const RunOptions& options, RunResult* result) {
  if (options.operation_count == 0 && options.max_execution_seconds <= 0.0) {
    return Status::InvalidArgument(
        "run needs an operation_count or max_execution_seconds");
  }
  int threads = std::max(options.threads, 1);

  std::vector<ClientProgress> progress(static_cast<size_t>(threads));
  std::atomic<int> finished{0};
  std::atomic<bool> stop{false};
  CountDownLatch start_gate(1);
  std::vector<std::thread> pool;
  std::vector<Status> init_errors(static_cast<size_t>(threads));
  pool.reserve(static_cast<size_t>(threads));

  bool open_loop = options.arrival.open_loop();
  if (open_loop && options.target_ops_per_sec > 0.0) {
    YCSBT_WARN("both arrival.rate and target are set; open-loop arrival "
               "scheduling wins and the closed-loop throttle is ignored");
  }
  double per_thread_target =
      !open_loop && options.target_ops_per_sec > 0.0
          ? options.target_ops_per_sec / threads
          : 0.0;

  // Brownout admission control, shared by all client threads; wired to the
  // factory's resilience layer so an Open breaker flips the system into
  // brownout deterministically.
  std::unique_ptr<BrownoutController> brownout;
  if (options.shed.enabled) {
    brownout = std::make_unique<BrownoutController>(options.shed,
                                                    factory_->resilient_store());
  }

  // Everything the stack's layers did before this point (load phase, an
  // earlier run) is collected and thrown away, so the post-run collection
  // reports this run window only.
  const std::vector<StatsLayer*>& stack = factory_->stats_layers();
  {
    LayerStats discarded;
    for (StatsLayer* layer : stack) layer->Collect(&discarded);
  }

  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto raw = factory_->CreateClient();
      if (raw == nullptr) {
        init_errors[static_cast<size_t>(t)] = Status::Internal("client init failed");
        progress[static_cast<size_t>(t)].done.store(true, std::memory_order_relaxed);
        finished.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      MeasuredDB db(std::move(raw), measurements_);
      if (!db.Init().ok()) {
        init_errors[static_cast<size_t>(t)] = Status::Internal("client init failed");
        progress[static_cast<size_t>(t)].done.store(true, std::memory_order_relaxed);
        finished.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // This thread's lock-free measurement sink: the wrapper's per-call
      // series and the whole-transaction TX-<OP> series both record into
      // it, and it merges into the shared registry only when the thread
      // hands it back below (a later Run's thread reuses it).
      ThreadSink* sink = measurements_->CreateSink();
      db.BindSink(sink);
      auto state = workload_->InitThread(t, threads);
      TxSeriesCache tx_series(measurements_);
      TxSeriesCache tx_intended_series(measurements_, "-INTENDED");
      OpId retry_series = measurements_->RegisterOp("TX-RETRY");
      OpId giveup_series = measurements_->RegisterOp("TX-GIVEUP");
      OpId shed_series = measurements_->RegisterOp("SHED");
      OpId sched_lag_series, backlog_series, drop_series;
      if (open_loop) {
        sched_lag_series = measurements_->RegisterOp("SCHED-LAG");
        backlog_series = measurements_->RegisterOp("BACKLOG");
        drop_series = measurements_->RegisterOp("ARRIVAL-DROP");
      }
      ClientProgress& mine = progress[static_cast<size_t>(t)];
      uint64_t quota = options.operation_count == 0
                           ? std::numeric_limits<uint64_t>::max()
                           : ShareOf(options.operation_count, t, threads);
      // Backoff randomness lives on its own stream so the retry schedule
      // never perturbs the workload's deterministic key/op streams.
      Random64 backoff_rng(workload_->base_seed() ^ 0xBACC0FFull ^
                           (static_cast<uint64_t>(t) << 32));
      // Open-loop mode: this thread owns 1/threads of the scripted aggregate
      // rate and draws its intended start times ahead of execution, so a slow
      // transaction makes the *next* arrivals late (queueing we measure)
      // instead of postponing them (coordinated omission).  Arrivals that
      // come due mid-transaction queue in a bounded backlog; overflow drops
      // consume quota slots like sheds so overloaded runs still terminate.
      std::unique_ptr<ArrivalSchedule> arrival_sched;
      if (open_loop) {
        arrival_sched = std::make_unique<ArrivalSchedule>(
            options.arrival, workload_->base_seed(), t, threads);
      }
      std::deque<uint64_t> backlog_q;  // due-but-unexecuted arrival offsets (ns)

      start_gate.Wait();
      uint64_t start_ns = SteadyNanos();
      uint64_t interval_ns =
          per_thread_target > 0.0 ? static_cast<uint64_t>(1e9 / per_thread_target) : 0;
      uint64_t next_op_ns = start_ns;

      uint64_t ops = 0, committed = 0, failed = 0, latency_sum_us = 0;
      uint64_t retries = 0, giveups = 0, backoff_us = 0, sheds = 0;
      uint64_t arrival_drops = 0, backlog_peak = 0;
      uint64_t sched_lag_sum_us = 0, sched_lag_max_us = 0;
      uint64_t budget_used = 0;
      while (budget_used < quota && !stop.load(std::memory_order_relaxed)) {
        ++budget_used;  // this iteration's slot: an executed, shed or dropped txn
        uint64_t lag_us = 0;
        if (open_loop) {
          // Take the oldest due arrival, or wait for the next scheduled one.
          uint64_t sched_off_ns;
          if (!backlog_q.empty()) {
            sched_off_ns = backlog_q.front();
            backlog_q.pop_front();
          } else {
            sched_off_ns = arrival_sched->PeekNs();
            arrival_sched->Pop();
            SlicedWaitUntil(start_ns + sched_off_ns, stop, &mine.wait_ticks);
          }
          uint64_t now = SteadyNanos();
          uint64_t now_off_ns = now > start_ns ? now - start_ns : 0;
          // Pull every arrival already due into the backlog; once it is full
          // the rest are dropped (each consuming a quota slot) — the honest
          // open-loop account of offered load the system never absorbed.
          while (arrival_sched->PeekNs() <= now_off_ns) {
            if (backlog_q.size() <
                static_cast<size_t>(options.arrival.max_backlog)) {
              backlog_q.push_back(arrival_sched->PeekNs());
            } else if (budget_used < quota) {
              ++budget_used;
              ++arrival_drops;
              sink->Record(drop_series, 0, Status::Code::kUnavailable);
            } else {
              break;
            }
            arrival_sched->Pop();
          }
          if (now_off_ns > sched_off_ns) {
            lag_us = (now_off_ns - sched_off_ns) / 1000;
          }
          sched_lag_sum_us += lag_us;
          sched_lag_max_us = std::max(sched_lag_max_us, lag_us);
          backlog_peak = std::max<uint64_t>(backlog_peak, backlog_q.size());
          sink->Measure(sched_lag_series, static_cast<int64_t>(lag_us));
          sink->Measure(backlog_series,
                        static_cast<int64_t>(backlog_q.size()));
          // A full backlog is the third brownout trigger: the system is not
          // keeping up with the offered rate, so start shedding before the
          // queue turns into unbounded latency.
          if (brownout != nullptr) {
            brownout->ReportArrivalBacklog(backlog_q.size(),
                                           options.arrival.max_backlog);
          }
          mine.sched_lag_sum_us.store(sched_lag_sum_us, std::memory_order_relaxed);
          mine.sched_lag_max_us.store(sched_lag_max_us, std::memory_order_relaxed);
          mine.backlog.store(backlog_q.size(), std::memory_order_relaxed);
          mine.backlog_peak.store(backlog_peak, std::memory_order_relaxed);
          mine.arrival_drops.store(arrival_drops, std::memory_order_relaxed);
        } else if (interval_ns != 0) {
          SlicedWaitUntil(next_op_ns, stop, &mine.wait_ticks);
          next_op_ns += interval_ns;
        }

        // Brownout admission: while the system is browned out the thread
        // sheds this transaction — consuming its quota slot, so the run
        // still terminates — instead of queueing behind a saturated
        // backend.  Read-only transactions go first (the peek is
        // stream-neutral, so determinism holds).
        if (brownout != nullptr) {
          bool read_only = brownout->WantsReadOnlyHint() &&
                           workload_->NextTransactionReadOnly(state.get());
          if (!brownout->AdmitTxn(read_only)) {
            sink->Record(shed_series, 0, Status::Code::kUnavailable);
            ++sheds;
            mine.sheds.store(sheds, std::memory_order_relaxed);
            continue;
          }
        }

        // The per-transaction deadline (retry.deadline_us) propagates down
        // the store stack as the ambient OpContext: once it expires, every
        // layer below fails fast instead of paying more doomed RPCs.
        OpDeadlineScope deadline_scope(
            options.wrap_in_transactions ? options.retry.deadline_us : 0);

        // Whole-transaction latency spans every attempt and backoff, so the
        // TX-<OP> series reports what the end user experienced.
        LatencyTimer txn_watch;
        bool commit_ok;
        TxnOpResult op;
        if (options.wrap_in_transactions) {
          // The YCSB+T client-thread protocol (paper §IV-A), wrapped in the
          // bounded retry loop.
          RetryState backoff(options.retry);
          for (int attempt = 1; /* exits below */; ++attempt) {
            db.Start();
            op = workload_->DoTransaction(db, state.get());
            Status cs = op.ok ? db.Commit() : db.Abort();
            commit_ok = op.ok && cs.ok();
            if (commit_ok) break;
            Status failure =
                op.ok ? cs : Status::Aborted("workload operation failed");
            if (!failure.IsRetryable() ||
                backoff.Exhausted(attempt, txn_watch.ElapsedMicros())) {
              if (options.retry.enabled()) {
                sink->Record(giveup_series,
                             static_cast<int64_t>(txn_watch.ElapsedMicros()),
                             failure.code());
                ++giveups;
              }
              break;
            }
            // Let the workload unwind out-of-band attempt state (CEW refunds
            // its pending withdrawal) before DoTransaction runs again.
            workload_->OnTransactionRetry(state.get(), op);
            uint64_t pause_us = backoff.NextBackoffUs(backoff_rng, failure);
            sink->Record(retry_series, static_cast<int64_t>(pause_us),
                         failure.code());
            ++retries;
            backoff_us += pause_us;
            // Publish the retry BEFORE sleeping it out, and slice long naps
            // (a NotLeader rejection's retry_after_us hint can span several
            // status windows) so the watchdog keeps seeing progress ticks
            // for the whole wait: backing off through an election is
            // degradation, not a stall.
            mine.retries.store(retries, std::memory_order_relaxed);
            mine.backoff_us.store(backoff_us, std::memory_order_relaxed);
            for (uint64_t left = pause_us; left != 0;) {
              uint64_t slice = std::min<uint64_t>(left, 20'000);
              SleepMicros(slice);
              left -= slice;
              mine.wait_ticks.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else {
          op = workload_->DoTransaction(db, state.get());
          commit_ok = op.ok;
        }
        workload_->OnTransactionOutcome(state.get(), op, commit_ok);
        if (brownout != nullptr) brownout->OnTxnDone();

        int64_t txn_us = static_cast<int64_t>(txn_watch.ElapsedMicros());
        sink->Record(tx_series.Get(op.op), txn_us,
                     commit_ok ? Status::Code::kOk : Status::Code::kAborted);
        if (open_loop) {
          // The intended-start series measures from when the arrival was
          // *scheduled*, so the time this transaction spent queued behind its
          // predecessors is part of its latency — the coordinated-omission
          // gap the actual-start series cannot see.
          sink->Record(tx_intended_series.Get(op.op),
                       txn_us + static_cast<int64_t>(lag_us),
                       commit_ok ? Status::Code::kOk : Status::Code::kAborted);
        }

        ++ops;
        latency_sum_us += static_cast<uint64_t>(txn_us);
        if (commit_ok) {
          ++committed;
        } else {
          ++failed;
        }
        // Publish progress for the watchdog: plain stores of local totals
        // into this thread's own cache line.
        mine.ops.store(ops, std::memory_order_relaxed);
        mine.committed.store(committed, std::memory_order_relaxed);
        mine.failed.store(failed, std::memory_order_relaxed);
        mine.latency_sum_us.store(latency_sum_us, std::memory_order_relaxed);
        mine.retries.store(retries, std::memory_order_relaxed);
        mine.giveups.store(giveups, std::memory_order_relaxed);
        mine.backoff_us.store(backoff_us, std::memory_order_relaxed);
      }
      db.BindSink(nullptr);
      measurements_->ReleaseSink(sink);
      db.Cleanup();
      mine.done.store(true, std::memory_order_relaxed);
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }

  Stopwatch run_watch;
  start_gate.CountDown();

  // Watchdog + status thread (YCSB's status reporter): samples progress at
  // the configured interval, records the per-window time series, flags
  // stalled client threads, and flips the stop flag at the deadline.
  double last_time = 0.0;
  uint64_t last_ops = 0;
  uint64_t last_latency_sum = 0;
  uint64_t last_lag_sum = 0;
  uint64_t last_drops = 0;
  uint64_t stall_events = 0;
  // Per client: its progress sum when last judged, and the elapsed time at
  // which that sum last changed.  A stall is judged by wall time since the
  // change, so a status thread that wakes late and judges several missed
  // windows back to back cannot count them as separate silent windows.
  std::vector<uint64_t> stall_last_ops(static_cast<size_t>(threads), 0);
  std::vector<double> stall_since(static_cast<size_t>(threads), 0.0);
  const double stall_after_seconds =
      options.stall_windows * options.status_interval_seconds;
  // Shared by the in-run status ticks and the post-join closing window:
  // turns the progress delta since the previous window into one
  // IntervalSample, records it, and feeds the brownout controller's
  // queue-delay trigger.  Returns (total ops so far, window rate) for the
  // status callback.
  auto emit_window = [&](double end_seconds) {
    uint64_t ops = SumProgress(progress, &ClientProgress::ops);
    uint64_t latency_sum = SumProgress(progress, &ClientProgress::latency_sum_us);
    uint64_t window_ops = ops - last_ops;
    double interval_rate =
        end_seconds > last_time
            ? static_cast<double>(window_ops) / (end_seconds - last_time)
            : 0.0;
    IntervalSample sample;
    sample.end_seconds = end_seconds;
    sample.operations = window_ops;
    sample.ops_per_sec = interval_rate;
    sample.avg_latency_us =
        window_ops == 0 ? 0.0
                        : static_cast<double>(latency_sum - last_latency_sum) /
                              static_cast<double>(window_ops);
    if (open_loop) {
      uint64_t lag_sum = SumProgress(progress, &ClientProgress::sched_lag_sum_us);
      uint64_t drops = SumProgress(progress, &ClientProgress::arrival_drops);
      sample.sched_lag_avg_us =
          window_ops == 0 ? 0.0
                          : static_cast<double>(lag_sum - last_lag_sum) /
                                static_cast<double>(window_ops);
      sample.backlog = SumProgress(progress, &ClientProgress::backlog);
      sample.arrival_drops = drops - last_drops;
      last_lag_sum = lag_sum;
      last_drops = drops;
    }
    measurements_->RecordInterval(sample);
    // Sustained queue delay is the brownout controller's second trigger
    // (the first is an Open breaker): feed it the window's average
    // whole-transaction latency.
    if (brownout != nullptr && sample.operations != 0) {
      brownout->ReportWindow(sample.avg_latency_us);
    }
    last_ops = ops;
    last_time = end_seconds;
    last_latency_sum = latency_sum;
    return std::make_pair(ops, interval_rate);
  };
  {
    double next_status = options.status_interval_seconds;
    while (finished.load(std::memory_order_relaxed) < threads) {
      SleepMicros(5000);
      double elapsed = run_watch.ElapsedSeconds();
      if (options.max_execution_seconds > 0.0 &&
          elapsed >= options.max_execution_seconds) {
        stop.store(true, std::memory_order_relaxed);
      }
      if (options.status_interval_seconds > 0.0 && elapsed >= next_status) {
        if (options.stall_windows > 0) {
          for (int c = 0; c < threads; ++c) {
            const size_t i = static_cast<size_t>(c);
            const ClientProgress& p = progress[i];
            if (p.done.load(std::memory_order_relaxed)) {
              stall_since[i] = elapsed;
              continue;
            }
            // Shed transactions, dropped arrivals, in-flight retry attempts
            // and backoff/pacing wait slices count as progress: a thread
            // gracefully shedding through a brownout, dropping an
            // overflowing backlog, or backing off mid-transaction through an
            // election/throttle window, is degrading, not stuck.
            uint64_t now_ops = p.ops.load(std::memory_order_relaxed) +
                               p.sheds.load(std::memory_order_relaxed) +
                               p.arrival_drops.load(std::memory_order_relaxed) +
                               p.retries.load(std::memory_order_relaxed) +
                               p.wait_ticks.load(std::memory_order_relaxed);
            if (now_ops != stall_last_ops[i]) {
              stall_last_ops[i] = now_ops;
              stall_since[i] = elapsed;
            } else if (elapsed - stall_since[i] >= stall_after_seconds) {
              YCSBT_WARN("[WATCHDOG] client thread "
                         << c << " made no progress for "
                         << options.stall_windows << " status windows (stuck at "
                         << now_ops << " ops)");
              ++stall_events;
              stall_since[i] = elapsed;
            }
          }
        }
        auto [ops, interval_rate] = emit_window(elapsed);
        if (options.status_callback) {
          options.status_callback(elapsed, ops, interval_rate);
        } else {
          YCSBT_INFO("[STATUS] " << elapsed << " sec: " << ops << " operations; "
                                 << interval_rate << " current ops/sec");
        }
        next_status += options.status_interval_seconds;
      }
    }
  }
  for (auto& th : pool) th.join();
  double runtime_sec = run_watch.ElapsedSeconds();

  for (const auto& s : init_errors) {
    if (!s.ok()) return s;
  }

  uint64_t total_ops = SumProgress(progress, &ClientProgress::ops);
  // Close the time series with the final partial window — even an idle one —
  // so the windows always partition the run.  (Previously a tail window with
  // zero completed transactions was silently dropped, and the brownout
  // controller never saw the last window's latency at all.)
  if (options.status_interval_seconds > 0.0 &&
      (total_ops > last_ops || runtime_sec > last_time)) {
    emit_window(std::max(runtime_sec, last_time + 1e-9));
  }

  result->runtime_ms = runtime_sec * 1000.0;
  result->operations = total_ops;
  result->committed = SumProgress(progress, &ClientProgress::committed);
  result->failed = SumProgress(progress, &ClientProgress::failed);
  result->throughput_ops_sec =
      runtime_sec > 0.0 ? static_cast<double>(result->operations) / runtime_sec : 0.0;
  result->retries = SumProgress(progress, &ClientProgress::retries);
  result->backoff_time_us = SumProgress(progress, &ClientProgress::backoff_us);

  // The runner's own lines, for the features this run switched on.
  LayerCounters runner{"runner", {}, {}};
  if (options.wrap_in_transactions && options.retry.enabled()) {
    runner.counters.emplace_back("TX-RETRIES", result->retries);
    runner.counters.emplace_back("TIME IN BACKOFF(us)", result->backoff_time_us);
    runner.counters.emplace_back("TX-GIVEUPS",
                                 SumProgress(progress, &ClientProgress::giveups));
  }
  if (options.status_interval_seconds > 0.0 && options.stall_windows > 0) {
    runner.counters.emplace_back("WATCHDOG STALLS", stall_events);
  }
  if (brownout != nullptr) {
    runner.counters.emplace_back("SHED TXNS", brownout->sheds());
    runner.counters.emplace_back("SHED READS", brownout->shed_reads());
  }
  if (open_loop) {
    runner.counters.emplace_back("ARRIVAL DROPS",
                                 SumProgress(progress, &ClientProgress::arrival_drops));
    runner.counters.emplace_back("BACKLOG PEAK",
                                 MaxProgress(progress, &ClientProgress::backlog_peak));
    runner.counters.emplace_back(
        "SCHED-LAG MAX(us)", MaxProgress(progress, &ClientProgress::sched_lag_max_us));
  }
  result->layers.clear();
  if (!runner.counters.empty()) result->layers.push_back(std::move(runner));

  // Each stack layer's window: counters into the result, distributions into
  // the series of the same name so both exporters render their percentiles.
  for (StatsLayer* layer : stack) {
    LayerStats stats;
    layer->Collect(&stats);
    for (auto& [name, histogram] : stats.histograms) {
      measurements_->MergeHistogram(measurements_->RegisterOp(name), histogram,
                                    Status::Code::kOk);
    }
    result->layers.push_back(
        {layer->name(), std::move(stats.counters), std::move(stats.notes)});
  }
  result->wal_appends = result->Counter("WAL APPENDS").value_or(0);

  result->op_stats = measurements_->Snapshot();
  result->intervals = measurements_->Intervals();
  return Status::OK();
}

Status WorkloadRunner::Validate(uint64_t operations_executed, ValidationResult* out) {
  auto db = factory_->CreateClient();
  if (db == nullptr) return Status::Internal("client init failed");
  Status s = db->Init();
  if (!s.ok()) return s;
  // The validation stage is the auditor, not client traffic: it must see
  // the store even if the run ended browned out with breakers still open.
  OpExemptScope resilience_exempt;
  s = workload_->Validate(*db, operations_executed, out);
  db->Cleanup();
  return s;
}

Status WorkloadRunner::Execute(const LoadOptions& load, const RunOptions& run,
                               RunResult* result) {
  Status s = Load(load);
  if (!s.ok()) return s;
  s = Run(run, result);
  if (!s.ok()) return s;
  s = Validate(result->operations, &result->validation);
  if (!s.ok()) return s;
  result->op_stats = measurements_->Snapshot();
  return Status::OK();
}

}  // namespace core
}  // namespace ycsbt
