#ifndef YCSBT_COMMON_RPC_EXECUTOR_H_
#define YCSBT_COMMON_RPC_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/op_context.h"
#include "common/stats_layer.h"
#include "common/status.h"

namespace ycsbt {

/// Counters for the fan-out layer since the last drain; `Collect` reports
/// them as the `FANOUT BATCHES` / `FANOUT ITEMS` lines and the `RPC-FANOUT`
/// width series.
struct FanoutStats {
  /// `ParallelForEach` calls that actually fanned out (>= 2 items, pool on).
  uint64_t batches = 0;
  /// Total items across those batches.
  uint64_t items = 0;
  /// Per-batch width distribution.
  Histogram width;
};

/// A small fixed thread pool purpose-built for fanning out independent store
/// RPCs (DESIGN.md §10).
///
/// The combinator, `ParallelForEach`, runs `fn(0..items)` with bounded
/// concurrency and collects one `Status` per item; `Submit` runs one task
/// fire-and-forget (`ResilientStore`'s hedged primaries).  Three properties
/// matter more than raw pool throughput here:
///
///  1. **OpContext travels with the work.**  The submitting thread's
///     thread-local deadline/exempt/hedge state (`OpContext::Snapshot()`) is
///     adopted by the worker running a task, so a deadline set on the
///     issuing thread fences RPCs executed on pool threads and
///     post-commit-point cleanup stays exempt across the hop.
///  2. **The caller participates.**  The issuing thread works the same item
///     queue as the helpers it submitted, so a batch always makes progress
///     even when every pool worker is busy with other clients' batches —
///     fan-out degrades to inline execution instead of deadlocking.
///  3. **Worker RNGs are seeded from the run seed.**  Pool threads would
///     otherwise fall back to `ThreadLocalRandom()`'s clock seeding, making
///     latency draws on workers differ run-to-run; seeding them
///     deterministically keeps same-seed chaos replays bit-identical.
///
/// With zero threads the executor is disabled and `ParallelForEach`
/// degenerates to a plain sequential loop (the seed behaviour), which is
/// what `txn.fanout_threads=0` selects.
class RpcExecutor : public StatsLayer {
 public:
  /// `threads` pool workers (0 disables the pool), at most `max_inflight`
  /// items of one batch in flight at once (0 = use `threads`), worker RNGs
  /// seeded from `seed`.
  explicit RpcExecutor(int threads, int max_inflight = 0, uint64_t seed = 0);
  ~RpcExecutor();

  RpcExecutor(const RpcExecutor&) = delete;
  RpcExecutor& operator=(const RpcExecutor&) = delete;

  /// True when the pool has workers; false means sequential fallback.
  bool enabled() const { return !workers_.empty(); }
  int threads() const { return static_cast<int>(workers_.size()); }
  int max_inflight() const { return max_inflight_; }

  /// Runs `fn(i)` for every `i` in `[0, items)` and returns the per-item
  /// statuses in index order.  Blocks until every item has completed.
  /// Concurrency is bounded by `min(max_inflight, items)`; the calling
  /// thread counts toward that bound (it drains the queue alongside the
  /// pool).  Inline sequential when the pool is disabled or `items < 2`.
  std::vector<Status> ParallelForEach(size_t items,
                                      const std::function<Status(size_t)>& fn);

  /// Queues `task` for a pool worker, which runs it under the caller's
  /// `OpContext`, and returns at once.  Runs it inline when the pool is
  /// disabled.  Tasks still queued at destruction run before the workers
  /// are joined.
  void Submit(std::function<void()> task);

  /// Snapshot-and-reset of the fan-out counters accumulated since the last
  /// drain.
  FanoutStats DrainStats();

  const char* name() const override { return "fanout"; }
  void Collect(LayerStats* out) override;

 private:
  /// A queued task and the context its submitter ran under.
  struct Task {
    OpContext ctx;
    std::function<void()> fn;
  };

  void WorkerLoop(size_t worker_index);

  const int max_inflight_;
  const uint64_t seed_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;

  std::mutex stats_mu_;
  FanoutStats stats_;

  // Last: joined before everything above is torn down.
  std::vector<std::thread> workers_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_RPC_EXECUTOR_H_
