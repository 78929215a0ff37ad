#include "common/rpc_executor.h"

#include <algorithm>
#include <atomic>

#include "common/random.h"

namespace ycsbt {

RpcExecutor::RpcExecutor(int threads, int max_inflight, uint64_t seed)
    : max_inflight_(max_inflight > 0 ? max_inflight
                                     : std::max(threads, 1)),
      seed_(seed) {
  workers_.reserve(threads > 0 ? static_cast<size_t>(threads) : 0);
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

RpcExecutor::~RpcExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void RpcExecutor::WorkerLoop(size_t worker_index) {
  // Deterministic per-worker seeding: without this the pool threads'
  // `ThreadLocalRandom()` is clock-seeded, and any latency model drawing on
  // a worker would differ between two same-seed runs.
  ThreadLocalRandom().Seed(seed_ ^
                           (0x9E3779B97F4A7C15ull * (worker_index + 1)));
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    OpContextAdoptScope adopt(task.ctx);
    task.fn();
  }
}

void RpcExecutor::Submit(std::function<void()> task) {
  if (!enabled()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{OpContext::Snapshot(), std::move(task)});
  }
  cv_.notify_one();
}

std::vector<Status> RpcExecutor::ParallelForEach(
    size_t items, const std::function<Status(size_t)>& fn) {
  std::vector<Status> statuses(items);
  if (items == 0) return statuses;
  if (!enabled() || items < 2) {
    for (size_t i = 0; i < items; ++i) statuses[i] = fn(i);
    return statuses;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.batches++;
    stats_.items += items;
    stats_.width.Add(static_cast<int64_t>(items));
  }

  // Shared batch state lives on the caller's stack: the caller does not
  // return until every helper task has finished with it.
  struct BatchState {
    std::atomic<size_t> next{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t helpers_done = 0;
  };
  BatchState state;

  // Helpers run under the caller's context: `Submit` carries it across.
  auto run_items = [&state, &statuses, &fn, items] {
    for (;;) {
      size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items) return;
      statuses[i] = fn(i);
    }
  };

  // The caller is one lane of the batch, so only `bound - 1` helpers are
  // submitted; a helper that gets scheduled after the queue drained simply
  // finds `next >= items` and reports done.
  const size_t bound =
      std::min(items, static_cast<size_t>(std::max(max_inflight_, 1)));
  const size_t helpers = bound - 1;
  for (size_t h = 0; h < helpers; ++h) {
    Submit([&state, run_items] {
      run_items();
      // Notify under the lock: once the caller sees the last helper done it
      // returns and destroys `state`, so no helper may touch it after
      // releasing `done_mu`.
      std::lock_guard<std::mutex> lock(state.done_mu);
      state.helpers_done++;
      state.done_cv.notify_one();
    });
  }

  run_items();

  std::unique_lock<std::mutex> lock(state.done_mu);
  state.done_cv.wait(lock,
                     [&state, helpers] { return state.helpers_done == helpers; });
  return statuses;
}

FanoutStats RpcExecutor::DrainStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  FanoutStats out = stats_;
  stats_ = FanoutStats();
  return out;
}

void RpcExecutor::Collect(LayerStats* out) {
  FanoutStats drained = DrainStats();
  out->Count("FANOUT BATCHES", drained.batches);
  out->Count("FANOUT ITEMS", drained.items);
  out->Distribution("RPC-FANOUT", std::move(drained.width));
}

}  // namespace ycsbt
