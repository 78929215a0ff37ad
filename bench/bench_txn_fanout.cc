// Commit-pipeline fan-out benchmark: client-coordinated transaction commit
// latency and throughput vs write-set size, with the parallel RPC fan-out
// (DESIGN.md §10) off and on, against the simulated WAS container.
//
// The mechanism under test: a blind W-key commit issues 3W+2 sequential WAN
// round trips without fan-out (W write-set reads, W lock CASes, the TSR put,
// W roll-forwards, the TSR delete).  The transactions here write without
// reading; one that read its keys first skips the W write-set reads (2W+2),
// because the lock round reuses its snapshot reads.  With a fan-out executor
// the per-key-independent phases overlap:
//   - `ordered` lock mode prefetches the write set with one batched MultiGet
//     and fans out roll-forward and lock release, but still CASes the locks
//     one at a time in global key order (the deadlock-freedom argument), so
//     its ceiling is ~2x for large W;
//   - `nowait` lock mode fans the lock CASes out too — any busy lock aborts
//     the round instead of waiting — collapsing the commit to ~5 round-trip
//     times regardless of W.
//
// Sweep: write-set size {1, 4, 8, 16} x fanout threads {1, 4, 8} x lock mode,
// single client thread (a latency benchmark), container rate cap disabled so
// the latency-bound regime is the whole story.  Output columns:
//
//   write_set, mode, fanout, commit_p50_ms, commit_p95_ms, txn/s, speedup
//
// Expected shape: W=1 identical in every mode (a single-key batch never
// fans); ordered caps out just under 2x; nowait reaches ~W/2 x and clears
// the >= 3x acceptance bar for 8-key write sets at fanout >= 4.
//
// Quick mode scales the WAS latencies by 0.02; `--full` runs them unscaled.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cloud/sim_cloud_store.h"
#include "common/clock.h"
#include "common/rpc_executor.h"
#include "txn/client_txn_store.h"

using namespace ycsbt;

namespace {

struct Point {
  double commit_p50_ms = 0.0;
  double commit_p95_ms = 0.0;
  double txn_per_sec = 0.0;
};

std::string BenchKey(int t, int w) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "acct%03d-%03d", t, w);
  return buf;
}

Point RunPoint(bool full, int write_set, int fanout,
               txn::TxnOptions::LockAcquireMode mode) {
  cloud::CloudProfile profile = cloud::CloudProfile::Was();
  // Latency regime only: the container cap is a throughput story, and a
  // burst-of-8 fan-out against the 650 req/s bucket would measure the token
  // bucket, not the pipeline.
  profile.container_rate_limit = 0;
  auto cloud_store = std::make_shared<cloud::SimCloudStore>(profile);
  const double scale = full ? 1.0 : 0.02;
  cloud_store->ScaleLatency(scale);

  txn::TxnOptions opt;
  opt.seed = 42;
  opt.lock_acquire_mode = mode;
  if (fanout > 1) {
    opt.executor =
        std::make_shared<RpcExecutor>(fanout, /*max_inflight=*/0, /*seed=*/42);
    cloud_store->set_executor(opt.executor);
  }
  auto ts = std::make_shared<txn::HlcTimestampSource>();
  txn::ClientTxnStore store(cloud_store, ts, opt);

  const int txns = full ? 12 : 20;
  for (int t = 0; t < txns; ++t) {
    for (int w = 0; w < write_set; ++w) {
      Status s = store.LoadPut(BenchKey(t, w), "seed-balance");
      if (!s.ok()) {
        std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
  }

  std::vector<double> commit_us;
  commit_us.reserve(txns);
  const uint64_t run_start = SteadyMicros();
  for (int t = 0; t < txns; ++t) {
    auto txn = store.Begin();
    for (int w = 0; w < write_set; ++w) {
      txn->Write(BenchKey(t, w), "updated-balance");
    }
    const uint64_t commit_start = SteadyMicros();
    Status s = txn->Commit();
    commit_us.push_back(static_cast<double>(SteadyMicros() - commit_start));
    if (!s.ok()) {
      std::fprintf(stderr, "commit failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  const double run_secs =
      static_cast<double>(SteadyMicros() - run_start) / 1e6;

  std::sort(commit_us.begin(), commit_us.end());
  Point point;
  point.commit_p50_ms = commit_us[commit_us.size() / 2] / 1000.0;
  point.commit_p95_ms =
      commit_us[std::min(commit_us.size() - 1, commit_us.size() * 95 / 100)] /
      1000.0;
  point.txn_per_sec = static_cast<double>(txns) / run_secs;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  std::printf("=== Txn commit fan-out: latency vs write-set size, WAS profile "
              "(%s mode) ===\n", full ? "full" : "quick");

  std::printf("\n%-10s %-8s %-7s %14s %14s %10s %9s\n", "write_set", "mode",
              "fanout", "commit_p50_ms", "commit_p95_ms", "txn/s", "speedup");
  for (int write_set : {1, 4, 8, 16}) {
    Point base;  // fanout=1: the sequential seed pipeline
    for (int fanout : {1, 4, 8}) {
      for (auto mode : {txn::TxnOptions::LockAcquireMode::kOrdered,
                        txn::TxnOptions::LockAcquireMode::kNoWait}) {
        const bool nowait = mode == txn::TxnOptions::LockAcquireMode::kNoWait;
        if (fanout == 1 && nowait) continue;  // no executor: modes identical
        Point point = RunPoint(full, write_set, fanout, mode);
        if (fanout == 1) base = point;
        std::printf("%-10d %-8s %-7d %14.2f %14.2f %10.1f %8.2fx\n", write_set,
                    fanout == 1 ? "seq" : (nowait ? "nowait" : "ordered"),
                    fanout, point.commit_p50_ms, point.commit_p95_ms,
                    point.txn_per_sec, base.commit_p50_ms / point.commit_p50_ms);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape: W=1 rows identical (single-key batches never fan); "
      "ordered\nlocks cap just under 2x (lock CASes stay serial in key "
      "order); nowait\ncollapses the commit to ~5 round trips and clears 3x "
      "for 8-key write sets at\nfanout >= 4.\n");
  return 0;
}
