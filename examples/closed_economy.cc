// The paper's headline demonstration, end to end: the Closed Economy
// Workload run twice against the same kind of store —
//   1. non-transactionally (each operation individually atomic, nothing
//      groups them): concurrent read-modify-writes lose updates and the
//      validation stage reports a non-zero anomaly score;
//   2. through the client-coordinated transaction library: the invariant
//      survives, at the cost of some aborted-and-counted transactions.
//
//   $ ./closed_economy

#include <cstdio>

#include "core/benchmark.h"

namespace {

ycsbt::Properties CewProps(const char* db) {
  ycsbt::Properties p;
  p.Set("db", db);
  p.Set("workload", "closed_economy");
  p.Set("recordcount", "500");
  p.Set("totalcash", "500000");
  p.Set("operationcount", "20000");
  p.Set("requestdistribution", "zipfian");
  p.Set("readproportion", "0.9");
  p.Set("readmodifywriteproportion", "0.1");
  p.Set("threads", "8");
  // A modest simulated network hop widens the race window, as in the
  // paper's WiredTiger-behind-HTTP setup.
  p.Set("cloud.latency_scale", "0.2");  // ~290 us round trips
  return p;
}

void PrintOutcome(const char* label, const ycsbt::core::RunResult& r) {
  std::printf("%-28s validation=%s anomaly_score=%g throughput=%.0f ops/s "
              "aborts=%.2f%%\n",
              label, r.validation.passed ? "PASSED" : "FAILED",
              r.validation.anomaly_score, r.throughput_ops_sec,
              r.abort_rate() * 100.0);
}

}  // namespace

int main() {
  std::printf("Closed Economy Workload: 500 accounts, $500,000 total, "
              "8 threads, 90%% reads / 10%% $1-transfers\n\n");

  // --- 1. No transactions: the anomaly is visible in the money supply.
  ycsbt::core::RunResult raw;
  ycsbt::Status s = ycsbt::core::RunBenchmark(CewProps("rawhttp"), &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintOutcome("non-transactional store:", raw);

  // --- 2. Same workload through the transaction library.
  ycsbt::core::RunResult txn;
  s = ycsbt::core::RunBenchmark(CewProps("txn+rawhttp"), &txn);
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintOutcome("client-coordinated txns:", txn);

  std::printf("\nThe serializable execution preserves sum(accounts) + bank == "
              "total cash;\nthe unprotected one silently %s money.\n",
              raw.validation.passed ? "(this run got lucky with) kept"
                                    : "created or destroyed");
  return 0;
}
