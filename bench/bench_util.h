#ifndef YCSBT_BENCH_BENCH_UTIL_H_
#define YCSBT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/benchmark.h"

namespace ycsbt {
namespace bench {

/// True when the harness should run paper-scale parameters (`--full` flag or
/// YCSBT_BENCH_FULL=1).  The default "quick" mode shrinks latencies and run
/// durations so the whole bench suite finishes in minutes on a laptop while
/// preserving every curve's shape; each binary prints which mode it used.
bool FullMode(int argc, char** argv);

/// Prints the standard bench banner: what figure of the paper this
/// reproduces and under which mode/assumptions.
void Banner(const std::string& title, const std::string& paper_ref, bool full);

/// One measured sweep point, as printed in the result tables.
struct SweepRow {
  std::string config;
  int threads = 0;
  double throughput = 0.0;
  double anomaly_score = 0.0;
  double abort_rate = 0.0;
  double avg_latency_us = 0.0;
};

/// Runs one benchmark configuration and converts it to a sweep row.
/// Exits the process on configuration errors (bench binaries are scripts).
core::RunResult MustRun(const Properties& props);

}  // namespace bench
}  // namespace ycsbt

#endif  // YCSBT_BENCH_BENCH_UTIL_H_
