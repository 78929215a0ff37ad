#include "bench/bench_util.h"

#include <cstdlib>
#include <cstring>

namespace ycsbt {
namespace bench {

bool FullMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  const char* env = std::getenv("YCSBT_BENCH_FULL");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

void Banner(const std::string& title, const std::string& paper_ref, bool full) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s (YCSB+T, ICDE 2014)\n", paper_ref.c_str());
  std::printf("mode: %s\n",
              full ? "FULL (paper-scale parameters)"
                   : "QUICK (scaled-down latencies/durations; same shape; "
                     "pass --full or YCSBT_BENCH_FULL=1 for paper scale)");
}

core::RunResult MustRun(const Properties& props) {
  core::RunResult result;
  Status s = core::RunBenchmark(props, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "bench configuration failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return result;
}

}  // namespace bench
}  // namespace ycsbt
