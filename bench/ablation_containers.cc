// Ablation — container scale-out vs the Figure 2 plateau.
//
// §V-A attributes the 16->32-thread plateau to "a bottleneck in the network
// or the data store container itself", and notes that adding EC2 client
// hosts did NOT raise aggregate throughput — evidence the ceiling was
// server-side.  This bench runs 16 client threads (the top of Fig 2's
// linear region, where the single-container cap just binds) and
// hash-partitions the keyspace over more storage containers, each with its
// own request-rate cap: with a second container the cap stops binding and
// throughput jumps to the client's natural demand, then stays flat — the
// ceiling moved from the store to the client, separating the two mechanisms
// the paper could only conjecture about.

#include <cstdio>

#include "bench/bench_util.h"

using namespace ycsbt;

int main(int argc, char** argv) {
  bool full = bench::FullMode(argc, argv);
  bench::Banner("Ablation: storage containers vs the throughput plateau",
                "Section V-A (bottleneck attribution)", full);

  const double scale = full ? 1.0 : 0.25;
  const double rate_limit = 650.0 / scale;
  const double seconds = full ? 8.0 : 2.0;
  const int threads = 16;
  const int container_counts[] = {1, 2, 4, 8};

  std::printf("\n%12s %14s %14s\n", "containers", "tx/s", "throttle-delays");
  for (int containers : container_counts) {
    Properties p;
    p.Set("db", "txn+was");
    p.Set("cloud.latency_scale", std::to_string(scale));
    p.Set("cloud.rate_limit", std::to_string(rate_limit));
    p.Set("cloud.containers", std::to_string(containers));
    p.Set("workload", "core");
    p.Set("recordcount", "10000");
    p.Set("requestdistribution", "zipfian");
    p.Set("readproportion", "0.9");
    p.Set("updateproportion", "0.1");
    p.Set("operationcount", "0");
    p.Set("maxexecutiontime", std::to_string(seconds));
    p.Set("threads", std::to_string(threads));
    p.Set("loadthreads", "32");

    // The cloud layer's run-window count: the load phase's queue waits (32
    // load threads through the same rate cap) are not part of it.
    core::RunResult r = bench::MustRun(p);
    uint64_t delayed = r.Counter("CLOUD QUEUE-DELAYED").value_or(0);
    std::printf("%12d %14.1f %14llu\n", containers, r.throughput_ops_sec,
                static_cast<unsigned long long>(delayed));
  }
  std::printf("\nexpected shape: a jump from the second container onwards "
              "(the single-container cap was binding: note the throttle "
              "delays vanish), then flat at the client's natural demand.\n");
  return 0;
}
