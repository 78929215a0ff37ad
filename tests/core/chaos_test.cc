// Chaos acceptance tests: the Closed Economy Workload under the seeded
// fault-injection layer, with the transaction retry loop switched on.  These
// are the end-to-end proofs of the robustness substrate — transient errors,
// throttle bursts, lost replies and mid-commit crash points must all be
// survivable without losing a cent of the economy, and the new abort/recovery
// metrics must surface in both exporters.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/benchmark.h"
#include "db/db_factory.h"
#include "kv/fault_injecting_store.h"
#include "measurement/exporter.h"
#include "report_lines.h"

namespace ycsbt {
namespace core {
namespace {

/// CEW over the client-coordinated txn store at test scale, with a short
/// lock lease so abandoned locks become recoverable within the run.
Properties ChaosBase() {
  Properties p;
  p.Set("db", "txn+memkv");
  p.Set("workload", "closed_economy");
  p.Set("seed", "42");
  p.Set("recordcount", "100");
  p.Set("totalcash", "100000");
  p.Set("operationcount", "1200");
  p.Set("requestdistribution", "zipfian");
  p.Set("readproportion", "0.3");
  p.Set("readmodifywriteproportion", "0.4");
  p.Set("updateproportion", "0.1");
  p.Set("deleteproportion", "0.1");
  p.Set("insertproportion", "0.1");
  p.Set("txn.lease_us", "5000");
  return p;
}

void EnableRetries(Properties& p) {
  p.Set("retry.max_attempts", "8");
  p.Set("retry.backoff_initial_us", "50");
  p.Set("retry.backoff_max_us", "2000");
}

void EnableAllFaults(Properties& p) {
  p.Set("fault.seed", "777");
  p.Set("fault.error_rate", "0.03");
  p.Set("fault.throttle_rate", "0.01");
  p.Set("fault.throttle_burst", "3");
  p.Set("fault.latency_spike_rate", "0.01");
  p.Set("fault.latency_spike_us", "200");
  p.Set("fault.lost_reply_rate", "0.01");
  p.Set("fault.crash_rate", "0.2");
  p.Set("fault.crash_points", "all");
}

TEST(ChaosTest, FaultyRunWithRetriesKeepsTheEconomyConsistent) {
  Properties p = ChaosBase();
  p.Set("threads", "4");
  EnableAllFaults(p);
  EnableRetries(p);

  DBFactory factory(p);
  ASSERT_TRUE(factory.Init().ok());
  ASSERT_NE(factory.fault_store(), nullptr)
      << "fault.* rates must install the fault-injection decorator";

  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmarkWithFactory(p, &factory, &result, &report).ok());

  // The substrate actually fired: injected faults and commit-pipeline
  // crashes happened during the measured window.
  kv::FaultStats faults = factory.fault_store()->stats();
  EXPECT_GT(faults.TotalInjected(), 0u);
  EXPECT_GT(faults.crashes, 0u);
  EXPECT_GT(result.Counter("INJECTED CRASHES"), 0u);
  EXPECT_GT(result.retries, 0u) << "retryable faults must drive the loop";
  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.operations, result.committed + result.failed);

  // ... and still: not a cent missing.
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "faults + retries must not corrupt the closed economy";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);

  // The new series reach the text exporter...
  EXPECT_NE(report.find("[TX-RETRIES], "), std::string::npos) << report;
  EXPECT_NE(report.find("[TX-GIVEUPS], "), std::string::npos);
  EXPECT_NE(report.find("[INJECTED CRASHES], "), std::string::npos);
  EXPECT_NE(report.find("[TX-RETRY], Operations, "), std::string::npos);

  // ... and the JSON exporter.
  std::string json = JsonExporter::Export(result.MakeSummary(), result.op_stats);
  EXPECT_NE(json.find("\"TX-RETRIES\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"INJECTED CRASHES\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"TX-RETRY\""), std::string::npos);
}

TEST(ChaosTest, CrashedCommitsAreRolledForwardByLaterTransactions) {
  // Every commit "crashes" right after the TSR write — the atomic commit
  // point — abandoning all its locks.  With an instantly-expiring lease,
  // later transactions touching those keys must repair them by rolling the
  // pending writes forward (paper §III-C), and the run stays consistent.
  Properties p = ChaosBase();
  p.Set("threads", "1");
  p.Set("operationcount", "300");
  p.Set("recordcount", "50");
  p.Set("totalcash", "50000");
  p.Set("readproportion", "0");
  p.Set("readmodifywriteproportion", "1.0");
  p.Set("updateproportion", "0");
  p.Set("deleteproportion", "0");
  p.Set("insertproportion", "0");
  p.Set("txn.lease_us", "1");
  p.Set("fault.crash_rate", "1.0");
  p.Set("fault.crash_points", "after_tsr_put");
  EnableRetries(p);

  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmark(p, &result, &report).ok());
  EXPECT_GT(result.Counter("INJECTED CRASHES"), 0u);
  EXPECT_GT(result.Counter("RECOVERY ROLLFORWARDS"), 0u)
      << "abandoned committed transactions must be repaired under load";
  EXPECT_TRUE(result.validation.passed);
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
  EXPECT_NE(report.find("[RECOVERY ROLLFORWARDS], "), std::string::npos);
}

TEST(ChaosTest, WithoutRetriesTheSameFaultsFailMoreTransactions) {
  Properties base = ChaosBase();
  base.Set("threads", "1");
  base.Set("operationcount", "800");
  EnableAllFaults(base);

  Properties with_retries = base;
  EnableRetries(with_retries);
  RunResult retried;
  ASSERT_TRUE(RunBenchmark(with_retries, &retried).ok());

  RunResult unretried;  // base leaves retry.max_attempts at its default of 1
  ASSERT_TRUE(RunBenchmark(base, &unretried).ok());

  EXPECT_FALSE(unretried.Counter("TX-RETRIES").has_value());
  EXPECT_EQ(unretried.retries, 0u);
  EXPECT_GT(unretried.failed, retried.failed)
      << "the retry loop must absorb transient faults the bare run eats";
  // Both stay consistent: failed transactions refund, they don't corrupt.
  EXPECT_TRUE(retried.validation.passed);
  EXPECT_TRUE(unretried.validation.passed);
}

TEST(ChaosTest, SyncWalGroupCommitSurvivesChaos) {
  // The full stack at once: CEW over the txn library, every fault class
  // firing, the retry loop on, and the local engine running a durable
  // (sync_wal) group-commit WAL.  The economy must balance, and the WAL's
  // durability series must surface through both exporters.
  std::string wal_path = ::testing::TempDir() + "chaos_group_commit.wal";
  std::remove(wal_path.c_str());

  Properties p = ChaosBase();
  p.Set("threads", "4");
  p.Set("memkv.wal_path", wal_path);
  p.Set("memkv.sync_wal", "true");
  p.Set("memkv.wal_group_commit", "true");
  p.Set("memkv.wal_group_max_batch", "32");
  EnableAllFaults(p);
  EnableRetries(p);

  DBFactory factory(p);
  ASSERT_TRUE(factory.Init().ok());
  ASSERT_NE(factory.local_engine(), nullptr);
  ASSERT_TRUE(factory.local_engine()->wal_enabled());

  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmarkWithFactory(p, &factory, &result, &report).ok());

  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "faults + durable group commit must not corrupt the closed economy";
  EXPECT_GT(result.wal_appends, 0u);
  EXPECT_EQ(result.Counter("WAL APPENDS"), result.wal_appends);
  EXPECT_GT(result.Counter("WAL SYNCS"), 0u);
  EXPECT_LE(result.Counter("WAL SYNCS"), result.wal_appends);
  EXPECT_GE(result.Counter("WAL MAX BATCH"), 1u);

  // Summary lines and percentile series in the text exporter...
  EXPECT_NE(report.find("[WAL APPENDS], "), std::string::npos) << report;
  EXPECT_NE(report.find("[WAL SYNCS], "), std::string::npos);
  EXPECT_NE(report.find("[WAL-SYNC], Operations, "), std::string::npos);
  EXPECT_NE(report.find("[WAL-BATCH], Operations, "), std::string::npos);

  // ... and the JSON exporter.
  std::string json = JsonExporter::Export(result.MakeSummary(), result.op_stats);
  EXPECT_NE(json.find("\"WAL APPENDS\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"WAL-SYNC\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"WAL-BATCH\""), std::string::npos);

  std::remove(wal_path.c_str());
}

TEST(ChaosTest, FaultInjectionIsDeterministicUnderAFixedSeed) {
  // Single-threaded, no crash points, and a zero lease (an abandoned lock is
  // recoverable the instant it is seen, so repair never depends on the wall
  // clock): the injected-fault schedule is a pure function of fault.seed,
  // and two identical runs inject identical fault counts.
  auto run_stats = [] {
    Properties p = ChaosBase();
    p.Set("threads", "1");
    p.Set("operationcount", "600");
    p.Set("txn.lease_us", "0");
    p.Set("fault.seed", "31337");
    p.Set("fault.error_rate", "0.05");
    p.Set("fault.throttle_rate", "0.02");
    p.Set("fault.latency_spike_rate", "0.02");
    p.Set("fault.latency_spike_us", "50");
    p.Set("fault.lost_reply_rate", "0.02");
    EnableRetries(p);
    DBFactory factory(p);
    EXPECT_TRUE(factory.Init().ok());
    RunResult result;
    EXPECT_TRUE(RunBenchmarkWithFactory(p, &factory, &result).ok());
    EXPECT_TRUE(result.validation.passed);
    return factory.fault_store()->stats();
  };

  kv::FaultStats a = run_stats();
  kv::FaultStats b = run_stats();
  EXPECT_GT(a.TotalInjected(), 0u);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.throttles, b.throttles);
  EXPECT_EQ(a.latency_spikes, b.latency_spikes);
  EXPECT_EQ(a.lost_replies, b.lost_replies);
  EXPECT_EQ(a.crashes, b.crashes);
}

TEST(ChaosTest, BreakerLifecycleIsDeterministicUnderSustainedThrottle) {
  // Sustained injected throttle bursts against the breaker with its
  // *count-based* cooldown: the whole Open -> Half-Open -> (probe fails,
  // re-open | probes succeed, re-close) lifecycle is a pure function of the
  // seeded fault schedule, so two identical runs replay identical
  // BREAKER-*/SHED counters — and the economy never loses a cent.
  auto run = [](RunResult* result, std::string* report) {
    Properties p = ChaosBase();
    p.Set("threads", "1");
    p.Set("operationcount", "800");
    p.Set("txn.lease_us", "0");
    p.Set("fault.seed", "31337");
    p.Set("fault.throttle_rate", "0.01");
    p.Set("fault.throttle_burst", "6");
    EnableRetries(p);
    p.Set("retry.throttle_cooldown_us", "200");  // fast cooldown at test scale
    p.Set("breaker.enabled", "true");
    p.Set("breaker.window", "8");
    p.Set("breaker.min_samples", "4");
    p.Set("breaker.failure_ratio", "0.5");
    p.Set("breaker.cooldown_us", "10000000");  // clock out of the picture:
    p.Set("breaker.cooldown_rejects", "4");    // the reject count cools down
    p.Set("breaker.probes", "2");
    p.Set("shed.enabled", "true");
    p.Set("shed.max_inflight", "1");  // a trickle still reaches the breaker
    p.Set("shed.drop_reads", "true");
    ASSERT_TRUE(RunBenchmark(p, result, report).ok());
  };

  RunResult a;
  std::string report;
  run(&a, &report);

  // The full lifecycle actually happened under sustained throttle...
  EXPECT_GT(a.Counter("BREAKER OPENS"), 0u)
      << "sustained throttle must trip the breaker";
  EXPECT_GT(a.Counter("BREAKER FAST-FAILS"), 0u);
  EXPECT_GT(a.Counter("BREAKER PROBES"), 0u)
      << "the count-based cooldown must probe";
  EXPECT_GT(a.Counter("BREAKER RECLOSES"), 0u)
      << "once the burst drains, probes must re-close the breaker";
  EXPECT_GT(a.Counter("SHED TXNS"), 0u)
      << "brownout must shed while the breaker is open";
  EXPECT_GT(a.shed_reads, 0u) << "read-only transactions are dropped first";
  EXPECT_EQ(a.Counter("HEDGES SENT"), 0u);  // hedging stayed off

  // ...without breaking the run's accounting or the economy.
  EXPECT_EQ(a.operations, a.committed + a.failed);
  EXPECT_GT(a.committed, 0u);
  EXPECT_TRUE(a.validation.performed);
  EXPECT_TRUE(a.validation.passed);
  EXPECT_DOUBLE_EQ(a.validation.anomaly_score, 0.0);

  // Summary lines and the shed series in the text exporter...
  EXPECT_GT(TextCounter(report, "BREAKER OPENS"), 0u) << report;
  EXPECT_NE(report.find("[BREAKER FAST-FAILS], "), std::string::npos);
  EXPECT_NE(report.find("[BREAKER PROBES], "), std::string::npos);
  EXPECT_NE(report.find("[BREAKER RECLOSES], "), std::string::npos);
  EXPECT_NE(report.find("[SHED TXNS], "), std::string::npos);
  EXPECT_NE(report.find("[SHED], Operations, "), std::string::npos);

  // ... and the JSON exporter.
  std::string json = JsonExporter::Export(a.MakeSummary(), a.op_stats);
  EXPECT_GT(JsonCounter(json, "BREAKER OPENS"), 0u) << json;
  EXPECT_NE(json.find("\"SHED TXNS\""), std::string::npos);

  // Same seed, same lifecycle: every overload-tolerance counter replays.
  RunResult b;
  run(&b, nullptr);
  for (const char* line : {"BREAKER OPENS", "BREAKER FAST-FAILS",
                           "BREAKER PROBES", "BREAKER RECLOSES"}) {
    EXPECT_EQ(a.Counter(line), b.Counter(line)) << line;
  }
  EXPECT_EQ(a.shed_txns, b.shed_txns);
  EXPECT_EQ(a.shed_reads, b.shed_reads);
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_TRUE(b.validation.passed);
}

TEST(ChaosTest, HedgedReadsAbsorbLatencySpikesDeterministically) {
  // Latency spikes (which stall but never fail) against hedged reads with a
  // fixed delay far below the spike: spiked primary reads lose to their
  // hedges, the run's tail detaches from the spikes, and — because spikes do
  // not alter control flow — two same-seed runs replay the identical fault
  // schedule with an untouched economy.  Which reads get hedged is a
  // wall-clock matter (a loaded host slows some reads past the delay), so
  // hedges draw their faults from their own stream and are counted apart,
  // and the replay compares the primaries' schedule, not `HEDGES *`.
  auto run = [](RunResult* result, std::string* report) {
    Properties p = ChaosBase();
    p.Set("threads", "1");
    p.Set("operationcount", "400");
    p.Set("txn.lease_us", "0");
    p.Set("fault.seed", "31337");
    p.Set("fault.latency_spike_rate", "0.02");
    p.Set("fault.latency_spike_us", "10000");  // 10ms spike vs 2ms hedge delay
    p.Set("hedge.enabled", "true");
    p.Set("hedge.delay_us", "2000");
    p.Set("hedge.workers", "8");
    ASSERT_TRUE(RunBenchmark(p, result, report).ok());
  };

  RunResult a;
  std::string report;
  run(&a, &report);

  EXPECT_GT(a.Counter("FAULT LATENCY SPIKES"), 0u);
  EXPECT_GT(a.Counter("HEDGES SENT"), 0u) << "spiked primaries must trigger hedges";
  EXPECT_GT(a.Counter("HEDGES WON"), 0u)
      << "with spike >> delay, hedges must beat stalled primaries";
  EXPECT_EQ(a.Counter("BREAKER OPENS"), 0u);  // spikes are slowness, not failure
  EXPECT_EQ(a.Counter("FAULT HEDGES"), a.Counter("HEDGES SENT"))
      << "every hedge passes the fault layer, on its own counters";

  EXPECT_EQ(a.operations, a.committed + a.failed);
  EXPECT_TRUE(a.validation.performed);
  EXPECT_TRUE(a.validation.passed)
      << "a won hedge must be indistinguishable from a fast primary";
  EXPECT_DOUBLE_EQ(a.validation.anomaly_score, 0.0);

  EXPECT_GT(TextCounter(report, "HEDGES SENT"), 0u) << report;
  EXPECT_NE(report.find("[HEDGES WON], "), std::string::npos);
  std::string json = JsonExporter::Export(a.MakeSummary(), a.op_stats);
  EXPECT_GT(JsonCounter(json, "HEDGES SENT"), 0u) << json;

  RunResult b;
  run(&b, nullptr);
  for (const char* line : {"FAULT REQUESTS", "FAULT LATENCY SPIKES"}) {
    EXPECT_EQ(a.Counter(line), b.Counter(line)) << line;
  }
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_TRUE(b.validation.passed);
}

TEST(ChaosTest, BrownoutShedsInsteadOfStallingOnASaturatedCloud) {
  // The CI brownout scenario: CEW against the WAS profile with the
  // container rate limit cut hard, so the cloud store itself rejects queue
  // waits as RateLimited.  The breaker must trip, the brownout layer must
  // shed load (reads first) instead of letting threads grind, the watchdog
  // must see progress (no stall flags), and validation must still balance.
  Properties p = ChaosBase();
  p.Set("db", "txn+was");
  p.Set("threads", "8");
  p.Set("operationcount", "600");
  p.Set("cloud.latency_scale", "0.01");
  p.Set("cloud.rate_limit", "300");
  p.Set("cloud.max_queue_delay_us", "10000");  // saturation rejects fast
  EnableRetries(p);
  p.Set("retry.throttle_cooldown_us", "500");
  p.Set("breaker.enabled", "true");
  p.Set("breaker.window", "16");
  p.Set("breaker.min_samples", "8");
  p.Set("breaker.failure_ratio", "0.5");
  p.Set("breaker.cooldown_us", "5000");
  p.Set("breaker.probes", "2");
  p.Set("shed.enabled", "true");
  p.Set("shed.max_inflight", "2");
  p.Set("status.interval", "0.1");
  p.Set("status.stall_windows", "3");

  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmark(p, &result, &report).ok());

  EXPECT_GT(result.Counter("BREAKER OPENS"), 0u)
      << "a rate-limited container must trip its breaker";
  EXPECT_GT(result.Counter("SHED TXNS"), 0u) << "overload must shed, not queue";
  EXPECT_EQ(result.stall_events, 0u)
      << "graceful degradation must look like progress to the watchdog";
  EXPECT_EQ(result.operations, result.committed + result.failed);
  EXPECT_GT(result.committed, 0u);
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "shedding and fast-failing must never corrupt the economy";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
  EXPECT_NE(report.find("[BREAKER OPENS], "), std::string::npos) << report;
  EXPECT_NE(report.find("[SHED TXNS], "), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
