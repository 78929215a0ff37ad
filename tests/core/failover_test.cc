// Failover chaos acceptance: the Closed Economy Workload on the replicated
// cloud binding with a scripted leader crash mid-run.  The headline claims:
// with the retry loop settling ambiguous commits on the new leader, the CEW
// anomaly score stays EXACTLY zero across the failover in `leader` and
// `quorum` read modes — and goes measurably nonzero in `stale` mode on the
// very same seed, because the validation sweep audits a lagging replica
// view.  Count-based election/lag scripting makes every counter replay
// identically for the same seed.

#include <gtest/gtest.h>

#include <string>

#include "core/benchmark.h"
#include "db/db_factory.h"
#include "measurement/exporter.h"
#include "report_lines.h"

namespace ycsbt {
namespace core {
namespace {

/// CEW over the client-coordinated txn pipeline on the replicated WAS
/// profile, latency scaled down to test speed; everything count-based.
Properties FailoverBase(const std::string& read_mode) {
  Properties p;
  p.Set("db", "txn+was");
  p.Set("workload", "closed_economy");
  p.Set("seed", "42");
  p.Set("threads", "1");
  p.Set("recordcount", "100");
  p.Set("totalcash", "100000");
  p.Set("operationcount", "1200");
  p.Set("requestdistribution", "zipfian");
  p.Set("readproportion", "0.3");
  p.Set("readmodifywriteproportion", "0.4");
  p.Set("updateproportion", "0.1");
  p.Set("deleteproportion", "0.1");
  p.Set("insertproportion", "0.1");
  p.Set("txn.lease_us", "0");  // abandoned locks recoverable immediately
  p.Set("cloud.latency_scale", "0.01");
  p.Set("cloud.rate_limit", "0");  // uncapped: failover, not saturation
  p.Set("cloud.regions", "3");
  p.Set("cloud.read_mode", read_mode);
  p.Set("cloud.replica_lag_ops", "32");
  p.Set("cloud.local_region", "1");
  p.Set("cloud.fault.leader_crash_at", "400");
  p.Set("cloud.fault.election_ops", "24");
  p.Set("cloud.fault.lost_tail", "4");
  p.Set("retry.max_attempts", "40");
  p.Set("retry.backoff_initial_us", "20");
  p.Set("retry.backoff_max_us", "500");
  p.Set("retry.throttle_cooldown_us", "100");
  return p;
}

void RunFailover(const Properties& p, RunResult* result,
                 std::string* report = nullptr) {
  DBFactory factory(p);
  ASSERT_TRUE(factory.Init().ok());
  ASSERT_NE(factory.replicated_store(), nullptr)
      << "cloud.regions > 1 must install the replicated veneer";
  ASSERT_TRUE(RunBenchmarkWithFactory(p, &factory, result, report).ok());
}

TEST(FailoverTest, LeaderModeAnomalyIsExactlyZeroAcrossTheFailover) {
  Properties p = FailoverBase("leader");
  RunResult result;
  std::string report;
  RunFailover(p, &result, &report);

  // The scripted outage actually happened mid-run...
  EXPECT_EQ(result.Counter("FAILOVERS"), 1u);
  EXPECT_GT(result.Counter("NOT-LEADER REJECTS"), 0u);
  EXPECT_GT(result.Counter("LOST-TAIL WRITES"), 0u)
      << "the crashing leader must strand an unacked tail";
  EXPECT_GT(result.Counter("REPLICA APPLIES"), 0u);
  EXPECT_GT(result.retries, 0u) << "NotLeader must drive the retry loop";
  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.operations, result.committed + result.failed);

  // ...and still: not a cent missing.  Ambiguous lost-tail commits were
  // settled by TSR re-read on the new leader.
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "a leader failover must not corrupt the closed economy";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);

  // The summary lines and the lag series reach the text exporter...
  EXPECT_GT(TextCounter(report, "FAILOVERS"), 0u) << report;
  EXPECT_GT(TextCounter(report, "NOT-LEADER REJECTS"), 0u);
  EXPECT_GT(TextCounter(report, "LOST-TAIL WRITES"), 0u);
  EXPECT_NE(report.find("[REPLICA APPLIES], "), std::string::npos);
  EXPECT_NE(report.find("[REPLICA-LAG], Operations, "), std::string::npos);

  // ...and the JSON exporter.
  std::string json = JsonExporter::Export(result.MakeSummary(), result.op_stats);
  EXPECT_GT(JsonCounter(json, "FAILOVERS"), 0u) << json;
  EXPECT_GT(JsonCounter(json, "NOT-LEADER REJECTS"), 0u);
  EXPECT_GT(JsonCounter(json, "LOST-TAIL WRITES"), 0u);
  EXPECT_NE(json.find("\"name\":\"REPLICA-LAG\""), std::string::npos);
}

TEST(FailoverTest, QuorumModeAnomalyIsExactlyZeroAcrossTheFailover) {
  Properties p = FailoverBase("quorum");
  RunResult result;
  RunFailover(p, &result);

  EXPECT_EQ(result.Counter("FAILOVERS"), 1u);
  EXPECT_GT(result.Counter("LOST-TAIL WRITES"), 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed);
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
}

TEST(FailoverTest, StaleModeAnomalyIsMeasurablyNonzeroOnTheSameSeed) {
  // Identical seed, identical script — only the read routing changes.  The
  // validation sweep now audits region 1's lagging view, where recent
  // transfers are torn per key, so the CEW anomaly must be strictly
  // positive: exactly the paper's point that a metric (not a boolean) lets
  // a benchmark *rank* how badly a consistency mode fails.
  Properties p = FailoverBase("stale");
  RunResult result;
  RunFailover(p, &result);

  EXPECT_EQ(result.Counter("FAILOVERS"), 1u);
  EXPECT_GT(result.Counter("STALE READS"), 0u)
      << "reads must be served from the lag view";
  EXPECT_TRUE(result.validation.performed);
  EXPECT_FALSE(result.validation.passed)
      << "a lagging replica view must not audit clean";
  EXPECT_GT(result.validation.anomaly_score, 0.0);
}

TEST(FailoverTest, SameSeedReplaysIdenticalFailoverCounters) {
  Properties p = FailoverBase("leader");
  RunResult a, b;
  RunFailover(p, &a);
  RunFailover(p, &b);

  for (const char* line : {"FAILOVERS", "NOT-LEADER REJECTS", "LOST-TAIL WRITES",
                           "STALE READS", "REPLICA APPLIES", "PARTITION REJECTS"}) {
    EXPECT_EQ(a.Counter(line), b.Counter(line)) << line;
  }
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_GT(a.Counter("NOT-LEADER REJECTS"), 0u);
  EXPECT_TRUE(a.validation.passed);
  EXPECT_TRUE(b.validation.passed);
}

TEST(FailoverTest, ElectionPauseIsProgressToTheWatchdog) {
  // The satellite-2 proof: a wall-clock election spanning two full status
  // windows freezes every client thread in the retry loop, waiting out the
  // rejection's retry_after_us hint.  Retry attempts count as watchdog
  // progress, so the pause must produce ZERO stall flags.
  Properties p = FailoverBase("leader");
  p.Set("threads", "4");
  p.Set("operationcount", "2000");
  p.Set("cloud.fault.leader_crash_at", "100");
  p.Set("cloud.fault.election_ops", "0");
  p.Set("cloud.fault.election_us", "250000");  // 2.5 status windows
  p.Set("cloud.fault.lost_tail", "0");
  p.Set("status.interval", "0.1");
  p.Set("status.stall_windows", "2");
  RunResult result;
  RunFailover(p, &result);

  EXPECT_EQ(result.Counter("FAILOVERS"), 1u);
  EXPECT_GT(result.Counter("NOT-LEADER REJECTS"), 0u);
  EXPECT_EQ(result.Counter("WATCHDOG STALLS"), 0u)
      << "riding out an election is degradation, not a stall";
  EXPECT_GT(result.committed, 0u);
  EXPECT_TRUE(result.validation.passed);
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
