// End-to-end integration tests through the high-level RunBenchmark driver:
// full load/run/validate cycles against every binding family, reproducing
// the paper's headline behaviours at test scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/benchmark.h"

namespace ycsbt {
namespace core {
namespace {

Properties CewBase() {
  Properties p;
  p.Set("workload", "closed_economy");
  p.Set("recordcount", "300");
  p.Set("totalcash", "300000");
  p.Set("operationcount", "4000");
  p.Set("requestdistribution", "zipfian");
  p.Set("readproportion", "0.5");
  p.Set("readmodifywriteproportion", "0.5");
  return p;
}

TEST(IntegrationTest, CewOnMemkvSerialIsConsistent) {
  Properties p = CewBase();
  p.Set("db", "memkv");
  p.Set("threads", "1");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_EQ(result.operations, 4000u);
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "no concurrency -> no anomalies (paper Fig 4, 1 thread)";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
}

TEST(IntegrationTest, CewOnRawHttpConcurrentProducesAnomalies) {
  // The paper's Tier-6 headline (Fig 4): a non-transactional store under
  // concurrent CEW develops a non-zero anomaly score.  The latency-injected
  // rawhttp binding plus heavy contention makes a zero score astronomically
  // unlikely; retry a few times to keep the test deterministic in practice.
  double score = 0.0;
  for (int attempt = 0; attempt < 5 && score == 0.0; ++attempt) {
    Properties p = CewBase();
    p.Set("db", "rawhttp");
    p.Set("cloud.latency_scale", "0.28");  // ~400 us median round trip
    p.Set("recordcount", "100");
    p.Set("totalcash", "100000");
    p.Set("operationcount", "3000");
    p.Set("threads", "8");
    RunResult result;
    ASSERT_TRUE(RunBenchmark(p, &result).ok());
    score = result.validation.anomaly_score;
  }
  EXPECT_GT(score, 0.0) << "lost updates must corrupt the closed economy";
}

TEST(IntegrationTest, RawHttpRunsThroughTheCloudLayer) {
  // rawhttp is the simulated cloud store's loopback profile: its run
  // registers the `cloud` layer and counts every round trip.
  Properties p = CewBase();
  p.Set("db", "rawhttp");
  p.Set("cloud.latency_scale", "0.01");
  p.Set("operationcount", "200");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  std::vector<std::string> layers;
  for (const auto& layer : result.layers) layers.push_back(layer.layer);
  EXPECT_NE(std::find(layers.begin(), layers.end(), "cloud"), layers.end());
  EXPECT_GT(result.Counter("CLOUD REQUESTS").value_or(0), 0u);
  EXPECT_EQ(result.Counter("CLOUD THROTTLED"), 0u);  // no rate cap
}

TEST(IntegrationTest, CewOnClientTxnStoreConcurrentStaysConsistent) {
  Properties p = CewBase();
  p.Set("db", "txn+memkv");
  p.Set("threads", "8");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed)
      << "transactional execution must preserve the invariant";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
  // Under contention some transactions abort; they must be counted.
  EXPECT_EQ(result.operations, result.committed + result.failed);
}

TEST(IntegrationTest, CewOn2PLEngineConcurrentStaysConsistent) {
  Properties p = CewBase();
  p.Set("db", "2pl+memkv");
  p.Set("threads", "6");
  p.Set("operationcount", "3000");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed);
}

TEST(IntegrationTest, BackwardCompatibleCoreWorkloadRuns) {
  // Plain-YCSB mode: CoreWorkload, no transactions, no validation stage.
  Properties p;
  p.Set("db", "memkv");
  p.Set("workload", "core");
  p.Set("recordcount", "200");
  p.Set("operationcount", "2000");
  p.Set("threads", "4");
  p.Set("dotransactions", "false");
  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmark(p, &result, &report).ok());
  EXPECT_EQ(result.operations, 2000u);
  EXPECT_FALSE(result.validation.performed) << "CoreWorkload has no validation";
  EXPECT_EQ(report.find("[START]"), std::string::npos);
}

TEST(IntegrationTest, CoreWorkloadWrappedOnNonTransactionalDbIsHarmless) {
  // YCSB+T backward compatibility (paper §IV-A): wrapping calls reach the
  // no-op defaults and the run behaves exactly like plain YCSB.
  Properties p;
  p.Set("db", "memkv");
  p.Set("workload", "core");
  p.Set("recordcount", "100");
  p.Set("operationcount", "500");
  p.Set("dotransactions", "true");
  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmark(p, &result, &report).ok());
  EXPECT_EQ(result.committed, 500u);
  EXPECT_NE(report.find("[START]"), std::string::npos);
  EXPECT_NE(report.find("[COMMIT]"), std::string::npos);
}

TEST(IntegrationTest, ReportHasListing3Structure) {
  Properties p = CewBase();
  p.Set("db", "memkv");
  p.Set("threads", "2");
  p.Set("operationcount", "1000");
  RunResult result;
  std::string report;
  ASSERT_TRUE(RunBenchmark(p, &result, &report).ok());
  EXPECT_NE(report.find("[TOTAL CASH], "), std::string::npos);
  EXPECT_NE(report.find("[COUNTED CASH], "), std::string::npos);
  EXPECT_NE(report.find("[ACTUAL OPERATIONS], 1000"), std::string::npos);
  EXPECT_NE(report.find("[ANOMALY SCORE], "), std::string::npos);
  EXPECT_NE(report.find("[OVERALL], Throughput(ops/sec), "), std::string::npos);
  EXPECT_NE(report.find("[TX-READ], Operations, "), std::string::npos);
  EXPECT_NE(report.find("[READ], AverageLatency(us), "), std::string::npos);
}

TEST(IntegrationTest, Tier5TransactionalOverheadIsMeasurable) {
  // The Fig 3 mechanism at test scale: the same workload on the same cloud
  // profile, wrapped vs raw.  The transactional run must commit writes with
  // extra round trips, so its throughput is strictly lower.
  Properties base;
  base.Set("workload", "core");
  base.Set("recordcount", "60");
  base.Set("operationcount", "600");
  base.Set("threads", "4");
  base.Set("readproportion", "0.5");
  base.Set("updateproportion", "0.5");
  base.Set("cloud.latency_scale", "0.02");  // scaled-down WAS latencies

  Properties non_tx = base;
  non_tx.Set("db", "was");
  non_tx.Set("dotransactions", "false");
  RunResult raw;
  ASSERT_TRUE(RunBenchmark(non_tx, &raw).ok());

  Properties tx = base;
  tx.Set("db", "txn+was");
  tx.Set("dotransactions", "true");
  RunResult wrapped;
  ASSERT_TRUE(RunBenchmark(tx, &wrapped).ok());

  EXPECT_GT(raw.throughput_ops_sec, 0.0);
  EXPECT_GT(wrapped.throughput_ops_sec, 0.0);
  EXPECT_LT(wrapped.throughput_ops_sec, raw.throughput_ops_sec)
      << "transactions cost round trips (paper Fig 3)";
}

TEST(IntegrationTest, SkipLoadReusesExistingData) {
  Properties p = CewBase();
  p.Set("db", "memkv");
  p.Set("operationcount", "500");
  DBFactory factory(p);
  ASSERT_TRUE(factory.Init().ok());
  RunResult first;
  ASSERT_TRUE(RunBenchmarkWithFactory(p, &factory, &first).ok());
  // Second run against the same factory, without reloading.
  p.Set("skipload", "true");
  RunResult second;
  ASSERT_TRUE(RunBenchmarkWithFactory(p, &factory, &second).ok());
  EXPECT_EQ(second.operations, 500u);
}

TEST(IntegrationTest, SeedMakesRunsReplayable) {
  auto run_counts = [](const char* seed) {
    Properties p;
    p.Set("db", "memkv");
    p.Set("workload", "core");
    p.Set("seed", seed);
    p.Set("recordcount", "100");
    p.Set("operationcount", "2000");
    p.Set("threads", "1");
    p.Set("readproportion", "0.5");
    p.Set("updateproportion", "0.3");
    p.Set("scanproportion", "0.1");
    p.Set("readmodifywriteproportion", "0.1");
    p.Set("maxscanlength", "10");
    RunResult result;
    EXPECT_TRUE(RunBenchmark(p, &result).ok());
    std::map<std::string, uint64_t> counts;
    for (const auto& op : result.op_stats) counts[op.name] = op.operations;
    return counts;
  };
  auto a = run_counts("42");
  auto b = run_counts("42");
  auto c = run_counts("43");
  EXPECT_EQ(a, b) << "identical seeds must replay identical op streams";
  EXPECT_NE(a, c) << "different seeds must diverge";
}

TEST(IntegrationTest, UnknownWorkloadOrDbFailsCleanly) {
  Properties p;
  p.Set("db", "memkv");
  p.Set("workload", "mystery");
  RunResult result;
  EXPECT_TRUE(RunBenchmark(p, &result).IsInvalidArgument());
  Properties p2;
  p2.Set("db", "mystery");
  EXPECT_TRUE(RunBenchmark(p2, &result).IsInvalidArgument());
}

TEST(IntegrationTest, MalformedValuesFailTheRunNamingTheKey) {
  // Each of these used to run quietly on the key's default.
  for (const auto& [key, value] :
       {std::pair{"threads", "8x"}, std::pair{"memkv.sync_wal", "ture"},
        std::pair{"insertorder", "orderd"}, std::pair{"breaker.window", "0"},
        std::pair{"seed", "0x1234"}, std::pair{"readproportion", "0.5x"}}) {
    Properties p;
    p.Set("db", "memkv");
    p.Set("recordcount", "10");
    p.Set("operationcount", "10");
    p.Set(key, value);
    RunResult result;
    Status s = RunBenchmark(p, &result);
    EXPECT_TRUE(s.IsInvalidArgument()) << key << ": " << s.ToString();
    EXPECT_NE(s.message().find(std::string("'") + key + "'"), std::string::npos)
        << s.ToString();
  }
}

TEST(IntegrationTest, MisspelledCrashPointsFailTheRunNamingTheKey) {
  // Both keys used to accept any string; a misspelled point never fired.
  for (const auto& [key, value] :
       {std::pair{"fault.crash_points", "after_lock_put"},
        std::pair{"fault.crash_points", "all, mid_roll_forwrd"},
        std::pair{"storage.fault.crash_point", "wal_pre_synk"}}) {
    Properties p;
    p.Set("db", "memkv");
    p.Set("recordcount", "10");
    p.Set("operationcount", "10");
    p.Set(key, value);
    RunResult result;
    Status s = RunBenchmark(p, &result);
    EXPECT_TRUE(s.IsInvalidArgument()) << key << ": " << s.ToString();
    EXPECT_NE(s.message().find(std::string("'") + key + "'"), std::string::npos)
        << s.ToString();
  }
}

TEST(IntegrationTest, OracleTimestampedTxnRunWorks) {
  Properties p = CewBase();
  p.Set("db", "txn+memkv");
  p.Set("txn.timestamps", "oracle");
  p.Set("txn.oracle_rtt_us", "10");
  p.Set("threads", "4");
  p.Set("operationcount", "1000");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed);
}

TEST(IntegrationTest, SerializableIsolationAlsoConsistent) {
  Properties p = CewBase();
  p.Set("db", "txn+memkv");
  p.Set("txn.isolation", "serializable");
  p.Set("threads", "4");
  p.Set("operationcount", "1500");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
