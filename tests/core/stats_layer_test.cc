// The one stats surface (DESIGN.md §17): every layer the factory builds is
// registered, a reused factory reports each run's window once, and a golden
// file pins the summary lines, series and deterministic counter values of the
// CI smoke suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "core/suite.h"
#include "core/workload_factory.h"
#include "db/db_factory.h"
#include "measurement/exporter.h"
#include "report_lines.h"

namespace ycsbt {
namespace core {
namespace {

bool Registered(const DBFactory& factory, const StatsLayer* layer) {
  const auto& layers = factory.stats_layers();
  return std::count(layers.begin(), layers.end(), layer) == 1;
}

TEST(StatsLayerTest, EveryLayerTheFactoryBuildsIsRegistered) {
  for (const char* db : {"basic", "memkv", "rawhttp", "was", "gcs", "txn+memkv",
                         "txn+rawhttp", "txn+was", "txn+gcs", "2pl+memkv",
                         "occ+memkv"}) {
    SCOPED_TRACE(db);
    std::string wal = ::testing::TempDir() + "stats_layer_registration.wal";
    std::remove(wal.c_str());
    Properties p;
    p.Set("db", db);
    p.Set("memkv.wal_path", wal);
    p.Set("fault.error_rate", "0.01");
    p.Set("storage.fault.write_error_rate", "0.01");
    p.Set("breaker.enabled", "true");
    p.Set("cloud.regions", "3");
    p.Set("txn.fanout_threads", "2");
    DBFactory factory(p);
    ASSERT_TRUE(factory.Init().ok());

    std::vector<const StatsLayer*> built;
    auto add = [&](const StatsLayer* layer) {
      if (layer != nullptr) built.push_back(layer);
    };
    add(factory.storage_fault_env());
    add(factory.local_engine());
    add(factory.cloud_store().get());
    add(factory.replicated_store().get());
    add(factory.fault_store());
    add(factory.resilient_store());
    add(factory.rpc_executor().get());
    add(dynamic_cast<const StatsLayer*>(factory.txn_kv().get()));
    for (const StatsLayer* layer : built) {
      EXPECT_TRUE(Registered(factory, layer)) << layer->name();
    }
    EXPECT_EQ(factory.stats_layers().size(), built.size());
    std::set<std::string> names;
    for (const StatsLayer* layer : factory.stats_layers()) {
      EXPECT_TRUE(names.insert(layer->name()).second) << layer->name();
    }
  }
}

TEST(StatsLayerTest, AReusedFactoryReportsTheSecondWindowOnly) {
  std::string wal = ::testing::TempDir() + "stats_layer_reuse.wal";
  std::remove(wal.c_str());
  Properties p;
  p.Set("db", "2pl+memkv");
  p.Set("memkv.wal_path", wal);
  p.Set("workload", "core");
  p.Set("recordcount", "100");
  p.Set("readproportion", "0.5");
  p.Set("updateproportion", "0.5");
  p.Set("retry.max_attempts", "4");
  DBFactory factory(p);
  ASSERT_TRUE(factory.Init().ok());
  auto* engine = dynamic_cast<txn::Local2PLStore*>(factory.txn_kv().get());
  ASSERT_NE(engine, nullptr);
  std::unique_ptr<Workload> workload;
  ASSERT_TRUE(CreateWorkload(p, &workload).ok());
  Measurements measurements;
  WorkloadRunner runner(&factory, workload.get(), &measurements);
  ASSERT_TRUE(runner.Load(LoadOptions{}).ok());

  RunOptions run;
  run.operation_count = 300;
  run.retry = RetryPolicy::FromProperties(p);
  RunResult result;
  ASSERT_TRUE(runner.Run(run, &result).ok());
  uint64_t first_commits = engine->stats().commits;
  run.operation_count = 120;
  ASSERT_TRUE(runner.Run(run, &result).ok());

  EXPECT_EQ(result.Counter("2PL COMMITS"), engine->stats().commits - first_commits);
  EXPECT_EQ(result.Counter("2PL COMMITS"), result.committed);
  EXPECT_EQ(result.committed, 120u);
  // Every update is logged: the WAL window is the second run's writes only.
  EXPECT_GT(result.wal_appends, 0u);
  EXPECT_LT(result.wal_appends, 120u);
  EXPECT_EQ(result.Counter("WAL APPENDS"), result.wal_appends);
  // Recovery is a fact of the open, restated every window.
  EXPECT_EQ(result.Counter("RECOVERY-REPLAYED"), 0u);

  std::vector<std::string> names;
  for (const auto& layer : result.layers) names.push_back(layer.layer);
  EXPECT_EQ(names, (std::vector<std::string>{"runner", "engine", "2pl"}));
}

TEST(StatsLayerTest, CountersAreNumbersGroupedByLayerInTheJsonExport) {
  RunResult result;
  result.layers = {{"runner", {{"TX-RETRIES", 3}}, {}},
                   {"engine", {{"WAL APPENDS", 0}, {"CKPT-SCRUB", 1}},
                    {{"CKPT-SCRUB REASON", "torn\tsnapshot"}}}};
  std::string json = JsonExporter::Export(result.MakeSummary(), {});
  EXPECT_NE(json.find("\"counters\":{\"runner\":{\"TX-RETRIES\":3},"
                      "\"engine\":{\"WAL APPENDS\":0,\"CKPT-SCRUB\":1}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"CKPT-SCRUB REASON\":\"torn\\tsnapshot\""),
            std::string::npos);
  EXPECT_EQ(JsonCounter(json, "WAL APPENDS"), 0u);
  EXPECT_FALSE(JsonCounter(json, "WAL SYNCS").has_value());

  std::string text = TextExporter::Export(result.MakeSummary(), {});
  EXPECT_EQ(TextCounter(text, "TX-RETRIES"), 3u);
  EXPECT_EQ(TextCounter(text, "WAL APPENDS"), 0u);
  EXPECT_FALSE(TextCounter(text, "WAL SYNCS").has_value());
  EXPECT_NE(text.find("[CKPT-SCRUB REASON], torn\tsnapshot\n"), std::string::npos);
}

// --- golden summaries ------------------------------------------------------

/// Counters whose value depends on wall-clock timing (the OCC epoch ticker,
/// the cloud rate-cap queue, retry sleeps) rather than on the seed.  The
/// golden file pins their presence, not their value.
const std::set<std::string>& TimingDependent() {
  static const std::set<std::string> names = {
      "EPOCH ADVANCES", "OCC VERSIONS FREED", "CLOUD THROTTLED",
      "CLOUD QUEUE-DELAYED", "TIME IN BACKOFF(us)"};
  return names;
}

/// One run's layout: its summary lines in order (with the value where it is
/// seed-deterministic) and its series names.
std::string Layout(const std::string& label, const RunResult& result,
                   const std::string& report) {
  std::ostringstream out;
  out << "# " << label << "\n";
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("[OVERALL]", 0) == 0) break;
    if (line.empty() || line[0] != '[') continue;
    std::string name = line.substr(1, line.find("], ") - 1);
    out << "line " << name;
    auto value = result.Counter(name);
    if (value.has_value() && TimingDependent().count(name) == 0) {
      out << " = " << *value;
    }
    out << "\n";
  }
  for (const auto& op : result.op_stats) {
    if (op.operations != 0) out << "series " << op.name << "\n";
  }
  return out.str();
}

std::string GoldenPath() {
  return std::string(YCSBT_GOLDEN_DIR) + "/smoke_suites.golden";
}

TEST(StatsLayerGoldenTest, SmokeSuiteSummariesMatchTheGoldenFile) {
  std::string actual;
  for (const char* suite : {"smoke_2x2", "failover_chaos", "occ_smoke"}) {
    Properties file;
    ASSERT_TRUE(file.LoadFromFile(std::string(YCSBT_WORKLOADS_DIR) + "/suites/" +
                                  suite + ".suite")
                    .ok());
    SuiteSpec spec;
    ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
    for (SuiteRun& run : spec.Expand()) {
      // One client thread makes every count seed-deterministic.  To keep
      // the test quick the simulated cloud runs without latency scale or
      // rate cap (timing only), and the failover runs are shortened — still
      // past the scripted leader crash (write 800) and the latest partition
      // (request 2500).
      run.props.Set("threads", "1");
      run.props.Set("loadthreads", "1");
      run.props.Set("cloud.latency_scale", "0.001");
      run.props.Set("cloud.rate_limit", "0");
      if (std::string(suite) == "failover_chaos") {
        run.props.Set("operationcount", "1500");
      }
      RunResult result;
      std::string report;
      Status s = RunBenchmark(run.props, &result, &report);
      ASSERT_TRUE(s.ok()) << run.name << ": " << s.ToString();
      actual += Layout(std::string(suite) + "/" + run.name, result, report);
    }
  }

  if (std::getenv("YCSBT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(GoldenPath(), std::ios::trunc) << actual;
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath()
                         << " (regenerate with YCSBT_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
