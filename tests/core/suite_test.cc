// Suite orchestrator: spec parsing, matrix expansion, and an end-to-end
// miniature suite executed against the in-process memkv binding with the
// results tree checked on disk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/properties.h"
#include "core/suite.h"

namespace ycsbt {
namespace core {
namespace {

Properties FileFrom(const std::vector<std::pair<std::string, std::string>>& kvs) {
  Properties props;
  for (const auto& [k, v] : kvs) props.Set(k, v);
  return props;
}

TEST(SuiteSpecTest, ParsesControlKeysAndAxes) {
  Properties file = FileFrom({
      {"suite.name", "mini"},
      {"suite.load", "per_run"},
      {"suite.repeats", "2"},
      {"suite.output_dir", "out/mini"},
      {"suite.operations_per_thread", "100"},
      {"base.db", "memkv"},
      {"config.fast.cloud.latency_scale", "0.1"},
      {"mix.scans.scanproportion", "0.95"},
      {"sweep.threads", "1, 2, 4"},
  });
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
  EXPECT_EQ(spec.name, "mini");
  EXPECT_FALSE(spec.load_once);
  EXPECT_EQ(spec.repeats, 2);
  EXPECT_EQ(spec.output_dir, "out/mini");
  EXPECT_EQ(spec.operations_per_thread, 100u);
  EXPECT_EQ(spec.base.Get("db", ""), "memkv");
  ASSERT_EQ(spec.configs.size(), 1u);
  EXPECT_EQ(spec.configs[0].first, "fast");
  EXPECT_EQ(spec.configs[0].second.Get("cloud.latency_scale", ""), "0.1");
  ASSERT_EQ(spec.mixes.size(), 1u);
  EXPECT_EQ(spec.mixes[0].first, "scans");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].first, "threads");
  EXPECT_EQ(spec.sweeps[0].second,
            (std::vector<std::string>{"1", "2", "4"}));
}

TEST(SuiteSpecTest, RejectsKeysOutsideTheSuiteGrammar) {
  SuiteSpec spec;
  Status s = SuiteSpec::Parse(FileFrom({{"threads", "4"}}), &spec);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = SuiteSpec::Parse(FileFrom({{"suite.unknown_control", "x"}}), &spec);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = SuiteSpec::Parse(FileFrom({{"config.noproperty", "x"}}), &spec);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(SuiteSpecTest, ParsesExpectationsOverExpandedRunNames) {
  Properties file = FileFrom({
      {"suite.name", "exp"},
      {"base.db", "memkv"},
      {"sweep.threads", "1,2"},
      {"expect.scaled", "threads2:[OVERALL] Throughput(ops/sec) >= 0.8 * "
                        "threads1:[OVERALL] Throughput(ops/sec)"},
      {"expect.constant", "0 == threads1:[ANOMALY SCORE]"},
  });
  SuiteSpec spec;
  Status s = SuiteSpec::Parse(file, &spec);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(spec.expectations.size(), 2u);
  const SuiteExpectation& constant = spec.expectations[0];  // key order
  EXPECT_EQ(constant.label, "constant");
  EXPECT_EQ(constant.lhs.run, "");
  EXPECT_EQ(constant.lhs.factor, 0.0);
  EXPECT_EQ(constant.op, "==");
  EXPECT_EQ(constant.rhs.run, "threads1");
  EXPECT_EQ(constant.rhs.metric, "[ANOMALY SCORE]");
  const SuiteExpectation& scaled = spec.expectations[1];
  EXPECT_EQ(scaled.lhs.run, "threads2");
  EXPECT_EQ(scaled.lhs.metric, "[OVERALL] Throughput(ops/sec)");
  EXPECT_EQ(scaled.op, ">=");
  EXPECT_EQ(scaled.rhs.factor, 0.8);
  EXPECT_EQ(scaled.rhs.run, "threads1");
}

TEST(SuiteSpecTest, RejectsMalformedExpectationsNamingTheKey) {
  for (const auto& [expression, why] :
       std::vector<std::pair<std::string, std::string>>{
           {"threads4:[ANOMALY SCORE] == 0", "unknown run 'threads4'"},
           {"threads1:[ANOMALY SCORE] =< 0", "needs one of"},
           {"threads1:[ANOMALY SCORE] == 0 == 1", "more than one"},
           {"twice * threads1:[ANOMALY SCORE] > 0", "non-numeric factor 'twice'"},
           {"threads1:[ANOMALY SCORE] == ", "empty term"},
           {" > threads1:[ANOMALY SCORE]", "empty term"},
           {"threads1: == 0", "empty metric"},
       }) {
    SCOPED_TRACE(expression);
    SuiteSpec spec;
    Status s = SuiteSpec::Parse(FileFrom({{"base.db", "memkv"},
                                          {"sweep.threads", "1,2"},
                                          {"expect.shape", expression}}),
                                &spec);
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("'expect.shape'"), std::string::npos) << s.ToString();
    EXPECT_NE(s.message().find(why), std::string::npos) << s.ToString();
  }
}

TEST(SuiteSpecTest, ExpandsFullCrossProduct) {
  Properties file = FileFrom({
      {"suite.name", "grid"},
      {"suite.repeats", "2"},
      {"base.db", "memkv"},
      {"config.a.db", "memkv"},
      {"config.b.db", "2pl+memkv"},
      {"mix.reads.readproportion", "1.0"},
      {"mix.scans.scanproportion", "1.0"},
      {"sweep.threads", "1,2,4"},
  });
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
  std::vector<SuiteRun> runs = spec.Expand();
  // 2 configs x 2 repeats x 2 mixes x 3 sweep points.
  ASSERT_EQ(runs.size(), 24u);
  // Ordering groups substrate first (config, then repeat) so load=once can
  // reuse one loaded store per group.
  EXPECT_EQ(runs[0].config, "a");
  EXPECT_EQ(runs[0].repeat, 1);
  EXPECT_EQ(runs[11].config, "a");
  EXPECT_EQ(runs[12].config, "b");
  // Names are unique and directory-safe.
  std::vector<std::string> names;
  for (const auto& run : runs) {
    names.push_back(run.name);
    EXPECT_EQ(run.name.find('/'), std::string::npos) << run.name;
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  // Axis properties land merged in each run's property set.
  EXPECT_EQ(runs[0].props.Get("db", ""), "memkv");
  EXPECT_EQ(runs[12].props.Get("db", ""), "2pl+memkv");
}

TEST(SuiteSpecTest, OperationsPerThreadScalesWithSweptThreads) {
  Properties file = FileFrom({
      {"suite.name", "scale"},
      {"suite.operations_per_thread", "250"},
      {"base.db", "memkv"},
      {"sweep.threads", "2,8"},
  });
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
  std::vector<SuiteRun> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].props.Get("operationcount", ""), "500");
  EXPECT_EQ(runs[1].props.Get("operationcount", ""), "2000");
}

TEST(SuiteOrchestratorTest, ExecutesMiniatureSuiteAndWritesResultsTree) {
  std::string out = ::testing::TempDir() + "/suite_mini";
  Properties file = FileFrom({
      {"suite.name", "mini"},
      {"suite.load", "once"},
      {"suite.output_dir", out},
      {"base.db", "memkv"},
      {"base.recordcount", "50"},
      {"base.operationcount", "100"},
      {"base.threads", "2"},
      {"base.status", "false"},
      {"sweep.threads", "1,2"},
  });
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
  SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<SuiteRunOutcome> outcomes;
  ASSERT_TRUE(orchestrator.Execute(&outcomes).ok());
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result.operations, 100u);
    for (const char* leaf : {"run.properties", "summary.txt", "summary.json"}) {
      std::ifstream in(out + "/" + outcome.run.name + "/" + leaf);
      EXPECT_TRUE(in.good()) << outcome.run.name << "/" << leaf;
    }
  }
  std::ifstream rollup(out + "/rollup.txt");
  ASSERT_TRUE(rollup.good());
  std::string table((std::istreambuf_iterator<char>(rollup)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(table.find("threads1"), std::string::npos);
  EXPECT_NE(table.find("threads2"), std::string::npos);
  EXPECT_NE(table.find("ok"), std::string::npos);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A two-point read-only memkv suite: each run prints `[READ], Operations,
/// 100` and the throughput line.
Properties MiniatureWithExpectations(
    const std::string& out,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  Properties file = FileFrom({
      {"suite.name", "verdicts"},
      {"suite.output_dir", out},
      {"base.db", "memkv"},
      {"base.recordcount", "50"},
      {"base.operationcount", "100"},
      {"base.readproportion", "1.0"},
      {"base.updateproportion", "0"},
      {"base.status", "false"},
      {"sweep.threads", "1,2"},
  });
  for (const auto& [k, v] : extra) file.Set(k, v);
  return file;
}

TEST(SuiteOrchestratorTest, ExpectationVerdictsFailTheSuiteAndLandInBothRollups) {
  std::string out = ::testing::TempDir() + "/suite_verdicts";
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(
                  MiniatureWithExpectations(
                      out, {{"expect.holds", "threads1:[READ] Operations == 100"},
                            {"expect.breaks", "threads1:[READ] Operations > "
                                              "2 * threads2:[READ] Operations"}}),
                  &spec)
                  .ok());
  SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<SuiteRunOutcome> outcomes;
  Status s = orchestrator.Execute(&outcomes);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("expectation breaks failed"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(s.message().find("holds"), std::string::npos) << s.ToString();
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.status.ok());

  const std::vector<SuiteVerdict>& verdicts = orchestrator.verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].label, "breaks");
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_EQ(verdicts[0].lhs, 100.0);
  EXPECT_EQ(verdicts[0].rhs, 200.0);
  EXPECT_EQ(verdicts[1].label, "holds");
  EXPECT_TRUE(verdicts[1].pass);

  std::string table = ReadFile(out + "/rollup.txt");
  EXPECT_NE(table.find("breaks"), std::string::npos) << table;
  EXPECT_NE(table.find("FAIL"), std::string::npos) << table;
  EXPECT_NE(table.find("threads1:[READ] Operations == 100"), std::string::npos)
      << table;
  EXPECT_NE(table.find(" 200 "), std::string::npos) << table;
  std::string json = ReadFile(out + "/rollup.json");
  EXPECT_NE(json.find("{\"label\": \"breaks\", \"expression\": \"threads1:[READ] "
                      "Operations > 2 * threads2:[READ] Operations\", \"repeat\": 1, "
                      "\"lhs\": 100, \"rhs\": 200, \"pass\": false, \"error\": \"\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"label\": \"holds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos) << json;
  EXPECT_EQ(std::system(("python3 -m json.tool " + out + "/rollup.json > /dev/null")
                            .c_str()),
            0);
}

// Each run in rollup.json carries every series' count and p50/p99, the
// values `expect.` lines read from `[<SERIES>]` lines, so latency tables
// can be rendered from the rollup alone.
TEST(SuiteOrchestratorTest, RollupJsonCarriesEachSeriesLatency) {
  std::string out = ::testing::TempDir() + "/suite_series";
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(MiniatureWithExpectations(out, {}), &spec).ok());
  SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<SuiteRunOutcome> outcomes;
  ASSERT_TRUE(orchestrator.Execute(&outcomes).ok());
  ASSERT_EQ(outcomes.size(), 2u);
  std::string json = ReadFile(out + "/rollup.json");
  for (const auto& outcome : outcomes) {
    const OpStats* read = nullptr;
    for (const OpStats& s : outcome.result.op_stats) {
      if (s.name == "READ") read = &s;
    }
    ASSERT_NE(read, nullptr) << outcome.run.name;
    EXPECT_EQ(read->operations, 100u);
    std::string cell = "\"READ\": {\"operations\": 100, \"p50_us\": " +
                       std::to_string(read->p50_latency_us) +
                       ", \"p99_us\": " + std::to_string(read->p99_latency_us) + "}";
    EXPECT_NE(json.find(cell), std::string::npos) << cell << "\n" << json;
  }
  EXPECT_EQ(std::system(("python3 -m json.tool " + out + "/rollup.json > /dev/null")
                            .c_str()),
            0);
  // Every run has a series object whose cells hold the three numbers.
  EXPECT_EQ(std::system(("python3 -c \"import json, sys; runs = json.load(open('" +
                         out + "/rollup.json'))['runs']; sys.exit(0 if runs and all("
                         "c['operations'] >= 0 and c['p50_us'] <= c['p99_us'] "
                         "for r in runs for c in r['series'].values()) else 1)\"")
                            .c_str()),
            0);
}

TEST(SuiteOrchestratorTest, AMetricLineTheRunNeverPrintedFailsByName) {
  std::string out = ::testing::TempDir() + "/suite_missing_line";
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(
                  MiniatureWithExpectations(
                      out, {{"expect.scored", "threads2:[ANOMALY SCORE] == 0"}}),
                  &spec)
                  .ok());
  SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<SuiteRunOutcome> outcomes;
  Status s = orchestrator.Execute(&outcomes);
  ASSERT_FALSE(s.ok());
  // A core workload validates nothing, so it prints no anomaly score.
  EXPECT_NE(s.message().find("run threads2 printed no numeric '[ANOMALY SCORE]' line"),
            std::string::npos)
      << s.ToString();
  ASSERT_EQ(orchestrator.verdicts().size(), 1u);
  EXPECT_FALSE(orchestrator.verdicts()[0].pass);
  std::string json = ReadFile(out + "/rollup.json");
  EXPECT_NE(json.find("\"lhs\": null, \"rhs\": null, \"pass\": false"),
            std::string::npos)
      << json;
  EXPECT_NE(ReadFile(out + "/rollup.txt").find("'[ANOMALY SCORE]' line"),
            std::string::npos);
}

TEST(SuiteOrchestratorTest, ExpectationsAreCheckedInEveryRepeat) {
  std::string out = ::testing::TempDir() + "/suite_repeat_verdicts";
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(
                  MiniatureWithExpectations(
                      out, {{"suite.repeats", "2"},
                            {"expect.reads", "threads2:[READ] Operations == 100"},
                            {"expect.speed", "threads2:[OVERALL] Throughput(ops/sec) > 0"}}),
                  &spec)
                  .ok());
  SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<SuiteRunOutcome> outcomes;
  Status s = orchestrator.Execute(&outcomes);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(outcomes.size(), 4u);
  const std::vector<SuiteVerdict>& verdicts = orchestrator.verdicts();
  ASSERT_EQ(verdicts.size(), 4u);  // two expectations x two repeats
  for (int repeat = 1; repeat <= 2; ++repeat) {
    const SuiteVerdict& reads = verdicts[2 * (repeat - 1)];
    const SuiteVerdict& speed = verdicts[2 * (repeat - 1) + 1];
    EXPECT_EQ(reads.repeat, repeat);
    EXPECT_TRUE(reads.pass) << reads.error;
    EXPECT_EQ(reads.lhs, 100.0);
    EXPECT_EQ(speed.repeat, repeat);
    EXPECT_TRUE(speed.pass) << speed.error;
    // Each repeat reads its own run: threads2_rep<repeat>.
    const std::string name = "threads2_rep" + std::to_string(repeat);
    auto run = std::find_if(outcomes.begin(), outcomes.end(),
                            [&name](const SuiteRunOutcome& o) { return o.run.name == name; });
    ASSERT_NE(run, outcomes.end()) << name;
    EXPECT_NEAR(speed.lhs, run->result.throughput_ops_sec,
                1e-5 * run->result.throughput_ops_sec);
  }
}

TEST(SuiteOrchestratorTest, MalformedSweepFailsBeforeAnyRunDirectory) {
  std::string out = ::testing::TempDir() + "/suite_bad_sweep";
  std::filesystem::remove_all(out);
  Properties file = FileFrom({
      {"suite.name", "bad"},
      {"suite.output_dir", out},
      {"base.db", "memkv"},
      {"sweep.threads", "1,2x"},
  });
  SuiteSpec spec;
  Status s = SuiteSpec::Parse(file, &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("'sweep.threads' = '2x'"), std::string::npos)
      << s.ToString();

  // A spec built by hand skips Parse; the orchestrator still checks every
  // expanded run before it writes anything.
  SuiteSpec direct;
  direct.name = "bad";
  direct.output_dir = out;
  direct.base.Set("db", "memkv");
  direct.configs.emplace_back("", Properties());
  direct.mixes.emplace_back("", Properties());
  direct.sweeps.emplace_back("threads", std::vector<std::string>{"1", "2x"});
  SuiteOrchestrator orchestrator(std::move(direct));
  std::vector<SuiteRunOutcome> outcomes;
  s = orchestrator.Execute(&outcomes);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("threads2x"), std::string::npos) << s.ToString();
  EXPECT_TRUE(outcomes.empty());
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(SuiteOrchestratorTest, FailingRunIsRecordedAndSuiteContinues) {
  // A run that fails while running (its WAL directory does not exist), not
  // on a malformed property: those fail the whole suite up front.
  std::string out = ::testing::TempDir() + "/suite_fail";
  Properties file = FileFrom({
      {"suite.name", "fail"},
      {"suite.load", "per_run"},
      {"suite.output_dir", out},
      {"base.recordcount", "10"},
      {"base.operationcount", "10"},
      {"base.db", "memkv"},
      {"config.bad.memkv.wal_path", out + "/no-such-dir/wal.log"},
      {"config.good.memkv.shards", "4"},
  });
  SuiteSpec spec;
  ASSERT_TRUE(SuiteSpec::Parse(file, &spec).ok());
  SuiteOrchestrator orchestrator(std::move(spec));
  std::vector<SuiteRunOutcome> outcomes;
  Status s = orchestrator.Execute(&outcomes);
  EXPECT_FALSE(s.ok());  // one run failed -> suite reports it
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].status.ok());  // configs sort: bad before good
  EXPECT_TRUE(outcomes[1].status.ok());
  // The failed run's directory still documents what happened.
  std::ifstream summary(out + "/" + outcomes[0].run.name + "/summary.txt");
  ASSERT_TRUE(summary.good());
  std::string text((std::istreambuf_iterator<char>(summary)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("ERROR"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
