// Suite orchestrator: spec parsing, matrix expansion, and an end-to-end
// miniature suite executed against the in-process memkv binding with the
// results tree checked on disk.

#include <gtest/gtest.h>

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
