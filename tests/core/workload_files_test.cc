// Compatibility sweep over the shipped properties files: every workload in
// workloads/ must parse, load, run and (where defined) validate against both
// a plain binding and the transactional one — the paper's backward
// compatibility and migration story, end to end.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "core/suite.h"
#include "db/property_catalog.h"

#ifndef YCSBT_WORKLOADS_DIR
#define YCSBT_WORKLOADS_DIR "workloads"
#endif
#ifndef YCSBT_PERFBENCH_WORKLOADS_DIR
#define YCSBT_PERFBENCH_WORKLOADS_DIR "perfbench/workloads"
#endif

namespace ycsbt {
namespace core {
namespace {

class WorkloadFileTest : public ::testing::TestWithParam<const char*> {};

Properties LoadFile(const std::string& name) {
  Properties p;
  EXPECT_TRUE(
      p.LoadFromFile(std::string(YCSBT_WORKLOADS_DIR) + "/" + name).ok())
      << name;
  // Shrink for test speed; the files themselves stay paper-sized.
  p.Set("recordcount", p.Get("workload") == "write_skew" ? "100" : "200");
  p.Set("operationcount", "500");
  p.Set("maxscanlength", "20");
  p.Set("threads", "2");
  return p;
}

TEST_P(WorkloadFileTest, RunsOnPlainBinding) {
  Properties p = LoadFile(GetParam());
  p.Set("db", "memkv");
  p.Set("dotransactions", "false");  // plain-YCSB mode
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok()) << GetParam();
  EXPECT_EQ(result.operations, 500u);
}

TEST_P(WorkloadFileTest, RunsWrappedOnTransactionalBinding) {
  Properties p = LoadFile(GetParam());
  p.Set("db", "txn+memkv");
  p.Set("dotransactions", "true");
  // write_skew exists to *exhibit* skew under snapshot isolation, so its
  // validation may legitimately fail there; only the serializable run is
  // guaranteed clean.  (The anomaly-vs-isolation matrix has its own test.)
  if (p.Get("workload") == "write_skew") p.Set("txn.isolation", "serializable");
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok()) << GetParam();
  EXPECT_EQ(result.operations, result.committed + result.failed);
  if (result.validation.performed) {
    EXPECT_TRUE(result.validation.passed)
        << GetParam() << ": transactional run must validate clean";
  }
}

/// Every shipped properties and suite file, the benchmark's included (read
/// only), names only declared keys with values their declarations accept.
TEST(ShippedFilesTest, EveryShippedFileValidatesClean) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& [dir, ext] :
       {std::pair{fs::path(YCSBT_WORKLOADS_DIR), ".properties"},
        std::pair{fs::path(YCSBT_WORKLOADS_DIR) / "suites", ".suite"},
        std::pair{fs::path(YCSBT_PERFBENCH_WORKLOADS_DIR), ".properties"}}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ext) files.push_back(entry.path());
    }
  }
  ASSERT_GE(files.size(), 20u);
  size_t expectations = 0;
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.string());
    Properties p;
    ASSERT_TRUE(p.LoadFromFile(path.string()).ok());
    std::vector<std::string> unknown;
    Status s = ValidateProperties(p, &unknown);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(unknown.empty()) << "unknown key " << unknown.front();
    if (path.extension() != ".suite") continue;
    SuiteSpec spec;
    Status parsed = SuiteSpec::Parse(p, &spec);
    ASSERT_TRUE(parsed.ok()) << parsed.ToString();
    std::set<std::string> names;
    for (const SuiteRun& run : spec.Expand()) {
      EXPECT_TRUE(ValidateProperties(run.props).ok()) << run.name;
      names.insert(run.name);
    }
    // Every `expect.` line names runs this suite expands to, so renaming a
    // config or a sweep point breaks here rather than in a CI run.
    for (const SuiteExpectation& e : spec.expectations) {
      for (const SuiteExpectation::Term* term : {&e.lhs, &e.rhs}) {
        if (!term->run.empty()) {
          EXPECT_TRUE(names.count(term->run)) << e.label;
        }
      }
    }
    expectations += spec.expectations.size();
  }
  EXPECT_GE(expectations, 30u);
}

INSTANTIATE_TEST_SUITE_P(
    ShippedFiles, WorkloadFileTest,
    ::testing::Values("workloada.properties", "workloadb.properties",
                      "workloadc.properties", "workloadd.properties",
                      "workloade.properties", "workloadf.properties",
                      "closed_economy.properties", "write_skew.properties"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      return name.substr(0, name.find('.'));
    });

}  // namespace
}  // namespace core
}  // namespace ycsbt
