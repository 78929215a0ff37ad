// Four client threads through the real runner, each with its own reused
// rows, keys and binding buffers (DESIGN.md §20).  Every YCSB read is
// verified byte for byte and CEW validates the conserved cash, so a buffer
// two threads accidentally share, or a field view that outlives its row,
// shows up as an integrity error or an anomaly here, and as a race or a
// use-after-free under the sanitizers.

#include <gtest/gtest.h>

#include "core/closed_economy_workload.h"
#include "core/core_workload.h"
#include "core/runner.h"
#include "db/db_factory.h"
#include "measurement/measurements.h"

namespace ycsbt {
namespace core {
namespace {

constexpr int kClients = 4;

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

/// Loads and runs `w` over a fresh factory with four clients and retries.
void LoadAndRun(const Properties& props, Workload* w, RunResult* result,
                ValidationResult* validation) {
  DBFactory factory(props);
  ASSERT_TRUE(factory.Init().ok());
  ASSERT_TRUE(w->Init(props).ok());
  Measurements measurements;
  WorkloadRunner runner(&factory, w, &measurements);
  LoadOptions load;
  load.threads = kClients;
  ASSERT_TRUE(runner.Load(load).ok());
  RunOptions run;
  run.threads = kClients;
  run.operation_count = 20000;
  run.retry = RetryPolicy::FromProperties(props);
  ASSERT_TRUE(runner.Run(run, result).ok());
  ASSERT_TRUE(runner.Validate(result->operations, validation).ok());
  EXPECT_GT(result->committed, 0u);
}

TEST(RowBufferStressTest, YcsbReadsVerifyUnderFourClientsOn2pl) {
  Properties props = Props({{"db", "2pl+memkv"},
                            {"recordcount", "2000"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "3"},
                            {"readallfields", "false"},
                            {"readproportion", "0.5"},
                            {"updateproportion", "0.5"},
                            {"requestdistribution", "zipfian"},
                            {"retry.max_attempts", "16"}});
  CoreWorkload w;
  RunResult result;
  ValidationResult validation;
  LoadAndRun(props, &w, &result, &validation);
  EXPECT_EQ(w.data_integrity_errors(), 0u);
}

TEST(RowBufferStressTest, ClosedEconomyStaysClosedUnderFourClientsOnOcc) {
  Properties props = Props({{"db", "occ+memkv"},
                            {"recordcount", "1000"},
                            {"requestdistribution", "zipfian"},
                            {"retry.max_attempts", "16"},
                            {"occ.epoch_ms", "2"}});
  ClosedEconomyWorkload w;
  RunResult result;
  ValidationResult validation;
  LoadAndRun(props, &w, &result, &validation);
  ASSERT_TRUE(validation.performed);
  EXPECT_TRUE(validation.passed);
  EXPECT_EQ(validation.anomaly_score, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
