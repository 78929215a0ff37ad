// Parameterised Tier-6 sweep: the CEW invariant must hold for EVERY
// transactional binding and isolation configuration under concurrency, and
// for every binding when execution is serial — a matrix the paper's
// "apples-to-apples comparison" claim rests on.

#include <gtest/gtest.h>

#include <string>

#include "core/benchmark.h"

namespace ycsbt {
namespace core {
namespace {

struct BindingCase {
  const char* name;
  const char* db;
  const char* isolation;   // nullptr = not applicable
  const char* timestamps;  // nullptr = default
};

class TransactionalBindingSweep : public ::testing::TestWithParam<BindingCase> {};

Properties CewFor(const BindingCase& binding, int threads) {
  Properties p;
  p.Set("db", binding.db);
  if (binding.isolation != nullptr) p.Set("txn.isolation", binding.isolation);
  if (binding.timestamps != nullptr) p.Set("txn.timestamps", binding.timestamps);
  p.Set("txn.oracle_rtt_us", "5");
  p.Set("workload", "closed_economy");
  p.Set("recordcount", "150");
  p.Set("totalcash", "150000");
  p.Set("operationcount", "3000");
  p.Set("requestdistribution", "zipfian");
  p.Set("readproportion", "0.4");
  p.Set("readmodifywriteproportion", "0.4");
  p.Set("updateproportion", "0.1");
  p.Set("deleteproportion", "0.05");
  p.Set("insertproportion", "0.05");
  p.Set("threads", std::to_string(threads));
  return p;
}

TEST_P(TransactionalBindingSweep, CewInvariantHoldsUnderConcurrency) {
  RunResult result;
  ASSERT_TRUE(RunBenchmark(CewFor(GetParam(), 8), &result).ok());
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << GetParam().name << " leaked money under concurrency";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
  EXPECT_EQ(result.operations, result.committed + result.failed);
}

TEST_P(TransactionalBindingSweep, CewInvariantHoldsSerially) {
  RunResult result;
  ASSERT_TRUE(RunBenchmark(CewFor(GetParam(), 1), &result).ok());
  EXPECT_TRUE(result.validation.passed) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransactionalBindings, TransactionalBindingSweep,
    ::testing::Values(
        BindingCase{"client_txn_snapshot", "txn+memkv", "snapshot", nullptr},
        BindingCase{"client_txn_serializable", "txn+memkv", "serializable",
                    nullptr},
        BindingCase{"client_txn_oracle_ts", "txn+memkv", "snapshot", "oracle"},
        BindingCase{"local_2pl", "2pl+memkv", nullptr, nullptr}),
    [](const ::testing::TestParamInfo<BindingCase>& info) {
      return info.param.name;
    });

// Serial-only sweep: with one thread even non-transactional bindings must
// preserve the invariant (the paper's Fig 4 zero point, for every binding).
class SerialBindingSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SerialBindingSweep, SerialCewIsAlwaysConsistent) {
  BindingCase binding{GetParam(), GetParam(), nullptr, nullptr};
  Properties p = CewFor(binding, 1);
  if (std::string(GetParam()) == "rawhttp") {
    p.Set("cloud.latency_scale", "0.02");  // ~30 us round trips
  }
  RunResult result;
  ASSERT_TRUE(RunBenchmark(p, &result).ok());
  EXPECT_TRUE(result.validation.passed) << GetParam();
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
}

INSTANTIATE_TEST_SUITE_P(NonTransactionalBindings, SerialBindingSweep,
                         ::testing::Values("memkv", "rawhttp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace core
}  // namespace ycsbt
