// Equivalence and chaos acceptance for the parallel RPC fan-out path
// (DESIGN.md §10).  The commit pipeline with an executor attached must be
// *semantically invisible*: same-seed runs with fanned-out phases produce the
// identical logical store state and counters as the sequential seed
// behaviour, and the full fault-injection chaos suite must stay anomaly-free
// with the fan-out switched on.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rpc_executor.h"
#include "core/benchmark.h"
#include "db/db_factory.h"
#include "kv/fault_injecting_store.h"
#include "kv/instrumented_store.h"
#include "txn/client_txn_store.h"

namespace ycsbt {
namespace txn {
namespace {

// ---------------------------------------------------------------------------
// Store-level equivalence: a scripted transaction mix replayed against a
// sequential store and a fanned-out store must land on the same state.
// ---------------------------------------------------------------------------

struct Stack {
  std::shared_ptr<kv::ShardedStore> base;
  std::shared_ptr<HlcTimestampSource> ts;
  std::unique_ptr<ClientTxnStore> store;
};

Stack MakeStack(TxnOptions options) {
  Stack s;
  s.base = std::make_shared<kv::ShardedStore>();
  s.base->set_executor(options.executor);  // null = sequential batches
  s.ts = std::make_shared<HlcTimestampSource>();
  s.store = std::make_unique<ClientTxnStore>(s.base, s.ts, std::move(options));
  return s;
}

std::string Key(int i) { return "key" + std::to_string(1000 + i); }

/// A deterministic single-threaded mix exercising every batched commit
/// phase: multi-key inserts (lock fan-out + roll-forward + release), a
/// MultiRead RMW (snapshot prefetch + serializable validation re-reads),
/// deletes mixed with updates, an abort (release of unpromoted locks), and a
/// second writer whose overlap forces lock puts over existing versions.
void RunScript(ClientTxnStore* store) {
  {  // 8-key insert
    auto t = store->Begin();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(t->Write(Key(i), "v0-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(t->Commit().ok());
  }
  {  // batched read-modify-write across the whole set
    auto t = store->Begin();
    std::vector<std::string> keys;
    for (int i = 0; i < 8; ++i) keys.push_back(Key(i));
    std::vector<TxReadResult> rows;
    t->MultiRead(keys, &rows);
    ASSERT_EQ(rows.size(), keys.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(rows[i].status.ok()) << keys[i];
      ASSERT_TRUE(t->Write(keys[i], rows[i].value + "+rmw").ok());
    }
    ASSERT_TRUE(t->Commit().ok());
  }
  {  // deletes mixed with updates and fresh inserts
    auto t = store->Begin();
    ASSERT_TRUE(t->Delete(Key(0)).ok());
    ASSERT_TRUE(t->Delete(Key(3)).ok());
    ASSERT_TRUE(t->Write(Key(1), "v2-updated").ok());
    ASSERT_TRUE(t->Write(Key(9), "v2-fresh").ok());
    ASSERT_TRUE(t->Write(Key(10), "v2-fresh").ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  {  // an aborted multi-key transaction leaves no trace
    auto t = store->Begin();
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(t->Write(Key(i), "never-visible").ok());
    }
    ASSERT_TRUE(t->Abort().ok());
  }
  {  // re-insert over a deleted key plus another batched read round
    auto t = store->Begin();
    std::vector<TxReadResult> rows;
    t->MultiRead({Key(0), Key(1), Key(9)}, &rows);
    ASSERT_TRUE(rows[0].status.IsNotFound());  // deleted above
    ASSERT_TRUE(rows[1].status.ok());
    ASSERT_TRUE(t->Write(Key(0), "v3-reborn").ok());
    ASSERT_TRUE(t->Write(Key(4), rows[1].value + "|" + rows[2].value).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
}

std::map<std::string, std::string> CommittedState(ClientTxnStore* store) {
  std::vector<TxScanEntry> entries;
  EXPECT_TRUE(store->ScanCommitted("", 10000, &entries).ok());
  std::map<std::string, std::string> state;
  for (const auto& e : entries) state[e.key] = e.value;
  return state;
}

TEST(TxnFanoutTest, ParallelPhasesProduceTheSequentialStoreState) {
  TxnOptions seq;
  seq.isolation = Isolation::kSerializable;  // validation re-reads included
  seq.seed = 99;

  TxnOptions fan = seq;
  fan.executor = std::make_shared<RpcExecutor>(/*threads=*/4,
                                               /*max_inflight=*/0, /*seed=*/99);

  Stack sequential = MakeStack(seq);
  Stack fanned = MakeStack(fan);
  RunScript(sequential.store.get());
  RunScript(fanned.store.get());

  EXPECT_GT(fan.executor->DrainStats().batches, 0u)
      << "the fanned stack must actually batch its multi-key phases";

  std::map<std::string, std::string> a = CommittedState(sequential.store.get());
  std::map<std::string, std::string> b = CommittedState(fanned.store.get());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "fan-out changed the logical outcome of the script";

  TxnStats sa = sequential.store->stats();
  TxnStats sb = fanned.store->stats();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.aborts, sb.aborts);
  EXPECT_EQ(sa.conflicts, sb.conflicts);
  EXPECT_EQ(sa.validation_fails, sb.validation_fails);
  EXPECT_EQ(sb.conflicts, 0u);  // uncontended script: nothing to lose
}

TEST(TxnFanoutTest, NoWaitLockModeReachesTheSameStateWithoutContention) {
  TxnOptions seq;
  seq.seed = 7;

  TxnOptions nowait = seq;
  nowait.lock_acquire_mode = TxnOptions::LockAcquireMode::kNoWait;
  nowait.executor = std::make_shared<RpcExecutor>(4, 0, /*seed=*/7);

  Stack sequential = MakeStack(seq);
  Stack parallel = MakeStack(nowait);
  RunScript(sequential.store.get());
  RunScript(parallel.store.get());

  EXPECT_EQ(CommittedState(sequential.store.get()),
            CommittedState(parallel.store.get()));
  EXPECT_EQ(parallel.store->stats().conflicts, 0u)
      << "an uncontended no-wait run must never see a busy lock";
  EXPECT_EQ(sequential.store->stats().commits, parallel.store->stats().commits);
}

// ---------------------------------------------------------------------------
// Benchmark-level: the Closed Economy Workload with fan-out on vs off.
// ---------------------------------------------------------------------------

Properties CewBase() {
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

TEST(TxnFanoutTest, CewWithFanoutReplaysTheSequentialRunExactly) {
  // Single client thread, no faults: the operation stream is a pure function
  // of the workload seed, so switching the commit pipeline from sequential
  // RPCs to fanned-out batches must not change one committed cent.
  auto run = [](int fanout_threads, core::RunResult* result,
                std::map<std::string, std::string>* state,
                std::string* report) {
    Properties p = CewBase();
    p.Set("threads", "1");
    if (fanout_threads > 0) {
      p.Set("txn.fanout_threads", std::to_string(fanout_threads));
    }
    DBFactory factory(p);
    ASSERT_TRUE(factory.Init().ok());
    ASSERT_TRUE(
        core::RunBenchmarkWithFactory(p, &factory, result, report).ok());
    ASSERT_NE(factory.client_txn_store(), nullptr);
    std::vector<TxScanEntry> entries;
    ASSERT_TRUE(
        factory.client_txn_store()->ScanCommitted("", 100000, &entries).ok());
    for (const auto& e : entries) (*state)[e.key] = e.value;
  };

  core::RunResult sequential, fanned;
  std::map<std::string, std::string> seq_state, fan_state;
  std::string report;
  run(0, &sequential, &seq_state, nullptr);
  run(4, &fanned, &fan_state, &report);

  EXPECT_FALSE(sequential.Counter("FANOUT BATCHES").has_value())
      << "no executor, no fan-out layer";
  EXPECT_GT(fanned.Counter("FANOUT BATCHES"), 0u)
      << "CEW multi-key transactions must reach the executor";
  EXPECT_GE(fanned.Counter("FANOUT ITEMS").value_or(0),
            2 * fanned.Counter("FANOUT BATCHES").value_or(0));

  EXPECT_EQ(seq_state, fan_state)
      << "fan-out changed the committed economy state";
  EXPECT_EQ(sequential.operations, fanned.operations);
  EXPECT_EQ(sequential.committed, fanned.committed);
  EXPECT_EQ(sequential.failed, fanned.failed);
  EXPECT_TRUE(fanned.validation.performed);
  EXPECT_TRUE(fanned.validation.passed);
  EXPECT_DOUBLE_EQ(fanned.validation.anomaly_score, 0.0);

  // The new series reach the text exporter.
  EXPECT_NE(report.find("[FANOUT BATCHES], "), std::string::npos) << report;
  EXPECT_NE(report.find("[FANOUT ITEMS], "), std::string::npos);
  EXPECT_NE(report.find("[RPC-FANOUT], Operations, "), std::string::npos);
}

TEST(TxnFanoutTest, ChaosCewWithFanoutKeepsTheEconomyConsistent) {
  // The full chaos suite — every fault class plus commit-pipeline crashes —
  // with the fan-out executor on and multiple client threads.  Batched or
  // not, the recovery protocol must not lose a cent.
  Properties p = CewBase();
  p.Set("threads", "4");
  p.Set("txn.fanout_threads", "4");
  EnableAllFaults(p);
  EnableRetries(p);

  DBFactory factory(p);
  ASSERT_TRUE(factory.Init().ok());
  ASSERT_NE(factory.fault_store(), nullptr);
  ASSERT_NE(factory.rpc_executor(), nullptr);

  core::RunResult result;
  std::string report;
  ASSERT_TRUE(
      core::RunBenchmarkWithFactory(p, &factory, &result, &report).ok());

  EXPECT_GT(factory.fault_store()->stats().TotalInjected(), 0u);
  EXPECT_GT(result.Counter("INJECTED CRASHES"), 0u);
  EXPECT_GT(result.retries, 0u);
  EXPECT_GT(result.Counter("FANOUT BATCHES"), 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_EQ(result.operations, result.committed + result.failed);

  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "faults + retries + fan-out must not corrupt the closed economy";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
  EXPECT_NE(report.find("[FANOUT BATCHES], "), std::string::npos) << report;
}

TEST(TxnFanoutTest, ChaosCewWithNoWaitLocksKeepsTheEconomyConsistent) {
  // Same chaos suite, but with the no-wait lock mode: every busy lock
  // surfaces Conflict to the retry loop instead of waiting.  More aborts are
  // expected; anomalies are not.
  Properties p = CewBase();
  p.Set("threads", "4");
  p.Set("txn.fanout_threads", "4");
  p.Set("txn.lock_acquire_mode", "nowait");
  EnableAllFaults(p);
  EnableRetries(p);

  core::RunResult result;
  ASSERT_TRUE(core::RunBenchmark(p, &result).ok());
  EXPECT_GT(result.committed, 0u);
  EXPECT_GT(result.Counter("FANOUT BATCHES"), 0u);
  EXPECT_EQ(result.operations, result.committed + result.failed);
  EXPECT_TRUE(result.validation.performed);
  EXPECT_TRUE(result.validation.passed)
      << "no-wait lock fan-out must not corrupt the closed economy";
  EXPECT_DOUBLE_EQ(result.validation.anomaly_score, 0.0);
}

TEST(TxnFanoutTest, ChaosCountersReplayUnderAFixedSeedWithFanout) {
  // The determinism contract survives the executor: single client thread,
  // ordered lock mode, seeded faults — the fault-injection decorator gates
  // and settles batched draws in item order, so pool-thread scheduling can
  // never reorder the fault schedule, and two identical runs replay the same
  // counters to the cent.
  auto run = [](core::RunResult* result, kv::FaultStats* faults) {
    Properties p = CewBase();
    p.Set("threads", "1");
    p.Set("operationcount", "600");
    p.Set("txn.lease_us", "0");
    p.Set("txn.fanout_threads", "4");
    p.Set("fault.seed", "31337");
    p.Set("fault.error_rate", "0.05");
    p.Set("fault.throttle_rate", "0.02");
    p.Set("fault.latency_spike_rate", "0.02");
    p.Set("fault.latency_spike_us", "50");
    p.Set("fault.lost_reply_rate", "0.02");
    EnableRetries(p);
    DBFactory factory(p);
    ASSERT_TRUE(factory.Init().ok());
    ASSERT_TRUE(core::RunBenchmarkWithFactory(p, &factory, result).ok());
    EXPECT_TRUE(result->validation.passed);
    *faults = factory.fault_store()->stats();
  };

  core::RunResult a, b;
  kv::FaultStats fa, fb;
  run(&a, &fa);
  run(&b, &fb);

  EXPECT_GT(fa.TotalInjected(), 0u);
  EXPECT_GT(a.Counter("FANOUT BATCHES"), 0u);
  EXPECT_EQ(fa.requests, fb.requests);
  EXPECT_EQ(fa.errors, fb.errors);
  EXPECT_EQ(fa.timeouts, fb.timeouts);
  EXPECT_EQ(fa.throttles, fb.throttles);
  EXPECT_EQ(fa.latency_spikes, fb.latency_spikes);
  EXPECT_EQ(fa.lost_replies, fb.lost_replies);
  EXPECT_EQ(fa.crashes, fb.crashes);
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.Counter("FANOUT BATCHES"), b.Counter("FANOUT BATCHES"));
  EXPECT_EQ(a.Counter("FANOUT ITEMS"), b.Counter("FANOUT ITEMS"));
}

// ---------------------------------------------------------------------------
// The commit path the `txn_fanout` suite measures: a blind W-key commit
// costs 3W+2 store requests (W write-set reads, W lock CASes, the TSR put,
// W roll-forwards, the TSR delete) whether or not its phases fan out.
// ---------------------------------------------------------------------------

TEST(TxnFanoutTest, BlindBatchInsertPaysThreeWPlusTwoRequestsInEveryMode) {
  struct Mode {
    const char* lock_acquire_mode;
    int fanout_threads;
  };
  for (Mode mode : {Mode{"ordered", 0}, Mode{"ordered", 4}, Mode{"nowait", 4}}) {
    SCOPED_TRACE(std::string(mode.lock_acquire_mode) + " fan-out " +
                 std::to_string(mode.fanout_threads));
    Properties p;
    p.Set("db", "txn+was");
    p.Set("cloud.latency_scale", "0.01");
    p.Set("cloud.rate_limit", "0");  // a cap would slow requests, not drop any
    p.Set("workload", "core");
    p.Set("threads", "1");
    p.Set("recordcount", "10");
    p.Set("operationcount", "30");
    p.Set("readproportion", "0");
    p.Set("updateproportion", "0");
    p.Set("batchinsertproportion", "1");
    p.Set("batch.size", "4");
    p.Set("batch.size_distribution", "constant");
    p.Set("txn.lock_acquire_mode", mode.lock_acquire_mode);
    p.Set("txn.fanout_threads", std::to_string(mode.fanout_threads));

    core::RunResult result;
    ASSERT_TRUE(core::RunBenchmark(p, &result).ok());
    EXPECT_EQ(result.committed, 30u);
    EXPECT_EQ(result.Counter("CLOUD REQUESTS"), 14 * result.committed)
        << "W=4: 3W+2 requests per commit";
  }
}

}  // namespace
}  // namespace txn
}  // namespace ycsbt
