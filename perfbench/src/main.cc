// perfbench: the repository benchmark driver.
//
//   perfbench --workload-file F --seed N --seconds S --trace 0|1 --tmp-dir D
//             [--rounds K] [--spans-out P] [--sample-every K] [--check-ops K]
//
// --trace 0 measures the end-to-end metrics through the public driver path
// (DBFactory + core::WorkloadRunner: Load, Run, Validate).  --trace 1 first
// checks that the hand-built traced stack runs the same program as the
// factory-built one, then runs the factory path untraced (for the tracing
// overhead) and the traced stack under the benchmark's own closed loop, and
// reports the per-layer metrics.  The last line of standard output is a JSON
// summary; see report.h.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/latency_model.h"
#include "common/properties.h"
#include "common/retry_policy.h"
#include "common/sync.h"
#include "core/core_workload.h"
#include "core/runner.h"
#include "core/workload_factory.h"
#include "db/db_factory.h"
#include "db/field_codec.h"
#include "db/kvstore_db.h"
#include "report.h"
#include "trace.h"
#include "traced_stack.h"

namespace perfbench {
namespace {

using ycsbt::Properties;
using ycsbt::Status;
namespace core = ycsbt::core;
namespace txn = ycsbt::txn;

/// Span buffer size across all client threads of a traced run.
constexpr size_t kSpanCapacity = 400'000;
/// Set-ups per end-to-end run; setup_s is their median.  The count is fixed
/// because the measured stack is the last one built: a count that varied
/// with timing would vary its heap layout, which moved ycsb_b_2pl's
/// throughput by 10% between runs.
constexpr int kSetups = 9;

struct Args {
  std::string workload_file;
  std::string tmp_dir;
  std::string spans_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Rounds of the measured run (see MeasuredRun); 0 = one per second.
  int rounds = 0;
  uint64_t sample_every = 1;
  uint64_t check_ops = 1000;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload-file") {
      args->workload_file = value;
    } else if (flag == "--tmp-dir") {
      args->tmp_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--sample-every") {
      args->sample_every = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--check-ops") {
      args->check_ops = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--rounds") {
      args->rounds = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload_file.empty() && !args->tmp_dir.empty() && have_seed &&
         have_trace && args->seconds > 0.0 && args->sample_every > 0 &&
         args->check_ops > 0 && args->rounds >= 0;
}

/// A fresh directory for one stack's WAL, removed with its contents when the
/// object dies.  Declare it before the store that writes into it.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::string pattern = parent + "/wal-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Points a WAL-backed workload's `memkv.wal_path` (a bare file name in the
/// workload file) into a fresh scratch directory.
Status PlaceWal(const std::string& tmp_dir, Properties* props,
                std::unique_ptr<ScratchDir>* dir) {
  if (!props->Contains("memkv.wal_path")) return Status::OK();
  *dir = std::make_unique<ScratchDir>(tmp_dir);
  if ((*dir)->path().empty()) return Status::IOError("cannot create a WAL directory");
  props->Set("memkv.wal_path", (*dir)->path() + "/" + props->Get("memkv.wal_path"));
  return Status::OK();
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// FNV-1a over every committed key and value in key order: the table's
/// final contents (CEW: every account balance) as one number.
Status TableDigest(txn::TransactionalKV* kv, uint64_t* digest, uint64_t* rows) {
  constexpr size_t kPage = 1024;
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xFF) * 1099511628211ull;
  };
  *rows = 0;
  std::string start;
  std::vector<txn::TxScanEntry> page;
  for (;;) {
    Status s = kv->ScanCommitted(start, kPage, &page);
    if (!s.ok()) return s;
    for (const auto& entry : page) {
      mix(entry.key);
      mix(entry.value);
      ++*rows;
    }
    if (page.size() < kPage) break;
    start = page.back().key + '\0';
  }
  *digest = h;
  return Status::OK();
}

/// Data-integrity errors a YCSB core workload detected on its reads.
uint64_t IntegrityErrors(core::Workload* workload) {
  auto* cw = dynamic_cast<core::CoreWorkload*>(workload);
  return cw == nullptr ? 0 : cw->data_integrity_errors();
}

// ---------------------------------------------------------------------------
// The public driver path: DBFactory + WorkloadRunner.

struct FactorySetup {
  std::unique_ptr<ScratchDir> dir;  // outlives the factory's WAL
  std::unique_ptr<ycsbt::DBFactory> factory;
  std::unique_ptr<core::Workload> workload;
  std::unique_ptr<ycsbt::Measurements> measurements;
  std::unique_ptr<core::WorkloadRunner> runner;
};

/// Factory `Init` plus the load phase the workload's properties select.
Status SetUpFactory(const Properties& base, const std::string& tmp_dir,
                    FactorySetup* out) {
  Properties props = base;
  Status s = PlaceWal(tmp_dir, &props, &out->dir);
  if (!s.ok()) return s;
  out->factory = std::make_unique<ycsbt::DBFactory>(props);
  s = out->factory->Init();
  if (!s.ok()) return s;
  s = core::CreateWorkload(props, &out->workload);
  if (!s.ok()) return s;
  out->measurements = std::make_unique<ycsbt::Measurements>();
  out->runner = std::make_unique<core::WorkloadRunner>(
      out->factory.get(), out->workload.get(), out->measurements.get());
  core::LoadOptions load;
  int threads = static_cast<int>(props.GetInt("threads", 1));
  load.threads = static_cast<int>(props.GetInt("loadthreads", threads));
  load.wrap_in_transactions = props.GetBool("loadwrapped", false);
  load.bulk_batch = props.GetUint("bulkload.batch", 0);
  return out->runner->Load(load);
}

core::RunOptions MakeRunOptions(const Properties& props, int threads,
                                uint64_t operations, double seconds) {
  core::RunOptions run;
  run.threads = threads;
  run.operation_count = operations;
  run.max_execution_seconds = seconds;
  run.retry = ycsbt::RetryPolicy::FromProperties(props);
  return run;
}

const ycsbt::OpStats* FindOp(const core::RunResult& result, const std::string& name) {
  for (const auto& op : result.op_stats) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

/// Runs the validation stage and checks its verdict: CEW must conserve money
/// exactly, YCSB reads must pass the data-integrity check.
void CheckValidation(const std::string& what, core::Workload* workload,
                     const core::ValidationResult& v, Report* report) {
  if (v.performed) {
    report->Check(what + ": CEW validation passed with anomaly score 0",
                  v.passed && v.anomaly_score == 0.0,
                  "anomaly score " + std::to_string(v.anomaly_score));
  }
  report->Check(what + ": no data-integrity errors", IntegrityErrors(workload) == 0,
                std::to_string(IntegrityErrors(workload)) + " errors");
}

/// The measured run phase, as `rounds` back-to-back `WorkloadRunner::Run`
/// calls on one loaded stack.  Each round starts fresh client threads, so
/// the per-round medians absorb an unlucky thread placement; the threads
/// also replay their operation streams from the seed, so a workload that
/// runs few transactions a second measures in one round.
struct MeasuredRun {
  core::RunResult last;  // its op_stats cover every round
  uint64_t operations = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t backoff_us = 0;
  double runtime_s = 0.0;
  // Per round:
  std::vector<double> tps;            // committed transactions per wall second
  std::vector<double> unstolen_tps;   // ... per unstolen second (UnstolenSeconds)
  std::vector<double> cpu_us_per_tx;  // process CPU per committed transaction
};

/// Per set-up: wall seconds, and CPU seconds of the process.  A set-up is
/// too short for the 10 ms steal counter to correct its wall time, so the
/// gated setup_s is its CPU time, which excludes steal.
struct SetupTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
};

/// `wall` seconds minus the share of `stolen` seconds that fell on `busy`
/// threads, when the hypervisor took the CPU away while they were runnable.
/// On a shared host steal comes and goes within minutes and slows CPU-bound
/// runs by up to half; idle vCPUs accrue none, so a process whose `busy`
/// threads are the only runnable ones lost about `stolen / busy` seconds
/// each.  Floored at a tenth of `wall` against steal charged to other
/// processes.
double UnstolenSeconds(double wall, double stolen, int busy) {
  return std::max(wall - stolen / std::max(busy, 1), 0.1 * wall);
}

/// Set up `setups` times (keeping the last stack), run for `seconds` in
/// `rounds` rounds, validate.
Status MeasureFactoryPath(const Properties& props, const Args& args, int setups,
                          int rounds, Report* report, MeasuredRun* out,
                          SetupTimes* setup_times) {
  std::unique_ptr<FactorySetup> setup;
  for (int i = 0; i < setups; ++i) {
    setup.reset();  // the previous stack goes before its WAL directory
    setup = std::make_unique<FactorySetup>();
    Usage before = Usage::Now();
    ycsbt::Stopwatch watch;
    Status s = SetUpFactory(props, args.tmp_dir, setup.get());
    if (!s.ok()) return s;
    setup_times->wall.push_back(watch.ElapsedSeconds());
    Usage used = Usage::Now().Since(before);
    setup_times->cpu.push_back(used.user_s + used.sys_s);
  }
  int threads = static_cast<int>(props.GetInt("threads", 1));
  for (int r = 0; r < rounds; ++r) {
    core::RunResult& result = out->last;
    Usage before = Usage::Now();
    double stolen_before = StolenSeconds();
    Status s = setup->runner->Run(
        MakeRunOptions(props, threads, 0, args.seconds / rounds), &result);
    double stolen = StolenSeconds() - stolen_before;
    Usage used = Usage::Now().Since(before);
    if (!s.ok()) return s;
    double runtime = result.runtime_ms / 1000.0;
    double committed = static_cast<double>(result.committed);
    out->operations += result.operations;
    out->committed += result.committed;
    out->failed += result.failed;
    out->retries += result.retries;
    out->backoff_us += result.backoff_time_us;
    out->runtime_s += runtime;
    out->tps.push_back(Ratio(committed, runtime));
    out->unstolen_tps.push_back(
        Ratio(committed, UnstolenSeconds(runtime, stolen, threads)));
    out->cpu_us_per_tx.push_back(Ratio((used.user_s + used.sys_s) * 1e6, committed));
  }
  core::ValidationResult v;
  Status s = setup->runner->Validate(out->operations, &v);
  if (!s.ok()) return s;
  CheckValidation("factory run", setup->workload.get(), v, report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The traced stack and the benchmark's own closed loop.

struct TracedSetup {
  std::unique_ptr<ScratchDir> dir;  // outlives the stack's WAL
  std::unique_ptr<TracedStack> stack;
  std::unique_ptr<core::Workload> workload;
  std::string wal_path;
};

/// The runner's sorted bulk-load path, for one load thread: the same
/// records, sorted by engine key, ingested in `batch`-record frames.
Status BulkLoad(TracedSetup* setup, uint64_t batch) {
  core::Workload* workload = setup->workload.get();
  auto state = workload->InitThread(0, 1);
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(workload->record_count());
  core::Workload::LoadRecord record;
  for (uint64_t i = 0; i < workload->record_count(); ++i) {
    if (!workload->BuildNextInsert(state.get(), &record)) {
      return Status::NotSupported("workload has no data-form load stream");
    }
    std::string value = ycsbt::EncodeFields(record.values);
    txn::ClientTxnStore* ctx = setup->stack->client_txn();
    records.emplace_back(ycsbt::KvStoreDB::ComposeKey(record.table, record.key),
                         ctx != nullptr ? ctx->EncodeLoadValue(value) : value);
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    if (w > 0 && records[w - 1].first == records[r].first) {
      records[w - 1] = std::move(records[r]);
    } else {
      if (w != r) records[w] = std::move(records[r]);
      ++w;
    }
  }
  records.resize(w);
  for (size_t off = 0; off < records.size(); off += batch) {
    size_t len = std::min<size_t>(batch, records.size() - off);
    std::vector<std::pair<std::string, std::string>> frame(
        std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(off)),
        std::make_move_iterator(records.begin() + static_cast<ptrdiff_t>(off + len)));
    Status s = setup->stack->engine()->BulkLoad(frame);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SetUpTraced(const Properties& base, const std::string& tmp_dir,
                   TracedSetup* out) {
  Properties props = base;
  Status s = PlaceWal(tmp_dir, &props, &out->dir);
  if (!s.ok()) return s;
  out->wal_path = props.Get("memkv.wal_path", "");
  s = TracedStack::Build(props, &out->stack);
  if (!s.ok()) return s;
  s = core::CreateWorkload(props, &out->workload);
  if (!s.ok()) return s;
  if (props.GetInt("loadthreads", 1) != 1) {
    return Status::InvalidArgument("the benchmark loads with loadthreads=1");
  }
  uint64_t batch = props.GetUint("bulkload.batch", 0);
  if (batch > 0 && out->stack->engine() != nullptr) {
    s = BulkLoad(out, batch);
    if (!s.IsNotSupported()) return s;
  }
  auto db = out->stack->CreateClient();
  s = db->Init();
  if (!s.ok()) return s;
  auto state = out->workload->InitThread(0, 1);
  for (uint64_t i = 0; i < out->workload->record_count(); ++i) {
    if (!out->workload->DoInsert(*db, state.get())) return Status::Internal("insert failed");
  }
  return db->Cleanup();
}

struct LoopTotals {
  uint64_t ops = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t giveups = 0;
  uint64_t backoff_us = 0;
  double runtime_s = 0.0;
};

/// The YCSB+T client protocol (Start, DoTransaction, Commit or Abort, retry
/// through `RetryPolicy`) on `threads` closed-loop clients of the traced
/// stack.  Stops after `operations` transactions in total, or after
/// `seconds` when `operations` is 0.  One transaction in `sample_every` is
/// traced span by span; every call is counted.
Status RunClosedLoop(const TracedSetup& setup, const Properties& props, int threads,
                     uint64_t operations, double seconds, uint64_t sample_every,
                     Tracer* tracer, LoopTotals* out) {
  core::Workload* workload = setup.workload.get();
  const ycsbt::RetryPolicy retry = ycsbt::RetryPolicy::FromProperties(props);
  std::vector<LoopTotals> totals(static_cast<size_t>(threads));
  std::vector<Status> errors(static_cast<size_t>(threads));
  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  ycsbt::CountDownLatch gate(1);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoopTotals& mine = totals[static_cast<size_t>(t)];
      auto db = setup.stack->CreateClient();
      Status init = db->Init();
      gate.Wait();
      if (!init.ok()) {
        errors[static_cast<size_t>(t)] = init;
        finished.fetch_add(1);
        return;
      }
      ThreadTrace* trace = tracer->Attach(threads);
      auto state = workload->InitThread(t, threads);
      ycsbt::Random64 backoff_rng(workload->base_seed() ^ 0xBACC0FFull ^
                                  (static_cast<uint64_t>(t) << 32));
      uint64_t quota = std::numeric_limits<uint64_t>::max();
      if (operations != 0) {
        quota = operations / static_cast<uint64_t>(threads) +
                (static_cast<uint64_t>(t) < operations % static_cast<uint64_t>(threads));
      }
      while (mine.ops < quota && !stop.load(std::memory_order_relaxed)) {
        trace->BeginTx(mine.ops % sample_every == 0);
        ycsbt::Stopwatch watch;
        ycsbt::RetryState backoff(retry);
        core::TxnOpResult op;
        bool committed = false;
        for (int attempt = 1;; ++attempt) {
          db->Start();
          op = workload->DoTransaction(*db, state.get());
          Status cs = op.ok ? db->Commit() : db->Abort();
          committed = op.ok && cs.ok();
          if (committed) break;
          Status failure = op.ok ? cs : Status::Aborted("workload operation failed");
          if (!failure.IsRetryable() || backoff.Exhausted(attempt, watch.ElapsedMicros())) {
            if (retry.enabled()) ++mine.giveups;
            break;
          }
          workload->OnTransactionRetry(state.get(), op);
          uint64_t pause_us = backoff.NextBackoffUs(backoff_rng, failure);
          ++mine.retries;
          mine.backoff_us += pause_us;
          ycsbt::SleepMicros(pause_us);
        }
        workload->OnTransactionOutcome(state.get(), op, committed);
        trace->EndTx();
        ++mine.ops;
        ++(committed ? mine.committed : mine.failed);
      }
      Tracer::Detach();
      errors[static_cast<size_t>(t)] = db->Cleanup();
      finished.fetch_add(1);
    });
  }
  ycsbt::Stopwatch watch;
  gate.CountDown();
  while (finished.load() < threads) {
    ycsbt::SleepMicros(2000);
    if (operations == 0 && watch.ElapsedSeconds() >= seconds) stop.store(true);
  }
  for (auto& th : pool) th.join();
  out->runtime_s = watch.ElapsedSeconds();
  for (const auto& t : totals) {
    out->ops += t.ops;
    out->committed += t.committed;
    out->failed += t.failed;
    out->retries += t.retries;
    out->giveups += t.giveups;
    out->backoff_us += t.backoff_us;
  }
  for (const auto& s : errors) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

txn::TxnStats TxnStatsOf(txn::TransactionalKV* kv) {
  if (auto* c = dynamic_cast<txn::ClientTxnStore*>(kv)) return c->stats();
  if (auto* l = dynamic_cast<txn::Local2PLStore*>(kv)) return l->stats();
  return txn::TxnStats{};
}

// ---------------------------------------------------------------------------
// Same-program check: one client, a fixed operation count, the same seed,
// once through DBFactory and once through the traced stack.

struct ProgramCounts {
  uint64_t cloud_requests = 0;
  uint64_t wal_appends = 0;
  uint64_t occ_commits = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
  uint64_t digest = 0;
  uint64_t rows = 0;
};

Status CheckSameProgram(const Properties& base, const Args& args, Report* report) {
  Properties props = base;
  props.Set("threads", "1");
  ProgramCounts fc, tc;

  {
    FactorySetup setup;
    Status s = SetUpFactory(props, args.tmp_dir, &setup);
    if (!s.ok()) return s;
    ycsbt::DBFactory* f = setup.factory.get();
    uint64_t cloud_before = f->cloud_store() ? f->cloud_store()->stats().requests : 0;
    uint64_t occ_before = f->occ_engine() ? f->occ_engine()->stats().commits : 0;
    txn::TxnStats txn_before = TxnStatsOf(f->txn_kv().get());
    core::RunResult result;
    s = setup.runner->Run(MakeRunOptions(props, 1, args.check_ops, 0.0), &result);
    if (!s.ok()) return s;
    txn::TxnStats txn_after = TxnStatsOf(f->txn_kv().get());
    fc.cloud_requests = f->cloud_store() ? f->cloud_store()->stats().requests - cloud_before : 0;
    fc.wal_appends = result.wal_appends;
    fc.occ_commits = f->occ_engine() ? f->occ_engine()->stats().commits - occ_before : 0;
    fc.txn_commits = txn_after.commits - txn_before.commits;
    fc.txn_aborts = txn_after.aborts - txn_before.aborts;
    s = TableDigest(f->txn_kv().get(), &fc.digest, &fc.rows);
    if (!s.ok()) return s;
  }
  {
    TracedSetup setup;
    Status s = SetUpTraced(props, args.tmp_dir, &setup);
    if (!s.ok()) return s;
    TracedStack* st = setup.stack.get();
    if (st->engine() != nullptr && st->engine()->wal_enabled()) st->engine()->DrainWalStats();
    uint64_t cloud_before = st->cloud() ? st->cloud()->stats().requests : 0;
    uint64_t occ_before = st->occ() ? st->occ()->stats().commits : 0;
    txn::TxnStats txn_before = TxnStatsOf(st->txn_kv());
    Tracer tracer(1 << 16);
    LoopTotals totals;
    s = RunClosedLoop(setup, props, 1, args.check_ops, 0.0, 1, &tracer, &totals);
    if (!s.ok()) return s;
    txn::TxnStats txn_after = TxnStatsOf(st->txn_kv());
    tc.cloud_requests = st->cloud() ? st->cloud()->stats().requests - cloud_before : 0;
    if (st->engine() != nullptr && st->engine()->wal_enabled()) {
      tc.wal_appends = st->engine()->DrainWalStats().appends;
    }
    tc.occ_commits = st->occ() ? st->occ()->stats().commits - occ_before : 0;
    tc.txn_commits = txn_after.commits - txn_before.commits;
    tc.txn_aborts = txn_after.aborts - txn_before.aborts;
    s = TableDigest(st->txn_kv(), &tc.digest, &tc.rows);
    if (!s.ok()) return s;
  }

  auto same = [&](const char* what, uint64_t f, uint64_t t) {
    report->Check(std::string("same program: ") + what, f == t,
                  "factory " + std::to_string(f) + ", traced " + std::to_string(t));
  };
  same("cloud requests", fc.cloud_requests, tc.cloud_requests);
  same("WAL appends", fc.wal_appends, tc.wal_appends);
  same("OCC commits", fc.occ_commits, tc.occ_commits);
  same("txn commits", fc.txn_commits, tc.txn_commits);
  same("txn aborts", fc.txn_aborts, tc.txn_aborts);
  same("final table rows", fc.rows, tc.rows);
  same("final table digest (CEW: every balance)", fc.digest, tc.digest);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Span analysis.

/// Per (layer, op): span count, self and total time in ns.
struct OpAgg {
  uint64_t n = 0;
  uint64_t self_sum = 0;
  ycsbt::Histogram self;
  ycsbt::Histogram total;

  void Merge(const OpAgg& o) {
    n += o.n;
    self_sum += o.self_sum;
    self.Merge(o.self);
    total.Merge(o.total);
  }
};

struct SpanSummary {
  OpAgg ops[kLayerCount][kOpCount];
  uint64_t layer_self[kLayerCount] = {};
  uint64_t layer_spans[kLayerCount] = {};
  /// `Transaction::Commit` spans with store calls below them.
  OpAgg writing_commits;
  uint64_t txs = 0;
  uint64_t tx_total = 0;
  uint64_t bad_spans = 0;  // open, or not inside their parent

  OpAgg Get(Layer l, Op o) const { return ops[static_cast<size_t>(l)][static_cast<size_t>(o)]; }
  OpAgg Get(Layer l, Op a, Op b) const {
    OpAgg agg = Get(l, a);
    agg.Merge(Get(l, b));
    return agg;
  }
};

SpanSummary Summarize(const Tracer& tracer) {
  SpanSummary sum;
  for (const auto& thread : tracer.threads()) {
    const std::vector<Span>& spans = thread->spans();
    std::vector<uint64_t> child(spans.size(), 0);
    std::vector<bool> has_store_child(spans.size(), false);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) {
        ++sum.bad_spans;
        continue;
      }
      if (s.parent != Span::kNoParent) {
        const Span& p = spans[s.parent];
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.txn != p.txn) ++sum.bad_spans;
        child[s.parent] += s.end_ns - s.start_ns;
        if (s.layer == Layer::kCloud || s.layer == Layer::kKv) has_store_child[s.parent] = true;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;
      uint64_t total = s.end_ns - s.start_ns;
      if (child[i] > total) {
        ++sum.bad_spans;
        continue;
      }
      uint64_t self = total - child[i];
      auto l = static_cast<size_t>(s.layer);
      OpAgg& agg = sum.ops[l][static_cast<size_t>(s.op)];
      ++agg.n;
      agg.self_sum += self;
      agg.self.Add(static_cast<int64_t>(self));
      agg.total.Add(static_cast<int64_t>(total));
      sum.layer_self[l] += self;
      ++sum.layer_spans[l];
      if (s.layer == Layer::kTxn && s.op == Op::kCommit && has_store_child[i]) {
        ++sum.writing_commits.n;
        sum.writing_commits.self_sum += self;
        sum.writing_commits.self.Add(static_cast<int64_t>(self));
        sum.writing_commits.total.Add(static_cast<int64_t>(total));
      }
      if (s.parent == Span::kNoParent) {
        ++sum.txs;
        sum.tx_total += total;
      }
    }
  }
  return sum;
}

double Mean(const OpAgg& a) { return Ratio(static_cast<double>(a.self_sum), static_cast<double>(a.n)); }
double SelfP(const OpAgg& a, double q) { return static_cast<double>(a.self.ValueAtQuantile(q)); }
double TotalP(const OpAgg& a, double q) { return static_cast<double>(a.total.ValueAtQuantile(q)); }

// ---------------------------------------------------------------------------
// The two modes.

int RunEndToEnd(const Properties& props, const Args& args, Report* report) {
  std::printf("end-to-end run (DBFactory + WorkloadRunner, untraced)\n");
  MeasuredRun run;
  SetupTimes setups;
  int rounds = args.rounds > 0 ? args.rounds : std::max(1, static_cast<int>(args.seconds));
  Status s = MeasureFactoryPath(props, args, kSetups, rounds, report, &run, &setups);
  if (!s.ok()) {
    report->Check("factory path ran", false, s.ToString());
    report->PrintJson(1, 1);
    return 1;
  }
  report->Note("set-ups " + std::to_string(setups.wall.size()) + ", rounds " +
               std::to_string(run.tps.size()) + ", transactions " +
               std::to_string(run.operations) + ", committed " +
               std::to_string(run.committed) + ", failed or gave up " +
               std::to_string(run.failed) + ", retries " + std::to_string(run.retries) +
               ", runtime " + std::to_string(run.runtime_s) + " s");
  std::string by_round = "committed/s by round (wall, unstolen):";
  for (size_t r = 0; r < run.tps.size(); ++r) {
    by_round += " " + std::to_string(static_cast<int64_t>(run.tps[r])) + "/" +
                std::to_string(static_cast<int64_t>(run.unstolen_tps[r]));
  }
  report->Note(by_round);
  // Gated: throughput over the seconds the host did not steal (see
  // UnstolenSeconds) and set-up CPU time; wall-clock figures are printed beside.
  report->Metric("throughput_tps", Median(run.tps), "1/s");
  report->Metric("throughput_unstolen_tps", Median(run.unstolen_tps), "1/s");
  report->Metric("failed_ratio",
                 Ratio(static_cast<double>(run.failed), static_cast<double>(run.operations)),
                 "ratio");
  report->Metric("cpu_us_per_tx", Median(run.cpu_us_per_tx), "us");
  report->Metric("setup_wall_s", Median(setups.wall), "s");
  report->Metric("setup_s", Median(setups.cpu), "s");
  report->Metric("peak_rss_mb", Usage::Now().max_rss_mb, "MB");
  const char* write_op = props.Get("workload") == "closed_economy" ? "TX-READMODIFYWRITE"
                                                                   : "TX-UPDATE";
  for (const auto& [prefix, op_name] :
       {std::pair<std::string, std::string>{"write_tx", write_op}, {"read_tx", "TX-READ"}}) {
    const ycsbt::OpStats* op = FindOp(run.last, op_name);
    uint64_t n = op == nullptr ? 0 : op->operations;
    report->Note(op_name + " samples " + std::to_string(n));
    report->Metric(prefix + "_p50_us", op == nullptr ? 0.0 : op->p50_latency_us, "us");
    report->Metric(prefix + "_p99_us", op == nullptr ? 0.0 : op->p99_latency_us, "us");
  }
  report->PrintJson(run.operations, run.failed);
  return report->correct() ? 0 : 1;
}

int RunTraced(const Properties& props, const Args& args, Report* report) {
  auto fail = [&](const std::string& what, const Status& s) {
    report->Check(what, false, s.ToString());
    report->PrintJson(1, 1);
    return 1;
  };
  std::printf("same-program check (1 client, %llu transactions)\n",
              static_cast<unsigned long long>(args.check_ops));
  Status s = CheckSameProgram(props, args, report);
  if (!s.ok()) return fail("same-program check ran", s);

  std::printf("untraced reference run (DBFactory + WorkloadRunner)\n");
  MeasuredRun untraced;
  SetupTimes setups;
  s = MeasureFactoryPath(props, args, 1, 1, report, &untraced, &setups);
  if (!s.ok()) return fail("untraced run ran", s);

  std::printf("traced run (hand-built stack, 1 transaction in %llu traced)\n",
              static_cast<unsigned long long>(args.sample_every));
  int threads = static_cast<int>(props.GetInt("threads", 1));
  TracedSetup setup;
  s = SetUpTraced(props, args.tmp_dir, &setup);
  if (!s.ok()) return fail("traced setup ran", s);
  TracedStack* st = setup.stack.get();
  bool wal = st->engine() != nullptr && st->engine()->wal_enabled();
  if (wal) st->engine()->DrainWalStats();
  uint64_t wal_bytes_before = wal ? FileBytes(setup.wal_path) : 0;
  ycsbt::cloud::CloudStats cloud_before = st->cloud() ? st->cloud()->stats()
                                                      : ycsbt::cloud::CloudStats{};
  txn::OccStats occ_before = st->occ() ? st->occ()->stats() : txn::OccStats{};
  txn::TxnStats txn_before = TxnStatsOf(st->txn_kv());
  Tracer tracer(kSpanCapacity);
  LoopTotals loop;
  Usage usage_before = Usage::Now();
  double stolen_before = StolenSeconds();
  s = RunClosedLoop(setup, props, threads, 0, args.seconds, args.sample_every, &tracer,
                    &loop);
  double stolen = StolenSeconds() - stolen_before;
  Usage usage = Usage::Now().Since(usage_before);
  if (!s.ok()) return fail("traced run ran", s);
  ycsbt::kv::WalStats wal_stats;
  if (wal) wal_stats = st->engine()->DrainWalStats();
  uint64_t wal_bytes = wal ? FileBytes(setup.wal_path) - wal_bytes_before : 0;
  ycsbt::cloud::CloudStats cloud = st->cloud() ? st->cloud()->stats()
                                               : ycsbt::cloud::CloudStats{};
  txn::OccStats occ = st->occ() ? st->occ()->stats() : txn::OccStats{};
  txn::TxnStats tx = TxnStatsOf(st->txn_kv());
  {
    auto db = st->CreateClient();
    core::ValidationResult v;
    s = db->Init();
    if (s.ok()) s = setup.workload->Validate(*db, loop.ops, &v);
    if (!s.ok()) return fail("traced validation ran", s);
    CheckValidation("traced run", setup.workload.get(), v, report);
  }

  Counters counters;
  uint64_t user_bytes = 0, skipped = 0;
  for (const auto& t : tracer.threads()) {
    counters.Add(t->counters());
    user_bytes += t->user_bytes();
    skipped += t->skipped_samples();
  }
  SpanSummary sum = Summarize(tracer);
  uint64_t self_total = 0, span_count = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    self_total += sum.layer_self[l];
    span_count += sum.layer_spans[l];
  }
  report->Note("transactions " + std::to_string(loop.ops) + ", committed " +
               std::to_string(loop.committed) + ", traced " + std::to_string(sum.txs) +
               ", spans " + std::to_string(span_count) +
               ", samples skipped on a full buffer " + std::to_string(skipped));
  report->Check("every span closed and nested in its parent", sum.bad_spans == 0,
                std::to_string(sum.bad_spans) + " bad spans");
  report->Check("layer self times add up to the transaction spans",
                sum.txs > 0 && self_total == sum.tx_total,
                std::to_string(self_total) + " ns vs " + std::to_string(sum.tx_total) + " ns");
  if (!args.spans_out.empty() && !tracer.WriteCsv(args.spans_out)) {
    report->Check("spans written", false, args.spans_out);
  }

  const double ops = static_cast<double>(loop.ops);
  const double txs = static_cast<double>(sum.txs);
  auto L = [](Layer l) { return static_cast<size_t>(l); };
  auto M = [&](const std::string& n, double v, const char* u) { report->Metric(n, v, u); };

  // core
  M("core.self_ns_per_tx", Ratio(static_cast<double>(sum.layer_self[L(Layer::kCore)]), txs), "ns");
  M("core.retries_per_ktx", Ratio(1000.0 * static_cast<double>(loop.retries), ops), "count/ktx");
  M("core.backoff_share",
    Ratio(static_cast<double>(untraced.backoff_us), threads * untraced.runtime_s * 1e6),
    "ratio");
  M("core.giveups", static_cast<double>(loop.giveups), "count");
  // db
  M("db.calls_per_tx", Ratio(static_cast<double>(counters.Calls(Layer::kDb)), ops), "count/tx");
  M("db.self_ns_per_call",
    Ratio(static_cast<double>(sum.layer_self[L(Layer::kDb)]),
          static_cast<double>(sum.layer_spans[L(Layer::kDb)])),
    "ns");
  // Per-layer self time per traced transaction; with core.self_ns_per_tx
  // these add up to trace.tx_ns.
  for (Layer l : {Layer::kDb, Layer::kTxn, Layer::kCloud, Layer::kKv}) {
    M(std::string(LayerName(l)) + ".self_ns_per_tx",
      Ratio(static_cast<double>(sum.layer_self[L(l)]), txs), "ns");
  }
  M("trace.tx_ns", Ratio(static_cast<double>(sum.tx_total), txs), "ns");

  // txn.client: the client-coordinated library (zero on other substrates).
  // Commit figures cover writing commits only: a read-only commit makes no
  // store call.
  bool client = st->client_txn() != nullptr;
  const OpAgg& wcommit = sum.writing_commits;
  OpAgg read = sum.Get(Layer::kTxn, Op::kRead);
  report->Note("writing commits traced " + std::to_string(wcommit.n) + ", counted " +
               std::to_string(counters.writing_commits));
  M("txn.client.commit_us.p50", client ? TotalP(wcommit, 0.5) / 1000.0 : 0.0, "us");
  M("txn.client.commit_us.p99", client ? TotalP(wcommit, 0.99) / 1000.0 : 0.0, "us");
  M("txn.client.read_us.p50", client ? TotalP(read, 0.5) / 1000.0 : 0.0, "us");
  Layer top = st->cloud() != nullptr ? Layer::kCloud : Layer::kKv;
  double commits = static_cast<double>(counters.writing_commits);
  auto in_commit = [&](Op o) {
    return static_cast<double>(counters.in_commit[L(top)][static_cast<size_t>(o)]);
  };
  const std::pair<const char*, double> per_commit[] = {
      {"get", in_commit(Op::kGet)},
      {"multiget", in_commit(Op::kMultiGet)},
      {"condput", in_commit(Op::kCondPut)},
      {"put", in_commit(Op::kPut)},
      {"delete", in_commit(Op::kDelete) + in_commit(Op::kCondDelete)},
      {"multiwrite", in_commit(Op::kMultiWrite)},
      {"tsr", static_cast<double>(counters.tsr_in_commit[L(top)])},
  };
  for (const auto& [kind, calls] : per_commit) {
    M(std::string("txn.client.store_calls_per_commit.") + kind,
      client ? Ratio(calls, commits) : 0.0, "count/commit");
  }
  M("txn.client.self_ns_per_commit", client ? Mean(wcommit) : 0.0, "ns");
  txn::TxnStats d;
  d.conflicts = tx.conflicts - txn_before.conflicts;
  d.lock_busy = tx.lock_busy - txn_before.lock_busy;
  d.roll_forwards = tx.roll_forwards - txn_before.roll_forwards;
  d.roll_backs = tx.roll_backs - txn_before.roll_backs;
  d.validation_fails = tx.validation_fails - txn_before.validation_fails;
  M("txn.client.conflicts", client ? static_cast<double>(d.conflicts) : 0.0, "count");
  M("txn.client.lock_busy", client ? static_cast<double>(d.lock_busy) : 0.0, "count");
  M("txn.client.roll_forwards", static_cast<double>(d.roll_forwards), "count");
  M("txn.client.roll_backs", static_cast<double>(d.roll_backs), "count");
  M("txn.client.validation_fails", static_cast<double>(d.validation_fails), "count");

  // txn.occ: the embedded OCC engine (no children, so span = self).
  bool occ_on = st->occ() != nullptr;
  for (const auto& [name, op] : {std::pair<const char*, Op>{"read", Op::kRead},
                                 {"multiread", Op::kMultiRead},
                                 {"write", Op::kWrite},
                                 {"commit", Op::kCommit}}) {
    OpAgg a = sum.Get(Layer::kTxn, op);
    M(std::string("txn.occ.") + name + "_ns.mean", occ_on ? Mean(a) : 0.0, "ns");
    M(std::string("txn.occ.") + name + "_ns.p99", occ_on ? SelfP(a, 0.99) : 0.0, "ns");
  }
  uint64_t occ_commits = occ.commits - occ_before.commits;
  uint64_t occ_vfails = occ.validation_fails - occ_before.validation_fails;
  M("txn.occ.validation_fail_ratio",
    Ratio(static_cast<double>(occ_vfails), static_cast<double>(occ_commits + occ_vfails)),
    "ratio");
  M("txn.occ.versions_retired_per_commit",
    Ratio(static_cast<double>(occ.versions_retired - occ_before.versions_retired),
          static_cast<double>(occ_commits)),
    "count/commit");
  M("txn.occ.unfreed_versions", static_cast<double>(occ.versions_retired - occ.versions_freed),
    "count");

  // txn.2pl: the strict-2PL engine; its self time is the lock manager's.
  bool two_pl = st->local_2pl() != nullptr;
  M("txn.2pl.read_self_ns", two_pl ? Mean(read) : 0.0, "ns");
  M("txn.2pl.write_self_ns", two_pl ? Mean(sum.Get(Layer::kTxn, Op::kWrite)) : 0.0, "ns");
  M("txn.2pl.commit_self_ns", two_pl ? Mean(sum.Get(Layer::kTxn, Op::kCommit)) : 0.0, "ns");
  M("txn.2pl.lock_timeouts_per_ktx",
    two_pl ? Ratio(1000.0 * static_cast<double>(d.lock_busy), ops) : 0.0, "count/ktx");

  // cloud: the simulated store; self time excludes the backing engine call.
  M("cloud.requests_per_tx",
    Ratio(static_cast<double>(cloud.requests - cloud_before.requests), ops), "count/tx");
  const std::pair<const char*, OpAgg> cloud_ops[] = {
      {"get", sum.Get(Layer::kCloud, Op::kGet)},
      {"condput", sum.Get(Layer::kCloud, Op::kCondPut)},
      {"put", sum.Get(Layer::kCloud, Op::kPut)},
      {"delete", sum.Get(Layer::kCloud, Op::kDelete, Op::kCondDelete)},
      {"multiget", sum.Get(Layer::kCloud, Op::kMultiGet)},
      {"multiwrite", sum.Get(Layer::kCloud, Op::kMultiWrite)},
  };
  for (const auto& [kind, a] : cloud_ops) {
    M(std::string("cloud.") + kind + "_us.p50", SelfP(a, 0.5) / 1000.0, "us");
    M(std::string("cloud.") + kind + "_us.p99", SelfP(a, 0.99) / 1000.0, "us");
  }
  M("cloud.throttled", static_cast<double>(cloud.throttled - cloud_before.throttled), "count");
  M("cloud.queue_delayed",
    static_cast<double>(cloud.queue_delayed - cloud_before.queue_delayed), "count");

  // kv: the local engine and its WAL.
  M("kv.calls_per_tx", Ratio(static_cast<double>(counters.Calls(Layer::kKv)), ops), "count/tx");
  const std::pair<const char*, OpAgg> kv_ops[] = {
      {"get", sum.Get(Layer::kKv, Op::kGet)},
      {"put", sum.Get(Layer::kKv, Op::kPut)},
      {"condput", sum.Get(Layer::kKv, Op::kCondPut)},
      {"delete", sum.Get(Layer::kKv, Op::kDelete, Op::kCondDelete)},
      {"multiget", sum.Get(Layer::kKv, Op::kMultiGet)},
      {"multiwrite", sum.Get(Layer::kKv, Op::kMultiWrite)},
  };
  for (const auto& [kind, a] : kv_ops) {
    M(std::string("kv.") + kind + "_ns.mean", Mean(a), "ns");
    M(std::string("kv.") + kind + "_ns.p99", SelfP(a, 0.99), "ns");
  }
  // No workload syncs its WAL (see cew_was.properties), so there are no
  // fdatasync figures to report.
  M("kv.wal.appends_per_tx", Ratio(static_cast<double>(wal_stats.appends), ops), "count/tx");
  M("kv.wal.avg_batch", wal_stats.batch_records.Mean(), "count");
  M("kv.wal.bytes_per_tx",
    Ratio(static_cast<double>(wal_bytes), static_cast<double>(loop.committed)), "B/tx");
  M("kv.wal.bytes_per_user_byte",
    Ratio(static_cast<double>(wal_bytes), static_cast<double>(user_bytes)), "B/B");

  // process
  M("process.cpu_user_s", usage.user_s, "s");
  M("process.cpu_sys_s", usage.sys_s, "s");
  M("process.vol_csw_per_tx", Ratio(usage.vol_csw, ops), "count/tx");
  M("process.invol_csw_per_tx", Ratio(usage.invol_csw, ops), "count/tx");

  // trace: traced over untraced committed throughput, both over unstolen time.
  double untraced_tps = Median(untraced.unstolen_tps);
  double traced_tps = Ratio(static_cast<double>(loop.committed),
                            UnstolenSeconds(loop.runtime_s, stolen, threads));
  report->Note("committed per unstolen second: untraced " + std::to_string(untraced_tps) +
               ", traced " + std::to_string(traced_tps));
  M("trace.throughput_ratio", Ratio(traced_tps, untraced_tps), "ratio");

  report->PrintJson(loop.ops, loop.failed);
  return report->correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload-file F --seed N --seconds S --trace 0|1 "
                 "--tmp-dir D [--spans-out P] [--sample-every K] [--check-ops K] "
                 "[--setup-repeats K]\n");
    return 2;
  }
  ycsbt::Properties props;
  ycsbt::Status s = props.LoadFromFile(args.workload_file);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 2;
  }
  // The program receives the seed only through the generated inputs.
  props.Set("seed", std::to_string(args.seed));
  perfbench::Report report;
  return args.trace ? perfbench::RunTraced(props, args, &report)
                    : perfbench::RunEndToEnd(props, args, &report);
}
