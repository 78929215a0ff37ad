#include "core/benchmark.h"

#include "common/clock.h"
#include "core/workload_factory.h"
#include "measurement/exporter.h"

namespace ycsbt {
namespace core {

Status RunBenchmarkWithFactory(const Properties& props, DBFactory* factory,
                               RunResult* result, std::string* report) {
  std::unique_ptr<Workload> workload;
  Status s = CreateWorkload(props, &workload);
  if (!s.ok()) return s;

  Measurements measurements;
  WorkloadRunner runner(factory, workload.get(), &measurements);

  int threads = kThreads.Get<int>(props);

  const bool load = !kSkipLoad.Get<bool>(props);
  double load_seconds = 0.0;
  if (load) {
    LoadOptions options;
    options.threads = kLoadThreads.Get<int>(props, threads);
    options.wrap_in_transactions = kLoadWrapped.Get<bool>(props);
    options.bulk_batch = kBulkLoadBatch.Get<uint64_t>(props);
    Stopwatch load_time;
    s = runner.Load(options);
    load_seconds = load_time.ElapsedSeconds();
    if (!s.ok()) return s;
  }

  uint64_t run_operations = 0;
  if (kSkipRun.Get<bool>(props)) {
    // A load-only invocation reports the load: its wall time, the records
    // it inserted and their rate.
    *result = RunResult{};
    if (load) {
      const uint64_t records = workload->record_count();
      result->runtime_ms = load_seconds * 1e3;
      result->operations = records;
      result->throughput_ops_sec =
          load_seconds > 0.0 ? static_cast<double>(records) / load_seconds : 0.0;
      result->layers.push_back({"runner", {{"LOAD RECORDS", records}}, {}});
    }
  } else {
    RunOptions run;
    run.threads = threads;
    run.operation_count = kOperationCount.Get<uint64_t>(props);
    run.max_execution_seconds = kMaxExecutionTime.Get<double>(props);
    run.target_ops_per_sec = kTarget.Get<double>(props);
    run.wrap_in_transactions = kDoTransactions.Get<bool>(props);
    run.status_interval_seconds = kStatusInterval.Get<double>(props);
    run.stall_windows = kStatusStallWindows.Get<int>(props);
    run.retry = RetryPolicy::FromProperties(props);
    run.shed = BrownoutOptions::FromProperties(props);
    s = ArrivalOptions::FromProperties(props, &run.arrival);
    if (!s.ok()) return s;
    // Faults perturb only the measured run — the load phase must populate
    // the table completely and the validation sweep must see the store as
    // it is.  (A disarmed replicated store replicates synchronously; its
    // read routing stays on, so a stale-mode validation still audits the
    // lagging view.)
    for (StatsLayer* layer : factory->stats_layers()) layer->Arm(true);
    s = runner.Run(run, result);
    for (StatsLayer* layer : factory->stats_layers()) layer->Arm(false);
    if (!s.ok()) return s;
    run_operations = result->operations;
  }

  s = runner.Validate(run_operations, &result->validation);
  if (!s.ok()) return s;
  result->op_stats = measurements.Snapshot();

  if (report != nullptr) {
    *report = TextExporter::Export(result->MakeSummary(), result->op_stats);
  }
  return Status::OK();
}

Status RunBenchmark(const Properties& props, RunResult* result,
                    std::string* report) {
  DBFactory factory(props);
  Status s = factory.Init();
  if (!s.ok()) return s;
  return RunBenchmarkWithFactory(props, &factory, result, report);
}

}  // namespace core
}  // namespace ycsbt
