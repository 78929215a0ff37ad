#include "core/benchmark.h"

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

  int threads = static_cast<int>(props.GetInt("threads", 1));

  if (!props.GetBool("skipload", false)) {
    LoadOptions load;
    load.threads = static_cast<int>(props.GetInt("loadthreads", threads));
    load.wrap_in_transactions = props.GetBool("loadwrapped", false);
    load.bulk_batch = props.GetUint("bulkload.batch", 0);
    s = runner.Load(load);
    if (!s.ok()) return s;
  }

  if (props.GetBool("skiprun", false)) {
    *result = RunResult{};
  } else {
    RunOptions run;
    run.threads = threads;
    run.operation_count = props.GetUint("operationcount", 1000);
    run.max_execution_seconds = props.GetDouble("maxexecutiontime", 0.0);
    run.target_ops_per_sec = props.GetDouble("target", 0.0);
    run.wrap_in_transactions = props.GetBool("dotransactions", true);
    run.status_interval_seconds = props.GetDouble("status.interval", 0.0);
    run.stall_windows = static_cast<int>(props.GetInt("status.stall_windows", 3));
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
  }

  s = runner.Validate(result->operations, &result->validation);
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
