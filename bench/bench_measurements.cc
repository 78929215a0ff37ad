// Measurement-pipeline microbenchmark: what does recording one sample cost,
// and how does that cost scale with client threads?
//
// Two paths, worse to better:
//   interned_shared     op names interned to OpIds up front; the sample
//                       lands in the shared series under its mutex.
//   thread_sink         the runner's path: OpIds + a per-thread ThreadSink,
//                       so a sample is pure thread-local work (merged into
//                       the shared registry only at Flush).
//
// The interesting column is per-sample time at 8+ threads: the shared path
// serialises every client through one mutex per series, the sink path is
// contention-free by construction.
//
// BM_LatencyTimer and BM_Stopwatch time the other half of a sample: the two
// clock reads around the call it measures.

#include <benchmark/benchmark.h>

#include <string>

#include "common/clock.h"
#include "measurement/measurements.h"

namespace {

using ycsbt::Measurements;
using ycsbt::OpId;
using ycsbt::Status;
using ycsbt::ThreadSink;

constexpr int kOpNames = 6;
const char* const kOps[kOpNames] = {"READ",  "UPDATE", "INSERT",
                                    "SCAN",  "COMMIT", "START"};

Measurements* g_measurements = nullptr;
OpId g_ids[kOpNames];

void SetupMeasurements(const benchmark::State&) {
  if (g_measurements != nullptr) return;  // defensive: Setup/Teardown pair up
  g_measurements = new Measurements();
  for (int i = 0; i < kOpNames; ++i) {
    g_ids[i] = g_measurements->RegisterOp(std::string("TX-") + kOps[i]);
  }
}

void TeardownMeasurements(const benchmark::State&) {
  delete g_measurements;
  g_measurements = nullptr;
}

/// Interned ids, shared series: no strings, but still one lock per sample.
void BM_InternedSharedPath(benchmark::State& state) {
  size_t i = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    g_measurements->Record(g_ids[i++ % kOpNames], 42, Status::Code::kOk);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternedSharedPath)
    ->Setup(SetupMeasurements)
    ->Teardown(TeardownMeasurements)
    ->ThreadRange(1, 16)
    ->UseRealTime();

/// The runner's path: per-thread sink, zero locks and zero allocations per
/// sample.
void BM_ThreadSinkPath(benchmark::State& state) {
  ThreadSink* sink = g_measurements->CreateSink();
  size_t i = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    sink->Record(g_ids[i++ % kOpNames], 42, Status::Code::kOk);
  }
  sink->Flush();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThreadSinkPath)
    ->Setup(SetupMeasurements)
    ->Teardown(TeardownMeasurements)
    ->ThreadRange(1, 16)
    ->UseRealTime();

/// Merge cost: what one Flush of a fully-populated sink costs the shared
/// registry (amortised over a whole run, not per sample).
void BM_SinkFlush(benchmark::State& state) {
  ThreadSink* sink = g_measurements->CreateSink();
  for (auto _ : state) {
    state.PauseTiming();
    for (int k = 0; k < kOpNames; ++k) {
      for (int s = 0; s < 1000; ++s) {
        sink->Record(g_ids[k], s, Status::Code::kOk);
      }
    }
    state.ResumeTiming();
    sink->Flush();
  }
}
BENCHMARK(BM_SinkFlush)
    ->Setup(SetupMeasurements)
    ->Teardown(TeardownMeasurements);

/// One latency sample's timing, as `MeasuredDB` and the runner take it:
/// start a timer, read its elapsed microseconds.  The TSC-backed timer
/// (when the CPU has an invariant TSC) against the steady-clock stopwatch
/// that run-level intervals keep.
void BM_LatencyTimer(benchmark::State& state) {
  for (auto _ : state) {
    ycsbt::LatencyTimer timer;
    benchmark::DoNotOptimize(timer.ElapsedMicros());
  }
  state.SetLabel(ycsbt::LatencyTimer::Source());
}
BENCHMARK(BM_LatencyTimer);

void BM_Stopwatch(benchmark::State& state) {
  for (auto _ : state) {
    ycsbt::Stopwatch watch;
    benchmark::DoNotOptimize(watch.ElapsedMicros());
  }
}
BENCHMARK(BM_Stopwatch);

}  // namespace

BENCHMARK_MAIN();
