// Microbenchmarks of the generator suite (google-benchmark): the generators
// sit on every operation's critical path, so their cost must be negligible
// next to even a local store access.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "generator/acknowledged_counter_generator.h"
#include "generator/discrete_generator.h"
#include "generator/exponential_generator.h"
#include "generator/hotspot_generator.h"
#include "generator/scrambled_zipfian_generator.h"
#include "generator/skewed_latest_generator.h"
#include "generator/uniform_generator.h"
#include "generator/zipfian_generator.h"

namespace {

using namespace ycsbt;

void BM_Random64Next(benchmark::State& state) {
  Random64 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_Random64Next);

void BM_FNVHash64(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(FNVHash64(++i));
}
BENCHMARK(BM_FNVHash64);

void BM_UniformGenerator(benchmark::State& state) {
  UniformLongGenerator gen(0, 999999);
  Random64 rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
}
BENCHMARK(BM_UniformGenerator);

void BM_ZipfianGenerator(benchmark::State& state) {
  ZipfianGenerator gen(0, static_cast<uint64_t>(state.range(0)) - 1);
  Random64 rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
}
BENCHMARK(BM_ZipfianGenerator)->Arg(1000)->Arg(100000)->Arg(10000000);

// One generator shared by the threads, as a workload's key chooser is
// shared by its clients.  A draw writes no shared line, so the total rate
// on 2 threads should be about twice the 1-thread rate.
void BM_ScrambledZipfian(benchmark::State& state) {
  static ScrambledZipfianGenerator gen(0, 999999);
  Random64 rng(4 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScrambledZipfian)->Threads(1)->Threads(2)->UseRealTime();

void BM_SkewedLatest(benchmark::State& state) {
  CounterGenerator basis(1000000);
  SkewedLatestGenerator gen(&basis);
  Random64 rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
}
BENCHMARK(BM_SkewedLatest);

void BM_HotspotGenerator(benchmark::State& state) {
  HotspotIntegerGenerator gen(0, 999999, 0.2, 0.8);
  Random64 rng(6);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
}
BENCHMARK(BM_HotspotGenerator);

void BM_ExponentialGenerator(benchmark::State& state) {
  ExponentialGenerator gen(95.0, 1000000.0);
  Random64 rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
}
BENCHMARK(BM_ExponentialGenerator);

void BM_DiscreteGenerator(benchmark::State& state) {
  DiscreteGenerator<const char*> gen;
  gen.AddValue("READ", 0.9);
  gen.AddValue("UPDATE", 0.05);
  gen.AddValue("INSERT", 0.03);
  gen.AddValue("SCAN", 0.02);
  Random64 rng(8);
  for (auto _ : state) benchmark::DoNotOptimize(gen.Next(rng));
}
BENCHMARK(BM_DiscreteGenerator);

void BM_AcknowledgedCounter(benchmark::State& state) {
  AcknowledgedCounterGenerator gen(0);
  Random64 rng(9);
  for (auto _ : state) {
    uint64_t v = gen.Next(rng);
    gen.Acknowledge(v);
    benchmark::DoNotOptimize(gen.Last());
  }
}
BENCHMARK(BM_AcknowledgedCounter);

// One counter shared by the threads as by a read-latest workload's clients:
// every key choice reads `Last()`, and one operation in 20 inserts (`Next`,
// then `Acknowledge`).
void BM_AcknowledgedCounterShared(benchmark::State& state) {
  static AcknowledgedCounterGenerator gen(0);
  Random64 rng(10);
  uint64_t i = 0;
  for (auto _ : state) {
    if (++i % 20 == 0) gen.Acknowledge(gen.Next(rng));
    benchmark::DoNotOptimize(gen.Last());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcknowledgedCounterShared)->Threads(1)->Threads(2)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
