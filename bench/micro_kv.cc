// Microbenchmarks of the local storage engine (google-benchmark): point
// operations, conditional writes, scans, and the WAL's overhead; plus the
// workload and binding layers above it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/closed_economy_workload.h"
#include "core/core_workload.h"
#include "db/kvstore_db.h"
#include "kv/store.h"

namespace {

using namespace ycsbt;

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_StorePut(benchmark::State& state) {
  kv::ShardedStore store;
  std::string value(100, 'x');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put(Key(i++ % 100000), value));
  }
}
BENCHMARK(BM_StorePut);

void BM_StoreGet(benchmark::State& state) {
  kv::ShardedStore store;
  std::string value(100, 'x');
  for (uint64_t i = 0; i < 100000; ++i) store.Put(Key(i), value);
  std::string out;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(Key(i++ % 100000), &out));
  }
}
BENCHMARK(BM_StoreGet);

// BM_StoreGet walks its keys in order, so the search path stays in cache.
// A YCSB run reads hashed keys in random order over a table that exceeds the
// caches; this is that access pattern: "user" + the FNV hash of the record
// number (the core workload's unordered key names), read in seeded random
// order from a shared 100k-record store.
constexpr uint64_t kYcsbRecords = 100000;

const std::vector<std::string>& YcsbKeys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    out.reserve(kYcsbRecords);
    for (uint64_t i = 0; i < kYcsbRecords; ++i) {
      out.push_back("user" + std::to_string(FNVHash64(i)));
    }
    return out;
  }();
  return keys;
}

kv::ShardedStore& YcsbStore() {
  static kv::ShardedStore store;
  static const bool loaded = [] {
    std::string value(100, 'x');
    for (const std::string& key : YcsbKeys()) store.Put(key, value);
    return true;
  }();
  (void)loaded;
  return store;
}

void BM_StoreGetRandom(benchmark::State& state) {
  const std::vector<std::string>& keys = YcsbKeys();
  kv::ShardedStore& store = YcsbStore();
  Random64 rng(1 + static_cast<uint64_t>(state.thread_index()));
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(keys[rng.Uniform(kYcsbRecords)], &out));
  }
}
BENCHMARK(BM_StoreGetRandom)->Threads(1)->Threads(2);

void BM_StoreConditionalPut(benchmark::State& state) {
  kv::ShardedStore store;
  std::string value(100, 'x');
  uint64_t etag = 0;
  store.Put(Key(0), value, &etag);
  for (auto _ : state) {
    store.ConditionalPut(Key(0), value, etag, &etag);
  }
}
BENCHMARK(BM_StoreConditionalPut);

void BM_StoreScan(benchmark::State& state) {
  kv::ShardedStore store;
  std::string value(100, 'x');
  for (uint64_t i = 0; i < 10000; ++i) store.Put(Key(i), value);
  std::vector<kv::ScanEntry> out;
  uint64_t i = 0;
  for (auto _ : state) {
    store.Scan(Key((i++ * 97) % 9000), static_cast<size_t>(state.range(0)), &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_StoreScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_StorePutWithWal(benchmark::State& state) {
  std::string wal = "/tmp/ycsbt_bench_wal.log";
  std::remove(wal.c_str());
  kv::StoreOptions options;
  options.wal_path = wal;
  options.sync_wal = state.range(0) != 0;
  kv::ShardedStore store(options);
  if (!store.Open().ok()) {
    state.SkipWithError("cannot open WAL");
    return;
  }
  std::string value(100, 'x');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put(Key(i++ % 10000), value));
  }
  std::remove(wal.c_str());
}
// 0 = buffered WAL, 1 = fdatasync per write (the paper's latency-vs-
// durability trade-off, Section II-A).
BENCHMARK(BM_StorePutWithWal)->Arg(0)->Arg(1);

// Sorted ingest: per-key Put vs the BulkLoad fast path (pre-sorted runs
// bypass the per-key skiplist search and write one WAL frame per batch).
// Arguments: records to load, WAL on/off.  Each iteration ingests a fresh
// store; setup/teardown is excluded from the timing.

constexpr size_t kBulkBatch = 65536;

void BM_StoreLoadPerKey(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const bool wal = state.range(1) != 0;
  const std::string wal_path = "/tmp/ycsbt_bench_bulk_wal.log";
  std::string value(100, 'x');
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(wal_path.c_str());
    kv::StoreOptions options;
    if (wal) options.wal_path = wal_path;
    auto store = std::make_unique<kv::ShardedStore>(options);
    if (!store->Open().ok()) {
      state.SkipWithError("cannot open store");
      return;
    }
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) store->Put(Key(i), value);
    state.PauseTiming();
    store.reset();
    std::remove(wal_path.c_str());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StoreLoadPerKey)
    ->Args({100000, 0})
    ->Args({1000000, 0})
    ->Args({1000000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_StoreBulkLoad(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const bool wal = state.range(1) != 0;
  const std::string wal_path = "/tmp/ycsbt_bench_bulk_wal.log";
  std::string value(100, 'x');
  // Key(i) zero-pads, so numeric order is lexicographic order: the batches
  // are the strictly ascending runs BulkLoad requires.
  std::vector<std::vector<std::pair<std::string, std::string>>> batches;
  for (uint64_t i = 0; i < n; i += kBulkBatch) {
    auto& batch = batches.emplace_back();
    batch.reserve(kBulkBatch);
    for (uint64_t j = i; j < std::min(n, i + kBulkBatch); ++j) {
      batch.emplace_back(Key(j), value);
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(wal_path.c_str());
    kv::StoreOptions options;
    if (wal) options.wal_path = wal_path;
    auto store = std::make_unique<kv::ShardedStore>(options);
    if (!store->Open().ok()) {
      state.SkipWithError("cannot open store");
      return;
    }
    state.ResumeTiming();
    for (const auto& batch : batches) {
      Status s = store->BulkLoad(batch);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
    state.PauseTiming();
    store.reset();
    std::remove(wal_path.c_str());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StoreBulkLoad)
    ->Args({100000, 0})
    ->Args({1000000, 0})
    ->Args({1000000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_ShardCountEffect(benchmark::State& state) {
  kv::StoreOptions options;
  options.num_shards = static_cast<int>(state.range(0));
  kv::ShardedStore store(options);
  std::string value(100, 'x');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put(Key(i++ % 100000), value));
  }
}
BENCHMARK(BM_ShardCountEffect)->Arg(1)->Arg(16)->Arg(64);

/// Loads `w` over a fresh in-memory engine behind the memkv binding.
std::unique_ptr<KvStoreDB> LoadedDB(core::Workload* w, core::Workload::ThreadState* ts) {
  auto db = std::make_unique<KvStoreDB>(std::make_shared<kv::ShardedStore>());
  for (uint64_t i = 0; i < w->record_count(); ++i) w->DoInsert(*db, ts);
  return db;
}

/// One YCSB read through the workload and the binding: key generation,
/// the engine Get, decoding and, with arg 1, the dataintegrity check — the
/// harness cost above the engine (DESIGN.md §20).
void BM_CoreWorkloadRead(benchmark::State& state) {
  Properties props;
  props.Set("recordcount", "100000");
  props.Set("fieldcount", "1");
  props.Set("readproportion", "1");
  props.Set("updateproportion", "0");
  props.Set("requestdistribution", "zipfian");
  props.Set("dataintegrity", state.range(0) != 0 ? "true" : "false");
  core::CoreWorkload w;
  if (!w.Init(props).ok()) {
    state.SkipWithError("bad workload properties");
    return;
  }
  auto ts = w.InitThread(0, 1);
  auto db = LoadedDB(&w, ts.get());
  for (auto _ : state) benchmark::DoNotOptimize(w.DoTransaction(*db, ts.get()).ok);
}
BENCHMARK(BM_CoreWorkloadRead)->Arg(0)->Arg(1);

/// One CEW transfer ($1 between two accounts: a two-key MultiRead and two
/// balance writes) through the workload and the memkv binding.
void BM_CewTransfer(benchmark::State& state) {
  Properties props;
  props.Set("recordcount", "10000");
  props.Set("readproportion", "0");
  props.Set("readmodifywriteproportion", "1");
  props.Set("requestdistribution", "zipfian");
  core::ClosedEconomyWorkload w;
  if (!w.Init(props).ok()) {
    state.SkipWithError("bad workload properties");
    return;
  }
  auto ts = w.InitThread(0, 1);
  auto db = LoadedDB(&w, ts.get());
  for (auto _ : state) {
    core::TxnOpResult r = w.DoTransaction(*db, ts.get());
    benchmark::DoNotOptimize(r.ok);
    w.OnTransactionOutcome(ts.get(), r, r.ok);
  }
}
BENCHMARK(BM_CewTransfer);

}  // namespace

BENCHMARK_MAIN();
