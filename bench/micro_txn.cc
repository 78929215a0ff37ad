// Microbenchmarks of the transaction layer (google-benchmark): commit-path
// cost by write-set size, read cost, codec cost, and the 2PL engine for
// comparison — all on the bare local store (no latency injection), isolating
// protocol CPU cost from network cost.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "txn/client_txn_store.h"
#include "txn/local_2pl.h"
#include "txn/occ_engine.h"
#include "txn/record_codec.h"

namespace {

using namespace ycsbt;

/// "k<i>", built by appending: `"k" + std::to_string(i)` trips a false
/// -Wrestrict in GCC 12 at -O3.
std::string Key(uint64_t i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

std::unique_ptr<txn::ClientTxnStore> MakeClientStore() {
  return std::make_unique<txn::ClientTxnStore>(
      std::make_shared<kv::ShardedStore>(),
      std::make_shared<txn::HlcTimestampSource>());
}

void BM_TxRecordEncode(benchmark::State& state) {
  txn::TxRecord record;
  record.commit_ts = 123456;
  record.value = std::string(100, 'v');
  record.has_prev = true;
  record.prev_commit_ts = 123000;
  record.prev_value = std::string(100, 'p');
  for (auto _ : state) benchmark::DoNotOptimize(txn::EncodeTxRecord(record));
}
BENCHMARK(BM_TxRecordEncode);

void BM_TxRecordDecode(benchmark::State& state) {
  txn::TxRecord record;
  record.commit_ts = 123456;
  record.value = std::string(100, 'v');
  std::string encoded = txn::EncodeTxRecord(record);
  txn::TxRecord out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::DecodeTxRecord(encoded, &out));
  }
}
BENCHMARK(BM_TxRecordDecode);

void BM_TxnReadOnly(benchmark::State& state) {
  auto store = MakeClientStore();
  for (int i = 0; i < 1000; ++i) {
    store->LoadPut(Key(i), std::string(100, 'x'));
  }
  uint64_t i = 0;
  std::string value;
  for (auto _ : state) {
    auto txn = store->Begin();
    txn->Read(Key(i++ % 1000), &value);
    txn->Commit();
  }
}
BENCHMARK(BM_TxnReadOnly);

void BM_TxnCommitByWriteSetSize(benchmark::State& state) {
  auto store = MakeClientStore();
  const int keys = static_cast<int>(state.range(0));
  for (int i = 0; i < 1000; ++i) {
    store->LoadPut(Key(i), std::string(100, 'x'));
  }
  uint64_t round = 0;
  for (auto _ : state) {
    auto txn = store->Begin();
    for (int k = 0; k < keys; ++k) {
      txn->Write(Key((round * keys + k) % 1000),
                 std::string(100, 'y'));
    }
    benchmark::DoNotOptimize(txn->Commit());
    ++round;
  }
  state.SetItemsProcessed(state.iterations() * keys);
}
BENCHMARK(BM_TxnCommitByWriteSetSize)->Arg(1)->Arg(2)->Arg(8)->Arg(32);

void BM_TxnTransfer(benchmark::State& state) {
  auto store = MakeClientStore();
  store->LoadPut("a", "1000000");
  store->LoadPut("b", "1000000");
  std::string va, vb;
  for (auto _ : state) {
    auto txn = store->Begin();
    txn->Read("a", &va);
    txn->Read("b", &vb);
    txn->Write("a", std::to_string(std::stoll(va) - 1));
    txn->Write("b", std::to_string(std::stoll(vb) + 1));
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_TxnTransfer);

void BM_2PLTransfer(benchmark::State& state) {
  auto store = std::make_unique<txn::Local2PLStore>(
      std::make_shared<kv::ShardedStore>());
  store->LoadPut("a", "1000000");
  store->LoadPut("b", "1000000");
  std::string va, vb;
  for (auto _ : state) {
    auto txn = store->Begin();
    txn->Read("a", &va);
    txn->Read("b", &vb);
    txn->Write("a", std::to_string(std::stoll(va) - 1));
    txn->Write("b", std::to_string(std::stoll(vb) + 1));
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_2PLTransfer);

// Single-read 2PL transactions over 1000 keys.  With several threads they
// contend only where their keys share a lock-table stripe: the outcome
// counters and start_ts come from per-thread cells.
void BM_2PLReadOnly(benchmark::State& state) {
  static std::unique_ptr<txn::Local2PLStore> store;
  if (state.thread_index() == 0) {
    store = std::make_unique<txn::Local2PLStore>(std::make_shared<kv::ShardedStore>());
    for (int i = 0; i < 1000; ++i) {
      store->LoadPut(Key(i), std::string(100, 'x'));
    }
  }
  uint64_t i = static_cast<uint64_t>(state.thread_index()) * 251;
  std::string value;
  for (auto _ : state) {
    auto txn = store->Begin();
    benchmark::DoNotOptimize(txn->Read(Key(i++ % 1000), &value));
    txn->Commit();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) store.reset();
}
BENCHMARK(BM_2PLReadOnly)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

std::unique_ptr<txn::OccEngine> MakeOccStore() {
  txn::OccOptions options;
  options.epoch_ms = 10;
  auto store = std::make_unique<txn::OccEngine>(options);
  for (int i = 0; i < 1000; ++i) {
    store->LoadPut(Key(i), std::string(100, 'x'));
  }
  return store;
}

void BM_OccTxnReadOnly(benchmark::State& state) {
  auto store = MakeOccStore();
  uint64_t i = 0;
  std::string value;
  for (auto _ : state) {
    auto txn = store->Begin();
    txn->Read(Key(i++ % 1000), &value);
    txn->Commit();
  }
}
BENCHMARK(BM_OccTxnReadOnly);

void BM_OccCommitByWriteSetSize(benchmark::State& state) {
  auto store = MakeOccStore();
  const int keys = static_cast<int>(state.range(0));
  uint64_t round = 0;
  for (auto _ : state) {
    auto txn = store->Begin();
    for (int k = 0; k < keys; ++k) {
      txn->Write(Key((round * keys + k) % 1000),
                 std::string(100, 'y'));
    }
    benchmark::DoNotOptimize(txn->Commit());
    ++round;
  }
  state.SetItemsProcessed(state.iterations() * keys);
}
BENCHMARK(BM_OccCommitByWriteSetSize)->Arg(1)->Arg(2)->Arg(8)->Arg(32);

void BM_OccTransfer(benchmark::State& state) {
  txn::OccEngine store{txn::OccOptions{}};
  store.LoadPut("a", "1000000");
  store.LoadPut("b", "1000000");
  std::string va, vb;
  for (auto _ : state) {
    auto txn = store.Begin();
    txn->Read("a", &va);
    txn->Read("b", &vb);
    txn->Write("a", std::to_string(std::stoll(va) - 1));
    txn->Write("b", std::to_string(std::stoll(vb) + 1));
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_OccTransfer);

// A read-only commit while the thread's retire list holds `range(0)`
// versions that cannot be freed yet: they are all stamped in the current
// epoch, which no test-driven ticker advances.  The reclamation check a
// commit makes must cost the same at every backlog size.
void BM_OccCommitWithRetireBacklog(benchmark::State& state) {
  txn::OccOptions options;
  options.epoch_ms = 0;
  txn::OccEngine store(options);
  store.LoadPut("r", std::string(100, 'x'));
  for (int64_t i = 0; i <= state.range(0); ++i) {
    store.LoadPut("w", std::string(100, 'y'));  // retires the previous "w"
  }
  std::string value;
  for (auto _ : state) {
    auto txn = store.Begin();
    txn->Read("r", &value);
    benchmark::DoNotOptimize(txn->Commit());
  }
}
BENCHMARK(BM_OccCommitWithRetireBacklog)->Arg(0)->Arg(1000)->Arg(10000);

void BM_SnapshotScan(benchmark::State& state) {
  auto store = MakeClientStore();
  for (int i = 0; i < 10000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i);
    store->LoadPut(buf, std::string(100, 'x'));
  }
  std::vector<txn::TxScanEntry> rows;
  for (auto _ : state) {
    store->ScanCommitted("k000000", static_cast<size_t>(state.range(0)), &rows);
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_SnapshotScan)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
