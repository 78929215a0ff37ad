// Heap allocations per workload transaction, counted by replacing the global
// operator new.  A warmed client reuses its per-thread row, key and binding
// buffers (DESIGN.md §20), so the harness above the engine allocates
// nothing on a read; what remains is the transaction engine's own work.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/closed_economy_workload.h"
#include "core/core_workload.h"
#include "db/db_factory.h"
#include "db/kvstore_db.h"
#include "kv/store.h"

namespace {
// Counts this thread's allocations only, so background threads of the
// engines under test cannot perturb a measurement.
thread_local uint64_t t_allocations = 0;
}  // namespace

// The counting operators stay out of line: where GCC -O3 inlines them, it
// pairs the malloc inside one with the free inside another and reports a
// false -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  size_t a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ycsbt {
namespace core {
namespace {

constexpr int kWarmup = 2000;
constexpr int kMeasured = 2000;

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

/// Mean allocations of one `body()` call, after `kWarmup` unmeasured calls.
template <typename Body>
double AllocationsPerCall(Body body) {
  for (int i = 0; i < kWarmup; ++i) body();
  uint64_t before = t_allocations;
  for (int i = 0; i < kMeasured; ++i) body();
  return static_cast<double>(t_allocations - before) / kMeasured;
}

void ExpectWarmedReadAllocatesNothing(const char* read_all_fields) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "1000"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "1"},
                            {"readallfields", read_all_fields},
                            {"readproportion", "1"},
                            {"updateproportion", "0"}}))
                  .ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < w.record_count(); ++i) {
    ASSERT_TRUE(w.DoInsert(db, state.get()));
  }
  bool all_ok = true;
  double allocs = AllocationsPerCall([&] {
    all_ok = w.DoTransaction(db, state.get()).ok && all_ok;
  });
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(w.data_integrity_errors(), 0u);
  EXPECT_EQ(allocs, 0.0) << "readallfields=" << read_all_fields;
}

TEST(AllocTest, WarmedCoreReadOverMemkvAllocatesNothing) {
  ExpectWarmedReadAllocatesNothing("true");
}

TEST(AllocTest, WarmedProjectedCoreReadOverMemkvAllocatesNothing) {
  ExpectWarmedReadAllocatesNothing("false");
}

/// Mean allocations of one Start -> DoTransaction -> Commit/Abort cycle
/// through a factory-built client, as the runner drives it.
double TransactionAllocations(Workload* w, const Properties& props) {
  DBFactory factory(props);
  EXPECT_TRUE(factory.Init().ok());
  auto db = factory.CreateClient();
  auto state = w->InitThread(0, 1);
  for (uint64_t i = 0; i < w->record_count(); ++i) {
    EXPECT_TRUE(w->DoInsert(*db, state.get()));
  }
  return AllocationsPerCall([&] {
    db->Start();
    TxnOpResult op = w->DoTransaction(*db, state.get());
    bool committed = op.ok ? db->Commit().ok() : (db->Abort(), false);
    w->OnTransactionOutcome(state.get(), op, committed);
  });
}

TEST(AllocTest, TwoPhaseLockingReadTransaction) {
  Properties props = Props({{"db", "2pl+memkv"},
                            {"recordcount", "1000"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "1"},
                            {"readproportion", "1"},
                            {"updateproportion", "0"}});
  CoreWorkload w;
  ASSERT_TRUE(w.Init(props).ok());
  double allocs = TransactionAllocations(&w, props);
  EXPECT_EQ(w.data_integrity_errors(), 0u);
  // 9.0 with per-operation rows and keys, 2.0 with a fresh transaction
  // object and lock set per transaction; the engine now recycles both
  // through the thread's pool.
  EXPECT_EQ(allocs, 0.0);
}

TEST(AllocTest, WarmedOccReadTransactionAllocatesNothing) {
  Properties props = Props({{"db", "occ+memkv"},
                            {"recordcount", "1000"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "1"},
                            {"readproportion", "1"},
                            {"updateproportion", "0"}});
  CoreWorkload w;
  ASSERT_TRUE(w.Init(props).ok());
  double allocs = TransactionAllocations(&w, props);
  EXPECT_EQ(w.data_integrity_errors(), 0u);
  // The engine recycles the transaction object and its read set through
  // the thread's registration, and the index lookup takes no lock.
  EXPECT_EQ(allocs, 0.0);
}

TEST(AllocTest, OccClosedEconomyTransaction) {
  Properties props = Props({{"db", "occ+memkv"},
                            {"recordcount", "1000"},
                            {"readproportion", "0.9"},
                            {"readmodifywriteproportion", "0.1"}});
  ClosedEconomyWorkload w;
  ASSERT_TRUE(w.Init(props).ok());
  double allocs = TransactionAllocations(&w, props);
  // 10.0 with per-operation rows, keys and balance strings, 3.1 with a
  // fresh transaction object, read set and write set per transaction; what
  // remains is the committed versions of the 10% that write.
  EXPECT_LE(allocs, 1.0);
  std::printf("occ+memkv CEW transaction: %.2f allocations\n", allocs);
}

// With manual epochs, versions retired before an epoch advance are
// reclaimed by the next commit's sweep into the committing thread's version
// pool, and the transfers after it install pooled versions, swapping value
// buffers that already have capacity with the write set.  Without the pool a
// transfer allocates four times: two versions and two value buffers.
TEST(AllocTest, OccWriteReusesReclaimedVersions) {
  Properties props = Props({{"db", "occ+memkv"},
                            {"recordcount", "1000"},
                            {"occ.epoch_ms", "0"},
                            {"occ.retire_batch", "1"},
                            {"readproportion", "0"},
                            {"readmodifywriteproportion", "1"}});
  ClosedEconomyWorkload w;
  ASSERT_TRUE(w.Init(props).ok());
  DBFactory factory(props);
  ASSERT_TRUE(factory.Init().ok());
  txn::OccEngine* engine = factory.occ_engine();
  ASSERT_NE(engine, nullptr);
  auto db = factory.CreateClient();
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < w.record_count(); ++i) {
    ASSERT_TRUE(w.DoInsert(*db, state.get()));
  }
  auto transfer = [&] {
    db->Start();
    TxnOpResult op = w.DoTransaction(*db, state.get());
    bool committed = op.ok ? db->Commit().ok() : (db->Abort(), false);
    w.OnTransactionOutcome(state.get(), op, committed);
  };
  // Every warm-up transfer retires its overwritten versions into one epoch,
  // so none is reclaimed yet; the advance then frees all of them at once.
  for (int i = 0; i < kWarmup; ++i) transfer();
  EXPECT_EQ(engine->stats().versions_freed, 0u);
  engine->AdvanceEpoch();
  transfer();
  txn::OccStats stats = engine->stats();
  ASSERT_GE(stats.versions_freed, 2u * kMeasured)
      << "retired " << stats.versions_retired;

  uint64_t before = t_allocations;
  for (int i = 0; i < kMeasured; ++i) transfer();
  double allocs = static_cast<double>(t_allocations - before) / kMeasured;
  EXPECT_GT(engine->stats().versions_retired, stats.versions_retired);
  // What is left is a recycled buffer growing for a row one byte longer than
  // any it held (a balance that gained a digit): 2 in 2,000 transfers here.
  EXPECT_LE(allocs, 0.01);
  std::printf("occ+memkv CEW transfer over pooled versions: %.4f allocations\n",
              allocs);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
