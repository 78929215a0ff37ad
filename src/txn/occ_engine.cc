#include "txn/occ_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/clock.h"

namespace ycsbt {
namespace txn {

namespace {

/// Slots of the index's first table; it doubles whenever it would pass half
/// full.
constexpr size_t kInitialIndexCapacity = 1024;

/// One spin-loop backoff step: a pause instruction while the owner is
/// presumably mid-install, a yield every 64 spins in case it was preempted.
inline void SpinPause(int spins) {
  if ((spins & 63) == 63) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Memory-ordering note (DESIGN.md §15).  All epoch-protocol atomics — the
// pin store, the version-pointer exchange/loads, the reclaimer's pin loads
// and the global-epoch loads — use seq_cst, because the safety argument
// ("a reader that obtained a version pointer before its unlink is either
// still pinned in an epoch <= the retire stamp, or its unpin store is
// visible to the reclaimer") needs the single total order, not just
// acquire/release pairs.  On x86-64 the only seq_cst op that costs anything
// is the once-per-transaction pin store; the hot-path loads compile to
// plain moves.  TSan-wise every actual free is reached through a
// pin-store -> reclaimer-load synchronizes-with edge, so no fence-only
// reasoning is involved.
// ---------------------------------------------------------------------------

OccOptions OccOptions::FromProperties(const Properties& props) {
  OccOptions o;
  o.epoch_ms = kOccEpochMs.Get<uint64_t>(props);
  o.read_validation = kOccReadValidation.Get<bool>(props);
  o.retire_batch = kOccRetireBatch.Get<size_t>(props);
  return o;
}

OccEngine::OccEngine(OccOptions options) : options_(options) {
  if (options_.retire_batch == 0) options_.retire_batch = 1;
  tables_.push_back(std::make_unique<Table>(kInitialIndexCapacity));
  index_.store(tables_.back().get(), std::memory_order_seq_cst);
  if (options_.epoch_ms > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
}

OccEngine::~OccEngine() {
  if (ticker_.joinable()) {
    stop_ticker_.store(true, std::memory_order_relaxed);
    ticker_.join();
  }
  // Single-threaded teardown (all clients joined before the factory drops
  // the engine): every remaining version is unreachable-after-this, so the
  // epoch machinery is bypassed.  Threads that still hold a registration
  // find the registry dead when they exit and leave it alone.
  {
    std::lock_guard<std::mutex> lock(registry_->mu);
    registry_->engine_alive = false;
    for (const auto& st : registry_->states) {
      for (const Retired& r : st->retired) delete r.version;
      for (Version* v : st->free_versions) delete v;
      for (OccTxn* txn : st->free_txns) {
        txn->~OccTxn();
        ::operator delete(txn);
      }
    }
    registry_->released.clear();
    registry_->states.clear();
  }
  for (const auto& rec : records_) {
    delete rec->version.load(std::memory_order_relaxed);
  }
}

template <std::memory_order kOrder>
OccEngine::Record* OccEngine::FindRecord(std::string_view key) const {
  const size_t hash = std::hash<std::string_view>{}(key);
  // A table that is current at the load holds every record inserted before
  // it was published; one superseded since still holds every record that
  // existed then, so a miss there linearises before the concurrent insert.
  const Table* table = index_.load(kOrder);
  for (size_t i = hash & table->mask;; i = (i + 1) & table->mask) {
    const Slot& slot = table->slots[i];
    Record* rec = slot.record.load(kOrder);
    if (rec == nullptr) return nullptr;  // tables are never full
    if (slot.hash == hash && rec->key == key) return rec;
  }
}

void OccEngine::Place(Table* table, size_t hash, Record* rec) {
  size_t i = hash & table->mask;
  while (table->slots[i].record.load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table->mask;
  }
  table->slots[i].hash = hash;
  table->slots[i].record.store(rec, std::memory_order_seq_cst);
}

OccEngine::Record* OccEngine::FindOrCreateRecord(std::string_view key) {
  if (Record* rec = FindRecord(key)) return rec;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (Record* rec = FindRecord(key)) return rec;
  auto owned = std::make_unique<Record>();
  owned->key.assign(key.data(), key.size());
  Record* rec = owned.get();
  records_.push_back(std::move(owned));
  const size_t hash = std::hash<std::string_view>{}(key);
  Table* table = index_.load(std::memory_order_relaxed);
  if (2 * records_.size() > table->capacity()) {
    // Growth: fill a doubled table from the stored hashes, then publish it.
    // Readers still probing the old one keep a valid, frozen table.
    auto grown = std::make_unique<Table>(2 * table->capacity());
    for (size_t i = 0; i < table->capacity(); ++i) {
      const Slot& slot = table->slots[i];
      Record* r = slot.record.load(std::memory_order_relaxed);
      if (r != nullptr) Place(grown.get(), slot.hash, r);
    }
    Place(grown.get(), hash, rec);
    tables_.push_back(std::move(grown));
    index_.store(tables_.back().get(), std::memory_order_seq_cst);
  } else {
    Place(table, hash, rec);
  }
  return rec;
}

OccEngine::ThreadState* OccEngine::MyState() {
  // The calling thread's registrations, one per engine it has touched.  The
  // destructor is the thread-exit hook: each registration goes back to its
  // engine's free list, unless that engine is already gone.
  struct Cache {
    struct Entry {
      std::shared_ptr<Registry> registry;
      ThreadState* state;
    };
    std::vector<Entry> entries;
    ~Cache() {
      for (const Entry& e : entries) {
        std::lock_guard<std::mutex> lock(e.registry->mu);
        if (e.registry->engine_alive) e.registry->released.push_back(e.state);
      }
    }
  };
  thread_local Cache cache;
  // Keyed by the registry's address: an entry's shared_ptr keeps a destroyed
  // engine's registry allocated, so no later engine can reuse the address.
  for (const auto& e : cache.entries) {
    if (e.registry == registry_) return e.state;
  }
  std::erase_if(cache.entries, [](const Cache::Entry& e) {
    std::lock_guard<std::mutex> lock(e.registry->mu);
    return !e.registry->engine_alive;
  });

  std::lock_guard<std::mutex> lock(registry_->mu);
  ThreadState* st = nullptr;
  if (!registry_->released.empty()) {
    st = registry_->released.back();
    registry_->released.pop_back();
  } else {
    if (registry_->states.size() >= (uint64_t{1} << kThreadBits)) {
      // The TID thread field is kThreadBits wide; a 257th live registration
      // would alias an existing id and could mint duplicate TIDs (same
      // epoch, same per-thread seq), breaking the never-repeats invariant
      // that both ReadRecord and commit-time read validation rely on.  Fail
      // hard rather than silently corrupt validation.
      std::fprintf(stderr,
                   "occ: more than %llu live threads registered with one "
                   "engine; TID thread field (%d bits) would alias\n",
                   static_cast<unsigned long long>(uint64_t{1} << kThreadBits),
                   kThreadBits);
      std::abort();
    }
    auto owned = std::make_unique<ThreadState>();
    owned->thread_id = registry_->states.size();
    st = owned.get();
    registry_->states.push_back(std::move(owned));
  }
  cache.entries.push_back({registry_, st});
  return st;
}

void OccEngine::Pin(ThreadState* st) {
  if (st->pin_depth++ > 0) return;
  st->active_epoch.store(epoch_.load(std::memory_order_seq_cst),
                         std::memory_order_seq_cst);
}

void OccEngine::Unpin(ThreadState* st) {
  if (--st->pin_depth > 0) return;
  st->active_epoch.store(ThreadState::kIdle, std::memory_order_seq_cst);
}

void OccEngine::ReadRecord(const Record* rec, Version** version,
                           uint64_t* tid) const {
  for (int spins = 0;; ++spins) {
    uint64_t t1 = rec->tid.load(std::memory_order_seq_cst);
    if ((t1 & kLockBit) == 0) {
      Version* v = rec->version.load(std::memory_order_seq_cst);
      uint64_t t2 = rec->tid.load(std::memory_order_seq_cst);
      if (t1 == t2) {
        // `v` was the current version at some instant between the two TID
        // loads (a TID can never repeat on a record: each thread's seq is
        // consumed once).  Versions are immutable once published and stay
        // allocated while this thread is pinned, so the caller copies from
        // `v` safely after we return.
        *version = v;
        *tid = t1;
        return;
      }
    }
    SpinPause(spins);
  }
}

void OccEngine::CollectRange(const std::string& start_key, size_t limit,
                             std::vector<TxScanEntry>* out) const {
  out->clear();
  if (limit == 0) return;
  // Records are never removed from the index, so their keys stay valid; only
  // version access needs the epoch pin.
  std::vector<const Record*> candidates;
  const Table* table = index_.load(std::memory_order_acquire);
  for (size_t i = 0; i < table->capacity(); ++i) {
    const Record* rec = table->slots[i].record.load(std::memory_order_acquire);
    if (rec != nullptr && rec->key >= start_key) candidates.push_back(rec);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Record* a, const Record* b) { return a->key < b->key; });
  for (const Record* rec : candidates) {
    Version* v = nullptr;
    uint64_t tid = 0;
    ReadRecord(rec, &v, &tid);
    if (v == nullptr || v->tombstone) continue;
    out->push_back({rec->key, v->value});
    if (out->size() >= limit) break;
  }
}

void OccEngine::Retire(ThreadState* st, Version* version) {
  if (version == nullptr) return;
  // Stamp with the epoch observed AFTER the unlink: any reader still able
  // to hold this pointer pinned an epoch <= this value.
  uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
  st->retired.push_back({epoch, version});
  st->versions_retired.fetch_add(1, std::memory_order_relaxed);
}

uint64_t OccEngine::SafeReclaimEpoch() const {
  uint64_t safe = epoch_.load(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(registry_->mu);
  for (const auto& st : registry_->states) {
    uint64_t e = st->active_epoch.load(std::memory_order_seq_cst);
    if (e < safe) safe = e;
  }
  return safe;
}

void OccEngine::FlushRetired(ThreadState* st) {
  std::vector<Retired>& retired = st->retired;
  if (retired.size() < options_.retire_batch) return;
  // Stamps are nondecreasing, so the versions stamped below the safe epoch
  // are a prefix of the list.  The safe epoch never exceeds the global one:
  // while the oldest stamp is still the current epoch, nothing is free.
  if (retired.front().epoch >= epoch_.load(std::memory_order_seq_cst)) return;
  const uint64_t safe = SafeReclaimEpoch();
  size_t freed = 0;
  while (freed < retired.size() && retired[freed].epoch < safe) {
    st->free_versions.push_back(retired[freed].version);
    ++freed;
  }
  if (freed == 0) return;
  retired.erase(retired.begin(), retired.begin() + static_cast<ptrdiff_t>(freed));
  st->versions_freed.fetch_add(freed, std::memory_order_relaxed);
}

OccEngine::Version* OccEngine::NewVersion(ThreadState* st) {
  if (st->free_versions.empty()) return new Version;
  Version* v = st->free_versions.back();
  st->free_versions.pop_back();
  return v;
}

void OccEngine::AdvanceEpoch() {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_advances_.fetch_add(1, std::memory_order_relaxed);
}

void OccEngine::TickerLoop() {
  // Sliced naps (<= 20 ms, same as the runner's paced sleeps) so engine
  // teardown never blocks a full occ.epoch_ms and a watchdogged suite run
  // shuts the ticker down promptly.
  constexpr uint64_t kMaxNapNs = 20'000'000;
  const uint64_t period_ns = options_.epoch_ms * 1'000'000ull;
  uint64_t next_tick = SteadyNanos() + period_ns;
  while (!stop_ticker_.load(std::memory_order_relaxed)) {
    uint64_t now = SteadyNanos();
    if (now >= next_tick) {
      AdvanceEpoch();
      next_tick = now + period_ns;
      continue;
    }
    uint64_t nap = std::min(next_tick - now, kMaxNapNs);
    std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
  }
}

std::unique_ptr<Transaction> OccEngine::Begin() {
  ThreadState* st = MyState();
  OccTxn* txn;
  if (st->free_txns.empty()) {
    txn = new OccTxn(this, st);
  } else {
    txn = st->free_txns.back();
    st->free_txns.pop_back();
  }
  txn->Start();
  return std::unique_ptr<Transaction>(txn);
}

Status OccEngine::LoadPut(const std::string& key, std::string_view value) {
  ThreadState* st = MyState();
  Pin(st);
  Record* rec = FindOrCreateRecord(key);
  uint64_t cur = rec->tid.load(std::memory_order_relaxed);
  for (int spins = 0;; ++spins) {
    if ((cur & kLockBit) == 0 &&
        rec->tid.compare_exchange_weak(cur, cur | kLockBit,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
      break;
    }
    SpinPause(spins);
    cur = rec->tid.load(std::memory_order_relaxed);
  }
  Version* nv = NewVersion(st);
  nv->value.assign(value.data(), value.size());
  nv->tombstone = false;
  Version* old = rec->version.exchange(nv, std::memory_order_seq_cst);
  uint64_t tid = MakeTid(epoch_.load(std::memory_order_seq_cst), ++st->seq,
                         st->thread_id);
  rec->tid.store(tid, std::memory_order_seq_cst);  // also clears the lock
  Retire(st, old);
  Unpin(st);
  FlushRetired(st);
  return Status::OK();
}

Status OccEngine::ReadCommitted(const std::string& key, std::string* value) {
  ThreadState* st = MyState();
  Pin(st);
  Record* rec = FindRecord(key);
  Status s = Status::OK();
  if (rec == nullptr) {
    s = Status::NotFound();
  } else {
    Version* v = nullptr;
    uint64_t tid = 0;
    ReadRecord(rec, &v, &tid);
    if (v == nullptr || v->tombstone) {
      s = Status::NotFound();
    } else if (value != nullptr) {
      *value = v->value;
    }
  }
  Unpin(st);
  return s;
}

Status OccEngine::ScanCommitted(const std::string& start_key, size_t limit,
                                std::vector<TxScanEntry>* out) {
  ThreadState* st = MyState();
  Pin(st);
  CollectRange(start_key, limit, out);
  Unpin(st);
  return Status::OK();
}

OccStats OccEngine::stats() const {
  OccStats s;
  s.epoch_advances = epoch_advances_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_->mu);
  for (const auto& st : registry_->states) {
    s.commits += st->commits.load(std::memory_order_relaxed);
    s.aborts += st->aborts.load(std::memory_order_relaxed);
    s.validation_fails += st->validation_fails.load(std::memory_order_relaxed);
    s.versions_retired += st->versions_retired.load(std::memory_order_relaxed);
    s.versions_freed += st->versions_freed.load(std::memory_order_relaxed);
  }
  return s;
}

void OccEngine::Collect(LayerStats* out) {
  OccStats now = stats();
  out->Count("OCC COMMITS", now.commits - collected_.commits);
  out->Count("OCC ABORTS", now.aborts - collected_.aborts);
  out->Count("OCC VALIDATE FAILS", now.validation_fails - collected_.validation_fails);
  out->Count("EPOCH ADVANCES", now.epoch_advances - collected_.epoch_advances);
  out->Count("OCC VERSIONS RETIRED", now.versions_retired - collected_.versions_retired);
  out->Count("OCC VERSIONS FREED", now.versions_freed - collected_.versions_freed);
  collected_ = now;
}

bool OccEngine::DebugTidOf(const std::string& key, uint64_t* tid) const {
  Record* rec = FindRecord(key);
  if (rec == nullptr) return false;
  uint64_t cur = rec->tid.load(std::memory_order_seq_cst) & ~kLockBit;
  if (cur == 0) return false;
  *tid = cur;
  return true;
}

// --------------------------------- OccTxn ----------------------------------

void OccTxn::Start() {
  reads_.clear();
  absent_count_ = 0;
  write_count_ = 0;
  finished_ = false;
  engine_->Pin(state_);
  start_epoch_ = state_->active_epoch.load(std::memory_order_relaxed);
}

void OccTxn::operator delete(OccTxn* txn, std::destroying_delete_t) {
  if (!txn->finished_) {
    txn->state_->aborts.fetch_add(1, std::memory_order_relaxed);
    txn->Finish();
  }
  txn->state_->free_txns.push_back(txn);
}

void OccTxn::Finish() {
  if (finished_) return;
  finished_ = true;
  engine_->Unpin(state_);
}

OccTxn::WriteEntry* OccTxn::FindWrite(std::string_view key) {
  for (size_t i = 0; i < write_count_; ++i) {
    if (writes_[i].key == key) return &writes_[i];
  }
  return nullptr;
}

bool OccTxn::WritesRecord(const OccEngine::Record* rec) const {
  for (size_t i = 0; i < write_count_; ++i) {
    if (writes_[i].record == rec) return true;
  }
  return false;
}

Status OccTxn::Read(const std::string& key, std::string* value) {
  if (finished_) return Status::InvalidArgument("transaction already finished");
  if (const WriteEntry* w = FindWrite(key)) {
    if (w->is_delete) return Status::NotFound();
    if (value != nullptr) *value = w->value;
    return Status::OK();
  }
  OccEngine::Record* rec = engine_->FindRecord(key);
  const bool validate = engine_->options_.read_validation;
  if (rec == nullptr) {
    if (validate) {
      if (absent_count_ == absent_reads_.size()) absent_reads_.emplace_back();
      absent_reads_[absent_count_++].assign(key);
    }
    return Status::NotFound();
  }
  OccEngine::Version* v = nullptr;
  uint64_t tid = 0;
  engine_->ReadRecord(rec, &v, &tid);
  if (validate) reads_.push_back({rec, tid});
  if (v == nullptr || v->tombstone) return Status::NotFound();
  if (value != nullptr) *value = v->value;
  return Status::OK();
}

Status OccTxn::Buffer(const std::string& key, std::string_view value,
                      bool is_delete) {
  if (finished_) return Status::InvalidArgument("transaction already finished");
  WriteEntry* w = FindWrite(key);
  if (w == nullptr) {
    if (write_count_ == writes_.size()) writes_.emplace_back();
    w = &writes_[write_count_++];
    w->key.assign(key);
  }
  w->value.assign(value.data(), value.size());
  w->is_delete = is_delete;
  return Status::OK();
}

Status OccTxn::Write(const std::string& key, std::string_view value) {
  return Buffer(key, value, /*is_delete=*/false);
}

Status OccTxn::Delete(const std::string& key) {
  return Buffer(key, std::string_view(), /*is_delete=*/true);
}

Status OccTxn::Scan(const std::string& start_key, size_t limit,
                    std::vector<TxScanEntry>* out) {
  if (finished_) return Status::InvalidArgument("transaction already finished");
  // Committed scan, like the other substrates: buffered writes are not
  // merged and scan rows do not join the read set (no phantom protection).
  engine_->CollectRange(start_key, limit, out);
  return Status::OK();
}

Status OccTxn::Abort() {
  if (finished_) return Status::InvalidArgument("transaction already finished");
  state_->aborts.fetch_add(1, std::memory_order_relaxed);
  Finish();
  return Status::OK();
}

Status OccTxn::Commit() {
  if (finished_) return Status::InvalidArgument("transaction already finished");
  const bool validate = engine_->options_.read_validation;

  // Silo commit phase 1: sort the (deduplicated) write set into global key
  // order and spin-lock each record.  Identical acquisition order on every
  // committer makes the locking deadlock-free.
  const auto writes_end = writes_.begin() + static_cast<ptrdiff_t>(write_count_);
  std::sort(writes_.begin(), writes_end,
            [](const WriteEntry& a, const WriteEntry& b) { return a.key < b.key; });
  for (auto w = writes_.begin(); w != writes_end; ++w) {
    w->record = engine_->FindOrCreateRecord(w->key);
    uint64_t cur = w->record->tid.load(std::memory_order_relaxed);
    for (int spins = 0;; ++spins) {
      if ((cur & OccEngine::kLockBit) == 0 &&
          w->record->tid.compare_exchange_weak(cur, cur | OccEngine::kLockBit,
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed)) {
        w->unlocked_tid = cur;
        break;
      }
      SpinPause(spins);
      cur = w->record->tid.load(std::memory_order_relaxed);
    }
  }

  // Phase 2: validate the read set against current TIDs.  Any record whose
  // TID moved since we read it — or that another committer holds locked —
  // has been (or is being) rewritten: abort with Conflict so the runner's
  // retry loop re-executes the whole transaction.
  Status verdict = Status::OK();
  if (validate) {
    for (const ReadEntry& entry : reads_) {
      uint64_t cur = entry.record->tid.load(std::memory_order_seq_cst);
      if ((cur & OccEngine::kLockBit) != 0) {
        if (!WritesRecord(entry.record)) {
          verdict = Status::Conflict("occ: read record locked by another txn");
          break;
        }
        cur &= ~OccEngine::kLockBit;
      }
      if (cur != entry.tid) {
        verdict = Status::Conflict("occ: read record rewritten before commit");
        break;
      }
    }
    for (size_t i = 0; verdict.ok() && i < absent_count_; ++i) {
      // seq_cst re-probe: a key created by a committer we serialise after
      // is in the table this load returns (DESIGN.md §15).
      OccEngine::Record* rec =
          engine_->FindRecord<std::memory_order_seq_cst>(absent_reads_[i]);
      if (rec == nullptr) continue;
      OccEngine::Version* v = nullptr;
      if (WritesRecord(rec)) {
        // We hold this record's lock (we may even have just created it),
        // so its fields are stable: no consistent-read loop needed.
        v = rec->version.load(std::memory_order_seq_cst);
      } else {
        // We hold our own write-set locks here, so we must not wait on
        // another committer (ReadRecord spins on the lock bit; two
        // committers waiting on each other's locked records would
        // deadlock, and this path is outside the ordered-acquisition
        // argument).  One-shot tid/version/tid snapshot instead: a
        // locked or unstable record is being rewritten right now, which
        // is a conflict for an absent read anyway.
        uint64_t t1 = rec->tid.load(std::memory_order_seq_cst);
        if ((t1 & OccEngine::kLockBit) != 0) {
          verdict =
              Status::Conflict("occ: absent-read record locked by another txn");
          break;
        }
        v = rec->version.load(std::memory_order_seq_cst);
        uint64_t t2 = rec->tid.load(std::memory_order_seq_cst);
        if (t1 != t2) {
          verdict = Status::Conflict(
              "occ: absent-read record rewritten during validation");
          break;
        }
      }
      if (v != nullptr && !v->tombstone) {
        verdict = Status::Conflict("occ: key created since absent read");
        break;
      }
    }
  }
  if (!verdict.ok()) {
    for (auto w = writes_.begin(); w != writes_end; ++w) {
      w->record->tid.store(w->unlocked_tid, std::memory_order_seq_cst);
    }
    state_->validation_fails.fetch_add(1, std::memory_order_relaxed);
    state_->aborts.fetch_add(1, std::memory_order_relaxed);
    Finish();
    return verdict;
  }

  // Phase 3: install under one fresh commit TID.  The serialization epoch
  // is read while every write-set lock is held, so epoch boundaries are
  // consistent with the serial order (Silo's group-commit invariant).
  if (write_count_ > 0) {
    uint64_t epoch = engine_->epoch_.load(std::memory_order_seq_cst);
    uint64_t tid = OccEngine::MakeTid(epoch, ++state_->seq, state_->thread_id);
    for (auto w = writes_.begin(); w != writes_end; ++w) {
      // The write entry takes the recycled version's buffer in exchange,
      // so the next write to this slot reuses its capacity.
      OccEngine::Version* nv = OccEngine::NewVersion(state_);
      nv->value.swap(w->value);
      nv->tombstone = w->is_delete;
      OccEngine::Version* old =
          w->record->version.exchange(nv, std::memory_order_seq_cst);
      w->record->tid.store(tid, std::memory_order_seq_cst);  // clears the lock
      engine_->Retire(state_, old);
    }
  }
  state_->commits.fetch_add(1, std::memory_order_relaxed);
  Finish();
  engine_->FlushRetired(state_);
  return Status::OK();
}

}  // namespace txn
}  // namespace ycsbt
