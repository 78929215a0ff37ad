#include "txn/client_txn_store.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "common/clock.h"
#include "common/latency_model.h"
#include "common/logging.h"
#include "common/op_context.h"
#include "common/random.h"
#include "common/retry_policy.h"
#include "common/rpc_executor.h"

namespace ycsbt {
namespace txn {

namespace {

/// Chooses the newest committed version of `record` with commit_ts <=
/// `snapshot_ts`.  Returns OK and fills `*value`/`*version_ts`, or NotFound
/// when no version is visible.
Status VisibleVersion(const TxRecord& record, uint64_t snapshot_ts,
                      std::string* value, uint64_t* version_ts) {
  if (record.commit_ts != 0 && record.commit_ts <= snapshot_ts) {
    if (value != nullptr) *value = record.value;
    if (version_ts != nullptr) *version_ts = record.commit_ts;
    return Status::OK();
  }
  if (record.has_prev && record.prev_commit_ts != 0 &&
      record.prev_commit_ts <= snapshot_ts) {
    if (value != nullptr) *value = record.prev_value;
    if (version_ts != nullptr) *version_ts = record.prev_commit_ts;
    return Status::OK();
  }
  return Status::NotFound("no version visible at snapshot");
}

bool LeaseExpired(const TxRecord& record, uint64_t lease_us) {
  return WallMicros() > record.lock_ts + lease_us;
}

/// The write that applies a committed lock holder's pending write to `key`,
/// CASed against `etag`, the etag of `locked` as stored: a pending delete
/// removes the record, a pending value becomes the committed version.
kv::WriteOp RollForwardOp(const std::string& key, const TxRecord& locked,
                          uint64_t etag, uint64_t commit_ts) {
  if (locked.pending_delete) return kv::WriteOp::CondDelete(key, etag);
  TxRecord rolled = locked;
  rolled.RollForward(commit_ts);
  return kv::WriteOp::CondPut(key, EncodeTxRecord(rolled), etag);
}

/// The write that undoes an uncommitted lock on `key`, CASed against
/// `etag`: the record goes back to its committed versions, or is deleted
/// when it was created solely to carry the lock.
kv::WriteOp RollBackOp(const std::string& key, const TxRecord& locked,
                       uint64_t etag) {
  if (locked.commit_ts == 0 && !locked.has_prev) {
    return kv::WriteOp::CondDelete(key, etag);
  }
  TxRecord restored = locked;
  restored.ClearLock();
  return kv::WriteOp::CondPut(key, EncodeTxRecord(restored), etag);
}

}  // namespace

// ---------------------------------------------------------------------------
// ClientTxn
// ---------------------------------------------------------------------------

/// One in-flight transaction; see the protocol walkthrough on ClientTxnStore.
class ClientTxn : public Transaction {
 public:
  /// `seq` is the store-wide transaction number, used (with the configured
  /// seed) to give every transaction its own deterministic jitter stream.
  ClientTxn(ClientTxnStore* store, std::string id, uint64_t start_ts,
            uint64_t seq)
      : store_(store),
        id_(std::move(id)),
        start_ts_(start_ts),
        jitter_rng_(store->options_.seed ^
                    (0x9E3779B97F4A7C15ull * (seq + 1))) {}

  ~ClientTxn() override {
    if (state_ == State::kActive) Abort();
  }

  uint64_t start_ts() const override { return start_ts_; }

  Status Read(const std::string& key, std::string* value) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    // Read-your-writes from the local buffer.
    auto wit = writes_.find(key);
    if (wit != writes_.end()) {
      if (wit->second.is_delete) return Status::NotFound(key);
      if (value != nullptr) *value = wit->second.value;
      return Status::OK();
    }

    TxRecord record;
    uint64_t etag = kv::kEtagAbsent;
    Status s = store_->LoadRecord(key, &record, &etag);
    return FinishRead(key, std::move(record), etag, std::move(s), value);
  }

  void MultiRead(const std::vector<std::string>& keys,
                 std::vector<TxReadResult>* results) override {
    results->clear();
    results->resize(keys.size());
    if (state_ != State::kActive) {
      for (auto& r : *results) r.status = Status::InvalidArgument("txn finished");
      return;
    }
    // Buffered writes answer locally; everything else is prefetched with one
    // batched read so the snapshot fetches' round trips overlap.
    std::vector<size_t> fetch_index;
    std::vector<std::string> fetch_keys;
    fetch_index.reserve(keys.size());
    fetch_keys.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto wit = writes_.find(keys[i]);
      if (wit != writes_.end()) {
        TxReadResult& r = (*results)[i];
        if (wit->second.is_delete) {
          r.status = Status::NotFound(keys[i]);
        } else {
          r.value = wit->second.value;
          r.status = Status::OK();
        }
        continue;
      }
      fetch_index.push_back(i);
      fetch_keys.push_back(keys[i]);
    }
    if (fetch_keys.empty()) return;
    if (!UseBatches(fetch_keys.size())) {
      for (size_t j = 0; j < fetch_keys.size(); ++j) {
        TxReadResult& r = (*results)[fetch_index[j]];
        r.status = Read(fetch_keys[j], &r.value);
      }
      return;
    }
    std::vector<LoadedRecord> loaded;
    store_->MultiLoadRecords(fetch_keys, &loaded);
    for (size_t j = 0; j < fetch_keys.size(); ++j) {
      // Lock resolution (TSR lookups, recovery) stays per-key on this
      // thread; the batch only prefetched the record fetches.
      TxReadResult& r = (*results)[fetch_index[j]];
      r.status = FinishRead(fetch_keys[j], std::move(loaded[j].record),
                            loaded[j].etag, std::move(loaded[j].status),
                            &r.value);
    }
  }

  Status Write(const std::string& key, std::string_view value) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    writes_[key] = PendingWrite{std::string(value), /*is_delete=*/false};
    return Status::OK();
  }

  Status Delete(const std::string& key) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    writes_[key] = PendingWrite{std::string(), /*is_delete=*/true};
    return Status::OK();
  }

  Status Scan(const std::string& start_key, size_t limit,
              std::vector<TxScanEntry>* out) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    return store_->ScanSnapshot(start_key, limit, start_ts_, out);
  }

  Status Commit() override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    if (writes_.empty()) {
      // Read-only SI transaction: the snapshot is already consistent.
      Finish(State::kCommitted);
      return Status::OK();
    }

    Status s = AcquireLocks();
    if (!s.ok()) {
      ReleaseLocks();
      Finish(State::kAborted);
      return s;
    }

    if (Crash(CrashPoint::kAfterLockPuts)) {
      // Simulated client death holding locks with no TSR: nothing is
      // released, so recovery must roll this transaction back.
      return CrashAbandonedUncommitted("after lock puts");
    }

    if (store_->options_.isolation == Isolation::kSerializable) {
      s = ValidateReads();
      if (!s.ok()) {
        store_->validation_fails_.fetch_add(1, std::memory_order_relaxed);
        ReleaseLocks();
        Finish(State::kAborted);
        return s;
      }
    }

    // Commit point: the TSR write.  Its success makes the transaction
    // durable even if this client dies before rolling anything forward.
    uint64_t commit_ts = store_->ts_source_->Next();
    TsrRecord tsr;
    tsr.state = TsrRecord::State::kCommitted;
    tsr.commit_ts = commit_ts;
    std::string tsr_key = store_->TsrKey(id_);
    s = store_->base_->ConditionalPut(tsr_key, EncodeTsr(tsr), kv::kEtagAbsent);
    if (!s.ok()) {
      bool committed_after_all = false;
      if (!s.IsConflict() && !s.IsLeadershipChange()) {
        // Ambiguous commit point: the reply was lost, so the TSR may or may
        // not be in the store.  The TSR key is the atomic arbiter — re-read
        // it until the outcome is known before touching any lock.  Exempt
        // from deadline/breaker fail-fast: cutting the settle loop short
        // abandons a possibly-committed transaction to recovery.
        // (Conflict and NotLeader are NOT ambiguous: a lost CAS means
        // another writer owns the key, and a mid-election gate rejects the
        // request before it can touch the store — the TSR definitively
        // never landed and the transaction may abort cleanly.)
        OpExemptScope settle_exempt;
        Status rs = SettleAmbiguousCommit(&committed_after_all);
        if (!rs.ok()) return rs;  // abandoned as crashed; recovery settles it
        store_->ambiguous_commits_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!committed_after_all) {
        // A blocked reader decided the race by planting an ABORTED status
        // record for us (or the write genuinely never landed): we may not
        // commit.  Undo the locks and clean up the planted TSR (all our
        // locks are cleared, so nobody needs it).
        ReleaseLocks();
        if (store_->options_.cleanup_tsr) {
          store_->base_->Delete(tsr_key);
        }
        Finish(State::kAborted);
        if (s.IsLeadershipChange()) {
          // Surface NotLeader itself: the retry loop classifies it as a
          // leadership change and waits out the election's redirect hint
          // instead of climbing the backoff ladder.
          return s;
        }
        return Status::Aborted("commit denied: " + s.ToString());
      }
    }

    // Past the commit point: the transaction is durably committed, and
    // everything below is cleanup (roll-forward, TSR delete).  Exempt from
    // deadline/breaker fail-fast — abandoning it would be *safe* (the TSR
    // arbitrates recovery) but turns every overloaded commit into recovery
    // churn for later readers, and hedging/fencing these mutations is
    // exactly what the resilience layer must never do to committed work.
    OpExemptScope cleanup_exempt;

    if (Crash(CrashPoint::kAfterTsrPut)) {
      // Died at the commit point: durably committed, nothing applied.
      return CrashAbandonedCommitted(commit_ts, /*roll_first=*/0);
    }
    if (Crash(CrashPoint::kMidRollForward)) {
      // Died half-way through applying: the partial-apply tear recovery
      // must finish.
      return CrashAbandonedCommitted(commit_ts, acquired_.size() / 2);
    }

    bool all_applied = RollForward(commit_ts, acquired_.size());

    if (Crash(CrashPoint::kBeforeTsrDelete)) {
      // Everything applied but the TSR lingers; readers tolerate (and
      // eventually garbage-collect around) a committed TSR with no locks.
      store_->injected_crashes_.fetch_add(1, std::memory_order_relaxed);
      Finish(State::kCommitted);
      return Status::OK();
    }

    if (store_->options_.cleanup_tsr && all_applied) {
      // Best effort; recovery handles leftovers.  Deleting while a failed
      // roll-forward left a lock pending would be fatal, not cosmetic: the
      // TSR is the only proof that pending write committed, and without it
      // recovery would roll the committed write BACK.
      store_->base_->Delete(tsr_key);
    }
    Finish(State::kCommitted);
    return Status::OK();
  }

  Status Abort() override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    ReleaseLocks();
    Finish(State::kAborted);
    return Status::OK();
  }

 private:
  friend class ClientTxnStore;  // its reader resolution waits via LockWaitSleep

  enum class State { kActive, kCommitted, kAborted };

  /// Ends the transaction in `end` and counts it as a commit or an abort.
  void Finish(State end) {
    state_ = end;
    (end == State::kCommitted ? store_->commits_ : store_->aborts_)
        .fetch_add(1, std::memory_order_relaxed);
  }

  bool Crash(CrashPoint point) {
    CrashInjector* injector = store_->options_.crash_injector;
    return injector != nullptr && injector->ShouldCrash(point);
  }

  struct PendingWrite {
    std::string value;
    bool is_delete = false;
  };

  struct AcquiredLock {
    std::string key;
    uint64_t etag = 0;      // etag of the record *with our lock in place*
    TxRecord record;        // the locked record as written
  };

  /// What the snapshot read of one key saw.  `version_ts` is the version it
  /// returned (0 = nothing visible).  `lock_hint` is the load exactly as it
  /// came back from the store when it needed no lock resolution — an
  /// unlocked record with its etag, or NotFound at `kEtagAbsent` — and is
  /// reused as `AcquireOne`'s first attempt instead of re-reading the key.
  struct ReadEntry {
    uint64_t version_ts = 0;
    std::optional<LoadedRecord> lock_hint;
  };

  /// Shared tail of `Read`/`MultiRead`: takes the freshly-loaded (or
  /// prefetched) record plus its load status and finishes the snapshot read
  /// — lock resolution, version selection, and `reads_` bookkeeping.
  Status FinishRead(const std::string& key, TxRecord record, uint64_t etag,
                    Status s, std::string* value) {
    if (s.IsNotFound()) {
      reads_[key] = ReadEntry{0, LoadedRecord{s, TxRecord{}, kv::kEtagAbsent}};
      return s;
    }
    if (!s.ok()) return s;

    // A locked record's view is resolved (and possibly repaired) here, so
    // it is no longer the stored state: such keys get no lock hint.
    const bool resolved = record.Locked();
    if (resolved) {
      s = store_->ResolveForRead(key, &record, &etag, this);
      if (s.IsNotFound()) {
        reads_[key] = ReadEntry{};
        return s;
      }
      if (!s.ok()) return s;
    }

    uint64_t version_ts = 0;
    std::string out;
    s = VisibleVersion(record, start_ts_, &out, &version_ts);
    ReadEntry entry{s.ok() ? version_ts : 0, std::nullopt};
    if (!resolved) {
      entry.lock_hint = LoadedRecord{Status::OK(), std::move(record), etag};
    }
    reads_[key] = std::move(entry);
    if (s.IsNotFound()) return s;
    if (value != nullptr) *value = std::move(out);
    return Status::OK();
  }

  /// The snapshot read's load of `key`, when it can stand in for the lock
  /// round's first read; nullptr for keys never read or read through a lock.
  const LoadedRecord* LockHint(const std::string& key) const {
    auto it = reads_.find(key);
    if (it == reads_.end() || !it->second.lock_hint) return nullptr;
    return &*it->second.lock_hint;
  }

  /// True when batched store ops should replace per-key loops: an enabled
  /// fan-out executor is configured and the batch is big enough to matter.
  /// With no executor every phase keeps the exact sequential seed behaviour.
  bool UseBatches(size_t items) const {
    const std::shared_ptr<RpcExecutor>& ex = store_->options_.executor;
    return ex != nullptr && ex->enabled() && items >= 2;
  }

  /// Bounded-politeness sleep before re-probing a busy lock.  Decorrelated
  /// jitter (when enabled) spreads contending clients out instead of letting
  /// a fixed delay synchronize them into convoys that re-collide on every
  /// probe; the per-transaction RNG keeps same-seed runs identical.
  void LockWaitSleep() {
    const TxnOptions& opt = store_->options_;
    uint64_t delay_us = opt.lock_wait_delay_us;
    if (opt.lock_wait_jitter && delay_us != 0) {
      delay_us = DecorrelatedJitterUs(jitter_rng_, opt.lock_wait_delay_us,
                                      opt.lock_wait_max_delay_us,
                                      &lock_wait_prev_us_);
    }
    if (delay_us != 0) SleepMicros(delay_us);
  }

  /// Lock acquisition (DESIGN.md §10).  Each key's first lock attempt starts
  /// from a hint instead of a fresh read: the snapshot read's own load when
  /// the transaction read the key (`LockHint`), else — with fan-out — one
  /// batched prefetch of the remaining keys.  A stale hint is harmless: the
  /// lock is an etag CAS, so staleness loses the CAS and the retry re-reads.
  /// Ordered mode (default) then CASes the lock puts sequentially in global
  /// key order — the classical deadlock-freedom argument needs only the
  /// *puts* ordered (every client acquires in the same total order, so no
  /// wait cycle can form), so the reads may overlap freely.  No-wait mode
  /// fans the whole read+CAS round out in parallel.
  Status AcquireLocks() {
    uint64_t now_us = WallMicros();
    bool fanout = UseBatches(writes_.size());
    if (fanout && store_->options_.lock_acquire_mode ==
                      TxnOptions::LockAcquireMode::kNoWait) {
      return AcquireLocksNoWait(now_us);
    }
    std::vector<const LoadedRecord*> hints;
    std::vector<size_t> fetch_index;
    std::vector<std::string> fetch_keys;
    hints.reserve(writes_.size());
    for (const auto& [key, pending] : writes_) {
      hints.push_back(LockHint(key));
      if (fanout && hints.back() == nullptr) {
        fetch_index.push_back(hints.size() - 1);
        fetch_keys.push_back(key);
      }
    }
    std::vector<LoadedRecord> prefetched;
    if (!fetch_keys.empty()) {
      store_->MultiLoadRecords(fetch_keys, &prefetched);
      for (size_t j = 0; j < fetch_keys.size(); ++j) {
        hints[fetch_index[j]] = &prefetched[j];
      }
    }
    size_t index = 0;
    for (const auto& [key, pending] : writes_) {  // std::map: sorted keys
      AcquiredLock lock;
      Status s = AcquireOne(key, pending, now_us, hints[index++],
                            /*no_wait=*/false, &lock);
      if (!s.ok()) return s;
      acquired_.push_back(std::move(lock));
    }
    return Status::OK();
  }

  /// No-wait parallel acquisition: every key's read+CAS round is one fan-out
  /// item.  Deadlock-free because no item ever waits on a busy lock — ANY
  /// contention fails the round with Conflict, the caller releases whatever
  /// locks did land, and the transaction retry loop re-runs from scratch.
  Status AcquireLocksNoWait(uint64_t now_us) {
    std::vector<const std::string*> keys;
    std::vector<const PendingWrite*> pendings;
    std::vector<const LoadedRecord*> hints;
    keys.reserve(writes_.size());
    pendings.reserve(writes_.size());
    hints.reserve(writes_.size());
    for (const auto& [key, pending] : writes_) {
      keys.push_back(&key);
      pendings.push_back(&pending);
      hints.push_back(LockHint(key));
    }
    std::vector<AcquiredLock> slots(keys.size());
    std::vector<char> held(keys.size(), 0);
    std::vector<Status> statuses = store_->options_.executor->ParallelForEach(
        keys.size(), [&](size_t i) {
          Status s = AcquireOne(*keys[i], *pendings[i], now_us, hints[i],
                                /*no_wait=*/true, &slots[i]);
          if (s.ok()) held[i] = 1;
          return s;
        });
    Status failure;
    for (size_t i = 0; i < keys.size(); ++i) {
      // Locks that DID land are tracked even when the round failed, so the
      // caller's ReleaseLocks undoes them.
      if (held[i] != 0) {
        acquired_.push_back(std::move(slots[i]));
      } else if (failure.ok() && !statuses[i].ok()) {
        failure = statuses[i];
      }
    }
    return failure;
  }

  /// One key's lock round: read (or consume the hint on the first attempt),
  /// run the conflict checks, CAS the lock put.  On success `*out` holds the
  /// acquired lock; the caller owns tracking it.
  Status AcquireOne(const std::string& key, const PendingWrite& pending,
                    uint64_t now_us, const LoadedRecord* hint,
                    bool no_wait, AcquiredLock* out) {
    for (int attempt = 0; attempt <= store_->options_.lock_wait_retries; ++attempt) {
      TxRecord record;
      uint64_t etag = kv::kEtagAbsent;
      Status s;
      if (attempt == 0 && hint != nullptr) {
        // A stale hint is harmless: the CAS re-checks the etag, and any
        // retry re-reads fresh.
        s = hint->status;
        record = hint->record;
        etag = hint->etag;
      } else {
        s = store_->LoadRecord(key, &record, &etag);
      }
      if (!s.ok() && !s.IsNotFound()) return s;
      bool exists = s.ok();

      if (exists && record.Locked()) {
        if (LeaseExpired(record, store_->options_.lock_lease_us)) {
          Status rs = store_->RecoverLock(key, &record, &etag);
          if (!rs.ok() && !rs.IsNotFound() && !rs.IsBusy()) return rs;
          continue;  // re-read and retry
        }
        store_->lock_busy_.fetch_add(1, std::memory_order_relaxed);
        if (no_wait) {
          // Never hold-and-wait: surface the contention immediately so the
          // whole round can be released and retried.
          store_->conflicts_.fetch_add(1, std::memory_order_relaxed);
          return Status::Conflict("lock busy (no-wait) on " + key);
        }
        LockWaitSleep();
        continue;
      }

      // First-committer-wins: a version committed after our snapshot means a
      // concurrent transaction beat us to this key.
      if (exists && record.commit_ts > start_ts_) {
        store_->conflicts_.fetch_add(1, std::memory_order_relaxed);
        return Status::Conflict("write-write conflict on " + key);
      }
      // Commits remove deleted records physically, so a missing record can
      // itself be the newer version.  Two cases are write-write conflicts:
      //  - deleting a vanished key (our delete lost to a concurrent one);
      //  - writing a vanished key our snapshot had READ as existing (a
      //    concurrent delete committed after our snapshot; recreating the
      //    record would resurrect it — the lost-delete anomaly).
      // A blind write to a key the transaction never read keeps insert
      // semantics.
      if (!exists) {
        auto read_it = reads_.find(key);
        bool saw_it_exist =
            read_it != reads_.end() && read_it->second.version_ts != 0;
        if (pending.is_delete || saw_it_exist) {
          store_->conflicts_.fetch_add(1, std::memory_order_relaxed);
          return Status::Conflict("key vanished under txn: " + key);
        }
      }

      TxRecord locked = exists ? record : TxRecord{};
      locked.lock_owner = id_;
      locked.lock_ts = now_us;
      locked.pending_value = pending.value;
      locked.pending_delete = pending.is_delete;

      uint64_t new_etag = 0;
      s = store_->base_->ConditionalPut(key, EncodeTxRecord(locked),
                                        exists ? etag : kv::kEtagAbsent, &new_etag);
      if (s.ok()) {
        *out = AcquiredLock{key, new_etag, std::move(locked)};
        return Status::OK();
      }
      if (!s.IsConflict()) {
        // Ambiguous failure (e.g. the reply was lost after the put applied):
        // re-read the record and claim the lock if it is already ours.
        TxRecord cur;
        uint64_t cur_etag = kv::kEtagAbsent;
        Status rl = store_->LoadRecord(key, &cur, &cur_etag);
        if (rl.ok() && cur.Locked() && cur.lock_owner == id_) {
          *out = AcquiredLock{key, cur_etag, std::move(cur)};
          return Status::OK();
        }
        if (!rl.ok() && !rl.IsNotFound()) return s;
        continue;  // the put never landed; retry from a fresh read
      }
      // Someone interleaved between our read and CAS; loop and re-read.
    }
    store_->lock_busy_.fetch_add(1, std::memory_order_relaxed);
    return Status::Aborted("could not lock " + key);
  }

  /// Serializable mode: every read must still be the latest committed
  /// version now that all write locks are held.  The re-reads are pure
  /// point lookups, so they fan out as one batch when an executor is set.
  Status ValidateReads() {
    std::vector<std::string> keys;
    std::vector<uint64_t> observed;
    keys.reserve(reads_.size());
    observed.reserve(reads_.size());
    for (const auto& [key, entry] : reads_) {
      if (writes_.count(key) != 0) continue;  // re-checked by the lock CAS
      keys.push_back(key);
      observed.push_back(entry.version_ts);
    }
    std::vector<LoadedRecord> loaded;
    if (UseBatches(keys.size())) {
      store_->MultiLoadRecords(keys, &loaded);
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      TxRecord record;
      uint64_t etag = kv::kEtagAbsent;
      Status s;
      if (!loaded.empty()) {
        s = loaded[i].status;
        record = std::move(loaded[i].record);
      } else {
        s = store_->LoadRecord(keys[i], &record, &etag);
      }
      if (s.IsNotFound()) {
        if (observed[i] == 0) continue;  // still absent
        return Status::Aborted("validation: " + keys[i] + " disappeared");
      }
      if (!s.ok()) return s;
      if (record.Locked()) {
        return Status::Aborted("validation: " + keys[i] + " locked by writer");
      }
      if (record.commit_ts != observed[i]) {
        return Status::Aborted("validation: " + keys[i] + " changed");
      }
    }
    return Status::OK();
  }

  /// Applies `ops` in order and fills one result per op.  `batch` sends
  /// them as one `MultiWrite` (fanned out by the store); otherwise each op is
  /// its own single-key call, in order — the sequential protocol's calls.
  void ApplyWrites(const std::vector<kv::WriteOp>& ops, bool batch,
                   std::vector<kv::WriteResult>* results) {
    if (batch) {
      store_->base_->MultiWrite(ops, results);
      return;
    }
    results->clear();
    results->resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      (*results)[i].status =
          kv::ApplyWriteOp(*store_->base_, ops[i], &(*results)[i].etag);
    }
  }

  /// Rolls the first `count` acquired locks forward.  Returns true only when
  /// each is known applied (or repaired by a reader); on false some record
  /// still holds a pending write that only the TSR can prove committed.
  /// Past the commit point every item is an independent conditional op, so a
  /// whole apply fans out as one batch; a crashed client's partial apply
  /// (`count` short of all) stays one call per lock.  A per-item failure
  /// means the same either way: leave that lock to recovery.
  bool RollForward(uint64_t commit_ts, size_t count) {
    std::vector<kv::WriteOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const AcquiredLock& lock = acquired_[i];
      ops.push_back(RollForwardOp(lock.key, lock.record, lock.etag, commit_ts));
    }
    std::vector<kv::WriteResult> results;
    ApplyWrites(ops, count == acquired_.size() && UseBatches(count), &results);
    bool all_applied = true;
    for (size_t i = 0; i < results.size(); ++i) {
      const Status& s = results[i].status;
      // A Conflict means a reader recovered the lock for us after the TSR
      // became visible — the record already carries the committed state.
      if (!s.ok() && !s.IsConflict()) {
        YCSBT_WARN("roll-forward of " << acquired_[i].key
                                      << " failed: " << s.ToString());
        all_applied = false;
      }
    }
    store_->ts_source_->Observe(commit_ts);
    return all_applied;
  }

  /// The TSR write returned a non-conflict error: the record may or may not
  /// have landed (reply lost after apply).  Re-reads the TSR — the single
  /// atomic arbiter — until the outcome is known; OK means `*committed`
  /// holds the settled verdict.  If the store stays unreachable the
  /// transaction is abandoned exactly like a crash (locks and a possible
  /// TSR left in place for recovery) and a non-retryable error returned:
  /// retrying a transaction whose first incarnation might still commit
  /// would apply its effects twice.
  Status SettleAmbiguousCommit(bool* committed) {
    // A leader election is patience, not unreachability: the re-read will
    // succeed against the new leader once the election completes, so
    // NotLeader answers spend a separate (much larger) wait budget instead
    // of the unreachable-store attempt budget.  Each re-read also counts
    // against a count-scripted election's completion budget, so the loop
    // itself drives the failover forward.
    int leadership_waits = 1024;
    for (int attempt = 0; attempt < 64; ++attempt) {
      TsrRecord settled;
      Status g = store_->ReadTsr(id_, &settled);
      if (g.ok()) {
        *committed = settled.state == TsrRecord::State::kCommitted;
        return Status::OK();
      }
      if (g.IsNotFound()) {
        *committed = false;  // the write never landed
        return Status::OK();
      }
      // The store never answers a read with Corruption: the TSR is there but
      // undecodable, and no re-read will change that.
      if (g.IsCorruption()) return g;
      if (g.IsLeadershipChange() && leadership_waits > 0) {
        --leadership_waits;
        uint64_t hint = RetryAfterUsHint(g);
        SleepMicros(hint > 0 ? std::min<uint64_t>(hint, 5'000) : 100);
        --attempt;  // an election in progress is not a failed re-read
        continue;
      }
      SleepMicros(100);
    }
    YCSBT_WARN("txn " << id_ << ": commit outcome unknown after TSR re-reads");
    acquired_.clear();  // a dead client releases nothing
    Finish(State::kAborted);
    return Status::IOError("commit outcome unknown; transaction abandoned");
  }

  /// Simulated client death before the commit point: every acquired lock is
  /// left in the store with no TSR, so recovery rolls the transaction back.
  Status CrashAbandonedUncommitted(const char* where) {
    store_->injected_crashes_.fetch_add(1, std::memory_order_relaxed);
    acquired_.clear();  // a dead client releases nothing
    Finish(State::kAborted);
    return Status::Aborted(std::string("injected crash ") + where);
  }

  /// Simulated client death at/after the commit point: the TSR is durable,
  /// so the transaction IS committed even though only the first `roll_first`
  /// locks were applied; later readers repair the rest via the TSR.
  Status CrashAbandonedCommitted(uint64_t commit_ts, size_t roll_first) {
    store_->injected_crashes_.fetch_add(1, std::memory_order_relaxed);
    RollForward(commit_ts, std::min(roll_first, acquired_.size()));
    acquired_.clear();  // the rest stays locked until recovery finds it
    Finish(State::kCommitted);
    return Status::OK();
  }

  /// Abort path: undo every lock we planted (no TSR was written, so readers
  /// treat the pending values as void).  Per-item conditional ops with no
  /// ordering dependency, so the undo fans out as one batch.  Conflicts are
  /// fine either way: a recovering reader already rolled us back.
  void ReleaseLocks() {
    std::vector<kv::WriteOp> ops;
    ops.reserve(acquired_.size());
    for (const auto& lock : acquired_) {
      ops.push_back(RollBackOp(lock.key, lock.record, lock.etag));
    }
    std::vector<kv::WriteResult> results;
    ApplyWrites(ops, UseBatches(ops.size()), &results);
    acquired_.clear();
  }

  ClientTxnStore* store_;
  const std::string id_;
  const uint64_t start_ts_;
  State state_ = State::kActive;

  std::map<std::string, PendingWrite> writes_;  // sorted: ordered locking
  std::map<std::string, ReadEntry> reads_;      // the snapshot's read set
  std::vector<AcquiredLock> acquired_;

  // Decorrelated-jitter state for LockWaitSleep (seeded per transaction;
  // only ever touched from the owning client thread).
  Random64 jitter_rng_;
  uint64_t lock_wait_prev_us_ = 0;
};

// ---------------------------------------------------------------------------
// ClientTxnStore
// ---------------------------------------------------------------------------

TxnOptions TxnOptions::FromProperties(const Properties& props) {
  TxnOptions o;
  o.isolation = kTxnIsolation.GetEnum<Isolation>(props);
  o.lock_lease_us = kTxnLeaseUs.Get<uint64_t>(props);
  o.cleanup_tsr = kTxnCleanupTsr.Get<bool>(props);
  o.lock_wait_jitter = kTxnLockWaitJitter.Get<bool>(props);
  o.lock_wait_delay_us = kTxnLockWaitDelayUs.Get<uint64_t>(props);
  o.lock_wait_max_delay_us =
      kTxnLockWaitMaxDelayUs.Get<uint64_t>(props, o.lock_wait_delay_us * 8);
  o.seed = kSeed.Get<uint64_t>(props);
  o.lock_acquire_mode = kTxnLockAcquireMode.GetEnum<LockAcquireMode>(props);
  return o;
}

ClientTxnStore::ClientTxnStore(std::shared_ptr<kv::Store> base,
                               std::shared_ptr<TimestampSource> ts_source,
                               TxnOptions options)
    : base_(std::move(base)),
      ts_source_(std::move(ts_source)),
      options_(std::move(options)) {
  Random64 rng(SteadyNanos() ^ reinterpret_cast<uintptr_t>(this));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(rng.Next()));
  client_id_ = buf;
}

std::string ClientTxnStore::TxnIdFor(uint64_t seq) const {
  return client_id_ + "-" + std::to_string(seq);
}

std::unique_ptr<Transaction> ClientTxnStore::Begin() {
  uint64_t seq = txn_counter_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<ClientTxn>(this, TxnIdFor(seq), ts_source_->Next(),
                                     seq);
}

Status ClientTxnStore::LoadRecord(const std::string& key, TxRecord* record,
                                  uint64_t* etag) {
  std::string data;
  Status s = base_->Get(key, &data, etag);
  if (!s.ok()) return s;
  return DecodeTxRecord(data, record);
}

void ClientTxnStore::MultiLoadRecords(const std::vector<std::string>& keys,
                                      std::vector<LoadedRecord>* out) {
  std::vector<kv::MultiGetResult> raw;
  base_->MultiGet(keys, &raw);
  out->clear();
  out->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    LoadedRecord& row = (*out)[i];
    row.etag = raw[i].etag;
    row.status = raw[i].status;
    if (row.status.ok()) {
      row.status = DecodeTxRecord(raw[i].value, &row.record);
    }
  }
}

Status ClientTxnStore::ReadTsr(const std::string& owner, TsrRecord* tsr) {
  std::string data;
  Status s = base_->Get(TsrKey(owner), &data);
  if (!s.ok()) return s;
  return DecodeTsr(data, tsr);
}

Status ClientTxnStore::PlantAbortedTsr(const std::string& owner) {
  TsrRecord aborted;
  aborted.state = TsrRecord::State::kAborted;
  return base_->ConditionalPut(TsrKey(owner), EncodeTsr(aborted), kv::kEtagAbsent);
}

Status ClientTxnStore::RecoverLock(const std::string& key, TxRecord* record,
                                   uint64_t* etag) {
  if (!record->Locked()) return Status::OK();
  if (!LeaseExpired(*record, options_.lock_lease_us)) return Status::Busy();

  // The owner's TSR decides the lock's fate: committed -> roll forward,
  // aborted -> roll back.  An *absent* TSR is not enough to roll back: the
  // owner may merely be slow and could still reach its commit point, which
  // would tear its transaction in half (this key rolled back, others rolled
  // forward).  So recovery first *decides* the outcome by planting an
  // ABORTED status record; the TSR key's must-not-exist write arbitrates
  // atomically between the recoverer and the owner's commit.
  const std::string owner = record->lock_owner;
  TsrRecord tsr;
  Status ts = ReadTsr(owner, &tsr);
  if (ts.IsNotFound()) {
    Status plant = PlantAbortedTsr(owner);
    if (plant.ok()) {
      tsr.state = TsrRecord::State::kAborted;  // what the plant wrote
      ts = Status::OK();
    } else if (plant.IsConflict()) {
      ts = ReadTsr(owner, &tsr);  // owner just committed/aborted
    } else {
      return plant;
    }
  }
  if (ts.IsNotFound()) {
    // Owner finished and cleaned its TSR between our Get and the plant's
    // conflict: its locks are gone; reload and re-evaluate.
    return LoadRecord(key, record, etag);
  }
  if (!ts.ok()) return ts;

  const bool committed = tsr.state == TsrRecord::State::kCommitted;
  kv::WriteOp op = committed ? RollForwardOp(key, *record, *etag, tsr.commit_ts)
                             : RollBackOp(key, *record, *etag);
  uint64_t new_etag = 0;
  Status s = kv::ApplyWriteOp(*base_, op, &new_etag);
  if (s.ok()) {
    (committed ? roll_forwards_ : roll_backs_)
        .fetch_add(1, std::memory_order_relaxed);
    if (op.kind == kv::WriteOp::Kind::kConditionalDelete) {
      return Status::NotFound(key);
    }
    *etag = new_etag;
    return DecodeTxRecord(op.value, record);  // the state just written
  }
  if (!s.IsConflict()) return s;
  // CAS lost: somebody else recovered (or the owner finished).  Reload so the
  // caller sees the fresh state.
  return LoadRecord(key, record, etag);
}

Status ClientTxnStore::ResolveForRead(const std::string& key, TxRecord* record,
                                      uint64_t* etag, ClientTxn* waiter) {
  for (int attempt = 0; /* exits below */; ++attempt) {
    if (!record->Locked()) return Status::OK();

    // Has the owner already decided?  A committed TSR makes the pending write
    // live regardless of lease age; an aborted one voids it, leaving the
    // record's committed versions authoritative.
    TsrRecord tsr;
    Status ts = ReadTsr(record->lock_owner, &tsr);
    if (!ts.ok() && !ts.IsNotFound()) return ts;
    const bool committed = ts.ok() && tsr.state == TsrRecord::State::kCommitted;
    if (ts.ok() && !committed) return Status::OK();

    if (LeaseExpired(*record, options_.lock_lease_us)) {
      // The owner died after its commit point, or abandoned an undecided
      // lock: repair the record in the store on its behalf, then serve from
      // the repaired state.
      Status rs = RecoverLock(key, record, etag);
      if (rs.IsNotFound() || (!rs.ok() && !rs.IsBusy())) return rs;
      if (waiter == nullptr) return Status::OK();
      continue;
    }
    if (committed) {
      // Owner is alive and mid-roll-forward: apply the pending write to our
      // local view only.
      if (record->pending_delete) return Status::NotFound(key);
      record->RollForward(tsr.commit_ts);
      return Status::OK();
    }

    // TSR absent, fresh lock: the pending write is not committed yet, which
    // is all a no-wait reader needs to know.
    if (waiter == nullptr) return Status::OK();

    // A waiting reader re-reads the record.  If the lock moved (owner
    // finished or someone recovered it) re-evaluate from the fresh state
    // instead of trusting our possibly-stale copy.
    TxRecord fresh;
    uint64_t fresh_etag;
    Status rl = LoadRecord(key, &fresh, &fresh_etag);
    if (!rl.ok()) return rl;
    if (fresh_etag != *etag) {
      *record = std::move(fresh);
      *etag = fresh_etag;
      continue;
    }

    if (attempt < options_.lock_wait_retries) {
      waiter->LockWaitSleep();
      continue;
    }

    // Bounded politeness exhausted: settle the outcome.  If our ABORTED
    // plant wins, the owner's commit point can never succeed and the
    // committed versions are final; if it loses, the owner committed and
    // the next loop iteration reads its TSR.
    Status plant = PlantAbortedTsr(record->lock_owner);
    if (plant.ok()) {
      reader_aborts_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (!plant.IsConflict()) return plant;
  }
}

Status ClientTxnStore::LoadPut(const std::string& key, std::string_view value) {
  return base_->Put(key, EncodeLoadValue(value));
}

std::string ClientTxnStore::EncodeLoadValue(std::string_view value) {
  TxRecord record;
  record.commit_ts = ts_source_->Next();
  record.value = std::string(value);
  return EncodeTxRecord(record);
}

Status ClientTxnStore::ReadCommitted(const std::string& key, std::string* value) {
  TxRecord record;
  uint64_t etag;
  Status s = LoadRecord(key, &record, &etag);
  if (!s.ok()) return s;
  // Resolved exactly like a scan's row: "latest committed" is a snapshot at
  // infinity.
  s = ResolveForRead(key, &record, &etag, /*waiter=*/nullptr);
  if (!s.ok()) return s;
  s = VisibleVersion(record, std::numeric_limits<uint64_t>::max(), value,
                     nullptr);
  return s.ok() ? s : Status::NotFound(key);
}

Status ClientTxnStore::ScanSnapshot(const std::string& start_key, size_t limit,
                                    uint64_t snapshot_ts,
                                    std::vector<TxScanEntry>* out) {
  out->clear();
  std::string cursor = start_key;
  // TSR keys live under a high prefix; stop before it.
  const std::string& tsr_prefix = options_.tsr_prefix;
  while (out->size() < limit) {
    std::vector<kv::ScanEntry> raw;
    size_t batch = std::max<size_t>(limit - out->size(), 16);
    Status s = base_->Scan(cursor, batch, &raw);
    if (!s.ok()) return s;
    if (raw.empty()) break;
    for (const auto& entry : raw) {
      if (entry.key.compare(0, tsr_prefix.size(), tsr_prefix) == 0) continue;
      TxRecord record;
      Status ds = DecodeTxRecord(entry.value, &record);
      if (!ds.ok()) return ds;
      if (record.Locked()) {
        uint64_t etag = entry.etag;
        Status rs = ResolveForRead(entry.key, &record, &etag, /*waiter=*/nullptr);
        if (rs.IsNotFound()) continue;  // committed outcome deleted the key
        if (!rs.ok()) return rs;
      }
      std::string value;
      if (VisibleVersion(record, snapshot_ts, &value, nullptr).ok()) {
        out->push_back(TxScanEntry{entry.key, std::move(value)});
        if (out->size() >= limit) break;
      }
    }
    // Advance past the last key of the batch.
    cursor = raw.back().key + '\0';
    if (raw.size() < batch) break;  // store exhausted
  }
  return Status::OK();
}

Status ClientTxnStore::ScanCommitted(const std::string& start_key, size_t limit,
                                     std::vector<TxScanEntry>* out) {
  // "Latest committed" is a snapshot at infinity.
  return ScanSnapshot(start_key, limit,
                      std::numeric_limits<uint64_t>::max(), out);
}

TxnStats ClientTxnStore::stats() const {
  TxnStats s;
  s.commits = commits_.load();
  s.aborts = aborts_.load();
  s.conflicts = conflicts_.load();
  s.lock_busy = lock_busy_.load();
  s.roll_forwards = roll_forwards_.load();
  s.roll_backs = roll_backs_.load();
  s.validation_fails = validation_fails_.load();
  s.reader_aborts = reader_aborts_.load();
  s.injected_crashes = injected_crashes_.load();
  s.ambiguous_commits = ambiguous_commits_.load();
  return s;
}

void ClientTxnStore::Collect(LayerStats* out) {
  TxnStats now = stats();
  out->Count("RECOVERY ROLLFORWARDS", now.roll_forwards - collected_.roll_forwards);
  out->Count("RECOVERY ROLLBACKS", now.roll_backs - collected_.roll_backs);
  out->Count("INJECTED CRASHES", now.injected_crashes - collected_.injected_crashes);
  out->Count("AMBIGUOUS COMMITS", now.ambiguous_commits - collected_.ambiguous_commits);
  collected_ = now;
}

}  // namespace txn
}  // namespace ycsbt
