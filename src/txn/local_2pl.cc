#include "txn/local_2pl.h"

#include <chrono>
#include <functional>
#include <new>

namespace ycsbt {
namespace txn {

namespace {

Status BusyOn(std::string_view what, std::string_view key) {
  std::string msg(what);
  msg.append(key);
  return Status::Busy(msg);
}

}  // namespace

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

LockManager::LockSet::Held* LockManager::LockSet::Find(size_t hash,
                                                       std::string_view key) {
  for (Held& held : held_) {
    if (held.hash == hash && held.slot->key == key) return &held;
  }
  return nullptr;
}

Status LockManager::AcquireShared(LockSet* set, std::string_view key) {
  return Acquire(set, key, /*exclusive=*/false, nullptr);
}

Status LockManager::AcquireExclusive(LockSet* set, std::string_view key,
                                     bool* newly) {
  return Acquire(set, key, /*exclusive=*/true, newly);
}

Status LockManager::Acquire(LockSet* set, std::string_view key, bool exclusive,
                            bool* newly) {
  const size_t hash = std::hash<std::string_view>{}(key);
  LockSet::Held* held = set->Find(hash, key);
  if (held != nullptr && (held->exclusive || !exclusive)) {
    if (newly != nullptr) *newly = false;
    return Status::OK();
  }
  const bool upgrade = held != nullptr;  // holds S, wants X

  Stripe& stripe = stripes_[hash % kStripes];
  std::unique_lock<std::mutex> lock(stripe.mu);
  Slot* slot = upgrade ? held->slot : nullptr;
  if (slot == nullptr) {
    Slot* free_slot = nullptr;
    for (Slot& s : stripe.slots) {
      if (s.hash == hash && s.key == key) {
        slot = &s;
        break;
      }
      if (free_slot == nullptr && s.sharers == 0 && s.waiters == 0 && !s.exclusive) {
        free_slot = &s;
      }
    }
    if (slot == nullptr) {
      slot = free_slot != nullptr ? free_slot : &stripe.slots.emplace_back();
      slot->hash = hash;
      slot->key.assign(key);
    }
  }

  // Two sharers waiting to upgrade each wait for the other to let go of its
  // shared lock, which neither does before it commits.
  if (upgrade && slot->upgrading) return BusyOn("X-lock upgrade deadlock on ", key);
  const uint32_t own_shares = upgrade ? 1 : 0;
  auto granted = [slot, exclusive, own_shares] {
    return !slot->exclusive && (!exclusive || slot->sharers == own_shares);
  };
  if (!granted()) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(timeout_us_);
    ++slot->waiters;
    if (upgrade) slot->upgrading = true;
    bool ok = stripe.cv.wait_until(lock, deadline, granted);
    --slot->waiters;
    if (upgrade) slot->upgrading = false;
    if (!ok) return BusyOn(exclusive ? "X-lock timeout on " : "S-lock timeout on ", key);
  }
  if (exclusive) {
    slot->sharers -= own_shares;  // the upgrade consumes the shared hold
    slot->exclusive = true;
  } else {
    ++slot->sharers;
  }
  lock.unlock();

  if (upgrade) {
    held->exclusive = true;
  } else {
    set->held_.push_back({hash, slot, exclusive});
  }
  if (newly != nullptr) *newly = true;
  return Status::OK();
}

void LockManager::ReleaseAll(LockSet* set) {
  for (const LockSet::Held& held : set->held_) {
    Stripe& stripe = stripes_[held.hash % kStripes];
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      if (held.exclusive) {
        held.slot->exclusive = false;
      } else {
        --held.slot->sharers;
      }
      wake = held.slot->waiters > 0;
    }
    if (wake) stripe.cv.notify_all();
  }
  set->held_.clear();
}

size_t LockManager::SlotCount() {
  size_t count = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    count += stripe.slots.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// Local2PLTxn
// ---------------------------------------------------------------------------

/// One strict-2PL transaction: writes apply immediately under exclusive
/// locks, an undo log restores the pre-image on abort, and every lock is
/// held until the outcome is decided.  Handed out by `Local2PLStore::Begin()`
/// and used by one thread.  Deleting it returns it, with its lock-set and
/// undo buffers, to the deleting thread's pool (a destroying `operator
/// delete`), so a warmed transaction allocates nothing of its own.
class Local2PLTxn : public Transaction {
 public:
  uint64_t start_ts() const override { return start_ts_; }

  Status Read(const std::string& key, std::string* value) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    Status s = store_->locks_.AcquireShared(&locks_, key);
    if (!s.ok()) {
      cell_->lock_busy.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    return store_->base_->Get(key, value);
  }

  Status Write(const std::string& key, std::string_view value) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    Status s = Prepare(key);
    if (!s.ok()) return s;
    return store_->base_->Put(key, value);
  }

  Status Delete(const std::string& key) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    Status s = Prepare(key);
    if (!s.ok()) return s;
    Status d = store_->base_->Delete(key);
    return d.IsNotFound() ? Status::OK() : d;
  }

  Status Scan(const std::string& start_key, size_t limit,
              std::vector<TxScanEntry>* out) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    return store_->ScanCommitted(start_key, limit, out);  // no range locks
  }

  Status Commit() override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    store_->locks_.ReleaseAll(&locks_);
    state_ = State::kCommitted;
    cell_->commits.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Abort() override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    // Each key has one undo entry, its pre-image from before the first write.
    for (size_t i = undo_count_; i-- > 0;) {
      const UndoEntry& undo = undo_[i];
      if (undo.existed) {
        store_->base_->Put(undo.key, undo.old_value);
      } else {
        store_->base_->Delete(undo.key);  // NotFound is fine
      }
    }
    store_->locks_.ReleaseAll(&locks_);
    state_ = State::kAborted;
    cell_->aborts.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  /// Recycles instead of destroying: an unfinished transaction is aborted,
  /// then parked in the calling thread's pool.
  static void operator delete(Local2PLTxn* txn, std::destroying_delete_t);

 private:
  friend class Local2PLStore;

  enum class State { kActive, kCommitted, kAborted };

  /// The calling thread's finished transactions, for its next `Begin()` on
  /// any store.  A parked transaction never reads the store it last ran on,
  /// so destroying that store leaves the pool valid.
  struct Pool {
    /// More than this many open at once is rare; the surplus is freed.
    static constexpr size_t kMaxParked = 8;

    std::vector<Local2PLTxn*> parked;

    ~Pool();
  };

  struct UndoEntry {
    std::string key;
    bool existed = false;
    std::string old_value;
  };

  Local2PLTxn() = default;
  ~Local2PLTxn() override = default;

  static Pool& MyPool();
  /// A transaction for the calling thread: a parked one, else a new one.
  static Local2PLTxn* Take();
  static void Free(Local2PLTxn* txn);

  /// Opens the transaction on `store`, counting into `cell`.  The lock set
  /// is empty (the previous outcome released it) and the undo log keeps its
  /// entries' buffers.
  void Start(Local2PLStore* store, Local2PLStore::Cell* cell, uint64_t start_ts) {
    store_ = store;
    cell_ = cell;
    start_ts_ = start_ts;
    state_ = State::kActive;
    undo_count_ = 0;
  }

  /// Takes the exclusive lock and, on the key's first write, snapshots its
  /// pre-image for undo.
  Status Prepare(const std::string& key) {
    bool newly = false;
    Status s = store_->locks_.AcquireExclusive(&locks_, key, &newly);
    if (!s.ok()) {
      cell_->lock_busy.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    if (!newly) return Status::OK();
    if (undo_count_ == undo_.size()) undo_.emplace_back();
    UndoEntry& undo = undo_[undo_count_];
    undo.key.assign(key);
    Status g = store_->base_->Get(key, &undo.old_value);
    if (!g.ok() && !g.IsNotFound()) return g;
    undo.existed = g.ok();
    ++undo_count_;
    return Status::OK();
  }

  Local2PLStore* store_ = nullptr;
  Local2PLStore::Cell* cell_ = nullptr;
  uint64_t start_ts_ = 0;
  State state_ = State::kCommitted;
  LockManager::LockSet locks_;
  /// The first `undo_count_` entries are live; the rest keep their buffers.
  std::vector<UndoEntry> undo_;
  size_t undo_count_ = 0;
};

namespace {

/// The calling thread's ordinal among the threads that have begun a 2PL
/// transaction, which picks its counter cell in every store.
size_t ThreadOrdinal() {
  static std::atomic<size_t> next{0};
  thread_local const size_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Set once the calling thread's pool is destroyed at thread exit; a
/// transaction deleted after that is freed instead of parked.
thread_local bool t_pool_closed = false;

}  // namespace

Local2PLTxn::Pool::~Pool() {
  t_pool_closed = true;
  for (Local2PLTxn* txn : parked) Free(txn);
}

Local2PLTxn::Pool& Local2PLTxn::MyPool() {
  thread_local Pool pool;
  return pool;
}

Local2PLTxn* Local2PLTxn::Take() {
  Pool& pool = MyPool();
  if (pool.parked.empty()) return new Local2PLTxn();
  Local2PLTxn* txn = pool.parked.back();
  pool.parked.pop_back();
  return txn;
}

void Local2PLTxn::Free(Local2PLTxn* txn) {
  txn->~Local2PLTxn();
  ::operator delete(txn);
}

void Local2PLTxn::operator delete(Local2PLTxn* txn, std::destroying_delete_t) {
  if (txn->state_ == State::kActive) txn->Abort();
  if (!t_pool_closed && MyPool().parked.size() < Pool::kMaxParked) {
    MyPool().parked.push_back(txn);
  } else {
    Free(txn);
  }
}

// ---------------------------------------------------------------------------
// Local2PLStore
// ---------------------------------------------------------------------------

Local2PLOptions Local2PLOptions::FromProperties(const Properties& props) {
  Local2PLOptions o;
  o.lock_timeout_us = k2plLockTimeoutUs.Get<uint64_t>(props);
  return o;
}

Local2PLStore::Local2PLStore(std::shared_ptr<kv::Store> base,
                             Local2PLOptions options)
    : base_(std::move(base)), locks_(options.lock_timeout_us) {}

std::unique_ptr<Transaction> Local2PLStore::Begin() {
  const size_t index = ThreadOrdinal() % kCells;
  Cell& cell = cells_[index];
  // Unique within the store: cells differ modulo kCells, and a cell's
  // transactions differ in their sequence number.
  const uint64_t start_ts =
      cell.begun.fetch_add(1, std::memory_order_relaxed) * kCells + index + 1;
  Local2PLTxn* txn = Local2PLTxn::Take();
  txn->Start(this, &cell, start_ts);
  return std::unique_ptr<Transaction>(txn);
}

Status Local2PLStore::LoadPut(const std::string& key, std::string_view value) {
  return base_->Put(key, value);
}

Status Local2PLStore::ReadCommitted(const std::string& key, std::string* value) {
  return base_->Get(key, value);
}

Status Local2PLStore::ScanCommitted(const std::string& start_key, size_t limit,
                                    std::vector<TxScanEntry>* out) {
  std::vector<kv::ScanEntry> raw;
  Status s = base_->Scan(start_key, limit, &raw);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(raw.size());
  for (auto& entry : raw) {
    out->push_back(TxScanEntry{std::move(entry.key), std::move(entry.value)});
  }
  return Status::OK();
}

TxnStats Local2PLStore::stats() const {
  TxnStats s;
  for (const Cell& cell : cells_) {
    s.commits += cell.commits.load(std::memory_order_relaxed);
    s.aborts += cell.aborts.load(std::memory_order_relaxed);
    s.lock_busy += cell.lock_busy.load(std::memory_order_relaxed);
  }
  return s;
}

void Local2PLStore::Collect(LayerStats* out) {
  TxnStats now = stats();
  out->Count("2PL COMMITS", now.commits - collected_.commits);
  out->Count("2PL ABORTS", now.aborts - collected_.aborts);
  out->Count("2PL LOCK BUSY", now.lock_busy - collected_.lock_busy);
  collected_ = now;
}

}  // namespace txn
}  // namespace ycsbt
