#include "txn/local_2pl.h"

#include <chrono>
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

LockManager::LockSet::Held* LockManager::LockSet::Find(uint32_t word) {
  for (Held& held : held_) {
    if (held.word == word) return &held;
  }
  return nullptr;
}

LockManager::LockManager(uint64_t timeout_us)
    : words_(new std::atomic<uint32_t>[kWords]()), timeout_us_(timeout_us) {}

Status LockManager::AcquireShared(LockSet* set, std::string_view key) {
  return Acquire(set, key, /*exclusive=*/false);
}

Status LockManager::AcquireExclusive(LockSet* set, std::string_view key) {
  return Acquire(set, key, /*exclusive=*/true);
}

Status LockManager::Acquire(LockSet* set, std::string_view key, bool exclusive) {
  const uint32_t word = WordOf(key);
  LockSet::Held* held = set->Find(word);
  if (held != nullptr && (held->exclusive || !exclusive)) return Status::OK();
  const bool upgrade = held != nullptr;  // holds S, wants X
  if (!TryGrant(word, exclusive, upgrade)) {
    Status s = Wait(word, key, exclusive, upgrade);
    if (!s.ok()) return s;
  }
  if (upgrade) {
    held->exclusive = true;
  } else {
    set->held_.push_back({word, exclusive});
  }
  return Status::OK();
}

bool LockManager::TryGrant(uint32_t word, bool exclusive, bool upgrade) {
  std::atomic<uint32_t>& lock = words_[word];
  uint32_t now = lock.load();
  for (;;) {
    if ((now & kExclusive) != 0) return false;
    uint32_t next = now + 1;
    if (exclusive) {
      // An upgrade consumes its own share and ends its upgrade wait.
      if ((now & kSharers) != (upgrade ? 1u : 0u)) return false;
      next = kExclusive | (now & kWaiting);
    } else if ((now & kUpgrading) != 0) {
      return false;  // the upgrade goes first
    }
    if (lock.compare_exchange_weak(now, next)) return true;
  }
}

Status LockManager::Wait(uint32_t word, std::string_view key, bool exclusive,
                         bool upgrade) {
  std::atomic<uint32_t>& lock = words_[word];
  Stripe& stripe = stripes_[word % kStripes];
  std::unique_lock<std::mutex> guard(stripe.mu);
  // Two sharers waiting to upgrade each wait for the other to let go of its
  // shared lock, which neither does before it commits.
  if (upgrade && (lock.fetch_or(kUpgrading) & kUpgrading) != 0) {
    return BusyOn("X-lock upgrade deadlock on ", key);
  }
  // The word is marked before each retry, under the mutex: a release either
  // precedes the retry, or finds the mark and notifies under the mutex this
  // wait holds until it sleeps.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us_);
  bool ok = stripe.cv.wait_until(guard, deadline, [&] {
    lock.fetch_or(kWaiting);
    return TryGrant(word, exclusive, upgrade);
  });
  if (ok) return Status::OK();
  if (upgrade) {
    lock.fetch_and(~kUpgrading);
    stripe.cv.notify_all();  // sharers held off by the upgrade may go ahead
  }
  return BusyOn(exclusive ? "X-lock timeout on " : "S-lock timeout on ", key);
}

void LockManager::Wake(uint32_t word) {
  Stripe& stripe = stripes_[word % kStripes];
  {
    std::lock_guard<std::mutex> guard(stripe.mu);
    words_[word].fetch_and(~kWaiting);
  }
  stripe.cv.notify_all();
}

void LockManager::ReleaseAll(LockSet* set) {
  for (const LockSet::Held& held : set->held_) {
    std::atomic<uint32_t>& lock = words_[held.word];
    const uint32_t before =
        held.exclusive ? lock.fetch_and(~kExclusive) : lock.fetch_sub(1);
    if ((before & kWaiting) != 0) Wake(held.word);
  }
  set->held_.clear();
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
  /// pre-image for undo.  The lock cannot tell a first write: another key
  /// may have taken the same word.
  Status Prepare(const std::string& key) {
    Status s = store_->locks_.AcquireExclusive(&locks_, key);
    if (!s.ok()) {
      cell_->lock_busy.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    for (size_t i = 0; i < undo_count_; ++i) {
      if (undo_[i].key == key) return Status::OK();
    }
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
