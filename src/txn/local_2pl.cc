#include "txn/local_2pl.h"

#include <chrono>
#include <functional>

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
/// held until the outcome is decided.
class Local2PLTxn : public Transaction {
 public:
  Local2PLTxn(Local2PLStore* store, uint64_t id)
      : store_(store), start_ts_(id) {}

  ~Local2PLTxn() override {
    if (state_ == State::kActive) Abort();
  }

  uint64_t start_ts() const override { return start_ts_; }

  Status Read(const std::string& key, std::string* value) override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    Status s = store_->locks_.AcquireShared(&locks_, key);
    if (!s.ok()) {
      store_->lock_busy_.fetch_add(1, std::memory_order_relaxed);
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
    std::vector<kv::ScanEntry> raw;
    Status s = store_->base_->Scan(start_key, limit, &raw);
    if (!s.ok()) return s;
    out->clear();
    out->reserve(raw.size());
    for (auto& entry : raw) {
      out->push_back(TxScanEntry{std::move(entry.key), std::move(entry.value)});
    }
    return Status::OK();
  }

  Status Commit() override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    store_->locks_.ReleaseAll(&locks_);
    state_ = State::kCommitted;
    store_->commits_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Abort() override {
    if (state_ != State::kActive) return Status::InvalidArgument("txn finished");
    // Each key has one undo entry, its pre-image from before the first write.
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      if (it->existed) {
        store_->base_->Put(it->key, it->old_value);
      } else {
        store_->base_->Delete(it->key);  // NotFound is fine
      }
    }
    store_->locks_.ReleaseAll(&locks_);
    state_ = State::kAborted;
    store_->aborts_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

 private:
  enum class State { kActive, kCommitted, kAborted };

  struct UndoEntry {
    std::string key;
    bool existed = false;
    std::string old_value;
  };

  /// Takes the exclusive lock and, on the key's first write, snapshots its
  /// pre-image for undo.
  Status Prepare(const std::string& key) {
    bool newly = false;
    Status s = store_->locks_.AcquireExclusive(&locks_, key, &newly);
    if (!s.ok()) {
      store_->lock_busy_.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    if (!newly) return Status::OK();
    UndoEntry undo;
    undo.key = key;
    Status g = store_->base_->Get(key, &undo.old_value);
    if (g.ok()) {
      undo.existed = true;
    } else if (!g.IsNotFound()) {
      return g;
    }
    undo_.push_back(std::move(undo));
    return Status::OK();
  }

  Local2PLStore* store_;
  const uint64_t start_ts_;
  State state_ = State::kActive;
  LockManager::LockSet locks_;
  std::vector<UndoEntry> undo_;
};

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
  return std::make_unique<Local2PLTxn>(
      this, txn_counter_.fetch_add(1, std::memory_order_relaxed));
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
  s.commits = commits_.load();
  s.aborts = aborts_.load();
  s.lock_busy = lock_busy_.load();
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
