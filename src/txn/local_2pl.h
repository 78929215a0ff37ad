#ifndef YCSBT_TXN_LOCAL_2PL_H_
#define YCSBT_TXN_LOCAL_2PL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats_layer.h"
#include "txn/timestamp.h"
#include "txn/transaction.h"

namespace ycsbt {
namespace txn {

inline constexpr PropertyDecl k2plLockTimeoutUs = UintProperty(
    "2pl.lock_timeout_us", 50'000,
    "how long a lock request waits before declaring deadlock-by-timeout");
inline constexpr const PropertyDecl* kLocal2PLProperties[] = {&k2plLockTimeoutUs};

/// Options of the embedded 2PL engine.
struct Local2PLOptions {
  /// How long a lock request waits before declaring deadlock-by-timeout.
  uint64_t lock_timeout_us = k2plLockTimeoutUs.Default<uint64_t>();

  static Local2PLOptions FromProperties(const Properties& props);
};

/// Striped table of per-key shared/exclusive locks with waiting and timeout.
///
/// Keys hash to one of `kStripes` stripes, each with its own mutex,
/// condition variable and lock slots, so transactions on different keys
/// rarely contend, and a release wakes only its own stripe's waiters, and
/// only when the released key has any.  A slot whose counts are all zero is
/// free and is reused, keeping its key's capacity, by the next key that
/// hashes to its stripe: a warmed-up table locks and unlocks without
/// allocating.
///
/// Deadlocks are resolved by timeout (a waiter that exceeds
/// `lock_timeout_us` gives up with Busy and its transaction aborts) — the
/// classic embedded-engine answer, contrasting with the client-coordinated
/// library's *ordered locking*, which cannot deadlock in the first place.
/// The one deadlock visible at a single key — two sharers that both want to
/// upgrade — fails the second upgrader at once instead of after the timeout.
class LockManager {
 private:
  struct Slot {
    size_t hash = 0;
    std::string key;
    uint32_t sharers = 0;
    uint32_t waiters = 0;
    bool exclusive = false;
    /// A sharer is waiting to upgrade; a second one could never proceed.
    bool upgrading = false;
  };

 public:
  static constexpr size_t kStripes = 64;

  /// The locks one transaction holds.  Not thread-safe: one per
  /// transaction, like the transaction itself.  A held slot is never reused
  /// for another key, so the set points at slots instead of copying keys.
  class LockSet {
   private:
    friend class LockManager;

    struct Held {
      size_t hash = 0;
      Slot* slot = nullptr;
      bool exclusive = false;
    };

    Held* Find(size_t hash, std::string_view key);

    std::vector<Held> held_;
  };

  explicit LockManager(uint64_t timeout_us) : timeout_us_(timeout_us) {}

  /// Acquires a shared lock on `key` into `set`; a no-op when `set` already
  /// holds `key` in either mode.  Busy on timeout.
  Status AcquireShared(LockSet* set, std::string_view key);

  /// Acquires (or upgrades to) an exclusive lock on `key` into `set`; Busy
  /// on timeout or on a certain upgrade deadlock.  On success `*newly` tells
  /// whether `set` did not already hold `key` exclusively.
  Status AcquireExclusive(LockSet* set, std::string_view key, bool* newly);

  /// Releases every lock in `set` (commit/abort) and empties it.
  void ReleaseAll(LockSet* set);

  /// Slots allocated over all stripes.  Bounded by the most keys locked or
  /// waited for at once, not by the number of distinct keys ever locked.
  size_t SlotCount();

 private:
  struct alignas(64) Stripe {
    std::mutex mu;
    std::condition_variable cv;
    /// A deque keeps slot addresses stable as the stripe grows; slots are
    /// never removed.
    std::deque<Slot> slots;
  };

  Status Acquire(LockSet* set, std::string_view key, bool exclusive, bool* newly);

  Stripe stripes_[kStripes];
  const uint64_t timeout_us_;
};

/// An embedded transactional key-value store using strict two-phase locking
/// with immediate writes and an undo log — the "transactions implemented
/// inside the data store" baseline of §II-B (Spanner-style, minus the
/// distribution).  Serializable for point accesses; scans read committed
/// current values without range locks (no phantom protection), which is
/// sufficient for the post-quiesce Tier-6 validation scan.
///
/// Beyond the lock table's stripes and the base store, a transaction writes
/// no line that other threads write: its outcome counters and `start_ts`
/// come from the calling thread's cell, and `Begin()` takes a finished
/// transaction, buffers and all, from the thread's pool (DESIGN.md §16).
class Local2PLStore : public TransactionalKV, public StatsLayer {
 public:
  explicit Local2PLStore(std::shared_ptr<kv::Store> base,
                         Local2PLOptions options = {});

  std::unique_ptr<Transaction> Begin() override;

  Status LoadPut(const std::string& key, std::string_view value) override;
  Status ReadCommitted(const std::string& key, std::string* value) override;
  Status ScanCommitted(const std::string& start_key, size_t limit,
                       std::vector<TxScanEntry>* out) override;

  /// Exact totals: the sums over every thread's cell.
  TxnStats stats() const;

  const char* name() const override { return "2pl"; }
  /// `2PL COMMITS` / `2PL ABORTS` / `2PL LOCK BUSY` (lock timeouts).
  void Collect(LayerStats* out) override;

 private:
  friend class Local2PLTxn;

  /// One cache line of counters.  A thread counts into the cell of its
  /// ordinal modulo `kCells`, so up to `kCells` concurrent threads never
  /// share a line and need no registration with the store; threads beyond
  /// that share cells, still exactly, since every add is atomic.
  struct alignas(64) Cell {
    std::atomic<uint64_t> begun{0};  ///< numbers this cell's `start_ts`
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> aborts{0};
    std::atomic<uint64_t> lock_busy{0};
  };
  static constexpr size_t kCells = 64;

  std::shared_ptr<kv::Store> base_;
  LockManager locks_;
  Cell cells_[kCells];
  TxnStats collected_;  ///< `stats()` as of the previous Collect
};

}  // namespace txn
}  // namespace ycsbt

#endif  // YCSBT_TXN_LOCAL_2PL_H_
