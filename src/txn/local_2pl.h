#ifndef YCSBT_TXN_LOCAL_2PL_H_
#define YCSBT_TXN_LOCAL_2PL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Shared/exclusive locks on hashed lock words, with waiting and timeout.
///
/// A key locks word `WordOf(key)`, its `std::hash` modulo `kWords`, of a
/// fixed array: one 32-bit atomic holding an exclusive bit, an upgrading bit,
/// a waiting bit and a sharer count.  A grant is one CAS on the word and a
/// release one atomic subtract or and, so an uncontended lock writes no line
/// but its word's.
/// Two keys that share a word share its lock; that false conflict only makes
/// a transaction wait where it need not, never admits a conflicting access,
/// and between two held keys has odds of 1 in `kWords` (DESIGN.md §16).
///
/// A request that cannot be granted marks its word waiting and sleeps on the
/// condition variable of the word's stripe (`kStripes` of them); a release
/// that finds the mark clears it under the stripe mutex and notifies.  The
/// clock is read only to start a wait.
///
/// Deadlocks are resolved by timeout (a waiter that exceeds
/// `lock_timeout_us` gives up with Busy and its transaction aborts) — the
/// classic embedded-engine answer, contrasting with the client-coordinated
/// library's *ordered locking*, which cannot deadlock in the first place.
/// The one deadlock visible at a single word — two sharers that both want to
/// upgrade — fails the second upgrader at once instead of after the timeout.
/// A pending upgrade holds off new sharers, so a stream of readers of a hot
/// key cannot starve a read-modify-write of it.
class LockManager {
 public:
  static constexpr size_t kWords = size_t{1} << 14;
  static constexpr size_t kStripes = 64;

  /// The words one transaction holds.  Not thread-safe: one per
  /// transaction, like the transaction itself.
  class LockSet {
   private:
    friend class LockManager;

    struct Held {
      uint32_t word = 0;
      bool exclusive = false;
    };

    Held* Find(uint32_t word);

    std::vector<Held> held_;
  };

  explicit LockManager(uint64_t timeout_us);

  /// The word `key` locks.
  static uint32_t WordOf(std::string_view key) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(key) % kWords);
  }

  /// Acquires a shared lock on `key`'s word into `set`; a no-op when `set`
  /// already holds the word in either mode.  Busy on timeout.
  Status AcquireShared(LockSet* set, std::string_view key);

  /// Acquires (or upgrades to) an exclusive lock on `key`'s word into `set`;
  /// a no-op when `set` already holds it exclusively.  Busy on timeout or on
  /// a certain upgrade deadlock.
  Status AcquireExclusive(LockSet* set, std::string_view key);

  /// Releases every lock in `set` (commit/abort) and empties it.
  void ReleaseAll(LockSet* set);

 private:
  static constexpr uint32_t kExclusive = 1u << 31;
  /// A sharer is waiting to upgrade: a second one could never proceed, and
  /// no new sharer is granted until it has.
  static constexpr uint32_t kUpgrading = 1u << 30;
  /// A request sleeps on the word's stripe: the next release notifies.
  static constexpr uint32_t kWaiting = 1u << 29;
  static constexpr uint32_t kSharers = kWaiting - 1;

  struct alignas(64) Stripe {
    std::mutex mu;
    std::condition_variable cv;
  };

  Status Acquire(LockSet* set, std::string_view key, bool exclusive);
  /// Grants the mode if the word allows it now: one CAS, retried only while
  /// the word changes under it.
  bool TryGrant(uint32_t word, bool exclusive, bool upgrade);
  /// Waits on the word's stripe until `TryGrant` succeeds or the timeout.
  Status Wait(uint32_t word, std::string_view key, bool exclusive, bool upgrade);
  /// Clears the word's waiting mark and wakes its stripe.
  void Wake(uint32_t word);

  const std::unique_ptr<std::atomic<uint32_t>[]> words_;
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
/// Beyond its keys' lock words and the base store, a transaction writes no
/// line that other threads write: its outcome counters and `start_ts`
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
