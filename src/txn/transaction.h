#ifndef YCSBT_TXN_TRANSACTION_H_
#define YCSBT_TXN_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/properties.h"
#include "common/property_schema.h"
#include "common/status.h"
#include "kv/store.h"

namespace ycsbt {

class RpcExecutor;

namespace txn {

/// Isolation level of the client-coordinated library.
enum class Isolation {
  /// Snapshot isolation: reads at start_ts, first-committer-wins on writes
  /// (the level Percolator and the authors' library provide).
  kSnapshot,
  /// Snapshot isolation plus commit-time read-set validation (OCC style),
  /// which additionally rejects read-write conflicts such as write skew.
  kSerializable,
};

// In Isolation order, for GetEnum.
inline constexpr std::string_view kIsolations[] = {"snapshot", "serializable"};
inline constexpr PropertyDecl kTxnIsolation =
    EnumProperty("txn.isolation", "snapshot", kIsolations, "isolation level (Isolation)");
inline constexpr PropertyDecl kTxnLeaseUs = UintProperty(
    "txn.lease_us", 2'000'000,
    "age after which a foreign lock is presumed abandoned and recovered");
inline constexpr PropertyDecl kTxnCleanupTsr = BoolProperty(
    "txn.cleanup_tsr", true,
    "delete the transaction status record once every lock is rolled forward");
inline constexpr PropertyDecl kTxnLockWaitJitter = BoolProperty(
    "txn.lock_wait_jitter", true,
    "decorrelated jitter on the fresh-lock wait sleep (anti-convoy)");
inline constexpr PropertyDecl kTxnLockWaitDelayUs =
    UintProperty("txn.lock_wait_delay_us", 2'000, "base lock-wait sleep");
inline constexpr PropertyDecl kTxnLockWaitMaxDelayUs = Derived(
    UintProperty("txn.lock_wait_max_delay_us", 16'000,
                 "jittered lock-wait sleep cap"),
    "8x base");
// In LockAcquireMode order, for GetEnum.
inline constexpr std::string_view kLockAcquireModes[] = {"ordered", "nowait"};
inline constexpr PropertyDecl kTxnLockAcquireMode = EnumProperty(
    "txn.lock_acquire_mode", "ordered", kLockAcquireModes,
    "ordered = serial CASes in key order; nowait = parallel, busy = Conflict");
inline constexpr const PropertyDecl* kTxnProperties[] = {
    &kTxnIsolation, &kTxnLeaseUs, &kTxnCleanupTsr, &kTxnLockWaitJitter,
    &kTxnLockWaitDelayUs, &kTxnLockWaitMaxDelayUs, &kTxnLockAcquireMode};

/// Tuning knobs of the transaction protocol.
struct TxnOptions {
  Isolation isolation = Isolation::kSnapshot;

  /// Wall-clock age after which another client's lock is presumed abandoned
  /// and may be recovered (rolled forward or back via its TSR).
  uint64_t lock_lease_us = kTxnLeaseUs.Default<uint64_t>();

  /// Bounded politeness: how many times to re-check a *fresh* foreign lock
  /// before giving up with Aborted.
  int lock_wait_retries = 5;
  uint64_t lock_wait_delay_us = kTxnLockWaitDelayUs.Default<uint64_t>();

  /// Decorrelated jitter on the lock-wait sleep (see
  /// `DecorrelatedJitterUs`): a fixed delay synchronizes contending clients
  /// into convoys that re-collide on every probe.  The per-transaction RNG
  /// is seeded from `seed` and the transaction number, so same-seed
  /// single-threaded runs replay identical sleeps.
  bool lock_wait_jitter = kTxnLockWaitJitter.Default<bool>();
  /// Cap on one jittered lock-wait sleep (8x the base delay by default;
  /// adjusted alongside `lock_wait_delay_us` when it is configured).
  uint64_t lock_wait_max_delay_us = kTxnLockWaitMaxDelayUs.Default<uint64_t>();

  /// Determinism seed for per-transaction randomness (lock-wait jitter).
  uint64_t seed = 0;

  /// How `AcquireLocks` orders its lock puts (DESIGN.md §10):
  ///  - `kOrdered` (default): prefetch all write-set records with one
  ///    `MultiGet`, then CAS the lock puts sequentially in global key order
  ///    — the classical deadlock-freedom argument (every client acquires in
  ///    the same total order, so no wait cycle can form).
  ///  - `kNoWait`: lock puts fan out fully in parallel; ANY busy lock or
  ///    lost CAS releases everything acquired and surfaces `Conflict` to the
  ///    retry loop.  Deadlock-free by construction (nobody ever holds-and-
  ///    waits), at the cost of more aborts under contention.
  enum class LockAcquireMode { kOrdered, kNoWait };
  LockAcquireMode lock_acquire_mode = LockAcquireMode::kOrdered;

  /// Shared fan-out executor (`txn.fanout_threads`).  When set, the
  /// per-key-independent commit phases — write-set prefetch, validation
  /// re-reads, roll-forward, lock release — issue batched store ops instead
  /// of one RPC at a time.  Null = the sequential seed behaviour.
  std::shared_ptr<RpcExecutor> executor = nullptr;

  /// Key prefix for transaction status records.  It sorts above every user
  /// key (user scans never collide with it); scans from the library filter
  /// this prefix out regardless.
  std::string tsr_prefix = "\xFF__tsr__/";

  /// Remove the TSR once all locks are rolled forward (leave it for
  /// debugging when false; recovery treats a surviving committed TSR
  /// correctly either way).
  bool cleanup_tsr = kTxnCleanupTsr.Default<bool>();

  /// When non-null, the commit pipeline consults this at each `CrashPoint`
  /// and, if it fires, abandons the transaction with all store-side state
  /// (locks, TSR) left in place — exactly what a client crash leaves behind
  /// for `RecoverLock` roll-forward/roll-back to repair.  Borrowed pointer;
  /// the owner (the DB factory's fault-injection layer) must outlive the
  /// store.
  CrashInjector* crash_injector = nullptr;

  /// The protocol knobs from the `txn.*` properties above plus the run
  /// `seed`; `executor` and `crash_injector` are left for the caller.
  static TxnOptions FromProperties(const Properties& props);
};

/// One result row of a transactional scan.
struct TxScanEntry {
  std::string key;
  std::string value;
};

/// One result row of a `Transaction::MultiRead` — each key succeeds or fails
/// independently (a missing key is a per-row NotFound, never a batch error).
struct TxReadResult {
  Status status;
  std::string value;
};

/// A single transaction handle.  Not thread-safe; one client thread each
/// (the YCSB+T client model).  Obtain from `TransactionalKV::Begin()`.
///
/// Lifecycle: any sequence of Read/Write/Delete/Scan, then exactly one of
/// Commit or Abort.  After either, further operations return InvalidArgument.
class Transaction {
 public:
  virtual ~Transaction() = default;

  /// Snapshot timestamp of this transaction.
  virtual uint64_t start_ts() const = 0;

  /// Reads `key` as of start_ts (sees this transaction's own writes).
  virtual Status Read(const std::string& key, std::string* value) = 0;

  /// Reads every key of `keys` as of start_ts, filling `results` (resized to
  /// match) with one independent per-key outcome.  Every row joins the read
  /// set exactly as a sequence of `Read` calls would; the batch form only
  /// lets implementations prefetch the records with one `kv::MultiGet` so
  /// the round trips overlap (DESIGN.md §10).  The default is the
  /// semantically-equivalent sequential loop.
  virtual void MultiRead(const std::vector<std::string>& keys,
                         std::vector<TxReadResult>* results) {
    results->resize(keys.size());  // rows keep their buffers across calls
    for (size_t i = 0; i < keys.size(); ++i) {
      TxReadResult& row = (*results)[i];
      row.value.clear();
      row.status = Read(keys[i], &row.value);
    }
  }

  /// Buffers a write of `key`; becomes visible to others only after Commit.
  virtual Status Write(const std::string& key, std::string_view value) = 0;

  /// Buffers a delete of `key`.
  virtual Status Delete(const std::string& key) = 0;

  /// Ordered scan of committed data as of start_ts.  Buffered writes of this
  /// transaction are NOT merged into scan results.
  virtual Status Scan(const std::string& start_key, size_t limit,
                      std::vector<TxScanEntry>* out) = 0;

  /// Two-phase client-coordinated commit.  Returns Aborted/Conflict when the
  /// transaction lost a race; the caller may retry the whole transaction.
  virtual Status Commit() = 0;

  /// Rolls back all buffered writes and releases any acquired locks.
  virtual Status Abort() = 0;
};

/// Factory + non-transactional access of a transactional key-value store.
class TransactionalKV {
 public:
  virtual ~TransactionalKV() = default;

  /// Starts a new transaction.
  virtual std::unique_ptr<Transaction> Begin() = 0;

  /// Non-transactional (auto-committed) helpers, used by the load phase and
  /// the Tier-6 validation stage.
  virtual Status LoadPut(const std::string& key, std::string_view value) = 0;
  virtual Status ReadCommitted(const std::string& key, std::string* value) = 0;
  virtual Status ScanCommitted(const std::string& start_key, size_t limit,
                               std::vector<TxScanEntry>* out) = 0;
};

/// Counters exposed by `ClientTxnStore` for benches and tests.
struct TxnStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t conflicts = 0;       ///< first-committer-wins losses
  uint64_t lock_busy = 0;       ///< gave up waiting on a fresh foreign lock
  uint64_t roll_forwards = 0;   ///< recovered another txn's committed locks
  uint64_t roll_backs = 0;      ///< recovered another txn's abandoned locks
  uint64_t validation_fails = 0;///< serializable-mode read-set failures
  uint64_t reader_aborts = 0;   ///< undecided owners aborted by blocked readers
  uint64_t injected_crashes = 0;///< commits abandoned by the fault injector
  uint64_t ambiguous_commits = 0;///< TSR-write replies lost, settled by re-read
};

}  // namespace txn
}  // namespace ycsbt

#endif  // YCSBT_TXN_TRANSACTION_H_
