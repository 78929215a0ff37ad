#ifndef YCSBT_TXN_CLIENT_TXN_STORE_H_
#define YCSBT_TXN_CLIENT_TXN_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats_layer.h"
#include "txn/record_codec.h"
#include "txn/timestamp.h"
#include "txn/transaction.h"

namespace ycsbt {
namespace txn {

class ClientTxn;

/// One prefetched row of `ClientTxnStore::MultiLoadRecords`: the decoded
/// record (when `status` is OK) plus the etag it was read at.
struct LoadedRecord {
  Status status;
  TxRecord record;
  uint64_t etag = kv::kEtagAbsent;
};

/// The client-coordinated transaction library (the authors' system, paper
/// §II-B and ref [28]), reimplemented over any `kv::Store` that offers
/// conditional put.
///
/// Protocol summary:
///  - **Begin**: start_ts from the local timestamp source (HLC by default —
///    no central oracle, the library's headline difference from
///    Percolator/ReTSO).
///  - **Read**: fetch the record, pick the newest committed version with
///    commit_ts <= start_ts (stepping back to the previous version while a
///    newer commit is in flight).  A foreign lock past its lease is
///    *recovered*: the owner's transaction status record (TSR) decides
///    roll-forward (committed) vs roll-back (absent/aborted).
///  - **Write/Delete**: buffered locally until commit.
///  - **Commit**: (1) acquire write locks in global key order — ordered
///    locking makes deadlock impossible without a lock manager; each lock is
///    one conditional put that embeds the pending value, CASed against the
///    etag the transaction's own read saw when it read the key (a stale etag
///    just loses the CAS and is re-read); (2) conflict check:
///    any record committed after start_ts aborts us (first-committer-wins,
///    snapshot isolation); (3) the *commit point*: a must-not-exist
///    conditional put of the TSR with the commit timestamp; (4) roll every
///    locked record forward; (5) delete the TSR.
///  - A client crash between (3) and (5) is repaired by any later reader via
///    the TSR — the recovery path Tier-5/6 experiments rely on.
///
/// Race arbitration (the subtle parts, each regression-tested):
///  - *Undecided owners*: a lock whose TSR is absent is ambiguous (owner may
///    be slow, crashed, or already cleaned up).  Recovery and blocked readers
///    decide the outcome by planting an ABORTED status record with a
///    must-not-exist put; the TSR key is the single atomic arbiter between
///    them and the owner's commit point, so a transaction is always
///    all-or-nothing.
///  - *Lost deletes*: commits apply deletes physically, destroying version
///    information, so a write to a vanished key that this transaction had
///    READ as existing is treated as a first-committer-wins conflict
///    (recreating it would resurrect the deleted record).  A blind write to
///    a key the transaction never read keeps insert semantics.
///
/// Thread safety: the store object is shared by all client threads; each
/// `Transaction` belongs to one thread.
class ClientTxnStore : public TransactionalKV, public StatsLayer {
 public:
  /// @param base underlying store (local engine or simulated cloud store).
  /// @param ts_source timestamp source shared by this client process.
  ClientTxnStore(std::shared_ptr<kv::Store> base,
                 std::shared_ptr<TimestampSource> ts_source, TxnOptions options = {});

  std::unique_ptr<Transaction> Begin() override;

  Status LoadPut(const std::string& key, std::string_view value) override;

  /// Encodes `value` as the committed-record representation `LoadPut` would
  /// store (fresh commit timestamp, no lock) — the bulk-load hook: callers
  /// ingesting pre-encoded runs straight into the *base* store must wrap
  /// each value through this, or the MVCC decode on first read would fail.
  std::string EncodeLoadValue(std::string_view value);

  Status ReadCommitted(const std::string& key, std::string* value) override;
  Status ScanCommitted(const std::string& start_key, size_t limit,
                       std::vector<TxScanEntry>* out) override;

  /// Ordered scan of the versions visible at `snapshot_ts` (TSR keys are
  /// filtered out; in-flight pending writes are ignored).
  Status ScanSnapshot(const std::string& start_key, size_t limit,
                      uint64_t snapshot_ts, std::vector<TxScanEntry>* out);

  TxnStats stats() const;

  const char* name() const override { return "txn"; }
  /// The recovery and fault work of the window: `RECOVERY ROLLFORWARDS` /
  /// `RECOVERY ROLLBACKS` / `INJECTED CRASHES` / `AMBIGUOUS COMMITS`.
  void Collect(LayerStats* out) override;
  const TxnOptions& options() const { return options_; }
  kv::Store* base() const { return base_.get(); }

 private:
  friend class ClientTxn;

  /// Reads and decodes `key`'s record.  NotFound when the key is absent.
  Status LoadRecord(const std::string& key, TxRecord* record, uint64_t* etag);

  /// Batched `LoadRecord` over `keys` via one `kv::MultiGet` (fanned out by
  /// the store when an executor is attached).  Each row decodes
  /// independently: a missing or undecodable key is that row's status, never
  /// a batch failure.
  void MultiLoadRecords(const std::vector<std::string>& keys,
                        std::vector<LoadedRecord>* out);

  /// Reads and decodes the TSR of transaction `owner`.  NotFound when the
  /// owner has none (undecided, or finished and cleaned up).
  Status ReadTsr(const std::string& owner, TsrRecord* tsr);

  /// Decides an undecided owner's fate: the must-not-exist put of an
  /// ABORTED TSR.  OK means the owner can never commit; Conflict means a TSR
  /// landed first and must be re-read.
  Status PlantAbortedTsr(const std::string& owner);

  /// Repairs an expired foreign lock according to the owner's TSR.  On
  /// success `*record`/`*etag` hold the post-recovery state.  Returns Busy
  /// when the lock is fresh.
  Status RecoverLock(const std::string& key, TxRecord* record, uint64_t* etag);

  /// Resolves a locked record met by a read, so that afterwards its
  /// committed versions are safe to serve: committed-TSR locks are viewed
  /// rolled forward, aborted ones keep their committed versions, and expired
  /// ones are recovered in the store.  NotFound means the committed outcome
  /// deleted the record; a failed TSR read is returned as it is.
  ///
  /// An undecided fresh lock is where the two forms part.  With no `waiter`
  /// (scans, `ReadCommitted`) its pending write is simply not committed yet:
  /// the call never sleeps and never plants.  A transaction's read passes
  /// itself as `waiter` and closes the race an absent TSR leaves open (the
  /// owner may not have committed *yet*, or may have committed, rolled
  /// forward and cleaned up): it re-reads the record, which catches the
  /// cleaned-up case, waits out a bounded number of `LockWaitSleep`s, and
  /// then decides the race by planting an ABORTED TSR.  The TSR key's
  /// must-not-exist write is the atomic arbiter: either the owner already
  /// committed (the plant loses and the TSR is re-read) or it can never
  /// commit and the old version is definitively correct.
  Status ResolveForRead(const std::string& key, TxRecord* record, uint64_t* etag,
                        ClientTxn* waiter);

  std::string TsrKey(const std::string& txn_id) const {
    return options_.tsr_prefix + txn_id;
  }

  std::string TxnIdFor(uint64_t seq) const;

  std::shared_ptr<kv::Store> base_;
  std::shared_ptr<TimestampSource> ts_source_;
  TxnOptions options_;

  std::string client_id_;
  std::atomic<uint64_t> txn_counter_{0};

  // Stats.
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> conflicts_{0};
  std::atomic<uint64_t> lock_busy_{0};
  std::atomic<uint64_t> roll_forwards_{0};
  std::atomic<uint64_t> roll_backs_{0};
  std::atomic<uint64_t> validation_fails_{0};
  std::atomic<uint64_t> reader_aborts_{0};
  std::atomic<uint64_t> injected_crashes_{0};
  std::atomic<uint64_t> ambiguous_commits_{0};
  TxnStats collected_;  ///< `stats()` as of the previous Collect
};

}  // namespace txn
}  // namespace ycsbt

#endif  // YCSBT_TXN_CLIENT_TXN_STORE_H_
