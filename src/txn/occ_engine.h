#ifndef YCSBT_TXN_OCC_ENGINE_H_
#define YCSBT_TXN_OCC_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/stats_layer.h"
#include "common/status.h"
#include "txn/transaction.h"

namespace ycsbt {
namespace txn {

class OccTxn;

inline constexpr PropertyDecl kOccEpochMs = UintProperty(
    "occ.epoch_ms", 10,
    "global-epoch ticker period; 0 disables the ticker (tests drive epochs)");
inline constexpr PropertyDecl kOccReadValidation = BoolProperty(
    "occ.read_validation", true,
    "commit-time read-set validation; false re-admits write skew");
inline constexpr PropertyDecl kOccRetireBatch = UintProperty(
    "occ.retire_batch", 128,
    "per-thread retired versions that trigger a reclamation sweep");
inline constexpr const PropertyDecl* kOccProperties[] = {
    &kOccEpochMs, &kOccReadValidation, &kOccRetireBatch};

/// Tuning knobs of the embedded Silo-style OCC engine (`occ.*` properties).
struct OccOptions {
  /// Period of the global-epoch ticker thread in milliseconds.  0 disables
  /// the ticker entirely (tests drive `AdvanceEpoch()` by hand).
  uint64_t epoch_ms = kOccEpochMs.Default<uint64_t>();

  /// Commit-time read-set validation.  On (the default) the engine is
  /// serializable: any record read whose TID changed since the read — or
  /// that another transaction holds locked — aborts the committer with
  /// `Status::Conflict`.  Off, reads are not validated at all and the
  /// engine degrades to atomic-write-batch / read-committed semantics
  /// (admits lost updates and write skew) — the ablation axis the
  /// write-skew suite exercises.
  bool read_validation = kOccReadValidation.Default<bool>();

  /// Per-thread retire lists are swept for reclaimable versions once they
  /// grow past this many entries (and always at engine teardown).
  size_t retire_batch = kOccRetireBatch.Default<size_t>();

  static OccOptions FromProperties(const Properties& props);
};

/// Monotonic counters exposed for benches and tests; `Collect` reports their
/// growth as the `OCC *` / `EPOCH ADVANCES` summary lines.
struct OccStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;            ///< explicit aborts + failed validations
  uint64_t validation_fails = 0;  ///< commits rejected by read-set validation
  uint64_t epoch_advances = 0;    ///< ticker (or manual) epoch increments
  uint64_t versions_retired = 0;  ///< old versions handed to retire lists
  uint64_t versions_freed = 0;    ///< retired versions actually reclaimed
};

/// Embedded single-process OCC engine in the Silo lineage (DESIGN.md §15):
/// epoch-based group commit, lock-free reads validated at commit, writes
/// buffered locally and installed under short per-record spinlocks taken in
/// global key order, old versions reclaimed via epoch-based memory
/// reclamation.  Unlike `Local2PLStore` this substrate does NOT sit on a
/// `kv::Store` — per-read locking (even shared) is exactly the cost the
/// engine exists to remove — so the fault-injection and resilience
/// decorators do not apply to the `occ+memkv` binding.
///
/// Concurrency contract: any number of threads may run transactions and the
/// committed-read helpers concurrently.  A `Transaction` handle stays on the
/// thread that called `Begin()` (the YCSB+T client model).
class OccEngine : public TransactionalKV, public StatsLayer {
 public:
  explicit OccEngine(OccOptions options = {});
  ~OccEngine() override;

  OccEngine(const OccEngine&) = delete;
  OccEngine& operator=(const OccEngine&) = delete;

  std::unique_ptr<Transaction> Begin() override;
  Status LoadPut(const std::string& key, std::string_view value) override;
  Status ReadCommitted(const std::string& key, std::string* value) override;
  Status ScanCommitted(const std::string& start_key, size_t limit,
                       std::vector<TxScanEntry>* out) override;

  OccStats stats() const;

  const char* name() const override { return "occ"; }
  void Collect(LayerStats* out) override;

  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Manually advances the global epoch (what the ticker thread does every
  /// `epoch_ms`).  Exposed for tests that pin reclamation timing.
  void AdvanceEpoch();

  /// Commit TID of `key`'s current version, for TID-shape tests.  False when
  /// the key has never been written.
  bool DebugTidOf(const std::string& key, uint64_t* tid) const;

  const OccOptions& options() const { return options_; }

  /// TID word layout: [epoch:24][seq:31][thread:8][lock:1].  Helpers public
  /// for tests.
  static constexpr uint64_t kLockBit = 1;
  static constexpr int kThreadBits = 8;
  static constexpr int kSeqBits = 31;
  static uint64_t MakeTid(uint64_t epoch, uint64_t seq, uint64_t thread) {
    return (epoch << (1 + kThreadBits + kSeqBits)) |
           ((seq & ((uint64_t{1} << kSeqBits) - 1)) << (1 + kThreadBits)) |
           ((thread & ((uint64_t{1} << kThreadBits) - 1)) << 1);
  }
  static uint64_t TidEpoch(uint64_t tid) {
    return tid >> (1 + kThreadBits + kSeqBits);
  }
  static uint64_t TidSeq(uint64_t tid) {
    return (tid >> (1 + kThreadBits)) & ((uint64_t{1} << kSeqBits) - 1);
  }
  static uint64_t TidThread(uint64_t tid) {
    return (tid >> 1) & ((uint64_t{1} << kThreadBits) - 1);
  }

 private:
  friend class OccTxn;

  /// A committed version.  Published with a release store of the record's
  /// version pointer and immutable while it is reachable: from a record, or
  /// by any reader pinned at or before its retire stamp.  So concurrent
  /// readers copy `value` without synchronisation beyond the acquire load.
  /// Once the epoch test reclaims it into a `free_versions` pool, no reader
  /// can reach it, and `NewVersion`'s callers rewrite it in place.
  struct Version {
    std::string value;
    bool tombstone = false;
  };

  /// One key's slot.  Records are created on first write and never removed
  /// from the index (deletes install a tombstone version); only versions
  /// turn over, which confines reclamation to the epoch machinery.
  struct Record {
    std::string key;
    /// TID word of the current version; bit 0 is the writer lock.
    std::atomic<uint64_t> tid{0};
    std::atomic<Version*> version{nullptr};
  };

  /// One open-addressing slot.  Filled once under `index_mu_` (hash first,
  /// then a seq_cst store of `record`) and never changed again, so a reader
  /// that loads a non-null `record` also sees its `hash`.  The hash beside
  /// the pointer keeps a probe off foreign records.
  struct Slot {
    size_t hash = 0;
    std::atomic<Record*> record{nullptr};
  };

  /// A power-of-two slot array, at most half full.  Growth fills a doubled
  /// table and publishes it; a superseded table is never modified again.
  struct Table {
    explicit Table(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    size_t capacity() const { return mask + 1; }
    const size_t mask;
    const std::unique_ptr<Slot[]> slots;
  };

  struct Retired {
    uint64_t epoch;  ///< global epoch observed AFTER the version was unlinked
    Version* version;
  };

  /// Per-worker registration: epoch pin, TID sequence, retire list, local
  /// stat counters.  Single-writer (the thread that holds it); `stats()` and
  /// the reclaimer read only the atomics.  A thread hands its registration
  /// back when it exits and a later thread takes it over whole, so `seq`
  /// keeps counting (TIDs never repeat) and the retire list is still swept.
  struct alignas(64) ThreadState {
    static constexpr uint64_t kIdle = ~uint64_t{0};
    std::atomic<uint64_t> active_epoch{kIdle};
    /// Nesting depth of Pin (owner thread only): a committed-read helper
    /// called while a transaction is open must not clear the txn's pin.
    uint32_t pin_depth = 0;
    uint64_t seq = 0;
    uint64_t thread_id = 0;
    /// Oldest first, stamps nondecreasing: each stamp is a seq_cst load of
    /// the monotonic epoch, made by one holder at a time.  A vector, so a
    /// sweep that frees a prefix keeps the buffer.
    std::vector<Retired> retired;
    /// Reclaimed versions, reused by this registration's next installs
    /// (`NewVersion`) instead of going back to malloc; deleted at teardown.
    std::vector<Version*> free_versions;
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> aborts{0};
    std::atomic<uint64_t> validation_fails{0};
    std::atomic<uint64_t> versions_retired{0};
    std::atomic<uint64_t> versions_freed{0};
    /// Finished transactions, kept with their buffers for the next
    /// `Begin()` on this registration; freed at engine teardown.
    std::vector<OccTxn*> free_txns;
  };

  /// Lock-free index lookup: `kOrder` loads of the table and slot pointers,
  /// no lock and no read-modify-write.  Transaction reads use acquire; the
  /// commit-time re-probe of absent reads uses seq_cst (DESIGN.md §15).
  template <std::memory_order kOrder = std::memory_order_acquire>
  Record* FindRecord(std::string_view key) const;
  Record* FindOrCreateRecord(std::string_view key);
  /// Fills the first free slot of `hash`'s probe sequence in `table`.
  /// Caller holds `index_mu_`.
  static void Place(Table* table, size_t hash, Record* rec);

  /// Every registration of one engine.  Shared with the thread-exit hook of
  /// each registered thread, which may run after the engine is gone.
  struct Registry {
    std::mutex mu;
    bool engine_alive = true;
    std::vector<std::unique_ptr<ThreadState>> states;  ///< ids 0..size-1
    std::vector<ThreadState*> released;  ///< held by no live thread
  };

  /// Calling thread's registration with this engine: taken over from an
  /// exited thread if one is free, else created.
  ThreadState* MyState();

  /// Pins the calling thread into the current epoch; reads/writes of record
  /// versions are only legal while pinned.  Unpin as soon as the borrowed
  /// version pointers are dead.
  void Pin(ThreadState* st);
  void Unpin(ThreadState* st);

  /// Consistent lock-free read of one record: returns the version pointer
  /// current at some instant between the two TID loads plus that TID.  The
  /// caller must be pinned (the pointer stays valid until Unpin).  Never
  /// returns a locked TID — spins past in-flight installs.
  void ReadRecord(const Record* rec, Version** version, uint64_t* tid) const;

  /// Ordered committed scan from `start_key`, up to `limit` live rows.  The
  /// caller must be pinned.
  void CollectRange(const std::string& start_key, size_t limit,
                    std::vector<TxScanEntry>* out) const;

  /// Hands an unlinked version to the thread's retire list, stamped with the
  /// global epoch observed *after* the unlink (so every reader that could
  /// still hold it pinned an epoch <= the stamp).
  void Retire(ThreadState* st, Version* version);

  /// Once the retire list holds `retire_batch` versions, reclaims its prefix
  /// that no live reader can hold onto the thread's version pool.  Returns
  /// without taking the registry lock while even the oldest stamp is the
  /// current epoch.
  void FlushRetired(ThreadState* st);

  /// A version for `st` to fill and publish: a reclaimed one from its pool,
  /// else a new one.  Its previous `value` buffer is left in place for the
  /// caller to overwrite or swap.
  static Version* NewVersion(ThreadState* st);

  /// Oldest epoch any thread is currently pinned in (global epoch when all
  /// are idle).  A version retired at epoch e is reclaimable once this
  /// exceeds e.
  uint64_t SafeReclaimEpoch() const;

  void TickerLoop();

  OccOptions options_;

  /// The record index.  Readers probe `index_` lock-free; inserts and
  /// growth serialise on `index_mu_`.  `tables_` owns every table ever
  /// published (the current one last), because a reader may still probe a
  /// superseded one; `records_` owns every record.  Both are freed at
  /// teardown.
  std::atomic<Table*> index_{nullptr};
  std::mutex index_mu_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<Record>> records_;

  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> epoch_advances_{0};
  OccStats collected_;  ///< `stats()` as of the previous Collect

  const std::shared_ptr<Registry> registry_ = std::make_shared<Registry>();

  std::atomic<bool> stop_ticker_{false};
  std::thread ticker_;
};

/// One OCC transaction: lock-free reads recorded as `(record, tid)` pairs,
/// writes buffered until the Silo-style commit.  Handed out by
/// `OccEngine::Begin()` and used by one thread.  Deleting it returns it,
/// buffers and all, to its registration's free list (a destroying
/// `operator delete`), so a warmed transaction allocates nothing of its own.
class OccTxn : public Transaction {
 public:
  uint64_t start_ts() const override { return start_epoch_; }
  Status Read(const std::string& key, std::string* value) override;
  Status Write(const std::string& key, std::string_view value) override;
  Status Delete(const std::string& key) override;
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<TxScanEntry>* out) override;
  Status Commit() override;
  Status Abort() override;

  /// Recycles instead of destroying: an unfinished transaction is aborted,
  /// then parked on its registration's free list.
  static void operator delete(OccTxn* txn, std::destroying_delete_t);

 private:
  friend class OccEngine;

  struct ReadEntry {
    const OccEngine::Record* record;
    uint64_t tid;
  };
  /// One buffered write.  `record` and `unlocked_tid` are set while Commit
  /// holds the record's lock.
  struct WriteEntry {
    std::string key;
    std::string value;
    bool is_delete = false;
    OccEngine::Record* record = nullptr;
    uint64_t unlocked_tid = 0;
  };

  OccTxn(OccEngine* engine, OccEngine::ThreadState* state)
      : engine_(engine), state_(state) {}
  ~OccTxn() override = default;

  /// Opens the transaction: empties the sets (keeping their buffers) and
  /// pins the thread into the current epoch.
  void Start();
  Status Buffer(const std::string& key, std::string_view value, bool is_delete);
  WriteEntry* FindWrite(std::string_view key);
  bool WritesRecord(const OccEngine::Record* rec) const;
  void Finish();  ///< unpin + mark finished (idempotent)

  OccEngine* const engine_;
  OccEngine::ThreadState* const state_;
  uint64_t start_epoch_ = 0;
  bool finished_ = true;

  std::vector<ReadEntry> reads_;
  /// Keys read as absent (no record in the index yet): validated at commit
  /// by re-lookup, since there is no record TID to pin them with.  The first
  /// `absent_count_` entries are live; the rest keep their buffers.
  std::vector<std::string> absent_reads_;
  size_t absent_count_ = 0;
  /// The write set, searched linearly and sorted by key only at commit.  The
  /// first `write_count_` entries are live; the rest keep their buffers.
  std::vector<WriteEntry> writes_;
  size_t write_count_ = 0;
};

}  // namespace txn
}  // namespace ycsbt

#endif  // YCSBT_TXN_OCC_ENGINE_H_
