#ifndef YCSBT_KV_STORE_H_
#define YCSBT_KV_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/property_schema.h"
#include "common/stats_layer.h"
#include "common/status.h"
#include "kv/skiplist.h"
#include "kv/wal.h"

namespace ycsbt {

class RpcExecutor;

namespace kv {

/// Sentinel etag meaning "the key must not exist" in conditional writes —
/// the If-None-Match:* analogue of the cloud-store APIs.
inline constexpr uint64_t kEtagAbsent = 0;

/// One key/value/etag result row of a scan.
struct ScanEntry {
  std::string key;
  std::string value;
  uint64_t etag = 0;
};

/// Per-key result row of a `MultiGet`.
struct MultiGetResult {
  Status status;
  std::string value;
  uint64_t etag = 0;
};

/// One mutation of a `MultiWrite` batch.  Each op is the exact analogue of
/// the corresponding single-key method; the batch only removes the
/// round-trip-per-item cost, never adds cross-key atomicity (that remains
/// the transaction library's job).
struct WriteOp {
  enum class Kind : uint8_t {
    kPut,
    kConditionalPut,
    kDelete,
    kConditionalDelete,
  };

  Kind kind = Kind::kPut;
  std::string key;
  std::string value;           ///< Puts only.
  uint64_t expected_etag = 0;  ///< Conditional ops only.

  static WriteOp Put(std::string key, std::string value) {
    WriteOp op;
    op.kind = Kind::kPut;
    op.key = std::move(key);
    op.value = std::move(value);
    return op;
  }
  static WriteOp CondPut(std::string key, std::string value,
                         uint64_t expected_etag) {
    WriteOp op;
    op.kind = Kind::kConditionalPut;
    op.key = std::move(key);
    op.value = std::move(value);
    op.expected_etag = expected_etag;
    return op;
  }
  static WriteOp Delete(std::string key) {
    WriteOp op;
    op.kind = Kind::kDelete;
    op.key = std::move(key);
    return op;
  }
  static WriteOp CondDelete(std::string key, uint64_t expected_etag) {
    WriteOp op;
    op.kind = Kind::kConditionalDelete;
    op.key = std::move(key);
    op.expected_etag = expected_etag;
    return op;
  }
};

/// Per-op result row of a `MultiWrite`.
struct WriteResult {
  Status status;
  /// New etag for (conditional) puts that succeeded.
  uint64_t etag = 0;
};

inline constexpr PropertyDecl kMemkvShards = IntProperty(
    "memkv.shards", 16, 1, kIntMax,
    "hash shards; each is an independently locked skip list");
inline constexpr PropertyDecl kMemkvWalPath =
    StringProperty("memkv.wal_path", "", "WAL file; empty = volatile store, no logging");
inline constexpr PropertyDecl kMemkvSyncWal = BoolProperty(
    "memkv.sync_wal", false, "fdatasync every commit before acknowledging it");
inline constexpr PropertyDecl kMemkvWalGroupCommit = BoolProperty(
    "memkv.wal_group_commit", false,
    "leader/follower group commit: one fwrite+fdatasync per batch");
inline constexpr PropertyDecl kMemkvWalGroupMaxBatch = IntProperty(
    "memkv.wal_group_max_batch", 64, 1, kIntMax,
    "frames one group-commit leader drains per batch");
inline constexpr PropertyDecl kMemkvWalGroupWindowUs = UintProperty(
    "memkv.wal_group_window_us", 0, 0, 4294967295.0,
    "extra accumulation wait for syncing leaders (0 = natural batching)");
inline constexpr PropertyDecl kMemkvCheckpointPath = StringProperty(
    "memkv.checkpoint_path", "",
    "snapshot file for Checkpoint() log compaction, loaded before WAL replay");
inline constexpr PropertyDecl kMemkvCheckpointDirSync = BoolProperty(
    "memkv.checkpoint_dir_sync", true,
    "fsync the checkpoint directory after the rename-over");
inline constexpr const PropertyDecl* kStoreProperties[] = {
    &kMemkvShards, &kMemkvWalPath, &kMemkvSyncWal, &kMemkvWalGroupCommit,
    &kMemkvWalGroupMaxBatch, &kMemkvWalGroupWindowUs, &kMemkvCheckpointPath,
    &kMemkvCheckpointDirSync};

/// Configuration of a `ShardedStore`: the `memkv.*` properties above, field
/// by field (WAL details in `WalOptions`).
struct StoreOptions {
  int num_shards = kMemkvShards.Default<int>();
  std::string wal_path;
  bool sync_wal = kMemkvSyncWal.Default<bool>();  ///< durability vs latency, §II-A
  bool wal_group_commit = kMemkvWalGroupCommit.Default<bool>();
  int wal_group_max_batch = kMemkvWalGroupMaxBatch.Default<int>();
  uint32_t wal_group_window_us = kMemkvWalGroupWindowUs.Default<uint32_t>();
  std::string checkpoint_path;
  /// fsync the checkpoint directory after the rename-over, making the new
  /// snapshot's dirent crash-durable.  Off replicates the pre-hardening bug
  /// (a post-rename crash can resurrect the old snapshot next to an
  /// already-truncated WAL — losing acked commits); kept as a knob so the
  /// torture harness can demonstrate exactly that loss.
  bool checkpoint_dir_sync = kMemkvCheckpointDirSync.Default<bool>();
  /// Filesystem seam for the WAL and the checkpoint path; nullptr =
  /// `Env::Default()`.  Tests substitute a `FaultInjectingEnv`.
  Env* env = nullptr;

  /// Every field but `env` from the `memkv.*` properties.
  static StoreOptions FromProperties(const Properties& props);
};

/// What `ShardedStore::Open()` did to reconstruct state — the source of the
/// RECOVERY-REPLAYED / RECOVERY-TRUNCATED-BYTES / CKPT-SCRUB observability
/// lines (DESIGN.md §14).
struct RecoveryReport {
  uint64_t checkpoint_records = 0;   ///< entries loaded from the snapshot
  uint64_t wal_records_replayed = 0; ///< WAL entries applied after filtering
  uint64_t wal_records_skipped = 0;  ///< WAL frames at/below the watermark
  uint64_t truncated_bytes = 0;      ///< torn tail chopped off the WAL
  /// The snapshot failed validation (CRC damage, missing watermark, torn
  /// tail) and was ignored wholesale — recovery fell back to WAL-only.
  bool checkpoint_scrubbed = false;
  std::string scrub_reason;
};

/// The key-value store interface every substrate in this repo implements:
/// the local engine below, the simulated cloud stores, and (transactionally)
/// the client-coordinated transaction library.
///
/// Contract highlights, shared with real NoSQL stores:
///  - every single-key operation is individually atomic and linearizable;
///  - there is NO multi-key atomicity — that gap is precisely what YCSB+T's
///    Tier 6 measures and what the txn library closes;
///  - writes return a fresh etag; conditional writes compare-and-swap on it;
///  - `Scan` is a best-effort ordered snapshot (not atomic across keys).
class Store {
 public:
  virtual ~Store() = default;

  /// Reads `key` into `*value` (and `*etag` when non-null).
  virtual Status Get(const std::string& key, std::string* value,
                     uint64_t* etag = nullptr) = 0;

  /// Unconditionally writes `key`; `*etag_out` receives the new etag.
  virtual Status Put(const std::string& key, std::string_view value,
                     uint64_t* etag_out = nullptr) = 0;

  /// Writes `key` only if its current etag equals `expected_etag`
  /// (`kEtagAbsent` = key must not exist).  Returns Conflict otherwise.
  /// This is the *test-and-set* primitive the paper notes Percolator fails
  /// to exploit; the txn library's locking protocol is built on it.
  virtual Status ConditionalPut(const std::string& key, std::string_view value,
                                uint64_t expected_etag,
                                uint64_t* etag_out = nullptr) = 0;

  /// Removes `key`; NotFound if absent.
  virtual Status Delete(const std::string& key) = 0;

  /// Removes `key` only if its etag matches; Conflict otherwise.
  virtual Status ConditionalDelete(const std::string& key,
                                   uint64_t expected_etag) = 0;

  /// Up to `limit` entries with key >= `start_key`, in key order.
  virtual Status Scan(const std::string& start_key, size_t limit,
                      std::vector<ScanEntry>* out) = 0;

  /// Reads every key of `keys`, filling `results` (resized to match) with
  /// one independent per-key outcome; a missing key is a per-row NotFound,
  /// never a batch failure.  The default runs `Get` per key: on the attached
  /// executor when there is one, so the requests overlap (DESIGN.md §10),
  /// and as a sequential loop otherwise.  Decorators override it with
  /// `AdmitInOrder`.  Like `Scan`, the batch is NOT atomic across keys.
  virtual void MultiGet(const std::vector<std::string>& keys,
                        std::vector<MultiGetResult>* results);

  /// Applies every op of `ops`, filling `results` (resized to match) with
  /// one independent per-op outcome.  Same contract and default as
  /// `MultiGet`; no cross-op atomicity ever.
  virtual void MultiWrite(const std::vector<WriteOp>& ops,
                          std::vector<WriteResult>* results);

  /// Number of live keys (approximate under concurrency).
  virtual size_t Count() const = 0;

  /// Attaches the shared fan-out executor the default batch forms run their
  /// items on (`DBFactory` wires it from `txn.fanout_threads`); null keeps
  /// them sequential.
  void set_executor(std::shared_ptr<RpcExecutor> executor) {
    executor_ = std::move(executor);
  }

 private:
  std::shared_ptr<RpcExecutor> executor_;  // null = sequential batches
};

/// Executes one `WriteOp` against `store` through the single-op interface —
/// the shared dispatch used by the default `MultiWrite` loop and by
/// decorators routing an already-admitted op to their base store.
Status ApplyWriteOp(Store& store, const WriteOp& op, uint64_t* etag_out);

/// The local storage engine: hash-sharded skip lists with etagged values and
/// an optional CRC-checked write-ahead log.
///
/// This is the WiredTiger stand-in of the evaluation (DESIGN.md
/// *Substitutions*): the Tier-6 experiments (Figs 4, 5) run the Closed
/// Economy Workload against it through the `rawhttp` binding (the loopback
/// `cloud::SimCloudStore` profile over this engine).
class ShardedStore : public Store, public StatsLayer {
 public:
  explicit ShardedStore(StoreOptions options = {});
  ~ShardedStore() override;

  /// Loads the checkpoint (if configured and present), replays the WAL
  /// (if configured) and opens it for appending.
  /// Must be called once before use when `wal_path` is set.
  Status Open();

  /// Writes a consistent snapshot of the whole store to `checkpoint_path`
  /// and truncates the WAL (log compaction).  Concurrent writers are
  /// blocked for the duration (stop-the-world checkpoint — the simple,
  /// correct variant).  Requires both `checkpoint_path` and `wal_path`.
  Status Checkpoint();

  /// Sorted bulk-load fast path: ingests a strictly-ascending run of
  /// (key, value) pairs, bypassing both the per-key skip-list search (each
  /// shard's sub-run is spliced through a `SkipList::SortedInserter` cursor
  /// under one exclusive lock) and the WAL-frame-per-record cost (the whole
  /// run is logged as ONE group-committed `kBulkPut` frame).  Each record
  /// gets a fresh etag from a contiguous reserved range, so replay and
  /// checkpoint watermarks order bulk records exactly like single puts.
  ///
  /// Returns InvalidArgument when the run is not strictly ascending or
  /// contains an empty key; the store is unchanged in that case.  Concurrent
  /// single-key operations remain safe (the run takes the normal shard
  /// locks), but interleaved writers void the "one frame = one atomic run"
  /// durability grouping only in the sense that their records land between
  /// the batch frames — crash recovery stays exact either way.
  Status BulkLoad(
      const std::vector<std::pair<std::string, std::string>>& sorted_records);

  /// Atomic multi-key put: every entry commits (or not) as a unit.  All the
  /// puts ride in ONE `kTxnPut` WAL frame, so crash recovery can only ever
  /// replay the whole set or none of it — a partial multi-key transaction is
  /// never exposed.  Keys need not be sorted (unlike `BulkLoad`); entries
  /// get a contiguous etag range, entry i carrying `first + i`.
  /// `etags_out` (optional) receives the per-entry etags.
  ///
  /// In memory the involved shards are locked together (index order, the
  /// same order every multi-shard path uses), so concurrent readers see the
  /// batch atomically too.
  Status MultiPut(
      const std::vector<std::pair<std::string, std::string>>& records,
      std::vector<uint64_t>* etags_out = nullptr);

  Status Get(const std::string& key, std::string* value,
             uint64_t* etag = nullptr) override;
  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out = nullptr) override;
  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag, uint64_t* etag_out = nullptr) override;
  Status Delete(const std::string& key) override;
  Status ConditionalDelete(const std::string& key, uint64_t expected_etag) override;
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<ScanEntry>* out) override;
  size_t Count() const override;

  const StoreOptions& options() const { return options_; }

  /// True when mutations are being logged (a WAL path is configured).
  bool wal_enabled() const { return !options_.wal_path.empty(); }

  /// Snapshot-and-reset of the WAL's durability counters (sync latency,
  /// batch sizes) accumulated since the last drain; `Collect` drains
  /// through it.
  WalStats DrainWalStats() { return wal_.DrainStats(); }

  /// What the last `Open()` replayed, skipped, truncated and scrubbed.
  const RecoveryReport& recovery_report() const { return recovery_; }

  const char* name() const override { return "engine"; }
  /// Drains the WAL's counters (`WAL APPENDS` / `WAL SYNCS` /
  /// `WAL GROUP BATCHES` / `WAL MAX BATCH`, the `WAL-SYNC` and `WAL-BATCH`
  /// series) and restates the recovery report (`RECOVERY-*`, `CKPT-*`).
  /// Only meaningful with a WAL; the factory registers the engine only then.
  void Collect(LayerStats* out) override;

  /// True once a checkpoint-path failure has fail-stopped the store: every
  /// later mutation fails with the poison status, reads keep working off the
  /// intact in-memory state (poison-not-corrupt).  WAL-append failures
  /// poison the WAL itself (same observable effect) — this flag covers the
  /// window where the WAL is closed for compaction and cannot carry the
  /// poison.
  bool IsPoisoned() const {
    return poisoned_.load(std::memory_order_acquire) || wal_.IsPoisoned();
  }

 private:
  struct Entry {
    std::string value;
    uint64_t etag = 0;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    SkipList<Entry> map;
  };

  Shard& ShardFor(std::string_view key);
  size_t ShardIndex(std::string_view key) const;
  /// WAL commit-path configuration derived from the store options.
  WalOptions MakeWalOptions() const;
  /// Lifts the etag source to at least `etag` (replay keeps it ahead of
  /// everything the log produced).
  void AdvanceEtagSource(uint64_t etag);
  uint64_t NextEtag() { return etag_source_.fetch_add(1, std::memory_order_relaxed) + 1; }
  Env* EnvOrDefault() const {
    return options_.env != nullptr ? options_.env : Env::Default();
  }
  Status LogMutation(WalRecord::Kind kind, std::string_view key,
                     std::string_view value, uint64_t etag);
  /// The one body of every single-key write: finds the entry once, checks
  /// `kind`'s condition, then draws the etag, logs the frame and applies it
  /// under the shard lock.  `value` is ignored by deletes and
  /// `expected_etag` by the unconditional kinds.
  Status Write(WriteOp::Kind kind, std::string_view key, std::string_view value,
               uint64_t expected_etag, uint64_t* etag_out);
  /// Applies one replayed record; returns the number of entries actually
  /// applied (0 when the watermark filtered the whole frame).
  size_t ApplyReplayed(const WalRecord& record, uint64_t skip_upto_etag);
  /// Fail-stops the store with `why`; returns the poison status.
  Status PoisonStore(const std::string& why);

  StoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> etag_source_{0};
  WriteAheadLog wal_;
  bool open_ = false;
  /// Etag watermark of the loaded checkpoint; WAL records at or below it
  /// were already folded into the snapshot.
  uint64_t checkpoint_etag_ = 0;
  RecoveryReport recovery_;
  /// Set (once, under the checkpoint's stop-the-world locks) when a
  /// checkpoint-path failure fail-stops the store; `poison_status_` is
  /// written before the release store and only read after an acquire load.
  std::atomic<bool> poisoned_{false};
  Status poison_status_;
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_STORE_H_
