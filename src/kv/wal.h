#ifndef YCSBT_KV_WAL_H_
#define YCSBT_KV_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "kv/env.h"

namespace ycsbt {
namespace kv {

/// One logical write-ahead-log record.
struct WalRecord {
  /// `kBulkPut` is one durable frame covering a whole pre-sorted run of
  /// puts (the `ShardedStore::BulkLoad` fast path): `key` is empty, `value`
  /// is an `EncodeBulkPayload` packing of the run, and `etag` is the etag of
  /// the run's *first* record — entry i of the payload carries `etag + i`.
  ///
  /// `kTxnPut` is the same packing for an *atomic multi-key transaction*
  /// (`ShardedStore::MultiPut`): all its puts commit in one frame, so a
  /// crash can only ever lose or keep the transaction as a unit — replay
  /// never exposes a partial multi-key commit.  Unlike `kBulkPut` the keys
  /// need not be sorted.
  enum class Kind : uint8_t { kPut = 1, kDelete = 2, kBulkPut = 3, kTxnPut = 4 };

  Kind kind = Kind::kPut;
  uint64_t etag = 0;
  std::string key;
  std::string value;  // empty for deletes
};

/// Packs a run of (key, value) pairs into the payload of one `kBulkPut`
/// frame: u32 count, then per record u32 key_len, u32 value_len, key bytes,
/// value bytes (little-endian throughout, like the frame header).
std::string EncodeBulkPayload(
    const std::vector<std::pair<std::string, std::string>>& records);

/// Decodes an `EncodeBulkPayload` payload, appending to `records`.
/// Returns false when the payload is malformed (truncated or trailing
/// bytes); `records` may then hold a prefix of the run.
bool DecodeBulkPayload(const std::string& payload,
                       std::vector<std::pair<std::string, std::string>>* records);

/// Commit-path configuration of a `WriteAheadLog`.
struct WalOptions {
  /// Leader/follower group commit: appenders enqueue encoded frames and one
  /// leader writes + syncs the whole batch with a single write/fdatasync,
  /// then wakes every follower whose LSN the durable watermark now covers.
  /// Off = the seed behaviour (each append writes under the lock).
  bool group_commit = false;
  /// Largest number of frames one leader drains in a single batch.
  int group_max_batch = 64;
  /// Extra time a *syncing* leader waits for more frames to accumulate
  /// before writing, in microseconds.  0 (the default) is pure natural
  /// batching: the leader takes whatever queued while the previous leader
  /// was syncing — batch size then tracks writer concurrency with no added
  /// latency.  Non-zero trades commit latency for larger batches on media
  /// where fdatasync dwarfs the window.
  uint32_t group_window_us = 0;
  /// Filesystem seam; nullptr = `Env::Default()`.  Tests substitute a
  /// `FaultInjectingEnv` to tear writes, fail syncs and freeze crash states.
  Env* env = nullptr;
};

/// Durability counters of one `WriteAheadLog`, drained (snapshot + reset) so
/// each benchmark run reports its own window.
struct WalStats {
  uint64_t appends = 0;  ///< records acknowledged (written + flushed)
  uint64_t syncs = 0;    ///< fdatasync calls issued
  uint64_t batches = 0;  ///< write batches (== appends when group commit is off)
  Histogram sync_latency_us;  ///< per-fdatasync duration, microseconds
  Histogram batch_records;    ///< records per write batch
};

/// Append-only write-ahead log with per-record CRC-32C and optional
/// leader/follower group commit.
///
/// Record wire format (little-endian):
///   u32 masked_crc  — CRC-32C of everything after this field
///   u8  kind
///   u64 etag
///   u32 key_len, u32 value_len
///   key bytes, value bytes
///
/// Group-commit protocol (`WalOptions::group_commit`): every appender encodes
/// and CRCs its frame *outside* the lock, enqueues it under the lock with a
/// monotonically increasing LSN, and blocks.  The first waiter that finds no
/// active leader becomes the leader: it drains the queue (after an optional
/// accumulation window), issues one write (+ one fdatasync when any batch
/// member asked to sync) for the whole batch with the lock released,
/// publishes the durable-LSN watermark, steps down and wakes everyone.
/// Followers whose LSN the watermark covers return; one of the rest takes
/// over as the next leader (leader handoff).  Batches therefore form
/// naturally while the previous leader is inside fdatasync.
///
/// Every byte goes through the `Env` seam (`WalOptions::env`), and the
/// protocol announces `wal_pre_sync` / `wal_post_sync` crash points around
/// each fdatasync — a `FaultInjectingEnv` can freeze the file exactly as a
/// kernel crash between those milestones would have (DESIGN.md §14).
///
/// Failure contract (fail-stop): a short write, flush failure or fdatasync
/// failure *poisons* the log — the torn frame is truncated back to the last
/// intact offset where possible, every in-flight and subsequent append fails
/// with the poison status, and nothing after the failure point is ever
/// acknowledged.  A torn frame can then only ever be a *tail*, which `Replay`
/// (and `ShardedStore::Open`'s truncation) already handles; it can never be
/// buried mid-log by later appends.  A failed fdatasync is never retried:
/// under fsyncgate semantics the kernel may already have dropped the dirty
/// pages, so the only safe answer is to stop acknowledging.
///
/// Replay stops cleanly at the first torn or corrupt record (the tail that a
/// crash may leave behind), matching the recovery contract of LevelDB-style
/// logs.  `sync` maps to fdatasync when `StoreOptions::sync_wal` is set; the
/// paper's latency-vs-durability trade-off (§II-A) is exactly this knob.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if needed) the log at `path` for appending.
  Status Open(const std::string& path, WalOptions options = {});

  /// Appends one record; thread-safe.  Returns once the record is written
  /// and flushed (and fdatasync'd when `sync`), or with the poison status if
  /// the log has fail-stopped.  `lsn_out` (optional) receives the record's
  /// log sequence number; an append that returned OK is covered by
  /// `durable_lsn()` forever after.
  Status Append(const WalRecord& record, bool sync, uint64_t* lsn_out = nullptr);

  /// Replays all intact records in `path` in order.  A corrupt tail ends
  /// replay with OK; corruption *before* the end returns Corruption.
  /// `valid_bytes` (optional) receives the offset just past the last intact
  /// record — the owner must truncate the file there before appending again,
  /// or the torn tail would sit mid-log on the next replay.  Reads go
  /// through `env` (nullptr = `Env::Default()`).
  static Status Replay(const std::string& path,
                       const std::function<void(const WalRecord&)>& apply,
                       size_t* valid_bytes = nullptr, Env* env = nullptr);

  /// Closes the file; further Appends fail.  Waits for an in-flight leader
  /// batch to finish.  Callers must not close while appends are in flight.
  void Close();

  bool IsOpen() const { return file_ != nullptr; }

  /// True once a write failure has fail-stopped the log.
  bool IsPoisoned() const;

  /// Highest LSN acknowledged as written (and synced, when requested).
  uint64_t durable_lsn() const;

  /// Snapshot-and-reset of the durability counters accumulated since the
  /// last drain (or Open).
  WalStats DrainStats();

 private:
  struct PendingFrame {
    std::string frame;
    uint64_t lsn = 0;
    bool sync = false;
  };

  /// Appends with group commit off: write (+ sync) under the lock.
  Status AppendDirect(std::string frame, bool sync, uint64_t lsn,
                      std::unique_lock<std::mutex>& lock);

  /// Appends with group commit on: enqueue, then follow or lead.
  Status AppendGrouped(std::string frame, bool sync, uint64_t lsn,
                       std::unique_lock<std::mutex>& lock);

  /// Leads one batch: drains up to `group_max_batch` pending frames (after
  /// the accumulation window, when `sync`), writes them in one shot with the
  /// lock released, publishes the durable watermark and steps down.
  Status LeadBatch(bool sync, std::unique_lock<std::mutex>& lock);

  /// Writes `buffer` as one Append (+ crash-pointed fdatasync when `sync`).
  /// On failure `*why` names the failing step.  Called with the I/O allowed
  /// (direct path: lock held; leader path: lock released — `file_` and
  /// `env_` are stable while a leader is active because Close waits).
  Status WriteAndMaybeSync(const std::string& buffer, bool sync,
                           uint64_t* sync_us, std::string* why);

  /// Records a fail-stop: poisons the log and attempts to truncate the file
  /// back to the last intact offset.  Requires `mu_`.
  void PoisonLocked(const std::string& why);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Env* env_ = nullptr;
  std::unique_ptr<WritableFile> file_;
  std::string path_;
  WalOptions options_;

  uint64_t next_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  bool leader_active_ = false;
  std::vector<PendingFrame> pending_;

  bool poisoned_ = false;
  Status poison_status_;
  /// Bytes of fully written-and-flushed frames; the truncation target after
  /// a torn write.
  size_t intact_bytes_ = 0;

  WalStats stats_;
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_WAL_H_
