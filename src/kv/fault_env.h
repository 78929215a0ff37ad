#ifndef YCSBT_KV_FAULT_ENV_H_
#define YCSBT_KV_FAULT_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/properties.h"
#include "common/stats_layer.h"
#include "kv/env.h"

namespace ycsbt {
namespace kv {

/// Configuration of the storage fault layer, read from the `storage.fault.*`
/// property namespace.  Deterministic `*_at` triggers are 1-based counters
/// over operations seen while armed; `*_rate` triggers are seeded
/// per-operation draws (same discipline as the `fault.*` request-level
/// substrate, DESIGN.md §7) — a fixed seed and a fixed operation stream
/// replay a byte-identical fault schedule.
///
///   storage.fault.seed                  determinism seed
///   storage.fault.torn_write_at         Nth armed append tears mid-buffer
///                                       (half the bytes land, short write
///                                       reported; no crash — the live-device
///                                       error shape)
///   storage.fault.write_error_rate      seeded per-append failure (no bytes)
///   storage.fault.sync_fail_at          Nth armed fdatasync fails with
///                                       fsyncgate semantics: error reported
///                                       once, the dirty (unsynced) bytes are
///                                       silently DROPPED, later syncs "work"
///   storage.fault.sync_fail_rate        seeded per-sync variant of the same
///   storage.fault.enospc_after_bytes    byte budget across armed appends;
///                                       the append that crosses it is cut
///                                       short with an injected ENOSPC
///   storage.fault.truncate_fail_at      Nth armed TruncateFile fails
///   storage.fault.read_flip_offset      flip one bit at this offset of every
///                                       armed whole-file read (-1 = off)
///   storage.fault.read_flip_rate        seeded per-read chance of one bit
///                                       flip at a seeded offset
///   storage.fault.read_flip_file        substring filter for flips ("" = all)
///   storage.fault.crash_point           named crash point (`wal_frame_mid`,
///                                       `wal_pre_sync`, `wal_post_sync`,
///                                       `ckpt_pre_rename`,
///                                       `ckpt_post_rename_pre_trunc`,
///                                       `ckpt_post_trunc`, ...) at which the
///                                       env freezes all file state
///   storage.fault.crash_point_pass      fire on the Nth pass of that point
///   storage.fault.crash_write_offset    freeze mid-append when the matching
///                                       file reaches this byte offset — the
///                                       `wal_frame_mid` torture trigger
///   storage.fault.crash_file            substring filter for the offset
///                                       trigger ("" = any file)
///   storage.fault.drop_unsynced_on_crash  crash also drops every byte
///                                       written since the file's last
///                                       successful sync (the page cache
///                                       that never made it to media)
struct StorageFaultOptions {
  uint64_t seed = 0x57064FA17ull;

  uint64_t torn_write_at = 0;
  double write_error_rate = 0.0;
  uint64_t sync_fail_at = 0;
  double sync_fail_rate = 0.0;
  uint64_t enospc_after_bytes = 0;
  uint64_t truncate_fail_at = 0;
  int64_t read_flip_offset = -1;
  double read_flip_rate = 0.0;
  std::string read_flip_file;

  std::string crash_point;
  uint64_t crash_point_pass = 1;
  int64_t crash_write_offset = -1;
  std::string crash_file;
  bool drop_unsynced_on_crash = false;

  bool Any() const {
    return torn_write_at > 0 || write_error_rate > 0.0 || sync_fail_at > 0 ||
           sync_fail_rate > 0.0 || enospc_after_bytes > 0 ||
           truncate_fail_at > 0 || read_flip_offset >= 0 ||
           read_flip_rate > 0.0 || !crash_point.empty() ||
           crash_write_offset >= 0;
  }

  static StorageFaultOptions FromProperties(const Properties& props);
};

/// Counters of every storage fault actually injected (fixed seed + fixed
/// operation stream => identical counts run after run).
struct StorageFaultStats {
  uint64_t appends = 0;          ///< armed appends seen
  uint64_t syncs = 0;            ///< armed syncs seen
  uint64_t torn_writes = 0;      ///< short writes injected
  uint64_t write_errors = 0;     ///< clean append failures injected
  uint64_t sync_failures = 0;    ///< fsyncgate failures injected
  uint64_t enospc_failures = 0;  ///< ENOSPC rejections injected
  uint64_t truncate_failures = 0;
  uint64_t read_flips = 0;       ///< bit flips served to readers
  uint64_t crash_points_seen = 0;  ///< named crash-point passes observed
  bool crashed = false;            ///< the env froze (simulated kernel crash)
  std::string crash_fired_at;      ///< point name that froze it

  uint64_t TotalInjected() const {
    return torn_writes + write_errors + sync_failures + enospc_failures +
           truncate_failures + read_flips + (crashed ? 1 : 0);
  }
};

/// A seeded, deterministic fault-injecting `Env` decorator — the storage
/// twin of `FaultInjectingStore`.  While disarmed (`set_enabled(false)`,
/// the load/validation phases) every call passes straight through.
///
/// Crash semantics: once a crash trigger fires (named point, or an append
/// reaching `crash_write_offset`), the env freezes — the bytes already on
/// disk stay exactly as the kernel would have left them (optionally minus
/// everything unsynced, see `drop_unsynced_on_crash`), every rename not yet
/// made durable by a directory fsync is rolled back (the old dirent
/// resurrects — the adversarial metadata ordering journalled filesystems
/// permit), and every subsequent operation fails with an IOError.  Recovery
/// then reopens the frozen files through a fresh Env, exactly like a process
/// restart after kill -9.
class FaultInjectingEnv : public Env, public StatsLayer {
 public:
  FaultInjectingEnv(Env* base, StorageFaultOptions options);

  /// Arms/disarms injection.  Thread-safe; the benchmark driver arms only
  /// the measured run phase.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  const StorageFaultOptions& options() const { return options_; }
  StorageFaultStats stats() const;

  const char* name() const override { return "storage-fault"; }
  /// `STORAGE-FAULTS INJECTED` and `STORAGE-ENV CRASHED` (1 when a crash
  /// point froze the env in the window).
  void Collect(LayerStats* out) override;
  void Arm(bool armed) override { set_enabled(armed); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // Env interface.
  Status NewWritableFile(const std::string& path, bool truncate_existing,
                         std::unique_ptr<WritableFile>* out) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  Status FileSize(const std::string& path, uint64_t* size) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDirOf(const std::string& path) override;
  Status MaybeCrashPoint(const char* point) override;

 private:
  friend class FaultWritableFile;

  struct PendingRename {
    std::string dir;
    std::string from;
    std::string to;
    std::string previous_dst;  ///< content `to` held before the rename
    bool had_dst = false;
  };

  Status CrashedStatus() const;
  Status DoAppend(class FaultWritableFile* file, std::string_view data);
  Status DoSync(class FaultWritableFile* file);
  void Deregister(class FaultWritableFile* file);
  /// Freezes the env: rolls back un-dir-synced renames, optionally drops
  /// unsynced file bytes, and fails every later operation.  Requires `mu_`.
  void TriggerCrashLocked(const std::string& point);
  double Draw(uint64_t ticket, uint64_t salt) const;
  static std::string DirOf(const std::string& path);

  Env* base_;
  StorageFaultOptions options_;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> crashed_{false};

  mutable std::mutex mu_;
  std::string crash_fired_at_;
  std::vector<class FaultWritableFile*> live_files_;
  std::vector<PendingRename> pending_renames_;
  std::map<std::string, uint64_t> point_passes_;
  uint64_t append_ticket_ = 0;
  uint64_t sync_ticket_ = 0;
  uint64_t truncate_ticket_ = 0;
  uint64_t read_ticket_ = 0;
  uint64_t bytes_appended_ = 0;

  StorageFaultStats stats_;
  StorageFaultStats collected_;  ///< `stats()` as of the previous Collect
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_FAULT_ENV_H_
