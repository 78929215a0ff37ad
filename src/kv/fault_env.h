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
#include "common/property_schema.h"
#include "common/stats_layer.h"
#include "kv/env.h"

namespace ycsbt {
namespace kv {

inline constexpr PropertyDecl kStorageFaultSeed = UintProperty(
    "storage.fault.seed", 0x57064FA17,
    "the injection schedule is a pure function of this seed");
/// Half the bytes land and a short write is reported; no crash — the
/// live-device error shape.
inline constexpr PropertyDecl kTornWriteAt = UintProperty(
    "storage.fault.torn_write_at", 0, "Nth armed append tears mid-buffer (0 = off)");
inline constexpr PropertyDecl kWriteErrorRate = DoubleProperty(
    "storage.fault.write_error_rate", 0.0, 0.0, 1.0,
    "seeded per-append clean failure (no bytes land)");
/// fsyncgate semantics: the error is reported once, the dirty (unsynced)
/// bytes are silently dropped, later syncs "work".
inline constexpr PropertyDecl kSyncFailAt =
    UintProperty("storage.fault.sync_fail_at", 0, "Nth armed fdatasync fails (0 = off)");
inline constexpr PropertyDecl kSyncFailRate = DoubleProperty(
    "storage.fault.sync_fail_rate", 0.0, 0.0, 1.0,
    "seeded per-sync variant of sync_fail_at");
inline constexpr PropertyDecl kEnospcAfterBytes = UintProperty(
    "storage.fault.enospc_after_bytes", 0,
    "byte budget across armed appends; the crossing append gets ENOSPC");
inline constexpr PropertyDecl kTruncateFailAt = UintProperty(
    "storage.fault.truncate_fail_at", 0, "Nth armed file truncation fails (0 = off)");
inline constexpr PropertyDecl kReadFlipOffset = IntProperty(
    "storage.fault.read_flip_offset", -1, -1, kNoLimit,
    "flip one bit at this offset of every armed whole-file read (-1 = off)");
inline constexpr PropertyDecl kReadFlipRate = DoubleProperty(
    "storage.fault.read_flip_rate", 0.0, 0.0, 1.0,
    "seeded per-read chance of one bit flip at a seeded offset");
inline constexpr PropertyDecl kReadFlipFile = StringProperty(
    "storage.fault.read_flip_file", "", "substring filter for flips (empty = all files)");
/// Every `MaybeCrashPoint` name in the engine, plus "" for none.
inline constexpr std::string_view kStorageCrashPoints[] = {
    "", "wal_pre_sync", "wal_post_sync", "ckpt_pre_rename",
    "ckpt_post_rename_pre_trunc", "ckpt_post_trunc"};
inline constexpr PropertyDecl kCrashPoint = EnumProperty(
    "storage.fault.crash_point", "", kStorageCrashPoints,
    "named point at which the env freezes all file state");
inline constexpr PropertyDecl kCrashPointPass = UintProperty(
    "storage.fault.crash_point_pass", 1, 1, kNoLimit,
    "fire on the Nth pass of that point");
/// The `wal_frame_mid` torture trigger.
inline constexpr PropertyDecl kCrashWriteOffset = IntProperty(
    "storage.fault.crash_write_offset", -1, -1, kNoLimit,
    "freeze mid-append when the matching file reaches this byte offset");
inline constexpr PropertyDecl kCrashFile = StringProperty(
    "storage.fault.crash_file", "",
    "substring filter for the offset trigger (empty = any file)");
/// The page cache that never made it to media.
inline constexpr PropertyDecl kDropUnsyncedOnCrash = BoolProperty(
    "storage.fault.drop_unsynced_on_crash", false,
    "a crash also drops every byte written since the file's last sync");
inline constexpr const PropertyDecl* kStorageFaultProperties[] = {
    &kStorageFaultSeed, &kTornWriteAt, &kWriteErrorRate, &kSyncFailAt, &kSyncFailRate,
    &kEnospcAfterBytes, &kTruncateFailAt, &kReadFlipOffset, &kReadFlipRate,
    &kReadFlipFile, &kCrashPoint, &kCrashPointPass, &kCrashWriteOffset, &kCrashFile,
    &kDropUnsyncedOnCrash};

/// Configuration of the storage fault layer, from the `storage.fault.*`
/// properties declared above.  Deterministic `*_at` triggers are 1-based
/// counters over operations seen while armed; `*_rate` triggers are seeded
/// per-operation draws (same discipline as the `fault.*` request-level
/// substrate, DESIGN.md §7) — a fixed seed and a fixed operation stream
/// replay a byte-identical fault schedule.
struct StorageFaultOptions {
  uint64_t seed = kStorageFaultSeed.Default<uint64_t>();

  uint64_t torn_write_at = kTornWriteAt.Default<uint64_t>();
  double write_error_rate = kWriteErrorRate.Default<double>();
  uint64_t sync_fail_at = kSyncFailAt.Default<uint64_t>();
  double sync_fail_rate = kSyncFailRate.Default<double>();
  uint64_t enospc_after_bytes = kEnospcAfterBytes.Default<uint64_t>();
  uint64_t truncate_fail_at = kTruncateFailAt.Default<uint64_t>();
  int64_t read_flip_offset = kReadFlipOffset.Default<int64_t>();
  double read_flip_rate = kReadFlipRate.Default<double>();
  std::string read_flip_file;

  std::string crash_point;
  uint64_t crash_point_pass = kCrashPointPass.Default<uint64_t>();
  int64_t crash_write_offset = kCrashWriteOffset.Default<int64_t>();
  std::string crash_file;
  bool drop_unsynced_on_crash = kDropUnsyncedOnCrash.Default<bool>();

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
