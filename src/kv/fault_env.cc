#include "kv/fault_env.h"

#include <algorithm>
#include <utility>

#include "common/random.h"

namespace ycsbt {
namespace kv {

namespace {

bool PathMatches(const std::string& path, const std::string& filter) {
  return filter.empty() || path.find(filter) != std::string::npos;
}

Status Injected(const std::string& what) {
  return Status::IOError("injected: " + what);
}

}  // namespace

StorageFaultOptions StorageFaultOptions::FromProperties(
    const Properties& props) {
  StorageFaultOptions o;
  o.seed = kStorageFaultSeed.Get<uint64_t>(props);
  o.torn_write_at = kTornWriteAt.Get<uint64_t>(props);
  o.write_error_rate = kWriteErrorRate.Get<double>(props);
  o.sync_fail_at = kSyncFailAt.Get<uint64_t>(props);
  o.sync_fail_rate = kSyncFailRate.Get<double>(props);
  o.enospc_after_bytes = kEnospcAfterBytes.Get<uint64_t>(props);
  o.truncate_fail_at = kTruncateFailAt.Get<uint64_t>(props);
  o.read_flip_offset = kReadFlipOffset.Get<int64_t>(props);
  o.read_flip_rate = kReadFlipRate.Get<double>(props);
  o.read_flip_file = kReadFlipFile.Get<std::string>(props);
  o.crash_point = kCrashPoint.Get<std::string>(props);
  o.crash_point_pass = kCrashPointPass.Get<uint64_t>(props);
  o.crash_write_offset = kCrashWriteOffset.Get<int64_t>(props);
  o.crash_file = kCrashFile.Get<std::string>(props);
  o.drop_unsynced_on_crash = kDropUnsyncedOnCrash.Get<bool>(props);
  return o;
}

/// The decorated file.  All injection decisions live in the env (under its
/// mutex) so crash freezing can see every live file; the file object only
/// tracks its own synced watermark for the fsyncgate drop and the
/// drop-unsynced-on-crash freeze.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectingEnv* env, std::unique_ptr<WritableFile> base,
                    std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)),
        synced_size_(base_->size()) {}

  ~FaultWritableFile() override { env_->Deregister(this); }

  Status Append(std::string_view data) override {
    return env_->DoAppend(this, data);
  }

  Status Flush() override {
    if (env_->crashed()) return env_->CrashedStatus();
    return base_->Flush();
  }

  Status Sync() override { return env_->DoSync(this); }

  Status Truncate(uint64_t size) override {
    if (env_->crashed()) return env_->CrashedStatus();
    Status s = base_->Truncate(size);
    if (s.ok() && size < synced_size_) synced_size_ = size;
    return s;
  }

  Status Close() override {
    // Closing never mutates on-disk bytes, so it succeeds even after a
    // simulated crash (the WAL's poison teardown still runs cleanly).
    env_->Deregister(this);
    return base_->Close();
  }

  uint64_t size() const override { return base_->size(); }

 private:
  friend class FaultInjectingEnv;

  FaultInjectingEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
  uint64_t synced_size_;  ///< bytes known durable (guarded by env mutex)
};

FaultInjectingEnv::FaultInjectingEnv(Env* base, StorageFaultOptions options)
    : base_(base), options_(std::move(options)) {}

StorageFaultStats FaultInjectingEnv::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FaultInjectingEnv::Collect(LayerStats* out) {
  StorageFaultStats now = stats();
  out->Count("STORAGE-FAULTS INJECTED",
             now.TotalInjected() - collected_.TotalInjected());
  out->Count("STORAGE-ENV CRASHED", now.crashed && !collected_.crashed ? 1 : 0);
  collected_ = std::move(now);
}

Status FaultInjectingEnv::CrashedStatus() const {
  return Status::IOError("injected: env crashed (simulated kernel crash)");
}

std::string FaultInjectingEnv::DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void FaultInjectingEnv::Deregister(FaultWritableFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  live_files_.erase(std::remove(live_files_.begin(), live_files_.end(), file),
                    live_files_.end());
}

Status FaultInjectingEnv::DoAppend(FaultWritableFile* file,
                                   std::string_view data) {
  if (crashed()) return CrashedStatus();
  if (!enabled()) return file->base_->Append(data);

  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return CrashedStatus();
  stats_.appends++;
  const uint64_t ticket = ++append_ticket_;

  // Mid-write crash: the kernel dies after exactly `crash_write_offset`
  // bytes of this file exist — the prefix lands, the rest never happened.
  if (options_.crash_write_offset >= 0 &&
      PathMatches(file->path_, options_.crash_file)) {
    const uint64_t target = static_cast<uint64_t>(options_.crash_write_offset);
    const uint64_t start = file->base_->size();
    if (start <= target && target < start + data.size()) {
      (void)file->base_->Append(data.substr(0, target - start));
      TriggerCrashLocked("write_offset");
      return CrashedStatus();
    }
  }

  if (options_.write_error_rate > 0.0 &&
      TicketDraw(options_.seed, ticket, /*salt=*/11) <
          options_.write_error_rate) {
    stats_.write_errors++;
    return Injected("write error");
  }

  if (options_.torn_write_at == ticket) {
    stats_.torn_writes++;
    (void)file->base_->Append(data.substr(0, data.size() / 2));
    return Injected("torn write (half the buffer landed)");
  }

  if (options_.enospc_after_bytes > 0 &&
      bytes_appended_ + data.size() > options_.enospc_after_bytes) {
    const uint64_t room = options_.enospc_after_bytes > bytes_appended_
                              ? options_.enospc_after_bytes - bytes_appended_
                              : 0;
    stats_.enospc_failures++;
    (void)file->base_->Append(data.substr(0, room));
    bytes_appended_ += room;
    return Injected("ENOSPC (device full after partial write)");
  }

  Status s = file->base_->Append(data);
  if (s.ok()) bytes_appended_ += data.size();
  return s;
}

Status FaultInjectingEnv::DoSync(FaultWritableFile* file) {
  if (crashed()) return CrashedStatus();
  if (!enabled()) {
    Status s = file->base_->Sync();
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      file->synced_size_ = file->base_->size();
    }
    return s;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return CrashedStatus();
  stats_.syncs++;
  const uint64_t ticket = ++sync_ticket_;

  const bool fail =
      options_.sync_fail_at == ticket ||
      (options_.sync_fail_rate > 0.0 &&
       TicketDraw(options_.seed, ticket, /*salt=*/13) <
           options_.sync_fail_rate);
  if (fail) {
    // fsyncgate: the error is reported exactly once, and the dirty pages it
    // covered are GONE — a later sync of the same fd silently "succeeds"
    // without them.  Model that by physically truncating back to the last
    // durable watermark.
    stats_.sync_failures++;
    (void)file->base_->Truncate(file->synced_size_);
    return Injected("fsync failure (dirty pages dropped)");
  }

  Status s = file->base_->Sync();
  if (s.ok()) file->synced_size_ = file->base_->size();
  return s;
}

Status FaultInjectingEnv::NewWritableFile(const std::string& path,
                                          bool truncate_existing,
                                          std::unique_ptr<WritableFile>* out) {
  if (crashed()) return CrashedStatus();
  std::unique_ptr<WritableFile> base_file;
  Status s = base_->NewWritableFile(path, truncate_existing, &base_file);
  if (!s.ok()) return s;
  auto wrapped =
      std::make_unique<FaultWritableFile>(this, std::move(base_file), path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_files_.push_back(wrapped.get());
  }
  *out = std::move(wrapped);
  return Status::OK();
}

Status FaultInjectingEnv::ReadFileToString(const std::string& path,
                                           std::string* out) {
  if (crashed()) return CrashedStatus();
  Status s = base_->ReadFileToString(path, out);
  if (!s.ok() || !enabled() || out->empty()) return s;

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ticket = ++read_ticket_;
  if (!PathMatches(path, options_.read_flip_file)) return s;

  int64_t flip_at = -1;
  if (options_.read_flip_offset >= 0) {
    flip_at = static_cast<int64_t>(
        static_cast<uint64_t>(options_.read_flip_offset) % out->size());
  } else if (options_.read_flip_rate > 0.0 &&
             TicketDraw(options_.seed, ticket, /*salt=*/17) <
                 options_.read_flip_rate) {
    flip_at = static_cast<int64_t>(Mix64(options_.seed ^ (ticket * 0x9E37ull)) %
                                   out->size());
  }
  if (flip_at >= 0) {
    stats_.read_flips++;
    (*out)[static_cast<size_t>(flip_at)] ^=
        static_cast<char>(1u << (static_cast<size_t>(flip_at) & 7));
  }
  return s;
}

Status FaultInjectingEnv::FileSize(const std::string& path, uint64_t* size) {
  if (crashed()) return CrashedStatus();
  return base_->FileSize(path, size);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  if (crashed()) return CrashedStatus();
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (crashed()) return CrashedStatus();
  if (!enabled()) return base_->RenameFile(from, to);

  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return CrashedStatus();
  // Remember enough to undo: until the directory is fsynced the rename is
  // only in the page cache, and a crash may resurrect the old dirents.
  PendingRename pending;
  pending.dir = DirOf(to);
  pending.from = from;
  pending.to = to;
  pending.had_dst = base_->FileExists(to);
  if (pending.had_dst) {
    (void)base_->ReadFileToString(to, &pending.previous_dst);
  }
  Status s = base_->RenameFile(from, to);
  if (s.ok()) pending_renames_.push_back(std::move(pending));
  return s;
}

Status FaultInjectingEnv::TruncateFile(const std::string& path, uint64_t size) {
  if (crashed()) return CrashedStatus();
  if (!enabled()) return base_->TruncateFile(path, size);

  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return CrashedStatus();
  const uint64_t ticket = ++truncate_ticket_;
  if (options_.truncate_fail_at == ticket) {
    stats_.truncate_failures++;
    return Injected("truncate failure");
  }
  return base_->TruncateFile(path, size);
}

Status FaultInjectingEnv::SyncDirOf(const std::string& path) {
  if (crashed()) return CrashedStatus();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_.load(std::memory_order_relaxed)) return CrashedStatus();
    // The directory fsync is the durability point for renames in it: once it
    // succeeds they can no longer be rolled back by a crash.
    const std::string dir = DirOf(path);
    pending_renames_.erase(
        std::remove_if(pending_renames_.begin(), pending_renames_.end(),
                       [&dir](const PendingRename& p) { return p.dir == dir; }),
        pending_renames_.end());
  }
  return base_->SyncDirOf(path);
}

Status FaultInjectingEnv::MaybeCrashPoint(const char* point) {
  if (crashed()) return CrashedStatus();
  if (!enabled()) return Status::OK();

  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return CrashedStatus();
  stats_.crash_points_seen++;
  if (options_.crash_point.empty() || options_.crash_point != point) {
    return Status::OK();
  }
  const uint64_t pass = ++point_passes_[point];
  if (pass != options_.crash_point_pass) return Status::OK();
  TriggerCrashLocked(point);
  return CrashedStatus();
}

void FaultInjectingEnv::TriggerCrashLocked(const std::string& point) {
  crash_fired_at_ = point;
  stats_.crashed = true;
  stats_.crash_fired_at = point;

  // Drop every byte written since each live file's last successful sync —
  // the page cache the simulated kernel never wrote back.
  if (options_.drop_unsynced_on_crash) {
    for (FaultWritableFile* f : live_files_) {
      (void)f->base_->Truncate(f->synced_size_);
    }
  }

  // Resurrect old dirents for renames never made durable by a directory
  // fsync, newest first: the renamed-in file goes back under its old name
  // and whatever the destination held before comes back (or disappears).
  for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
       ++it) {
    std::string current;
    if (base_->ReadFileToString(it->to, &current).ok()) {
      std::unique_ptr<WritableFile> back;
      if (base_->NewWritableFile(it->from, /*truncate_existing=*/true, &back)
              .ok()) {
        (void)back->Append(current);
        (void)back->Close();
      }
    }
    if (it->had_dst) {
      std::unique_ptr<WritableFile> dst;
      if (base_->NewWritableFile(it->to, /*truncate_existing=*/true, &dst)
              .ok()) {
        (void)dst->Append(it->previous_dst);
        (void)dst->Close();
      }
    } else {
      (void)base_->RemoveFile(it->to);
    }
  }
  pending_renames_.clear();

  // Publish last: every fast-path check sees the fully-frozen state.
  crashed_.store(true, std::memory_order_release);
}

}  // namespace kv
}  // namespace ycsbt
