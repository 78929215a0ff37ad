#include "kv/wal.h"

#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "kv/crc32.h"

namespace ycsbt {
namespace kv {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// kind(1) + etag(8) + key_len(4) + value_len(4)
constexpr size_t kHeaderAfterCrc = 1 + 8 + 4 + 4;

std::string EncodeFrame(const WalRecord& record) {
  std::string body;
  body.reserve(kHeaderAfterCrc + record.key.size() + record.value.size());
  body.push_back(static_cast<char>(record.kind));
  PutU64(&body, record.etag);
  PutU32(&body, static_cast<uint32_t>(record.key.size()));
  PutU32(&body, static_cast<uint32_t>(record.value.size()));
  body.append(record.key);
  body.append(record.value);

  std::string frame;
  frame.reserve(4 + body.size());
  PutU32(&frame, MaskCrc(Crc32c(body)));
  frame.append(body);
  return frame;
}

}  // namespace

std::string EncodeBulkPayload(
    const std::vector<std::pair<std::string, std::string>>& records) {
  size_t bytes = 4;
  for (const auto& [key, value] : records) {
    bytes += 8 + key.size() + value.size();
  }
  std::string payload;
  payload.reserve(bytes);
  PutU32(&payload, static_cast<uint32_t>(records.size()));
  for (const auto& [key, value] : records) {
    PutU32(&payload, static_cast<uint32_t>(key.size()));
    PutU32(&payload, static_cast<uint32_t>(value.size()));
    payload.append(key);
    payload.append(value);
  }
  return payload;
}

bool DecodeBulkPayload(const std::string& payload,
                       std::vector<std::pair<std::string, std::string>>* records) {
  if (payload.size() < 4) return false;
  uint32_t count = GetU32(payload.data());
  size_t pos = 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + 8 > payload.size()) return false;
    uint32_t key_len = GetU32(payload.data() + pos);
    uint32_t value_len = GetU32(payload.data() + pos + 4);
    pos += 8;
    if (pos + static_cast<size_t>(key_len) + value_len > payload.size()) {
      return false;
    }
    records->emplace_back(payload.substr(pos, key_len),
                          payload.substr(pos + key_len, value_len));
    pos += static_cast<size_t>(key_len) + value_len;
  }
  return pos == payload.size();
}

WriteAheadLog::~WriteAheadLog() { Close(); }

Status WriteAheadLog::Open(const std::string& path, WalOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return Status::InvalidArgument("WAL already open");
  env_ = options.env != nullptr ? options.env : Env::Default();
  Status s = env_->NewWritableFile(path, /*truncate_existing=*/false, &file_);
  if (!s.ok()) return s;
  path_ = path;
  options_ = options;
  if (options_.group_max_batch < 1) options_.group_max_batch = 1;
  intact_bytes_ = static_cast<size_t>(file_->size());
  next_lsn_ = 0;
  durable_lsn_ = 0;
  leader_active_ = false;
  pending_.clear();
  poisoned_ = false;
  poison_status_ = Status::OK();
  return Status::OK();
}

bool WriteAheadLog::IsPoisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

uint64_t WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

WalStats WriteAheadLog::DrainStats() {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats out = std::move(stats_);
  stats_ = WalStats{};
  return out;
}

void WriteAheadLog::PoisonLocked(const std::string& why) {
  poisoned_ = true;
  std::string detail = "WAL fail-stop: " + why;
  if (file_ != nullptr) {
    // Cut the file back to the last intact offset so the tear never becomes
    // mid-log corruption.  After a simulated env crash the truncate fails by
    // design — the frozen state must stay exactly as the "kernel" left it.
    (void)file_->Flush();
    if (!file_->Truncate(intact_bytes_).ok()) {
      detail += " (truncation to last intact offset also failed)";
    }
  }
  poison_status_ = Status::IOError(detail);
}

Status WriteAheadLog::WriteAndMaybeSync(const std::string& buffer, bool sync,
                                        uint64_t* sync_us, std::string* why) {
  Status s = file_->Append(buffer);
  if (!s.ok()) {
    *why = "short write: " + s.message();
    return s;
  }
  s = file_->Flush();
  if (!s.ok()) {
    *why = "flush failed: " + s.message();
    return s;
  }
  if (sync) {
    s = env_->MaybeCrashPoint("wal_pre_sync");
    if (!s.ok()) {
      *why = "crashed before fdatasync";
      return s;
    }
    LatencyTimer sync_watch;
    s = file_->Sync();
    if (!s.ok()) {
      // fsyncgate: the kernel may already have dropped the dirty pages; a
      // retry would silently "succeed" without them.  Fail-stop instead.
      *why = "fdatasync failed: " + s.message();
      return s;
    }
    *sync_us = sync_watch.ElapsedMicros();
    s = env_->MaybeCrashPoint("wal_post_sync");
    if (!s.ok()) {
      // The batch IS durable, but the crash means no acknowledgement ever
      // reached a caller — recovery may legitimately serve it (synced data
      // is never lost, acks are).
      *why = "crashed after fdatasync";
      return s;
    }
  }
  return Status::OK();
}

Status WriteAheadLog::Append(const WalRecord& record, bool sync,
                             uint64_t* lsn_out) {
  // Encode and checksum outside the lock: the serial section of a commit is
  // the write itself, never the CPU work.
  std::string frame = EncodeFrame(record);

  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_) return poison_status_;
  if (file_ == nullptr) return Status::IOError("WAL not open");
  uint64_t lsn = ++next_lsn_;
  if (lsn_out != nullptr) *lsn_out = lsn;
  return options_.group_commit ? AppendGrouped(std::move(frame), sync, lsn, lock)
                               : AppendDirect(std::move(frame), sync, lsn, lock);
}

Status WriteAheadLog::AppendDirect(std::string frame, bool sync, uint64_t lsn,
                                   std::unique_lock<std::mutex>& lock) {
  (void)lock;  // held throughout: the seed's one-writer-at-a-time discipline
  uint64_t sync_us = 0;
  std::string why;
  if (!WriteAndMaybeSync(frame, sync, &sync_us, &why).ok()) {
    PoisonLocked(why);
    return poison_status_;
  }
  if (sync) {
    ++stats_.syncs;
    stats_.sync_latency_us.Add(static_cast<int64_t>(sync_us));
  }
  intact_bytes_ += frame.size();
  durable_lsn_ = lsn;
  ++stats_.appends;
  ++stats_.batches;
  stats_.batch_records.Add(1);
  return Status::OK();
}

Status WriteAheadLog::AppendGrouped(std::string frame, bool sync, uint64_t lsn,
                                    std::unique_lock<std::mutex>& lock) {
  pending_.push_back(PendingFrame{std::move(frame), lsn, sync});
  // A leader inside its accumulation window wakes and sees the new frame.
  cv_.notify_all();

  for (;;) {
    cv_.wait(lock, [&] {
      return durable_lsn_ >= lsn || !leader_active_ || poisoned_;
    });
    if (durable_lsn_ >= lsn) return Status::OK();
    if (poisoned_) return poison_status_;
    if (file_ == nullptr) return Status::IOError("WAL closed during append");
    // No leader: this writer leads a batch, then re-checks — a batch capped
    // at group_max_batch may not have reached this writer's own frame yet.
    Status s = LeadBatch(sync, lock);
    if (!s.ok()) return s;
    if (durable_lsn_ >= lsn) return Status::OK();
  }
}

Status WriteAheadLog::LeadBatch(bool sync, std::unique_lock<std::mutex>& lock) {
  leader_active_ = true;
  size_t max_batch = static_cast<size_t>(options_.group_max_batch);
  if (sync && options_.group_window_us > 0 && pending_.size() < max_batch) {
    // Optional accumulation window: trade this commit's latency for a larger
    // batch.  Enqueuing writers notify, so a filling batch exits early.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(options_.group_window_us);
    while (pending_.size() < max_batch &&
           cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
  }

  std::vector<PendingFrame> batch;
  if (pending_.size() <= max_batch) {
    batch.swap(pending_);
  } else {
    batch.assign(std::make_move_iterator(pending_.begin()),
                 std::make_move_iterator(pending_.begin() +
                                         static_cast<ptrdiff_t>(max_batch)));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(max_batch));
  }
  bool want_sync = false;
  size_t batch_bytes = 0;
  for (const PendingFrame& f : batch) {
    want_sync |= f.sync;
    batch_bytes += f.frame.size();
  }

  // One contiguous buffer, one write, one sync — the whole point.  The lock
  // is released for the I/O so the *next* batch accumulates while this one
  // is inside fdatasync.
  std::string buffer;
  buffer.reserve(batch_bytes);
  for (const PendingFrame& f : batch) buffer.append(f.frame);

  lock.unlock();
  uint64_t sync_us = 0;
  std::string why;
  bool io_ok = WriteAndMaybeSync(buffer, want_sync, &sync_us, &why).ok();
  lock.lock();

  Status result;
  if (!io_ok) {
    // None of the batch is acknowledged; every waiter (and every later
    // appender) gets the poison status, and the tear is cut back to the
    // pre-batch offset.
    PoisonLocked(why + " (batch)");
    result = poison_status_;
  } else {
    intact_bytes_ += buffer.size();
    durable_lsn_ = batch.back().lsn;
    stats_.appends += batch.size();
    ++stats_.batches;
    stats_.batch_records.Add(static_cast<int64_t>(batch.size()));
    if (want_sync) {
      ++stats_.syncs;
      stats_.sync_latency_us.Add(static_cast<int64_t>(sync_us));
    }
    result = Status::OK();
  }
  leader_active_ = false;
  cv_.notify_all();
  return result;
}

Status WriteAheadLog::Replay(const std::string& path,
                             const std::function<void(const WalRecord&)>& apply,
                             size_t* valid_bytes, Env* env) {
  if (valid_bytes != nullptr) *valid_bytes = 0;
  if (env == nullptr) env = Env::Default();
  std::string data;
  Status read = env->ReadFileToString(path, &data);
  if (read.IsNotFound()) return Status::OK();  // empty store
  if (!read.ok()) return read;

  size_t pos = 0;
  while (pos + 4 + kHeaderAfterCrc <= data.size()) {
    uint32_t stored_crc = GetU32(data.data() + pos);
    const char* body = data.data() + pos + 4;
    uint8_t kind = static_cast<uint8_t>(body[0]);
    uint64_t etag = GetU64(body + 1);
    uint32_t key_len = GetU32(body + 9);
    uint32_t value_len = GetU32(body + 13);
    size_t body_len = kHeaderAfterCrc + static_cast<size_t>(key_len) + value_len;
    if (pos + 4 + body_len > data.size()) break;  // torn tail
    if (MaskCrc(Crc32c(body, body_len)) != stored_crc) {
      // Corrupt record: if it is the final frame treat it as a torn tail,
      // otherwise the log is damaged in the middle.
      if (pos + 4 + body_len == data.size()) break;
      return Status::Corruption("WAL record CRC mismatch at offset " +
                                std::to_string(pos));
    }
    if (kind != static_cast<uint8_t>(WalRecord::Kind::kPut) &&
        kind != static_cast<uint8_t>(WalRecord::Kind::kDelete) &&
        kind != static_cast<uint8_t>(WalRecord::Kind::kBulkPut) &&
        kind != static_cast<uint8_t>(WalRecord::Kind::kTxnPut)) {
      return Status::Corruption("WAL record has unknown kind");
    }
    WalRecord record;
    record.kind = static_cast<WalRecord::Kind>(kind);
    record.etag = etag;
    record.key.assign(body + kHeaderAfterCrc, key_len);
    record.value.assign(body + kHeaderAfterCrc + key_len, value_len);
    apply(record);
    pos += 4 + body_len;
    if (valid_bytes != nullptr) *valid_bytes = pos;
  }
  return Status::OK();
}

void WriteAheadLog::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  // Let an in-flight leader finish its batch; it writes with the lock
  // released, so closing underneath it would pull the file out from under a
  // live writer.
  cv_.wait(lock, [&] { return !leader_active_; });
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
  cv_.notify_all();
}

}  // namespace kv
}  // namespace ycsbt
