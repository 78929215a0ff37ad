#include "kv/store.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/random.h"
#include "common/rpc_executor.h"

namespace ycsbt {
namespace kv {

namespace {

/// Runs `fn(0..items)`: on `executor` when it can fan the batch out, as a
/// sequential loop otherwise.
template <typename Fn>
void ForEachItem(RpcExecutor* executor, size_t items, const Fn& fn) {
  if (executor != nullptr && executor->enabled() && items >= 2) {
    executor->ParallelForEach(items, [&fn](size_t i) {
      fn(i);
      return Status::OK();
    });
    return;
  }
  for (size_t i = 0; i < items; ++i) fn(i);
}

}  // namespace

void Store::MultiGet(const std::vector<std::string>& keys,
                     std::vector<MultiGetResult>* results) {
  results->clear();
  results->resize(keys.size());
  ForEachItem(executor_.get(), keys.size(), [this, &keys, results](size_t i) {
    MultiGetResult& r = (*results)[i];
    r.status = Get(keys[i], &r.value, &r.etag);
  });
}

void Store::MultiWrite(const std::vector<WriteOp>& ops,
                       std::vector<WriteResult>* results) {
  results->clear();
  results->resize(ops.size());
  ForEachItem(executor_.get(), ops.size(), [this, &ops, results](size_t i) {
    WriteResult& r = (*results)[i];
    r.status = ApplyWriteOp(*this, ops[i], &r.etag);
  });
}

Status ApplyWriteOp(Store& store, const WriteOp& op, uint64_t* etag_out) {
  switch (op.kind) {
    case WriteOp::Kind::kPut:
      return store.Put(op.key, op.value, etag_out);
    case WriteOp::Kind::kConditionalPut:
      return store.ConditionalPut(op.key, op.value, op.expected_etag, etag_out);
    case WriteOp::Kind::kDelete:
      return store.Delete(op.key);
    case WriteOp::Kind::kConditionalDelete:
      return store.ConditionalDelete(op.key, op.expected_etag);
  }
  return Status::InvalidArgument("unknown WriteOp kind");
}

StoreOptions StoreOptions::FromProperties(const Properties& props) {
  StoreOptions o;
  o.num_shards = kMemkvShards.Get<int>(props);
  o.wal_path = kMemkvWalPath.Get<std::string>(props);
  o.sync_wal = kMemkvSyncWal.Get<bool>(props);
  o.wal_group_commit = kMemkvWalGroupCommit.Get<bool>(props);
  o.wal_group_max_batch = kMemkvWalGroupMaxBatch.Get<int>(props);
  o.wal_group_window_us = kMemkvWalGroupWindowUs.Get<uint32_t>(props);
  o.checkpoint_path = kMemkvCheckpointPath.Get<std::string>(props);
  o.checkpoint_dir_sync = kMemkvCheckpointDirSync.Get<bool>(props);
  return o;
}

ShardedStore::ShardedStore(StoreOptions options) : options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.wal_path.empty()) open_ = true;  // volatile store needs no Open()
}

ShardedStore::~ShardedStore() = default;

void ShardedStore::Collect(LayerStats* out) {
  WalStats wal = DrainWalStats();
  out->Count("WAL APPENDS", wal.appends);
  out->Count("WAL SYNCS", wal.syncs);
  out->Count("WAL GROUP BATCHES", wal.batches);
  out->Count("WAL MAX BATCH", static_cast<uint64_t>(wal.batch_records.Max()));
  out->Distribution("WAL-SYNC", std::move(wal.sync_latency_us));
  out->Distribution("WAL-BATCH", std::move(wal.batch_records));
  out->Count("RECOVERY-REPLAYED", recovery_.wal_records_replayed);
  out->Count("RECOVERY-SKIPPED", recovery_.wal_records_skipped);
  out->Count("RECOVERY-TRUNCATED-BYTES", recovery_.truncated_bytes);
  out->Count("CKPT-SCRUB", recovery_.checkpoint_scrubbed ? 1 : 0);
  if (recovery_.checkpoint_scrubbed) {
    out->Note("CKPT-SCRUB REASON", recovery_.scrub_reason);
  }
  out->Count("CKPT-RECORDS", recovery_.checkpoint_records);
}

Status ShardedStore::Open() {
  if (options_.wal_path.empty()) return Status::OK();
  if (open_) return Status::InvalidArgument("store already open");
  Env* env = EnvOrDefault();
  recovery_ = RecoveryReport{};
  // 1. Load the last checkpoint, if any.  A checkpoint is simply a compacted
  //    log: a sequence of kPut records plus an etag watermark, so the WAL
  //    replay machinery reads it directly.  The snapshot is STAGED and
  //    validated before anything is applied: if it is damaged in any way
  //    (CRC mismatch, torn tail, missing watermark — e.g. bit rot, or a
  //    crash mid-checkpoint-write that somehow survived the rename protocol)
  //    the whole snapshot is scrubbed and recovery falls back to WAL-only,
  //    rather than serving half a snapshot as state.
  if (!options_.checkpoint_path.empty() &&
      env->FileExists(options_.checkpoint_path)) {
    std::vector<WalRecord> staged;
    size_t ckpt_valid_bytes = 0;
    Status s = WriteAheadLog::Replay(
        options_.checkpoint_path,
        [&staged](const WalRecord& r) { staged.push_back(r); },
        &ckpt_valid_bytes, env);
    uint64_t ckpt_size = 0;
    Status size_s = env->FileSize(options_.checkpoint_path, &ckpt_size);
    // The watermark is written last with the snapshot's only fdatasync, so a
    // complete snapshot always ends in an intact empty-key record covering
    // every byte of the file.
    const bool complete = s.ok() && size_s.ok() &&
                          ckpt_valid_bytes == ckpt_size && !staged.empty() &&
                          staged.back().key.empty();
    if (complete) {
      for (const WalRecord& r : staged) {
        if (r.key.empty()) {
          // Reserved empty-key record: the checkpoint's etag watermark.
          checkpoint_etag_ = r.etag;
          AdvanceEtagSource(r.etag);
          continue;
        }
        recovery_.checkpoint_records +=
            ApplyReplayed(r, /*skip_upto_etag=*/0);
      }
    } else {
      recovery_.checkpoint_scrubbed = true;
      recovery_.scrub_reason =
          !s.ok() ? s.ToString()
                  : (staged.empty() || !staged.back().key.empty()
                         ? "missing etag watermark"
                         : "torn snapshot tail");
      checkpoint_etag_ = 0;
    }
  }
  // 2. Replay WAL records newer than the checkpoint.  (After a crash between
  //    checkpoint rename and WAL truncation the log still holds records the
  //    snapshot already folded in; the watermark filters them out.)
  size_t wal_valid_bytes = 0;
  Status s = WriteAheadLog::Replay(
      options_.wal_path,
      [this](const WalRecord& r) {
        size_t applied = ApplyReplayed(r, checkpoint_etag_);
        if (applied > 0) {
          recovery_.wal_records_replayed += applied;
        } else {
          recovery_.wal_records_skipped++;
        }
      },
      &wal_valid_bytes, env);
  if (!s.ok()) return s;
  // 3. Chop off any torn tail a crash left behind: new appends must follow
  //    the last intact record, or the tear would sit mid-log (and read as
  //    hard corruption) on the next replay.
  uint64_t wal_size = 0;
  if (env->FileSize(options_.wal_path, &wal_size).ok() &&
      static_cast<size_t>(wal_size) > wal_valid_bytes) {
    s = env->TruncateFile(options_.wal_path, wal_valid_bytes);
    if (!s.ok()) {
      return Status::IOError("WAL torn-tail truncation failed: " + s.message());
    }
    recovery_.truncated_bytes = wal_size - wal_valid_bytes;
  }
  s = wal_.Open(options_.wal_path, MakeWalOptions());
  if (!s.ok()) return s;
  open_ = true;
  return Status::OK();
}

kv::WalOptions ShardedStore::MakeWalOptions() const {
  WalOptions wal;
  wal.group_commit = options_.wal_group_commit;
  wal.group_max_batch = options_.wal_group_max_batch;
  wal.group_window_us = options_.wal_group_window_us;
  wal.env = options_.env;
  return wal;
}

void ShardedStore::AdvanceEtagSource(uint64_t etag) {
  uint64_t seen = etag_source_.load(std::memory_order_relaxed);
  while (etag > seen && !etag_source_.compare_exchange_weak(
                            seen, etag, std::memory_order_relaxed)) {
  }
}

size_t ShardedStore::ApplyReplayed(const WalRecord& record,
                                   uint64_t skip_upto_etag) {
  if (record.kind == WalRecord::Kind::kBulkPut ||
      record.kind == WalRecord::Kind::kTxnPut) {
    // One frame covers a whole run (sorted bulk load) or one atomic
    // multi-key transaction; entry i carries etag + i.  The frame's CRC
    // already validated the payload, so a decode failure can only be an
    // encoder bug — apply whatever decoded.
    std::vector<std::pair<std::string, std::string>> run;
    DecodeBulkPayload(record.value, &run);
    size_t applied = 0;
    for (size_t i = 0; i < run.size(); ++i) {
      uint64_t etag = record.etag + i;
      if (etag <= skip_upto_etag) continue;
      Shard& shard = ShardFor(run[i].first);
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      shard.map.Upsert(run[i].first, Entry{std::move(run[i].second), etag});
      ++applied;
    }
    if (!run.empty()) AdvanceEtagSource(record.etag + run.size() - 1);
    return applied;
  }
  if (record.etag != 0 && record.etag <= skip_upto_etag) return 0;
  Shard& shard = ShardFor(record.key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (record.kind == WalRecord::Kind::kPut) {
    shard.map.Upsert(record.key, Entry{record.value, record.etag});
  } else {
    shard.map.Erase(record.key);
  }
  // Keep the etag source ahead of everything the log produced.
  AdvanceEtagSource(record.etag);
  return 1;
}

Status ShardedStore::PoisonStore(const std::string& why) {
  poison_status_ = Status::IOError("store fail-stop: " + why);
  poisoned_.store(true, std::memory_order_release);
  return poison_status_;
}

Status ShardedStore::Checkpoint() {
  if (options_.checkpoint_path.empty() || options_.wal_path.empty()) {
    return Status::InvalidArgument("checkpointing needs checkpoint_path and wal_path");
  }
  if (!open_) return Status::IOError("store not opened");
  if (poisoned_.load(std::memory_order_acquire)) return poison_status_;

  // Stop the world: exclusive locks on every shard, in index order (the same
  // order Scan takes shared locks, so the two cannot deadlock).
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);

  Env* env = EnvOrDefault();
  std::string tmp = options_.checkpoint_path + ".tmp";
  // Phase 1 — build the snapshot in a side file.  Any failure here (ENOSPC,
  // torn write, sync failure) is a CLEAN abort: the live checkpoint and the
  // WAL are untouched, the store keeps running.
  {
    WriteAheadLog snapshot;
    if (env->FileExists(tmp)) (void)env->RemoveFile(tmp);
    Status s = snapshot.Open(tmp, MakeWalOptions());
    if (!s.ok()) return s;
    for (auto& shard : shards_) {
      SkipList<Entry>::Iterator it(&shard->map);
      for (it.SeekToFirst(); it.Valid(); it.Next()) {
        WalRecord record;
        record.kind = WalRecord::Kind::kPut;
        record.etag = it.value().etag;
        record.key = std::string(it.key());
        record.value = it.value().value;
        s = snapshot.Append(record, /*sync=*/false);
        if (!s.ok()) return s;
      }
    }
    // Etag watermark last (reserved empty key), with the snapshot's only
    // fdatasync: if this record is intact, the whole snapshot is.
    WalRecord watermark;
    watermark.kind = WalRecord::Kind::kPut;
    watermark.etag = etag_source_.load(std::memory_order_relaxed);
    s = snapshot.Append(watermark, /*sync=*/true);
    if (!s.ok()) return s;
  }
  // Phase 2 — commit: rename over the old snapshot, then fsync the directory
  // so the new dirent is crash-durable.  Without the directory fsync a
  // post-rename crash can resurrect the OLD snapshot (journalled filesystems
  // may persist the WAL truncation below but not the rename) — acked commits
  // in the truncated log would then be on neither file.
  Status s = env->MaybeCrashPoint("ckpt_pre_rename");
  if (!s.ok()) return s;  // nothing destructive has happened yet
  s = env->RenameFile(tmp, options_.checkpoint_path);
  if (!s.ok()) return s;
  if (options_.checkpoint_dir_sync) {
    s = env->SyncDirOf(options_.checkpoint_path);
    if (!s.ok()) {
      // The rename may or may not be durable; from here on the on-disk
      // protocol state is ambiguous, so fail-stop rather than risk
      // compacting the WAL against a snapshot that can vanish.
      return PoisonStore("checkpoint directory fsync failed: " + s.message());
    }
  }
  s = env->MaybeCrashPoint("ckpt_post_rename_pre_trunc");
  if (!s.ok()) return PoisonStore("crashed after checkpoint rename");

  // Phase 3 — log compaction: everything in the WAL is now durably covered
  // by the snapshot.  Every failure routes through the poison path: the WAL
  // is closed here, so a half-finished compaction left unpoisoned would
  // silently drop mutations (the pre-hardening `fopen("wb")` bug).
  wal_.Close();
  s = env->TruncateFile(options_.wal_path, 0);
  if (!s.ok()) {
    return PoisonStore("WAL truncate after checkpoint failed: " + s.message());
  }
  s = env->MaybeCrashPoint("ckpt_post_trunc");
  if (!s.ok()) return PoisonStore("crashed after WAL truncation");
  s = wal_.Open(options_.wal_path, MakeWalOptions());
  if (!s.ok()) {
    return PoisonStore("WAL reopen after checkpoint failed: " + s.message());
  }
  return Status::OK();
}

Status ShardedStore::BulkLoad(
    const std::vector<std::pair<std::string, std::string>>& sorted_records) {
  if (!open_) return Status::IOError("store not opened");
  if (sorted_records.empty()) return Status::OK();
  for (size_t i = 0; i < sorted_records.size(); ++i) {
    if (sorted_records[i].first.empty()) {
      return Status::InvalidArgument("empty keys are reserved");
    }
    if (i > 0 && sorted_records[i].first <= sorted_records[i - 1].first) {
      return Status::InvalidArgument(
          "bulk-load run must be strictly ascending at index " +
          std::to_string(i));
    }
  }
  // One frame for the whole run; rides group commit like any other append.
  // Encoded before the locks (the etag rides in the frame header, not the
  // payload), and only when there is a log to write it to.
  const std::string payload =
      wal_enabled() ? EncodeBulkPayload(sorted_records) : std::string();
  // Stream the run once, in order, into one sorted-insert cursor per shard.
  // The global sort order restricted to any one shard is still strictly
  // ascending, so every cursor sees a valid feed.  Walking the record array
  // sequentially (rather than bucketing indices per shard and re-reading the
  // array shard by shard) keeps the key/value string accesses prefetchable —
  // on a 1M-record run that is the difference between the fast path beating
  // per-key `Put` and losing to it.  Locks are taken in index order, the
  // same order `Scan` and `Checkpoint` use, so the paths cannot deadlock.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  std::vector<SkipList<Entry>::SortedInserter> cursors;
  locks.reserve(shards_.size());
  cursors.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard->mu);
    // One index growth for the run, not one re-slotting per doubling.
    shard->map.ReserveIndex(shard->map.size() +
                            sorted_records.size() / shards_.size() * 9 / 8);
    cursors.emplace_back(&shard->map);
  }
  // A contiguous etag range, record i carrying first + i, so replay and
  // checkpoint watermarks order the run like individual puts.  Drawn and
  // logged under the shard locks, as in `MultiPut`: a checkpoint in between
  // would otherwise truncate the frame away while the rows land after its
  // snapshot, losing the load on the next reopen.
  uint64_t first_etag = etag_source_.fetch_add(sorted_records.size(),
                                               std::memory_order_relaxed) +
                        1;
  Status log = LogMutation(WalRecord::Kind::kBulkPut, "", payload, first_etag);
  if (!log.ok()) return log;
  for (size_t i = 0; i < sorted_records.size(); ++i) {
    cursors[ShardIndex(sorted_records[i].first)].Insert(
        sorted_records[i].first, Entry{sorted_records[i].second, first_etag + i});
  }
  return Status::OK();
}

Status ShardedStore::MultiPut(
    const std::vector<std::pair<std::string, std::string>>& records,
    std::vector<uint64_t>* etags_out) {
  if (!open_) return Status::IOError("store not opened");
  if (records.empty()) return Status::OK();
  for (const auto& [key, value] : records) {
    (void)value;
    if (key.empty()) return Status::InvalidArgument("empty keys are reserved");
  }
  // Lock every involved shard together (index order, deduped — the order
  // every multi-shard path uses) so readers can't see half the batch.
  std::set<size_t> shard_idx;
  for (const auto& [key, value] : records) {
    (void)value;
    shard_idx.insert(ShardIndex(key));
  }
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shard_idx.size());
  for (size_t idx : shard_idx) locks.emplace_back(shards_[idx]->mu);

  // Contiguous etag range: entry i carries first + i, mirroring kBulkPut.
  // Drawn under the shard locks, like every single-key mutation's etag: a
  // checkpoint (which holds every shard lock) must not record a watermark
  // covering etags whose frame it has not seen, or replay would skip it.
  uint64_t first_etag =
      etag_source_.fetch_add(records.size(), std::memory_order_relaxed) + 1;

  // One kTxnPut frame = the whole transaction's durability: recovery replays
  // all of it or none of it, never a partial multi-key commit.
  Status log = LogMutation(WalRecord::Kind::kTxnPut, "",
                           EncodeBulkPayload(records), first_etag);
  if (!log.ok()) return log;

  for (size_t i = 0; i < records.size(); ++i) {
    ShardFor(records[i].first)
        .map.Upsert(records[i].first, Entry{records[i].second, first_etag + i});
  }
  if (etags_out != nullptr) {
    etags_out->clear();
    for (size_t i = 0; i < records.size(); ++i) {
      etags_out->push_back(first_etag + i);
    }
  }
  return Status::OK();
}

ShardedStore::Shard& ShardedStore::ShardFor(const std::string& key) {
  return *shards_[ShardIndex(key)];
}

size_t ShardedStore::ShardIndex(const std::string& key) const {
  uint64_t h = FNVHash64(std::hash<std::string>{}(key));
  return h % shards_.size();
}

Status ShardedStore::LogMutation(WalRecord::Kind kind, const std::string& key,
                                 std::string_view value, uint64_t etag) {
  if (!wal_enabled()) return Status::OK();
  if (poisoned_.load(std::memory_order_acquire)) return poison_status_;
  // A configured-but-closed WAL means a checkpoint died mid-compaction;
  // acknowledging unlogged mutations here would silently drop them on the
  // next reopen (the pre-hardening behaviour).
  if (!wal_.IsOpen()) {
    return Status::IOError("WAL closed mid-compaction; mutation not logged");
  }
  WalRecord record;
  record.kind = kind;
  record.etag = etag;
  record.key = key;
  record.value = std::string(value);
  return wal_.Append(record, options_.sync_wal);
}

Status ShardedStore::Get(const std::string& key, std::string* value,
                         uint64_t* etag) {
  if (!open_) return Status::IOError("store not opened");
  Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  const Entry* entry = shard.map.Find(key);
  if (entry == nullptr) return Status::NotFound(key);
  if (value != nullptr) *value = entry->value;
  if (etag != nullptr) *etag = entry->etag;
  return Status::OK();
}

Status ShardedStore::Put(const std::string& key, std::string_view value,
                         uint64_t* etag_out) {
  if (!open_) return Status::IOError("store not opened");
  if (key.empty()) return Status::InvalidArgument("empty keys are reserved");
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  // Drawn under the shard lock, like every mutation's etag (see `MultiPut`).
  uint64_t etag = NextEtag();
  Status s = LogMutation(WalRecord::Kind::kPut, key, value, etag);
  if (!s.ok()) return s;
  shard.map.Upsert(key, Entry{std::string(value), etag});
  if (etag_out != nullptr) *etag_out = etag;
  return Status::OK();
}

Status ShardedStore::ConditionalPut(const std::string& key, std::string_view value,
                                    uint64_t expected_etag, uint64_t* etag_out) {
  if (!open_) return Status::IOError("store not opened");
  if (key.empty()) return Status::InvalidArgument("empty keys are reserved");
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  Entry* entry = shard.map.Find(key);
  if (expected_etag == kEtagAbsent) {
    if (entry != nullptr) return Status::Conflict("key exists: " + key);
  } else {
    if (entry == nullptr) return Status::Conflict("key absent: " + key);
    if (entry->etag != expected_etag) {
      return Status::Conflict("etag mismatch on " + key);
    }
  }
  uint64_t etag = NextEtag();
  Status s = LogMutation(WalRecord::Kind::kPut, key, value, etag);
  if (!s.ok()) return s;
  if (entry != nullptr) {
    // Overwrite through the pointer the check found (stable under the shard
    // lock): no second lookup, and the value keeps its buffer.
    entry->value.assign(value.data(), value.size());
    entry->etag = etag;
  } else {
    shard.map.Upsert(key, Entry{std::string(value), etag});
  }
  if (etag_out != nullptr) *etag_out = etag;
  return Status::OK();
}

Status ShardedStore::Delete(const std::string& key) {
  if (!open_) return Status::IOError("store not opened");
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (shard.map.Find(key) == nullptr) return Status::NotFound(key);
  // Deletes consume an etag too, so the log is totally ordered per key and
  // checkpoint watermarks can filter replay exactly.
  Status s = LogMutation(WalRecord::Kind::kDelete, key, "", NextEtag());
  if (!s.ok()) return s;
  shard.map.Erase(key);
  return Status::OK();
}

Status ShardedStore::ConditionalDelete(const std::string& key,
                                       uint64_t expected_etag) {
  if (!open_) return Status::IOError("store not opened");
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const Entry* entry = shard.map.Find(key);
  if (entry == nullptr) return Status::Conflict("key absent: " + key);
  if (entry->etag != expected_etag) return Status::Conflict("etag mismatch on " + key);
  Status s = LogMutation(WalRecord::Kind::kDelete, key, "", NextEtag());
  if (!s.ok()) return s;
  shard.map.Erase(key);
  return Status::OK();
}

Status ShardedStore::Scan(const std::string& start_key, size_t limit,
                          std::vector<ScanEntry>* out) {
  if (!open_) return Status::IOError("store not opened");
  out->clear();
  if (limit == 0) return Status::OK();
  // K-way merge over per-shard iterators under shared locks (taken in index
  // order, the same order Checkpoint uses, so the two cannot deadlock).
  // O(limit * log shards) instead of collecting `limit` rows per shard.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  std::vector<SkipList<Entry>::Iterator> iters;
  iters.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard->mu);
    iters.emplace_back(&shard->map);
    iters.back().Seek(start_key);
  }

  // Max-heap on reversed comparison -> pops smallest key first.
  auto greater = [&](size_t a, size_t b) { return iters[a].key() > iters[b].key(); };
  std::vector<size_t> heap;
  heap.reserve(iters.size());
  for (size_t i = 0; i < iters.size(); ++i) {
    if (iters[i].Valid()) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  out->reserve(std::min(limit, static_cast<size_t>(1024)));
  while (!heap.empty() && out->size() < limit) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    size_t idx = heap.back();
    heap.pop_back();
    out->push_back(ScanEntry{std::string(iters[idx].key()), iters[idx].value().value,
                             iters[idx].value().etag});
    iters[idx].Next();
    if (iters[idx].Valid()) {
      heap.push_back(idx);
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
  return Status::OK();
}

size_t ShardedStore::Count() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard_ptr->mu);
    total += shard_ptr->map.size();
  }
  return total;
}

}  // namespace kv
}  // namespace ycsbt
