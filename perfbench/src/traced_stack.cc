#include "traced_stack.h"

#include <utility>
#include <vector>

#include "db/txn_db.h"
#include "trace.h"
#include "txn/timestamp.h"

namespace perfbench {

using ycsbt::FieldMap;
using ycsbt::Status;
namespace kv = ycsbt::kv;
namespace txn = ycsbt::txn;

namespace {

uint64_t FieldBytes(const FieldMap& values) {
  uint64_t bytes = 0;
  for (const auto& [name, value] : values) bytes += value.size();
  return bytes;
}

/// Pass-through `kv::Store` that records one span per call.  Sits above the
/// cloud simulation (`Layer::kCloud`) or above the local engine
/// (`Layer::kKv`).
class TracedStore : public kv::Store {
 public:
  TracedStore(Layer layer, std::shared_ptr<kv::Store> inner, std::string tsr_prefix)
      : layer_(layer), inner_(std::move(inner)), tsr_prefix_(std::move(tsr_prefix)) {}

  Status Get(const std::string& key, std::string* value, uint64_t* etag) override {
    SpanScope span(layer_, Op::kGet);
    NoteKey(span, key);
    return inner_->Get(key, value, etag);
  }
  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out) override {
    SpanScope span(layer_, Op::kPut);
    NoteKey(span, key);
    return inner_->Put(key, value, etag_out);
  }
  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag, uint64_t* etag_out) override {
    SpanScope span(layer_, Op::kCondPut);
    NoteKey(span, key);
    return inner_->ConditionalPut(key, value, expected_etag, etag_out);
  }
  Status Delete(const std::string& key) override {
    SpanScope span(layer_, Op::kDelete);
    NoteKey(span, key);
    return inner_->Delete(key);
  }
  Status ConditionalDelete(const std::string& key, uint64_t expected_etag) override {
    SpanScope span(layer_, Op::kCondDelete);
    NoteKey(span, key);
    return inner_->ConditionalDelete(key, expected_etag);
  }
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<kv::ScanEntry>* out) override {
    SpanScope span(layer_, Op::kScan);
    return inner_->Scan(start_key, limit, out);
  }
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<kv::MultiGetResult>* results) override {
    SpanScope span(layer_, Op::kMultiGet);
    for (const auto& key : keys) {
      if (NoteKey(span, key)) break;
    }
    inner_->MultiGet(keys, results);
  }
  void MultiWrite(const std::vector<kv::WriteOp>& ops,
                  std::vector<kv::WriteResult>* results) override {
    SpanScope span(layer_, Op::kMultiWrite);
    for (const auto& op : ops) {
      if (NoteKey(span, op.key)) break;
    }
    inner_->MultiWrite(ops, results);
  }
  size_t Count() const override { return inner_->Count(); }

 private:
  /// Counts the call as a status-record access when `key` is one.
  bool NoteKey(const SpanScope& span, const std::string& key) const {
    if (span.trace() == nullptr || key.compare(0, tsr_prefix_.size(), tsr_prefix_) != 0) {
      return false;
    }
    span.trace()->CountTsr(layer_);
    return true;
  }

  const Layer layer_;
  const std::shared_ptr<kv::Store> inner_;
  const std::string tsr_prefix_;
};

/// Pass-through `txn::Transaction`; marks its `Commit` so the store calls
/// below it are counted as commit-time calls.
class TracedTxn : public txn::Transaction {
 public:
  explicit TracedTxn(std::unique_ptr<txn::Transaction> inner)
      : inner_(std::move(inner)) {}

  uint64_t start_ts() const override { return inner_->start_ts(); }
  Status Read(const std::string& key, std::string* value) override {
    SpanScope span(Layer::kTxn, Op::kRead);
    return inner_->Read(key, value);
  }
  void MultiRead(const std::vector<std::string>& keys,
                 std::vector<txn::TxReadResult>* results) override {
    SpanScope span(Layer::kTxn, Op::kMultiRead);
    inner_->MultiRead(keys, results);
  }
  Status Write(const std::string& key, std::string_view value) override {
    SpanScope span(Layer::kTxn, Op::kWrite);
    return inner_->Write(key, value);
  }
  Status Delete(const std::string& key) override {
    SpanScope span(Layer::kTxn, Op::kDelete);
    return inner_->Delete(key);
  }
  Status Scan(const std::string& start_key, size_t limit,
              std::vector<txn::TxScanEntry>* out) override {
    SpanScope span(Layer::kTxn, Op::kScan);
    return inner_->Scan(start_key, limit, out);
  }
  Status Commit() override {
    SpanScope span(Layer::kTxn, Op::kCommit);
    if (span.trace() != nullptr) span.trace()->BeginCommit();
    Status s = inner_->Commit();
    if (span.trace() != nullptr) span.trace()->EndCommit();
    return s;
  }
  Status Abort() override {
    SpanScope span(Layer::kTxn, Op::kAbort);
    return inner_->Abort();
  }

 private:
  std::unique_ptr<txn::Transaction> inner_;
};

/// Pass-through `txn::TransactionalKV` handing out `TracedTxn`s.  The
/// auto-commit helpers serve the load and validation phases and are not
/// traced.
class TracedTxnKV : public txn::TransactionalKV {
 public:
  explicit TracedTxnKV(std::shared_ptr<txn::TransactionalKV> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<txn::Transaction> Begin() override {
    return std::make_unique<TracedTxn>(inner_->Begin());
  }
  Status LoadPut(const std::string& key, std::string_view value) override {
    return inner_->LoadPut(key, value);
  }
  Status ReadCommitted(const std::string& key, std::string* value) override {
    return inner_->ReadCommitted(key, value);
  }
  Status ScanCommitted(const std::string& start_key, size_t limit,
                       std::vector<txn::TxScanEntry>* out) override {
    return inner_->ScanCommitted(start_key, limit, out);
  }

 private:
  std::shared_ptr<txn::TransactionalKV> inner_;
};

/// Pass-through `DB` binding; also counts the field bytes each committed
/// transaction wrote.
class TracedDB : public ycsbt::DB {
 public:
  explicit TracedDB(std::unique_ptr<ycsbt::DB> inner) : inner_(std::move(inner)) {}

  Status Init() override { return inner_->Init(); }
  Status Cleanup() override { return inner_->Cleanup(); }
  Status Read(const std::string& table, const std::string& key,
              const std::vector<std::string>* fields, FieldMap* result) override {
    SpanScope span(Layer::kDb, Op::kRead);
    return inner_->Read(table, key, fields, result);
  }
  void MultiRead(const std::string& table, const std::vector<std::string>& keys,
                 const std::vector<std::string>* fields,
                 std::vector<ycsbt::MultiReadRow>* rows) override {
    SpanScope span(Layer::kDb, Op::kMultiRead);
    inner_->MultiRead(table, keys, fields, rows);
  }
  Status Scan(const std::string& table, const std::string& start_key,
              size_t record_count, const std::vector<std::string>* fields,
              std::vector<ycsbt::ScanRow>* result) override {
    SpanScope span(Layer::kDb, Op::kScan);
    return inner_->Scan(table, start_key, record_count, fields, result);
  }
  Status Update(const std::string& table, const std::string& key,
                const FieldMap& values) override {
    SpanScope span(Layer::kDb, Op::kUpdate);
    if (span.trace() != nullptr) span.trace()->AddPendingUserBytes(FieldBytes(values));
    return inner_->Update(table, key, values);
  }
  Status Insert(const std::string& table, const std::string& key,
                const FieldMap& values) override {
    SpanScope span(Layer::kDb, Op::kInsert);
    if (span.trace() != nullptr) span.trace()->AddPendingUserBytes(FieldBytes(values));
    return inner_->Insert(table, key, values);
  }
  void BatchInsert(const std::string& table, const std::vector<std::string>& keys,
                   const std::vector<FieldMap>& values,
                   std::vector<Status>* statuses) override {
    SpanScope span(Layer::kDb, Op::kBatchInsert);
    if (span.trace() != nullptr) {
      for (const auto& v : values) span.trace()->AddPendingUserBytes(FieldBytes(v));
    }
    inner_->BatchInsert(table, keys, values, statuses);
  }
  Status Delete(const std::string& table, const std::string& key) override {
    SpanScope span(Layer::kDb, Op::kDelete);
    return inner_->Delete(table, key);
  }
  Status Start() override {
    SpanScope span(Layer::kDb, Op::kStart);
    return inner_->Start();
  }
  Status Commit() override {
    SpanScope span(Layer::kDb, Op::kCommit);
    Status s = inner_->Commit();
    if (span.trace() != nullptr) span.trace()->SettleUserBytes(s.ok());
    return s;
  }
  Status Abort() override {
    SpanScope span(Layer::kDb, Op::kAbort);
    if (span.trace() != nullptr) span.trace()->SettleUserBytes(false);
    return inner_->Abort();
  }
  bool Transactional() const override { return inner_->Transactional(); }

 private:
  std::unique_ptr<ycsbt::DB> inner_;
};

}  // namespace

Status TracedStack::Build(const ycsbt::Properties& props,
                          std::unique_ptr<TracedStack>* out) {
  if (props.GetInt("txn.fanout_threads", 0) > 0 || props.GetInt("cloud.regions", 1) > 1 ||
      props.Get("txn.timestamps", "hlc") != "hlc") {
    // Spans assume a call's children run on the caller's thread, one at a
    // time; fan-out and replication would break that nesting.
    return Status::InvalidArgument(
        "traced stack supports neither fan-out, regions nor oracle timestamps");
  }
  std::unique_ptr<TracedStack> stack(new TracedStack());
  const std::string db = props.Get("db", "basic");
  txn::TxnOptions txn_options;
  const std::string& tsr_prefix = txn_options.tsr_prefix;

  if (db == "occ+memkv") {
    txn::OccOptions options;
    options.epoch_ms = props.GetUint("occ.epoch_ms", options.epoch_ms);
    options.read_validation = props.GetBool("occ.read_validation", options.read_validation);
    options.retire_batch = static_cast<size_t>(
        props.GetUint("occ.retire_batch", options.retire_batch));
    auto engine = std::make_shared<txn::OccEngine>(options);
    stack->occ_ = engine.get();
    stack->inner_txn_ = engine;
  } else if (db == "2pl+memkv" || db == "txn+memkv" || db == "txn+was") {
    kv::StoreOptions options;
    options.num_shards = static_cast<int>(props.GetInt("memkv.shards", 16));
    options.wal_path = props.Get("memkv.wal_path", "");
    options.sync_wal = props.GetBool("memkv.sync_wal", false);
    options.wal_group_commit = props.GetBool("memkv.wal_group_commit", false);
    options.wal_group_max_batch =
        static_cast<int>(props.GetInt("memkv.wal_group_max_batch", 64));
    options.wal_group_window_us =
        static_cast<uint32_t>(props.GetInt("memkv.wal_group_window_us", 0));
    stack->engine_ = std::make_shared<kv::ShardedStore>(options);
    Status s = stack->engine_->Open();
    if (!s.ok()) return s;
    std::shared_ptr<kv::Store> front =
        std::make_shared<TracedStore>(Layer::kKv, stack->engine_, tsr_prefix);

    if (db == "2pl+memkv") {
      txn::Local2PLOptions lock_options;
      lock_options.lock_timeout_us =
          props.GetUint("2pl.lock_timeout_us", lock_options.lock_timeout_us);
      auto store = std::make_shared<txn::Local2PLStore>(front, lock_options);
      stack->local_2pl_ = store.get();
      stack->inner_txn_ = store;
    } else {
      if (db == "txn+was") {
        ycsbt::cloud::CloudProfile profile = ycsbt::cloud::CloudProfile::Was();
        double rate = props.GetDouble("cloud.rate_limit", -1.0);
        if (rate >= 0.0) profile.container_rate_limit = rate;
        profile.containers =
            static_cast<int>(props.GetInt("cloud.containers", profile.containers));
        double serial = props.GetDouble("cloud.client_serial_us", -1.0);
        if (serial >= 0.0) profile.client_serial_us_per_inflight = serial;
        profile.max_queue_delay_us =
            props.GetDouble("cloud.max_queue_delay_us", profile.max_queue_delay_us);
        stack->cloud_ = std::make_shared<ycsbt::cloud::SimCloudStore>(profile, front);
        double scale = props.GetDouble("cloud.latency_scale", 1.0);
        if (scale != 1.0) stack->cloud_->ScaleLatency(scale);
        front = std::make_shared<TracedStore>(Layer::kCloud, stack->cloud_, tsr_prefix);
      }
      std::string isolation = props.Get("txn.isolation", "snapshot");
      if (isolation == "serializable") {
        txn_options.isolation = txn::Isolation::kSerializable;
      } else if (isolation != "snapshot") {
        return Status::InvalidArgument("unknown txn.isolation: " + isolation);
      }
      txn_options.lock_lease_us = props.GetUint("txn.lease_us", txn_options.lock_lease_us);
      txn_options.cleanup_tsr = props.GetBool("txn.cleanup_tsr", true);
      txn_options.lock_wait_jitter = props.GetBool("txn.lock_wait_jitter", true);
      txn_options.lock_wait_delay_us =
          props.GetUint("txn.lock_wait_delay_us", txn_options.lock_wait_delay_us);
      txn_options.lock_wait_max_delay_us = props.GetUint(
          "txn.lock_wait_max_delay_us", txn_options.lock_wait_delay_us * 8);
      txn_options.seed = props.GetUint("seed", 0x5EEDBA5Eull);
      std::string lock_mode = props.Get("txn.lock_acquire_mode", "ordered");
      if (lock_mode == "nowait") {
        txn_options.lock_acquire_mode = txn::TxnOptions::LockAcquireMode::kNoWait;
      } else if (lock_mode != "ordered") {
        return Status::InvalidArgument("unknown txn.lock_acquire_mode: " + lock_mode);
      }
      auto store = std::make_shared<txn::ClientTxnStore>(
          front, std::make_shared<txn::HlcTimestampSource>(), txn_options);
      stack->client_txn_ = store.get();
      stack->inner_txn_ = store;
    }
  } else {
    return Status::InvalidArgument("traced stack does not support db=" + db);
  }
  stack->traced_txn_ = std::make_shared<TracedTxnKV>(stack->inner_txn_);
  *out = std::move(stack);
  return Status::OK();
}

std::unique_ptr<ycsbt::DB> TracedStack::CreateClient() const {
  return std::make_unique<TracedDB>(std::make_unique<ycsbt::TxnDB>(traced_txn_));
}

}  // namespace perfbench
