#include "db/measured_db.h"

#include "common/clock.h"

namespace ycsbt {

MeasuredDB::MeasuredDB(std::unique_ptr<DB> inner, Measurements* measurements)
    : inner_(std::move(inner)), measurements_(measurements) {
  // Interning is idempotent and cheap, and doing it here (not lazily per
  // call) keeps the wrapper usable by tests that skip Init().
  ResolveHandles();
}

void MeasuredDB::ResolveHandles() {
  ops_.read = measurements_->RegisterOp(opname::kRead);
  ops_.multiread = measurements_->RegisterOp(opname::kMultiRead);
  ops_.scan = measurements_->RegisterOp(opname::kScan);
  ops_.update = measurements_->RegisterOp(opname::kUpdate);
  ops_.insert = measurements_->RegisterOp(opname::kInsert);
  ops_.batch_insert = measurements_->RegisterOp(opname::kBatchInsert);
  ops_.del = measurements_->RegisterOp(opname::kDelete);
  ops_.start = measurements_->RegisterOp(opname::kStart);
  ops_.commit = measurements_->RegisterOp(opname::kCommit);
  ops_.abort = measurements_->RegisterOp(opname::kAbort);
}

Status MeasuredDB::Init() {
  ResolveHandles();
  return inner_->Init();
}

Status MeasuredDB::Record(OpId op, Status status, int64_t latency_us) {
  if (sink_ != nullptr) {
    sink_->Record(op, latency_us, status.code());
  } else {
    measurements_->Record(op, latency_us, status.code());
  }
  return status;
}

Status MeasuredDB::Read(const std::string& table, const std::string& key,
                        const std::vector<std::string>* fields, FieldMap* result) {
  LatencyTimer watch;
  Status s = inner_->Read(table, key, fields, result);
  return Record(ops_.read, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

void MeasuredDB::MultiRead(const std::string& table,
                           const std::vector<std::string>& keys,
                           const std::vector<std::string>* fields,
                           std::vector<MultiReadRow>* rows) {
  LatencyTimer watch;
  inner_->MultiRead(table, keys, fields, rows);
  // One MULTIREAD sample per batch; its status is the first per-row failure
  // (individual rows keep their own statuses for the caller).
  Status batch;
  for (const auto& row : *rows) {
    if (!row.status.ok()) {
      batch = row.status;
      break;
    }
  }
  Record(ops_.multiread, std::move(batch),
         static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Scan(const std::string& table, const std::string& start_key,
                        size_t record_count, const std::vector<std::string>* fields,
                        std::vector<ScanRow>* result) {
  LatencyTimer watch;
  Status s = inner_->Scan(table, start_key, record_count, fields, result);
  return Record(ops_.scan, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Update(const std::string& table, const std::string& key,
                          const FieldMap& values) {
  LatencyTimer watch;
  Status s = inner_->Update(table, key, values);
  return Record(ops_.update, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Insert(const std::string& table, const std::string& key,
                          const FieldMap& values) {
  LatencyTimer watch;
  Status s = inner_->Insert(table, key, values);
  return Record(ops_.insert, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

void MeasuredDB::BatchInsert(const std::string& table,
                             const std::vector<std::string>& keys,
                             const std::vector<FieldMap>& values,
                             std::vector<Status>* statuses) {
  LatencyTimer watch;
  inner_->BatchInsert(table, keys, values, statuses);
  // One BATCHINSERT sample per batch; its status is the first per-key
  // failure, mirroring the MULTIREAD convention.
  Status batch;
  for (const Status& s : *statuses) {
    if (!s.ok()) {
      batch = s;
      break;
    }
  }
  Record(ops_.batch_insert, std::move(batch),
         static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Delete(const std::string& table, const std::string& key) {
  LatencyTimer watch;
  Status s = inner_->Delete(table, key);
  return Record(ops_.del, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Start() {
  LatencyTimer watch;
  Status s = inner_->Start();
  return Record(ops_.start, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Commit() {
  LatencyTimer watch;
  Status s = inner_->Commit();
  return Record(ops_.commit, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

Status MeasuredDB::Abort() {
  LatencyTimer watch;
  Status s = inner_->Abort();
  return Record(ops_.abort, std::move(s), static_cast<int64_t>(watch.ElapsedMicros()));
}

}  // namespace ycsbt
