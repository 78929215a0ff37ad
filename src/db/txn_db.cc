#include "db/txn_db.h"

#include "db/field_codec.h"
#include "db/kvstore_db.h"

namespace ycsbt {

Status TxnDB::ReadRaw(const std::string& composed, std::string* value) {
  if (txn_ != nullptr) return txn_->Read(composed, value);
  return kv_->ReadCommitted(composed, value);
}

Status TxnDB::Read(const std::string& table, const std::string& key,
                   const std::vector<std::string>* fields, FieldMap* result) {
  Status s = ReadRaw(KvStoreDB::ComposeKey(table, key, &key_), &raw_);
  if (!s.ok()) return s;
  return DecodeFields(raw_, result, fields);
}

void TxnDB::MultiRead(const std::string& table,
                      const std::vector<std::string>& keys,
                      const std::vector<std::string>* fields,
                      std::vector<MultiReadRow>* rows) {
  if (txn_ == nullptr) {
    // Auto-commit path: no transaction to batch under; plain loop.
    DB::MultiRead(table, keys, fields, rows);
    return;
  }
  keys_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) KvStoreDB::ComposeKey(table, keys[i], &keys_[i]);
  txn_->MultiRead(keys_, &raw_rows_);
  DecodeRows(raw_rows_, fields, rows);
}

Status TxnDB::Scan(const std::string& table, const std::string& start_key,
                   size_t record_count, const std::vector<std::string>* fields,
                   std::vector<ScanRow>* result) {
  result->clear();
  std::vector<txn::TxScanEntry> entries;
  std::string composed = KvStoreDB::ComposeKey(table, start_key);
  Status s = txn_ != nullptr ? txn_->Scan(composed, record_count, &entries)
                             : kv_->ScanCommitted(composed, record_count, &entries);
  if (!s.ok()) return s;
  return DecodeScanRows(table, entries, fields, result);
}

Status TxnDB::Update(const std::string& table, const std::string& key,
                     const FieldMap& values) {
  // Read-merge-write; inside a transaction the read joins the read set and
  // the merged record lands in the write buffer, so the whole update is
  // atomic at commit.
  KvStoreDB::ComposeKey(table, key, &key_);
  Status s = ReadRaw(key_, &raw_);
  if (!s.ok()) return s;
  s = MergeFields(raw_, values, &merged_);
  if (!s.ok()) return s;
  if (txn_ != nullptr) return txn_->Write(key_, merged_.encoded());
  return kv_->LoadPut(key_, merged_.encoded());
}

Status TxnDB::Insert(const std::string& table, const std::string& key,
                     const FieldMap& values) {
  KvStoreDB::ComposeKey(table, key, &key_);
  if (txn_ != nullptr) return txn_->Write(key_, values.encoded());
  return kv_->LoadPut(key_, values.encoded());
}

void TxnDB::BatchInsert(const std::string& table,
                        const std::vector<std::string>& keys,
                        const std::vector<FieldMap>& values,
                        std::vector<Status>* statuses) {
  // Inside a transaction all writes land in the write buffer, so the batch
  // costs nothing beyond the loop; outside one, each record is an
  // auto-committed LoadPut exactly like `Insert`.
  statuses->clear();
  statuses->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    KvStoreDB::ComposeKey(table, keys[i], &key_);
    (*statuses)[i] = txn_ != nullptr ? txn_->Write(key_, values[i].encoded())
                                     : kv_->LoadPut(key_, values[i].encoded());
  }
}

Status TxnDB::Delete(const std::string& table, const std::string& key) {
  const std::string& composed = KvStoreDB::ComposeKey(table, key, &key_);
  if (txn_ != nullptr) return txn_->Delete(composed);
  // Auto-commit delete: a one-op transaction.
  auto txn = kv_->Begin();
  Status s = txn->Delete(composed);
  if (!s.ok()) {
    txn->Abort();
    return s;
  }
  return txn->Commit();
}

Status TxnDB::Start() {
  if (txn_ != nullptr) return Status::InvalidArgument("transaction already active");
  txn_ = kv_->Begin();
  return Status::OK();
}

Status TxnDB::Commit() {
  if (txn_ == nullptr) return Status::InvalidArgument("no active transaction");
  Status s = txn_->Commit();
  txn_.reset();
  return s;
}

Status TxnDB::Abort() {
  if (txn_ == nullptr) return Status::InvalidArgument("no active transaction");
  Status s = txn_->Abort();
  txn_.reset();
  return s;
}

}  // namespace ycsbt
