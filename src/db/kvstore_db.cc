#include "db/kvstore_db.h"

#include "db/field_codec.h"

namespace ycsbt {

Status KvStoreDB::Read(const std::string& table, const std::string& key,
                       const std::vector<std::string>* fields, FieldMap* result) {
  Status s = store_->Get(ComposeKey(table, key, &key_), &raw_);
  if (!s.ok()) return s;
  return DecodeFields(raw_, result, fields);
}

void KvStoreDB::MultiRead(const std::string& table,
                          const std::vector<std::string>& keys,
                          const std::vector<std::string>* fields,
                          std::vector<MultiReadRow>* rows) {
  keys_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) ComposeKey(table, keys[i], &keys_[i]);
  store_->MultiGet(keys_, &raw_rows_);
  DecodeRows(raw_rows_, fields, rows);
}

Status KvStoreDB::Scan(const std::string& table, const std::string& start_key,
                       size_t record_count, const std::vector<std::string>* fields,
                       std::vector<ScanRow>* result) {
  result->clear();
  std::vector<kv::ScanEntry> entries;
  Status s = store_->Scan(ComposeKey(table, start_key), record_count, &entries);
  if (!s.ok()) return s;
  return DecodeScanRows(table, entries, fields, result);
}

Status KvStoreDB::Update(const std::string& table, const std::string& key,
                         const FieldMap& values) {
  // YCSB update semantics: replace the named fields, keep the others.  The
  // read-merge-write below is NOT atomic — precisely the behaviour of a
  // record layer over a plain key-value store, and the source of the
  // anomalies Tier 6 detects when updates race.
  ComposeKey(table, key, &key_);
  Status s = store_->Get(key_, &raw_);
  if (!s.ok()) return s;
  s = MergeFields(raw_, values, &merged_);
  if (!s.ok()) return s;
  return store_->Put(key_, merged_.encoded());
}

Status KvStoreDB::Insert(const std::string& table, const std::string& key,
                         const FieldMap& values) {
  return store_->Put(ComposeKey(table, key, &key_), values.encoded());
}

void KvStoreDB::BatchInsert(const std::string& table,
                            const std::vector<std::string>& keys,
                            const std::vector<FieldMap>& values,
                            std::vector<Status>* statuses) {
  std::vector<kv::WriteOp> ops;
  ops.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(
        kv::WriteOp::Put(ComposeKey(table, keys[i]), EncodeFields(values[i])));
  }
  std::vector<kv::WriteResult> results;
  store_->MultiWrite(ops, &results);
  statuses->clear();
  statuses->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    (*statuses)[i] = results[i].status;
  }
}

Status KvStoreDB::Delete(const std::string& table, const std::string& key) {
  return store_->Delete(ComposeKey(table, key, &key_));
}

}  // namespace ycsbt
