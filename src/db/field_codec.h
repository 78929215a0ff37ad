#ifndef YCSBT_DB_FIELD_CODEC_H_
#define YCSBT_DB_FIELD_CODEC_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "db/db.h"

namespace ycsbt {

/// Serialises a FieldMap into one store value (length-prefixed name/value
/// pairs) and back.  All bindings share this codec, so data loaded through
/// one binding is readable through another layered on the same store.
std::string EncodeFields(const FieldMap& fields);

/// Decodes a store value, keeping only the fields named in `projection`
/// (nullptr = all); Corruption on malformed input.
Status DecodeFields(std::string_view data, FieldMap* out,
                    const std::vector<std::string>* projection = nullptr);

/// Decodes an existing encoded record into `merged` and applies `updates`
/// (YCSB update semantics: replace named fields, keep the rest).
Status MergeFields(std::string_view existing, const FieldMap& updates,
                   FieldMap* merged);

/// Decodes a batched engine read into `rows`, which keep their buffers.
template <typename RawRow>
void DecodeRows(const std::vector<RawRow>& raw,
                const std::vector<std::string>* projection,
                std::vector<MultiReadRow>* rows) {
  rows->resize(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    MultiReadRow& row = (*rows)[i];
    row.fields.clear();
    row.status = raw[i].status;
    if (row.status.ok()) row.status = DecodeFields(raw[i].value, &row.fields, projection);
  }
}

/// Decodes an engine scan of "<table>/..." into `result`, up to the table's end.
template <typename Entry>
Status DecodeScanRows(const std::string& table, const std::vector<Entry>& entries,
                      const std::vector<std::string>* projection,
                      std::vector<ScanRow>* result) {
  const std::string prefix = table + "/";
  for (const Entry& entry : entries) {
    if (!std::string_view(entry.key).starts_with(prefix)) break;  // next table
    ScanRow row;
    row.key = entry.key.substr(prefix.size());
    Status s = DecodeFields(entry.value, &row.fields, projection);
    if (!s.ok()) return s;
    result->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace ycsbt

#endif  // YCSBT_DB_FIELD_CODEC_H_
