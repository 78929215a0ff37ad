#ifndef YCSBT_DB_DB_H_
#define YCSBT_DB_DB_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/properties.h"
#include "common/status.h"

namespace ycsbt {

/// A record: field name -> field value, held as one flat row (DESIGN.md §20):
/// one reusable buffer holding the record in `EncodeFields`'s wire format,
/// fields in name order, plus the offset of each field in it.  A row reused
/// across operations stops allocating once its buffers have grown.
/// Iteration yields {name, value} `std::string_view` pairs into the buffer;
/// every view (also from `Get`) is valid until the row's next decode or
/// mutation.
class FieldMap {
 public:
  using Field = std::pair<std::string_view, std::string_view>;

  struct const_iterator {
    const FieldMap* row;
    size_t i;
    Field operator*() const { return row->At(row->offsets_[i]); }
    const_iterator& operator++() { return ++i, *this; }
    bool operator!=(const const_iterator& o) const { return i != o.i; }
  };

  FieldMap() { clear(); }
  FieldMap(std::initializer_list<Field> fields) : FieldMap() {
    for (const auto& [name, value] : fields) Set(name, value);
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, offsets_.size()}; }
  size_t size() const { return offsets_.size(); }
  bool empty() const { return offsets_.empty(); }
  bool contains(std::string_view name) const {
    size_t i = LowerBound(name);
    return i < size() && At(offsets_[i]).first == name;
  }

  /// The value of `name`; empty when the row has no such field.
  std::string_view Get(std::string_view name) const {
    return contains(name) ? At(offsets_[LowerBound(name)]).second : std::string_view();
  }

  /// Inserts `name` in name order, or replaces its value in place.  Neither
  /// argument may view this row's own bytes.
  void Set(std::string_view name, std::string_view value);

  /// Drops every field; the buffers keep their capacity.
  void clear();

  /// The record in wire format (what `EncodeFields` returns).
  std::string_view encoded() const { return buf_; }

  bool operator==(const FieldMap& o) const { return buf_ == o.buf_; }

 private:
  /// The field whose entry (name, then value, each length-prefixed) starts
  /// at `buf_[off]`.
  Field At(size_t off) const;
  /// Index of the first field whose name is not below `name`.
  size_t LowerBound(std::string_view name) const;

  std::string buf_;
  std::vector<size_t> offsets_;  ///< where each field's entry starts, in name order
};

/// One row of a scan result.  Unlike the Java YCSB scan (which drops keys),
/// rows carry their key so the YCSB+T validation stage can paginate a full
/// table sweep; workload scan operations simply ignore it.
struct ScanRow {
  std::string key;
  FieldMap fields;
};

/// One row of a `DB::MultiRead` result: each key succeeds or fails
/// independently (a missing key is that row's NotFound, never a batch error).
struct MultiReadRow {
  Status status;
  FieldMap fields;
};

/// The YCSB "DB client" abstraction (paper Fig 1), extended per YCSB+T §IV-A
/// with transaction demarcation.
///
/// A `DB` instance belongs to one client thread; instances created for the
/// same run share their backend through the factory.  The transactional
/// methods `Start`/`Commit`/`Abort` are **no-ops by default**, which is the
/// paper's backward-compatibility guarantee: any workload written for plain
/// YCSB runs unchanged against a non-transactional binding.
class DB {
 public:
  virtual ~DB() = default;

  /// Called once by the owning client thread before any operation.
  virtual Status Init() { return Status::OK(); }

  /// Called once after the last operation.
  virtual Status Cleanup() { return Status::OK(); }

  /// Reads one record.  `fields` selects a projection; nullptr = all fields.
  virtual Status Read(const std::string& table, const std::string& key,
                      const std::vector<std::string>* fields, FieldMap* result) = 0;

  /// Reads every key of `keys` with one call, filling `rows` (resized to
  /// match) with independent per-key outcomes.  Semantically identical to a
  /// sequence of `Read` calls — including transactional read-set membership
  /// — but bindings with a batched path overlap the round trips.  The
  /// default is the sequential loop.
  virtual void MultiRead(const std::string& table,
                         const std::vector<std::string>& keys,
                         const std::vector<std::string>* fields,
                         std::vector<MultiReadRow>* rows) {
    rows->resize(keys.size());  // rows keep their buffers across calls
    for (size_t i = 0; i < keys.size(); ++i) {
      MultiReadRow& row = (*rows)[i];
      row.fields.clear();
      row.status = Read(table, keys[i], fields, &row.fields);
    }
  }

  /// Reads up to `record_count` records in key order starting at `start_key`.
  virtual Status Scan(const std::string& table, const std::string& start_key,
                      size_t record_count, const std::vector<std::string>* fields,
                      std::vector<ScanRow>* result) = 0;

  /// Updates (read-modify-replaces named fields of) one record.
  virtual Status Update(const std::string& table, const std::string& key,
                        const FieldMap& values) = 0;

  /// Inserts one record.
  virtual Status Insert(const std::string& table, const std::string& key,
                        const FieldMap& values) = 0;

  /// Inserts every record of `keys`/`values` (parallel arrays) with one
  /// call, filling `statuses` (resized to match) with independent per-key
  /// outcomes.  Like `MultiRead`, this is semantically a sequence of
  /// `Insert` calls — no cross-key atomicity is added — but bindings with a
  /// batched write path overlap the round trips.  The default is the
  /// sequential loop.
  virtual void BatchInsert(const std::string& table,
                           const std::vector<std::string>& keys,
                           const std::vector<FieldMap>& values,
                           std::vector<Status>* statuses) {
    statuses->clear();
    statuses->resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      (*statuses)[i] = Insert(table, keys[i], values[i]);
    }
  }

  /// Deletes one record.
  virtual Status Delete(const std::string& table, const std::string& key) = 0;

  // --- YCSB+T transactional extension (default: no-op) -------------------

  /// Begins a transaction on this client.
  virtual Status Start() { return Status::OK(); }

  /// Commits the current transaction.
  virtual Status Commit() { return Status::OK(); }

  /// Aborts the current transaction.
  virtual Status Abort() { return Status::OK(); }

  /// True when Start/Commit/Abort actually demarcate transactions.
  virtual bool Transactional() const { return false; }
};

}  // namespace ycsbt

#endif  // YCSBT_DB_DB_H_
