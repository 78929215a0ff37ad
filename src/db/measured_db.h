#ifndef YCSBT_DB_MEASURED_DB_H_
#define YCSBT_DB_MEASURED_DB_H_

#include <memory>
#include <string>

#include "db/db.h"
#include "measurement/measurements.h"

namespace ycsbt {

/// Operation-series names emitted by MeasuredDB.
namespace opname {
inline constexpr const char kRead[] = "READ";
inline constexpr const char kMultiRead[] = "MULTIREAD";
inline constexpr const char kScan[] = "SCAN";
inline constexpr const char kUpdate[] = "UPDATE";
inline constexpr const char kInsert[] = "INSERT";
inline constexpr const char kBatchInsert[] = "BATCHINSERT";
inline constexpr const char kDelete[] = "DELETE";
inline constexpr const char kStart[] = "START";
inline constexpr const char kCommit[] = "COMMIT";
inline constexpr const char kAbort[] = "ABORT";
}  // namespace opname

/// The Tier-5 instrument: wraps any DB binding and records, for every call,
/// its latency and return code under the operation's series — including the
/// transactional demarcation calls `START`, `COMMIT` and `ABORT` that plain
/// YCSB has no notion of.  Comparing the same workload's series between a
/// transactional and a non-transactional run quantifies the per-operation
/// transactional overhead (paper §III-A, Fig 3).
///
/// All eight op handles are interned to dense `OpId`s once at construction
/// (and re-resolved in `Init()`, which is a no-op re-intern), so the
/// per-call cost is two `LatencyTimer` reads plus one histogram/counter
/// update — no string construction and no map lookup.  Bind a `ThreadSink`
/// to make that update lock-free thread-local state (the runner does this
/// for every client thread); unbound, samples go to the shared series under
/// its lock.
class MeasuredDB : public DB {
 public:
  MeasuredDB(std::unique_ptr<DB> inner, Measurements* measurements);

  /// Routes this wrapper's samples through `sink` (owned by the same
  /// `Measurements`).  The calling thread must be the sink's owner; pass
  /// nullptr to fall back to the shared series.
  void BindSink(ThreadSink* sink) { sink_ = sink; }

  Status Init() override;
  Status Cleanup() override { return inner_->Cleanup(); }

  Status Read(const std::string& table, const std::string& key,
              const std::vector<std::string>* fields, FieldMap* result) override;
  void MultiRead(const std::string& table, const std::vector<std::string>& keys,
                 const std::vector<std::string>* fields,
                 std::vector<MultiReadRow>* rows) override;
  Status Scan(const std::string& table, const std::string& start_key,
              size_t record_count, const std::vector<std::string>* fields,
              std::vector<ScanRow>* result) override;
  Status Update(const std::string& table, const std::string& key,
                const FieldMap& values) override;
  Status Insert(const std::string& table, const std::string& key,
                const FieldMap& values) override;
  void BatchInsert(const std::string& table, const std::vector<std::string>& keys,
                   const std::vector<FieldMap>& values,
                   std::vector<Status>* statuses) override;
  Status Delete(const std::string& table, const std::string& key) override;

  Status Start() override;
  Status Commit() override;
  Status Abort() override;
  bool Transactional() const override { return inner_->Transactional(); }

  DB* inner() const { return inner_.get(); }

 private:
  /// Resolved handles for the ten series this wrapper emits.
  struct OpHandles {
    OpId read, multiread, scan, update, insert, batch_insert, del, start,
        commit, abort;
  };

  void ResolveHandles();
  Status Record(OpId op, Status status, int64_t latency_us);

  std::unique_ptr<DB> inner_;
  Measurements* measurements_;  // not owned
  ThreadSink* sink_ = nullptr;  // not owned; optional
  OpHandles ops_;
};

}  // namespace ycsbt

#endif  // YCSBT_DB_MEASURED_DB_H_
