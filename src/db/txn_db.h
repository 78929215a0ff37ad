#ifndef YCSBT_DB_TXN_DB_H_
#define YCSBT_DB_TXN_DB_H_

#include <memory>

#include "db/db.h"
#include "txn/transaction.h"

namespace ycsbt {

/// Transactional DB binding over a `txn::TransactionalKV` (the
/// client-coordinated library or the embedded 2PL engine).
///
/// `Start()` begins a transaction on this client thread; every CRUD/scan
/// until `Commit()`/`Abort()` executes inside it.  Outside a transaction the
/// binding falls back to auto-committed single operations, so the same
/// binding serves YCSB-style (non-wrapped) runs too.
///
/// One instance per client thread (the YCSB threading model); instances
/// share the underlying TransactionalKV.
class TxnDB : public DB {
 public:
  explicit TxnDB(std::shared_ptr<txn::TransactionalKV> kv) : kv_(std::move(kv)) {}

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
  bool Transactional() const override { return true; }

  txn::TransactionalKV* kv() const { return kv_.get(); }

 private:
  Status ReadRaw(const std::string& composed, std::string* value);

  std::shared_ptr<txn::TransactionalKV> kv_;
  std::unique_ptr<txn::Transaction> txn_;  // active transaction, if any
  // Per-client buffers (one binding per client thread), reused by every call.
  std::string key_;
  std::string raw_;
  FieldMap merged_;
  std::vector<std::string> keys_;
  std::vector<txn::TxReadResult> raw_rows_;
};

}  // namespace ycsbt

#endif  // YCSBT_DB_TXN_DB_H_
