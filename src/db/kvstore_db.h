#ifndef YCSBT_DB_KVSTORE_DB_H_
#define YCSBT_DB_KVSTORE_DB_H_

#include <memory>
#include <string>

#include "db/db.h"
#include "kv/store.h"

namespace ycsbt {

/// Non-transactional DB binding over any `kv::Store`.
///
/// One class covers three of the paper's setups, differing only in the store
/// supplied by the factory:
///  - `memkv`   — the local engine directly;
///  - `was`/`gcs` — a `SimCloudStore` over the local engine;
///  - `rawhttp` — a `SimCloudStore` with the loopback profile
///                (`CloudProfile::Loopback`): the loopback-HTTP round trip of
///                the paper's WiredTiger server (the `RawHttpDB` of Listing 1).
///
/// `Start`/`Commit`/`Abort` inherit the DB no-ops: operations are
/// individually atomic in the store but nothing groups them, so concurrent
/// read-modify-write sequences exhibit exactly the lost-update anomalies the
/// Tier-6 validation stage quantifies (Fig 4).
class KvStoreDB : public DB {
 public:
  explicit KvStoreDB(std::shared_ptr<kv::Store> store) : store_(std::move(store)) {}

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

  kv::Store* store() const { return store_.get(); }

  /// Key layout shared by all bindings: "<table>/<key>".
  static std::string ComposeKey(const std::string& table, const std::string& key) {
    return table + "/" + key;
  }
  /// The same layout, written into a reused buffer.
  static const std::string& ComposeKey(const std::string& table,
                                       const std::string& key, std::string* out) {
    return out->assign(table).append(1, '/').append(key);
  }

 private:
  std::shared_ptr<kv::Store> store_;
  // Per-client buffers (one binding per client thread), reused by every call.
  std::string key_;
  std::string raw_;
  FieldMap merged_;
  std::vector<std::string> keys_;
  std::vector<kv::MultiGetResult> raw_rows_;
};

}  // namespace ycsbt

#endif  // YCSBT_DB_KVSTORE_DB_H_
