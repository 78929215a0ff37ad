#ifndef YCSBT_KV_INSTRUMENTED_STORE_H_
#define YCSBT_KV_INSTRUMENTED_STORE_H_

#include <functional>
#include <memory>
#include <string>

#include "kv/store.h"

namespace ycsbt {
namespace kv {

/// Test hook around every operation of an underlying store: tests install
/// hooks that pause a thread between specific operations, turning "may lose
/// an update under concurrency" into an exact, repeatable interleaving.
/// (Simulated network latency is `cloud::SimCloudStore`'s job.)
class InstrumentedStore : public Store {
 public:
  enum class Op { kGet, kPut, kConditionalPut, kDelete, kConditionalDelete, kScan };

  /// Called before (phase=false) and after (phase=true is `after`) each op.
  using Hook = std::function<void(Op op, const std::string& key, bool after)>;

  /// @param base underlying store; shared so bindings can layer freely.
  explicit InstrumentedStore(std::shared_ptr<Store> base)
      : base_(std::move(base)) {}

  /// Installs a test hook; pass nullptr to remove.
  void set_hook(Hook hook) { hook_ = std::move(hook); }

  Status Get(const std::string& key, std::string* value,
             uint64_t* etag = nullptr) override {
    Enter(Op::kGet, key);
    Status s = base_->Get(key, value, etag);
    Exit(Op::kGet, key);
    return s;
  }

  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out = nullptr) override {
    Enter(Op::kPut, key);
    Status s = base_->Put(key, value, etag_out);
    Exit(Op::kPut, key);
    return s;
  }

  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag,
                        uint64_t* etag_out = nullptr) override {
    Enter(Op::kConditionalPut, key);
    Status s = base_->ConditionalPut(key, value, expected_etag, etag_out);
    Exit(Op::kConditionalPut, key);
    return s;
  }

  Status Delete(const std::string& key) override {
    Enter(Op::kDelete, key);
    Status s = base_->Delete(key);
    Exit(Op::kDelete, key);
    return s;
  }

  Status ConditionalDelete(const std::string& key, uint64_t expected_etag) override {
    Enter(Op::kConditionalDelete, key);
    Status s = base_->ConditionalDelete(key, expected_etag);
    Exit(Op::kConditionalDelete, key);
    return s;
  }

  Status Scan(const std::string& start_key, size_t limit,
              std::vector<ScanEntry>* out) override {
    Enter(Op::kScan, start_key);
    Status s = base_->Scan(start_key, limit, out);
    Exit(Op::kScan, start_key);
    return s;
  }

  size_t Count() const override { return base_->Count(); }

  Store* base() const { return base_.get(); }

 private:
  void Enter(Op op, const std::string& key) {
    if (hook_) hook_(op, key, /*after=*/false);
  }

  void Exit(Op op, const std::string& key) {
    if (hook_) hook_(op, key, /*after=*/true);
  }

  std::shared_ptr<Store> base_;
  Hook hook_;
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_INSTRUMENTED_STORE_H_
