#ifndef YCSBT_KV_INSTRUMENTED_STORE_H_
#define YCSBT_KV_INSTRUMENTED_STORE_H_

#include <functional>
#include <memory>
#include <string>

#include "kv/store_decorator.h"

namespace ycsbt {
namespace kv {

/// Test hook around every operation of an underlying store: tests install
/// hooks that pause a thread between specific operations, turning "may lose
/// an update under concurrency" into an exact, repeatable interleaving.
/// (Simulated network latency is `cloud::SimCloudStore`'s job.)
class InstrumentedStore : public StoreDecorator<InstrumentedStore> {
 public:
  /// Called before (phase=false) and after (phase=true is `after`) each op.
  using Hook = std::function<void(Op op, const std::string& key, bool after)>;

  /// @param base underlying store; shared so bindings can layer freely.
  explicit InstrumentedStore(std::shared_ptr<Store> base)
      : base_(std::move(base)) {}

  /// Installs a test hook; pass nullptr to remove.
  void set_hook(Hook hook) { hook_ = std::move(hook); }

  size_t Count() const override { return base_->Count(); }

  Store* base() const { return base_.get(); }

 private:
  friend class StoreDecorator<InstrumentedStore>;

  /// The one body of every operation: the before hook, `call` on the base
  /// store, then the after hook.
  template <typename Call>
  Status Request(Op op, const std::string& key, const Call& call) {
    if (hook_) hook_(op, key, /*after=*/false);
    Status s = call(*base_);
    if (hook_) hook_(op, key, /*after=*/true);
    return s;
  }

  std::shared_ptr<Store> base_;
  Hook hook_;
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_INSTRUMENTED_STORE_H_
