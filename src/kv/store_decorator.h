#ifndef YCSBT_KV_STORE_DECORATOR_H_
#define YCSBT_KV_STORE_DECORATOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kv/store.h"

namespace ycsbt {
namespace kv {

/// The single-key operations of a `Store` decorator, each a forward to the
/// decorator's one body, `Derived::Request(op, key, call)`: the body does
/// what the layer adds around every request and runs `call(base)` on the
/// store below (`key` is the start key for a `Scan`).  The batch forms keep
/// `Store`'s defaults unless the decorator overrides them.
template <typename Derived>
class StoreDecorator : public Store {
 public:
  enum class Op { kGet, kPut, kConditionalPut, kDelete, kConditionalDelete, kScan };

  /// True for the four mutations.
  static constexpr bool IsWrite(Op op) { return op != Op::kGet && op != Op::kScan; }

  Status Get(const std::string& key, std::string* value,
             uint64_t* etag = nullptr) override {
    return Self().Request(Op::kGet, key,
                          [&](Store& s) { return s.Get(key, value, etag); });
  }

  Status Put(const std::string& key, std::string_view value,
             uint64_t* etag_out = nullptr) override {
    return Self().Request(Op::kPut, key,
                          [&](Store& s) { return s.Put(key, value, etag_out); });
  }

  Status ConditionalPut(const std::string& key, std::string_view value,
                        uint64_t expected_etag,
                        uint64_t* etag_out = nullptr) override {
    return Self().Request(Op::kConditionalPut, key, [&](Store& s) {
      return s.ConditionalPut(key, value, expected_etag, etag_out);
    });
  }

  Status Delete(const std::string& key) override {
    return Self().Request(Op::kDelete, key,
                          [&](Store& s) { return s.Delete(key); });
  }

  Status ConditionalDelete(const std::string& key, uint64_t expected_etag) override {
    return Self().Request(Op::kConditionalDelete, key, [&](Store& s) {
      return s.ConditionalDelete(key, expected_etag);
    });
  }

  Status Scan(const std::string& start_key, size_t limit,
              std::vector<ScanEntry>* out) override {
    return Self().Request(Op::kScan, start_key, [&](Store& s) {
      return s.Scan(start_key, limit, out);
    });
  }

 private:
  Derived& Self() { return static_cast<Derived&>(*this); }
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_STORE_DECORATOR_H_
