#ifndef YCSBT_MEASUREMENT_OP_REGISTRY_H_
#define YCSBT_MEASUREMENT_OP_REGISTRY_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ycsbt {

/// Dense handle for an interned operation-series name.
///
/// Ids are assigned contiguously from zero in registration order, so both the
/// shared series store and the per-thread sinks can index plain vectors by
/// `OpId` — no string hashing or map lookup on the measurement hot path.
struct OpId {
  static constexpr uint32_t kInvalid = UINT32_MAX;

  uint32_t index = kInvalid;

  bool valid() const { return index != kInvalid; }
  bool operator==(const OpId& other) const { return index == other.index; }
};

/// Interns operation-series names ("READ", "COMMIT", "TX-UPDATE", ...) to
/// dense `OpId`s.
///
/// Registration happens at setup time — `MeasuredDB` resolves its handles
/// once per client, and the runner interns each `TX-<OP>` series the first
/// time a workload reports that op — so `Intern` may take an exclusive lock
/// without ever appearing on the per-sample path.  Lookups (`Find`, `Name`)
/// take a shared lock and are only used by snapshot code.
class OpRegistry {
 public:
  OpRegistry() = default;
  OpRegistry(const OpRegistry&) = delete;
  OpRegistry& operator=(const OpRegistry&) = delete;

  /// Returns the id for `name`, registering it on first sight.
  OpId Intern(const std::string& name) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = index_.find(name);
      if (it != index_.end()) return OpId{it->second};
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto [it, inserted] =
        index_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return OpId{it->second};
  }

  /// Id of an already-registered name; `OpId::kInvalid` if absent.
  OpId Find(const std::string& name) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(name);
    return it == index_.end() ? OpId{} : OpId{it->second};
  }

  /// Name of a registered id (by value: the backing vector may grow
  /// concurrently with other registrations).
  std::string Name(OpId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return id.index < names_.size() ? names_[id.index] : std::string();
  }

  /// Number of registered ops; ids [0, size) are valid.
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return names_.size();
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<std::string> names_;
};

}  // namespace ycsbt

#endif  // YCSBT_MEASUREMENT_OP_REGISTRY_H_
