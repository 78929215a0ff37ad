#ifndef YCSBT_CORE_WRITE_SKEW_WORKLOAD_H_
#define YCSBT_CORE_WRITE_SKEW_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/workload.h"
#include "generator/generator.h"

namespace ycsbt {
namespace core {

inline constexpr PropertyDecl kWriteSkewInitial =
    IntProperty("writeskew.initial", 100, 0, kNoLimit, "starting balance of each side");
inline constexpr const PropertyDecl* kWriteSkewProperties[] = {&kWriteSkewInitial};

/// An anomaly-targeting workload: the paper's §VII future work ("additional
/// workloads that will target specific anomalies that are observed at
/// various transaction isolation levels") made concrete for **write skew**,
/// the canonical anomaly snapshot isolation admits and serializability
/// forbids (Berenson et al., the paper's ref [26]).
///
/// The data is a set of *pairs* of balances (x_i, y_i), each loaded with
/// `writeskew.initial`.  The application constraint is
/// per-pair: x_i + y_i >= 0.  A *withdraw* transaction reads both sides of a
/// pair, checks that the combined balance covers the withdrawal, and then
/// debits ONE side only.  Two concurrent withdrawals against the same pair
/// have disjoint write sets, so first-committer-wins (snapshot isolation)
/// happily commits both — and the pair can go negative even though every
/// individual transaction checked the constraint.  Under serializable
/// validation or 2PL one of the two aborts.
///
/// The Tier-6 validation stage sweeps all pairs and scores
///   gamma = (#pairs with x+y < 0) / operations,
/// reporting also the total overdraft.  Expected outcomes:
///   - non-transactional binding: violations (plus plain lost updates);
///   - `txn.isolation=snapshot`:   violations (write skew admitted);
///   - `txn.isolation=serializable` or `2pl+memkv`: zero violations.
///
/// Properties: `recordcount` (two records per pair; must be even, default
/// 200), `table` (default `skewtable`), `writeskew.initial`,
/// `readproportion` (audit transactions that only read a pair; default 0),
/// `requestdistribution` (uniform | zipfian over pairs).
class WriteSkewWorkload : public Workload {
 public:
  WriteSkewWorkload() = default;

  Status Init(const Properties& props) override;
  bool BuildNextInsert(ThreadState* state, LoadRecord* record) override;
  TxnOpResult DoTransaction(DB& db, ThreadState* state) override;
  Status Validate(DB& db, uint64_t operations_executed,
                  ValidationResult* result) override;

  uint64_t record_count() const override { return pair_count_ * 2; }
  uint64_t pair_count() const { return pair_count_; }

  /// Key of pair `p`, side 0 (x) or 1 (y); zero-padded so scans see pairs
  /// adjacent and ordered.
  std::string PairKey(uint64_t pair, int side) const;

 private:
  bool DoWithdraw(DB& db, ThreadState* state);
  bool DoAudit(DB& db, ThreadState* state);

  std::string table_ = "skewtable";
  uint64_t pair_count_ = 0;
  int64_t initial_balance_ = 100;
  double read_proportion_ = 0.0;
  std::unique_ptr<IntegerGenerator> pair_chooser_;
  std::unique_ptr<CounterGenerator> load_sequence_;
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_WRITE_SKEW_WORKLOAD_H_
