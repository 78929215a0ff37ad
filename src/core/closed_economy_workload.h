#ifndef YCSBT_CORE_CLOSED_ECONOMY_WORKLOAD_H_
#define YCSBT_CORE_CLOSED_ECONOMY_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/core_workload.h"

namespace ycsbt {
namespace core {

inline constexpr PropertyDecl kTotalCash = Derived(
    IntProperty("totalcash", 0, 1, kNoLimit,
                "money spread evenly over the accounts (>= $1 each)"),
    "recordcount x 1000");
inline constexpr PropertyDecl kTransferAccounts = IntProperty(
    "cew.transfer_accounts", 2, 2, kIntMax,
    "accounts one read-modify-write transfer touches");
inline constexpr const PropertyDecl* kClosedEconomyProperties[] = {
    &kTotalCash, &kTransferAccounts};

/// The Closed Economy Workload (CEW) of the paper (§IV-C): a simplified
/// closed economy in which money never enters or leaves the system, so that
/// the sum of all account balances is a transaction invariant any
/// serializable execution preserves.
///
/// Each record is one bank account holding its balance (a decimal string in
/// `field0`).  The load phase distributes `totalcash` evenly over
/// `recordcount` accounts.  Operations:
///   - *read*    — read one account;
///   - *update*  — read an account, add $1 drawn from the *capture bank*
///                 (money banked by delete operations), write it back;
///   - *insert*  — open a new account funded from the capture bank;
///   - *delete*  — close an account, banking its balance;
///   - *scan*    — range-read accounts;
///   - *readmodifywrite* — transfer $1 between two accounts (the op whose
///                 lost updates Figure 4 quantifies).
///
/// Batched variant: `cew.transfer_accounts` = W widens the
/// read-modify-write to one W-account transfer per commit — the payer
/// account sends $1 to each of W-1 payees through one `MultiRead` + one
/// `BatchInsert` — keeping the per-commit sum delta exactly zero, so the
/// anomaly score stays exact.  W = 2 is byte-identical to the classic
/// two-account path.  BATCH_READ tolerates concurrently closed accounts;
/// BATCH_INSERT opens W accounts funded from the capture bank.
///
/// The invariant is `sum(accounts) + capture_bank == totalcash`.  The
/// Tier-6 validation stage sweeps the table, compares the counted sum with
/// the expectation and reports the paper's anomaly score
/// gamma = |S_initial − S_final| / operations.
///
/// The capture bank lives in the workload (not the database), so the client
/// thread reports each transaction's outcome via `OnTransactionOutcome`:
/// withdrawals are taken eagerly and refunded if the transaction aborts;
/// deposits apply only after a successful commit.
class ClosedEconomyWorkload : public CoreWorkload {
 public:
  ClosedEconomyWorkload() = default;

  Status Init(const Properties& props) override;
  std::unique_ptr<ThreadState> InitThread(int thread_id, int thread_count) override;

  bool DoInsert(DB& db, ThreadState* state) override;
  bool BuildNextInsert(ThreadState* state, LoadRecord* record) override;
  Status Validate(DB& db, uint64_t operations_executed,
                  ValidationResult* result) override;
  void OnTransactionOutcome(ThreadState* state, const TxnOpResult& result,
                            bool committed) override;

  int64_t total_cash() const { return total_cash_; }
  int64_t capture_bank() const { return bank_.load(std::memory_order_relaxed); }

 protected:
  bool DoTransactionRead(DB& db, ThreadState* state) override;
  bool DoTransactionUpdate(DB& db, ThreadState* state) override;
  bool DoTransactionInsert(DB& db, ThreadState* state) override;
  bool DoTransactionDelete(DB& db, ThreadState* state) override;
  bool DoTransactionScan(DB& db, ThreadState* state) override;
  bool DoTransactionReadModifyWrite(DB& db, ThreadState* state) override;
  bool DoTransactionBatchRead(DB& db, ThreadState* state) override;
  bool DoTransactionBatchInsert(DB& db, ThreadState* state) override;

 private:
  class CewThreadState;

  /// Atomically withdraws up to `want` from the capture bank; returns the
  /// amount actually obtained (the bank never goes negative).
  int64_t WithdrawFromBank(int64_t want);

  /// Blind full-record write of a balance (one store put — the paper's
  /// UPDATE is a single request; the read half is a separate READ).
  Status WriteBalance(DB& db, ThreadState* state, const std::string& key,
                      int64_t balance);

  /// Parses the balance out of a read/scanned record.
  static bool ParseBalance(const FieldMap& fields, int64_t* balance);

  int64_t total_cash_ = 0;
  int64_t initial_balance_ = 0;
  /// Accounts per read-modify-write transfer (`cew.transfer_accounts`);
  /// 2 = the paper's pair transfer, > 2 = the batched variant.
  int transfer_accounts_ = 2;
  std::atomic<int64_t> bank_{0};
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_CLOSED_ECONOMY_WORKLOAD_H_
