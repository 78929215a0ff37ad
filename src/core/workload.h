#ifndef YCSBT_CORE_WORKLOAD_H_
#define YCSBT_CORE_WORKLOAD_H_

#include <charconv>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/properties.h"
#include "common/property_schema.h"
#include "common/random.h"
#include "common/status.h"
#include "db/db.h"

namespace ycsbt {
namespace core {

/// Outcome of the Tier-6 validation stage (paper §III-B, §IV-B).
struct ValidationResult {
  /// False when the workload has no validation (the default no-op).
  bool performed = false;
  /// True when the application-defined consistency check held.
  bool passed = true;
  /// The workload-specific anomaly quantification; 0 = consistent
  /// (as from a serializable execution).
  double anomaly_score = 0.0;
  /// Report lines for the exporter, e.g. {"TOTAL CASH", "1000000"}.
  std::vector<std::pair<std::string, std::string>> report;
};

/// Result of one workload transaction: whether it succeeded (deciding
/// commit vs abort in the wrapping client thread) and which operation it
/// performed (naming the whole-transaction `TX-<OP>` latency series).
struct TxnOpResult {
  bool ok = false;
  const char* op = "UNKNOWN";
};

/// A balance as the bank workloads (CEW, write skew) store it: the decimal
/// text `std::to_string` writes, formatted into an inline buffer instead of
/// a fresh string.
struct BalanceText {
  explicit BalanceText(int64_t balance)
      : len(static_cast<size_t>(std::to_chars(buf, std::end(buf), balance).ptr - buf)) {}
  std::string_view view() const { return {buf, len}; }

  char buf[20];  // fits "-9223372036854775808"
  size_t len;
};

/// Parses balance text: all of `text` must be one in-range decimal integer.
bool ParseBalanceText(std::string_view text, int64_t* balance);

/// Base class of YCSB/YCSB+T workloads (paper Fig 1).
///
/// The workload defines what one *insert* (load phase) and one *transaction*
/// (run phase) do against the DB abstraction; the client threads decide the
/// operation cadence and — this is the YCSB+T extension — wrap each call in
/// `DB::Start()` / `DB::Commit()` / `DB::Abort()`.
///
/// `Validate` is the second YCSB+T extension: an application-defined
/// consistency check over the final database state, run by the executor
/// after the workload completes.  The default is a no-op, keeping every
/// plain-YCSB workload source-compatible.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Per-thread scratch state (RNG, in-flight buffers); created once per
  /// client thread, passed back into every DoInsert/DoTransaction call.
  class ThreadState {
   public:
    explicit ThreadState(uint64_t seed) : rng(seed) {}
    virtual ~ThreadState() = default;

    Random64 rng;
    /// Operation drawn ahead of time by `NextTransactionReadOnly` and
    /// consumed by the next `DoTransaction` call, so peeking never perturbs
    /// the deterministic op/key streams.  Null = nothing pending.
    const char* peeked_op = nullptr;

    /// Reused operation buffers: one workload instance serves every client
    /// thread, so they live here, and once grown they stop allocating.
    std::string key;
    std::string value;
    FieldMap row;
    std::vector<std::string> keys;
    std::vector<MultiReadRow> rows;
  };

  /// Reads workload parameters.  Called once before any thread starts.
  virtual Status Init(const Properties& props) = 0;

  /// Creates the per-thread state for client thread `thread_id` of
  /// `thread_count`.  The default derives each thread's RNG seed from
  /// `base_seed()`, so two runs with the same `seed` property replay the
  /// same operation streams.
  virtual std::unique_ptr<ThreadState> InitThread(int thread_id, int thread_count);

  /// Base RNG seed (the `seed` property; implementations read it in Init).
  uint64_t base_seed() const { return base_seed_; }

  /// One load-phase insert.  Returns false on failure (the run aborts).
  virtual bool DoInsert(DB& db, ThreadState* state) = 0;

  /// One record of the load phase in data form, for bulk ingestion.
  struct LoadRecord {
    std::string table;
    std::string key;
    FieldMap values;
  };

  /// Produces the record the next `DoInsert` on this thread would write,
  /// WITHOUT touching the DB — the sorted-bulk-load path: the runner
  /// collects records from every thread, sorts them, and feeds the engine's
  /// `BulkLoad` directly.  Returns false when the thread's load quota is not
  /// expressible as plain records (the workload then keeps the per-op
  /// `DoInsert` path).  Implementations must draw from the same deterministic
  /// streams as `DoInsert`, so a bulk-loaded table is byte-identical to a
  /// per-op-loaded one.  Default: false (no bulk path).
  virtual bool BuildNextInsert(ThreadState* state, LoadRecord* record);

  /// One run-phase transaction (one or more DB operations).
  virtual TxnOpResult DoTransaction(DB& db, ThreadState* state) = 0;

  /// Peeks whether the *next* `DoTransaction` on this thread would be
  /// read-only — the brownout controller's shed-reads-first hint.
  /// Implementations that draw their operation from an RNG must cache the
  /// draw in `state->peeked_op` (and consume it in `DoTransaction`) so the
  /// peek leaves the deterministic streams intact.  Default: false, i.e.
  /// treat every transaction as potentially mutating.
  virtual bool NextTransactionReadOnly(ThreadState* state);

  /// Tier-6 validation stage; default no-op (`performed = false`).
  /// `operations_executed` is the number of workload transactions the run
  /// performed — the denominator of the paper's anomaly score.
  virtual Status Validate(DB& db, uint64_t operations_executed,
                          ValidationResult* result);

  /// Hook called by the client thread after each transaction's outcome is
  /// known (`committed` is false when the DB aborted or the commit failed).
  /// Lets workloads with out-of-band state (CEW's capture bank) compensate
  /// for aborted transactions.  Default: nothing.
  virtual void OnTransactionOutcome(ThreadState* state, const TxnOpResult& result,
                                    bool committed);

  /// Hook called by the client thread between a failed attempt and its
  /// retry, so out-of-band state is re-derived instead of double-applied
  /// when `DoTransaction` runs again.  Default: treat the attempt as an
  /// aborted outcome.
  virtual void OnTransactionRetry(ThreadState* state, const TxnOpResult& result);

  /// Total records the load phase should insert (from `recordcount`).
  virtual uint64_t record_count() const = 0;

 protected:
  /// Reads the `seed` property (implementations call this from Init).
  void InitSeed(const Properties& props) {
    base_seed_ = kSeed.Get<uint64_t>(props);
  }

 private:
  uint64_t base_seed_ = kSeed.Default<uint64_t>();
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_WORKLOAD_H_
