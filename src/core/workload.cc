#include "core/workload.h"

#include <charconv>

namespace ycsbt {
namespace core {

bool ParseBalanceText(std::string_view text, int64_t* balance) {
  const char* end = text.data() + text.size();
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *balance = value;
  return true;
}

std::unique_ptr<Workload::ThreadState> Workload::InitThread(int thread_id,
                                                            int /*thread_count*/) {
  // Distinct, deterministic seeds per thread, derived from the run's seed.
  return std::make_unique<ThreadState>(base_seed() +
                                       static_cast<uint64_t>(thread_id));
}

bool Workload::DoInsert(DB& db, ThreadState* state) {
  LoadRecord& record = state->load;
  return BuildNextInsert(state, &record) &&
         db.Insert(record.table, record.key, record.values).ok();
}

Status Workload::Validate(DB& /*db*/, uint64_t /*operations_executed*/,
                          ValidationResult* result) {
  // Backward-compatible default: no validation defined (paper §IV-B).
  *result = ValidationResult{};
  return Status::OK();
}

void Workload::OnTransactionOutcome(ThreadState* /*state*/,
                                    const TxnOpResult& /*result*/,
                                    bool /*committed*/) {}

bool Workload::NextTransactionReadOnly(ThreadState* /*state*/) {
  // Unclassified workloads shed by the in-flight cap only, never by the
  // read-only-first policy.
  return false;
}

void Workload::OnTransactionRetry(ThreadState* state, const TxnOpResult& result) {
  // A retried attempt is an aborted outcome as far as out-of-band state is
  // concerned (CEW refunds its pending withdrawal and re-derives the amount
  // on the next attempt).
  OnTransactionOutcome(state, result, /*committed=*/false);
}

}  // namespace core
}  // namespace ycsbt
