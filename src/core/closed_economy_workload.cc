#include "core/closed_economy_workload.h"

#include <algorithm>
#include <cstdio>

namespace ycsbt {
namespace core {

namespace {
constexpr char kBalanceField[] = "field0";
}  // namespace

/// Per-thread CEW state: the bank movements of the in-flight transaction,
/// settled by OnTransactionOutcome.
class ClosedEconomyWorkload::CewThreadState : public Workload::ThreadState {
 public:
  explicit CewThreadState(uint64_t seed) : ThreadState(seed) {}

  int64_t pending_withdrawn = 0;  ///< taken from the bank; refunded on abort
  int64_t pending_deposit = 0;    ///< added to the bank on commit only
};

Status ClosedEconomyWorkload::Init(const Properties& props) {
  // CEW fixes the schema: a single balance field per account, always read
  // and written whole.
  Properties cew = props;
  cew.Set("fieldcount", "1");
  cew.Set("readallfields", "true");
  cew.Set("writeallfields", "true");
  // CEW's own operation mix, where the file leaves it open.
  if (!cew.Contains("readproportion")) cew.Set("readproportion", "0.9");
  if (!cew.Contains("updateproportion")) cew.Set("updateproportion", "0");
  if (!cew.Contains("readmodifywriteproportion")) {
    cew.Set("readmodifywriteproportion", "0.1");
  }
  Status s = CoreWorkload::Init(cew);
  if (!s.ok()) return s;

  s = CheckDeclaredProperties(props, kClosedEconomyProperties);
  if (!s.ok()) return s;
  // The paper's example gives every account an initial balance of $1000.
  total_cash_ = kTotalCash.Get<int64_t>(
      props, static_cast<int64_t>(record_count()) * 1000);
  if (total_cash_ < static_cast<int64_t>(record_count())) {
    return Status::InvalidArgument("totalcash must cover >= $1 per account");
  }
  initial_balance_ = total_cash_ / static_cast<int64_t>(record_count());
  transfer_accounts_ = kTransferAccounts.Get<int>(props);
  bank_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

std::unique_ptr<Workload::ThreadState> ClosedEconomyWorkload::InitThread(
    int thread_id, int /*thread_count*/) {
  return std::make_unique<CewThreadState>(base_seed() ^ 0xCE87EADull ^
                                          static_cast<uint64_t>(thread_id) * 0x9E3779B9ull);
}

int64_t ClosedEconomyWorkload::WithdrawFromBank(int64_t want) {
  int64_t current = bank_.load(std::memory_order_relaxed);
  for (;;) {
    int64_t take = std::min(current, want);
    if (take <= 0) return 0;
    if (bank_.compare_exchange_weak(current, current - take,
                                    std::memory_order_relaxed)) {
      return take;
    }
  }
}

Status ClosedEconomyWorkload::WriteBalance(DB& db, ThreadState* state,
                                           const std::string& key,
                                           int64_t balance) {
  state->row.clear();
  state->row.Set(kBalanceField, BalanceText(balance).view());
  // DB::Insert is the blind full-record write of every binding; using it for
  // overwrites keeps CEW updates at one store request, as in the paper.
  return db.Insert(table_, key, state->row);
}

bool ClosedEconomyWorkload::ParseBalance(const FieldMap& fields, int64_t* balance) {
  return ParseBalanceText(fields.Get(kBalanceField), balance);
}

bool ClosedEconomyWorkload::DoInsert(DB& db, ThreadState* state) {
  uint64_t key_num = load_sequence_->Next(state->rng);
  // The integer division remainder lands on the first account so the loaded
  // sum is exactly totalcash.
  int64_t balance = initial_balance_;
  if (key_num == insert_start_) {
    balance += total_cash_ - initial_balance_ * static_cast<int64_t>(record_count());
  }
  return WriteBalance(db, state, BuildKeyName(key_num, &state->key), balance).ok();
}

bool ClosedEconomyWorkload::BuildNextInsert(ThreadState* state, LoadRecord* record) {
  uint64_t key_num = load_sequence_->Next(state->rng);
  int64_t balance = initial_balance_;
  if (key_num == insert_start_) {
    balance += total_cash_ - initial_balance_ * static_cast<int64_t>(record_count());
  }
  record->table = table_;
  BuildKeyName(key_num, &record->key);
  record->values.clear();
  record->values.Set(kBalanceField, BalanceText(balance).view());
  return true;
}

bool ClosedEconomyWorkload::DoTransactionRead(DB& db, ThreadState* state) {
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  Status s = db.Read(table_, key, nullptr, &state->row);
  // A concurrently deleted account is a legitimate NotFound, not a failure.
  return s.ok() || s.IsNotFound();
}

bool ClosedEconomyWorkload::DoTransactionUpdate(DB& db, ThreadState* state) {
  auto* cew = static_cast<CewThreadState*>(state);
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  if (!db.Read(table_, key, nullptr, &state->row).ok()) return false;
  int64_t balance;
  if (!ParseBalance(state->row, &balance)) return false;
  // Add $1 captured from delete operations (paper §IV-C2); if nothing has
  // been captured the update rewrites the same balance.
  int64_t gained = WithdrawFromBank(1);
  cew->pending_withdrawn += gained;
  return WriteBalance(db, state, key, balance + gained).ok();
}

bool ClosedEconomyWorkload::DoTransactionInsert(DB& db, ThreadState* state) {
  auto* cew = static_cast<CewThreadState*>(state);
  uint64_t key_num = insert_sequence_->Next(state->rng);
  int64_t funding = WithdrawFromBank(initial_balance_);
  cew->pending_withdrawn += funding;
  bool ok = WriteBalance(db, state, BuildKeyName(key_num, &state->key), funding).ok();
  insert_sequence_->Acknowledge(key_num);
  return ok;
}

bool ClosedEconomyWorkload::DoTransactionDelete(DB& db, ThreadState* state) {
  auto* cew = static_cast<CewThreadState*>(state);
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  Status s = db.Read(table_, key, nullptr, &state->row);
  if (s.IsNotFound()) return true;  // already closed
  if (!s.ok()) return false;
  int64_t balance;
  if (!ParseBalance(state->row, &balance)) return false;
  s = db.Delete(table_, key);
  if (s.IsNotFound()) return true;
  if (!s.ok()) return false;
  // The closed account's money is captured for later inserts/updates —
  // banked only if this transaction commits.
  cew->pending_deposit += balance;
  return true;
}

bool ClosedEconomyWorkload::DoTransactionScan(DB& db, ThreadState* state) {
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  size_t len = static_cast<size_t>(scan_length_chooser_->Next(state->rng));
  std::vector<ScanRow> rows;
  return db.Scan(table_, key, len, nullptr, &rows).ok();
}

bool ClosedEconomyWorkload::DoTransactionReadModifyWrite(DB& db,
                                                         ThreadState* state) {
  if (transfer_accounts_ <= 2) {
    // Transfer $1 between two distinct accounts (paper §IV-C2): the sum is
    // invariant under any serializable execution of this operation.
    uint64_t k1 = NextKeyNum(state->rng);
    uint64_t k2 = k1;
    for (int i = 0; i < 8 && k2 == k1; ++i) k2 = NextKeyNum(state->rng);
    if (k1 == k2) return true;  // single-account economy: nothing to transfer
    std::vector<std::string>& keys = state->keys;
    keys.resize(2);
    BuildKeyName(k1, &keys[0]);
    BuildKeyName(k2, &keys[1]);

    // Both snapshot reads in one batch: with a fan-out executor their round
    // trips overlap; semantically identical to two sequential Reads.
    std::vector<MultiReadRow>& rows = state->rows;
    db.MultiRead(table_, keys, nullptr, &rows);
    if (!rows[0].status.ok() || !rows[1].status.ok()) return false;
    int64_t bal1, bal2;
    if (!ParseBalance(rows[0].fields, &bal1) || !ParseBalance(rows[1].fields, &bal2)) {
      return false;
    }

    if (!WriteBalance(db, state, keys[0], bal1 - 1).ok()) return false;
    return WriteBalance(db, state, keys[1], bal2 + 1).ok();
  }

  // Batched variant (`cew.transfer_accounts` > 2): one W-account transfer —
  // the payer sends $1 to each of W-1 payees.  The per-commit sum delta is
  // exactly (W-1) - (W-1) = 0, so Validate's drift stays exact.
  std::vector<uint64_t> nums;
  nums.push_back(NextKeyNum(state->rng));
  for (int i = 1; i < transfer_accounts_; ++i) {
    uint64_t k = nums[0];
    for (int attempt = 0; attempt < 8; ++attempt) {
      k = NextKeyNum(state->rng);
      if (std::find(nums.begin(), nums.end(), k) == nums.end()) break;
    }
    if (std::find(nums.begin(), nums.end(), k) == nums.end()) nums.push_back(k);
  }
  if (nums.size() < 2) return true;  // tiny economy: nothing to transfer

  std::vector<std::string>& keys = state->keys;
  keys.resize(nums.size());
  for (size_t i = 0; i < nums.size(); ++i) BuildKeyName(nums[i], &keys[i]);

  std::vector<MultiReadRow>& rows = state->rows;
  db.MultiRead(table_, keys, nullptr, &rows);
  std::vector<int64_t> balances(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!rows[i].status.ok()) return false;
    if (!ParseBalance(rows[i].fields, &balances[i])) return false;
  }

  int64_t payees = static_cast<int64_t>(keys.size()) - 1;
  std::vector<FieldMap> values(keys.size());
  values[0].Set(kBalanceField, BalanceText(balances[0] - payees).view());
  for (size_t i = 1; i < keys.size(); ++i) {
    values[i].Set(kBalanceField, BalanceText(balances[i] + 1).view());
  }
  std::vector<Status> statuses;
  db.BatchInsert(table_, keys, values, &statuses);
  for (const Status& s : statuses) {
    if (!s.ok()) return false;
  }
  return true;
}

bool ClosedEconomyWorkload::DoTransactionBatchRead(DB& db, ThreadState* state) {
  size_t len = NextBatchSize(state->rng);
  std::vector<std::string>& keys = state->keys;
  keys.resize(len);
  for (std::string& key : keys) BuildKeyName(NextKeyNum(state->rng), &key);
  db.MultiRead(table_, keys, nullptr, &state->rows);
  for (const auto& row : state->rows) {
    // A concurrently closed account is a legitimate NotFound, not a failure.
    if (!row.status.ok() && !row.status.IsNotFound()) return false;
  }
  return true;
}

bool ClosedEconomyWorkload::DoTransactionBatchInsert(DB& db, ThreadState* state) {
  auto* cew = static_cast<CewThreadState*>(state);
  size_t len = NextBatchSize(state->rng);
  std::vector<uint64_t> key_nums(len);
  std::vector<std::string>& keys = state->keys;
  std::vector<FieldMap> values(len);
  keys.resize(len);
  for (size_t i = 0; i < len; ++i) {
    key_nums[i] = insert_sequence_->Next(state->rng);
    BuildKeyName(key_nums[i], &keys[i]);
    // Each new account opens funded from the capture bank, like the
    // single-op insert; money still never enters the system.
    int64_t funding = WithdrawFromBank(initial_balance_);
    cew->pending_withdrawn += funding;
    values[i].Set(kBalanceField, BalanceText(funding).view());
  }
  std::vector<Status> statuses;
  db.BatchInsert(table_, keys, values, &statuses);
  bool ok = true;
  for (const Status& s : statuses) {
    if (!s.ok()) ok = false;
  }
  for (uint64_t key_num : key_nums) insert_sequence_->Acknowledge(key_num);
  return ok;
}

void ClosedEconomyWorkload::OnTransactionOutcome(ThreadState* state,
                                                 const TxnOpResult& /*result*/,
                                                 bool committed) {
  auto* cew = static_cast<CewThreadState*>(state);
  // Refund on failure: the transaction's database effects were rolled back,
  // so the money it withdrew must return to the bank.  Most transactions
  // move no bank money, and then skip the shared read-modify-write.
  int64_t amount = committed ? cew->pending_deposit : cew->pending_withdrawn;
  if (amount != 0) bank_.fetch_add(amount, std::memory_order_relaxed);
  cew->pending_withdrawn = 0;
  cew->pending_deposit = 0;
}

Status ClosedEconomyWorkload::Validate(DB& db, uint64_t operations_executed,
                                       ValidationResult* result) {
  *result = ValidationResult{};
  result->performed = true;

  // Sweep the whole table in key order, paginating on the returned keys.
  int64_t counted = 0;
  uint64_t records = 0;
  std::string cursor = "";
  constexpr size_t kBatch = 1000;
  for (;;) {
    std::vector<ScanRow> rows;
    Status s = db.Scan(table_, cursor, kBatch, nullptr, &rows);
    if (!s.ok()) return s;
    if (rows.empty()) break;
    for (const auto& row : rows) {
      int64_t balance;
      if (!ParseBalance(row.fields, &balance)) {
        return Status::Corruption("unparsable balance for key " + row.key);
      }
      counted += balance;
      ++records;
    }
    if (rows.size() < kBatch) break;
    cursor = rows.back().key + '\0';  // resume after the last row
  }

  // Invariant: accounts + capture bank == the cash loaded initially.
  int64_t expected = total_cash_ - bank_.load(std::memory_order_relaxed);
  int64_t drift = counted - expected;
  result->passed = drift == 0;
  result->anomaly_score =
      operations_executed == 0
          ? (drift == 0 ? 0.0 : 1.0)
          : static_cast<double>(drift < 0 ? -drift : drift) /
                static_cast<double>(operations_executed);
  result->report.emplace_back("TOTAL CASH", std::to_string(expected));
  result->report.emplace_back("COUNTED CASH", std::to_string(counted));
  result->report.emplace_back("COUNTED RECORDS", std::to_string(records));
  result->report.emplace_back("ACTUAL OPERATIONS",
                              std::to_string(operations_executed));
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", result->anomaly_score);
    result->report.emplace_back("ANOMALY SCORE", buf);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace ycsbt
