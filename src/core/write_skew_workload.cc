#include "core/write_skew_workload.h"

#include <cinttypes>
#include <cstdio>

#include "core/core_workload.h"
#include "generator/uniform_generator.h"
#include "generator/zipfian_generator.h"

namespace ycsbt {
namespace core {

namespace {
constexpr char kField[] = "balance";

bool ParseBalance(const FieldMap& fields, int64_t* out) {
  return ParseBalanceText(fields.Get(kField), out);
}

FieldMap BalanceRecord(int64_t balance) {
  return FieldMap{{kField, BalanceText(balance).view()}};
}

}  // namespace

Status WriteSkewWorkload::Init(const Properties& props) {
  // Besides its own key it reads four of CoreWorkload's.
  Status s = CheckDeclaredProperties(props, kWriteSkewProperties);
  if (s.ok()) s = CheckDeclaredProperties(props, kCoreWorkloadProperties);
  if (!s.ok()) return s;
  InitSeed(props);
  uint64_t records = kRecordCount.Get<uint64_t>(props, 200);
  if (records < 2 || records % 2 != 0) {
    return Status::InvalidArgument("recordcount must be even and >= 2");
  }
  pair_count_ = records / 2;
  table_ = kTable.Get<std::string>(props, "skewtable");
  initial_balance_ = kWriteSkewInitial.Get<int64_t>(props);
  read_proportion_ = kReadProportion.Get<double>(props, 0.0);

  std::string dist = kRequestDistribution.Get<std::string>(props);
  if (dist == "uniform") {
    pair_chooser_ = std::make_unique<UniformLongGenerator>(0, pair_count_ - 1);
  } else if (dist == "zipfian") {
    pair_chooser_ = std::make_unique<ZipfianGenerator>(0, pair_count_ - 1);
  } else {
    return Status::InvalidArgument("unknown requestdistribution: " + dist);
  }
  load_sequence_ = std::make_unique<CounterGenerator>(0);
  return Status::OK();
}

std::string WriteSkewWorkload::PairKey(uint64_t pair, int side) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pair%012" PRIu64 "%c", pair,
                side == 0 ? 'x' : 'y');
  return buf;
}

bool WriteSkewWorkload::DoInsert(DB& db, ThreadState* state) {
  uint64_t record = load_sequence_->Next(state->rng);
  std::string key = PairKey(record / 2, static_cast<int>(record % 2));
  return db.Insert(table_, key, BalanceRecord(initial_balance_)).ok();
}

TxnOpResult WriteSkewWorkload::DoTransaction(DB& db, ThreadState* state) {
  TxnOpResult result;
  if (state->rng.NextDouble() < read_proportion_) {
    result.op = "AUDIT";
    result.ok = DoAudit(db, state);
  } else {
    result.op = "WITHDRAW";
    result.ok = DoWithdraw(db, state);
  }
  return result;
}

bool WriteSkewWorkload::DoAudit(DB& db, ThreadState* state) {
  uint64_t pair = pair_chooser_->Next(state->rng);
  FieldMap rx, ry;
  if (!db.Read(table_, PairKey(pair, 0), nullptr, &rx).ok()) return false;
  if (!db.Read(table_, PairKey(pair, 1), nullptr, &ry).ok()) return false;
  int64_t x, y;
  return ParseBalance(rx, &x) && ParseBalance(ry, &y);
}

bool WriteSkewWorkload::DoWithdraw(DB& db, ThreadState* state) {
  uint64_t pair = pair_chooser_->Next(state->rng);
  std::string kx = PairKey(pair, 0);
  std::string ky = PairKey(pair, 1);

  // Read BOTH sides (the constraint involves both), then debit ONE.
  FieldMap rx, ry;
  if (!db.Read(table_, kx, nullptr, &rx).ok()) return false;
  if (!db.Read(table_, ky, nullptr, &ry).ok()) return false;
  int64_t x, y;
  if (!ParseBalance(rx, &x) || !ParseBalance(ry, &y)) return false;

  int64_t combined = x + y;
  if (combined <= 0) return true;  // nothing to withdraw; constraint-safe no-op

  // The application-level constraint check: withdraw at most the combined
  // balance.  Withdrawing the full amount maximises the skew window.
  int64_t amount =
      1 + static_cast<int64_t>(state->rng.Uniform(static_cast<uint64_t>(combined)));
  bool debit_x = state->rng.Uniform(2) == 0;
  const std::string& key = debit_x ? kx : ky;
  int64_t new_balance = (debit_x ? x : y) - amount;
  // Blind full-record write (one store request), like CEW.
  return db.Insert(table_, key, BalanceRecord(new_balance)).ok();
}

Status WriteSkewWorkload::Validate(DB& db, uint64_t operations_executed,
                                   ValidationResult* result) {
  *result = ValidationResult{};
  result->performed = true;

  uint64_t violated_pairs = 0;
  int64_t total_overdraft = 0;
  uint64_t pairs_seen = 0;

  std::string cursor = "";
  constexpr size_t kBatch = 1000;  // even: pairs stay batch-aligned
  std::string pending_key;
  int64_t pending_value = 0;
  bool have_pending = false;
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
      if (!have_pending) {
        pending_key = row.key;
        pending_value = balance;
        have_pending = true;
        continue;
      }
      // pending must be the 'x' of this row's pair ("...x" then "...y").
      if (pending_key.substr(0, pending_key.size() - 1) !=
          row.key.substr(0, row.key.size() - 1)) {
        return Status::Corruption("unpaired record: " + pending_key);
      }
      int64_t sum = pending_value + balance;
      ++pairs_seen;
      if (sum < 0) {
        ++violated_pairs;
        total_overdraft += -sum;
      }
      have_pending = false;
    }
    if (rows.size() < kBatch) break;
    cursor = rows.back().key + '\0';
  }
  if (have_pending) return Status::Corruption("odd record count in skew table");

  result->passed = violated_pairs == 0;
  result->anomaly_score =
      operations_executed == 0
          ? (violated_pairs == 0 ? 0.0 : 1.0)
          : static_cast<double>(violated_pairs) /
                static_cast<double>(operations_executed);
  result->report.emplace_back("PAIRS", std::to_string(pairs_seen));
  result->report.emplace_back("VIOLATED PAIRS", std::to_string(violated_pairs));
  result->report.emplace_back("TOTAL OVERDRAFT", std::to_string(total_overdraft));
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
