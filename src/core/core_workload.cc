#include "core/core_workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "core/runner.h"
#include "generator/exponential_generator.h"
#include "generator/hotspot_generator.h"
#include "generator/scrambled_zipfian_generator.h"
#include "generator/sequential_generator.h"
#include "generator/skewed_latest_generator.h"
#include "generator/uniform_generator.h"
#include "generator/zipfian_generator.h"

namespace ycsbt {
namespace core {

Status CoreWorkload::Init(const Properties& props) {
  Status s = CheckDeclaredProperties(props, kCoreWorkloadProperties);
  if (!s.ok()) return s;
  InitSeed(props);
  table_ = kTable.Get<std::string>(props);
  record_count_ = kRecordCount.Get<uint64_t>(props);
  field_count_ = kFieldCount.Get<int>(props);
  field_prefix_ = kFieldNamePrefix.Get<std::string>(props);
  field_length_ = kFieldLength.Get<uint64_t>(props);
  min_field_length_ = kMinFieldLength.Get<uint64_t>(props);
  field_length_dist_ = kFieldLengthDistribution.Get<std::string>(props);
  read_all_fields_ = kReadAllFields.Get<bool>(props);
  write_all_fields_ = kWriteAllFields.Get<bool>(props);
  ordered_inserts_ = kInsertOrder.Get<std::string>(props) == "ordered";
  data_integrity_ = kDataIntegrity.Get<bool>(props);
  zero_padding_ = kZeroPadding.Get<int>(props);
  insert_start_ = kInsertStart.Get<uint64_t>(props);
  insert_count_ = kInsertCount.Get<uint64_t>(props, record_count_);

  field_names_.clear();
  for (int i = 0; i < field_count_; ++i) {
    field_names_.push_back(field_prefix_ + std::to_string(i));
  }

  if (field_length_dist_ == "constant") {
    field_length_generator_ =
        std::make_unique<ConstantGenerator<uint64_t>>(field_length_);
  } else if (field_length_dist_ == "uniform") {
    field_length_generator_ =
        std::make_unique<UniformLongGenerator>(min_field_length_, field_length_);
  } else {
    field_length_generator_ = std::make_unique<ZipfianGenerator>(
        min_field_length_, field_length_);
  }
  if (data_integrity_ && field_length_dist_ != "constant") {
    // Deterministic re-derivation needs a deterministic length (as in YCSB).
    return Status::InvalidArgument(
        "dataintegrity=true requires fieldlengthdistribution=constant");
  }

  op_chooser_ = DiscreteGenerator<const char*>();
  const std::pair<const PropertyDecl*, const char*> mix[] = {
      {&kReadProportion, txop::kRead},
      {&kUpdateProportion, txop::kUpdate},
      {&kInsertProportion, txop::kInsert},
      {&kScanProportion, txop::kScan},
      {&kReadModifyWriteProportion, txop::kReadModifyWrite},
      {&kDeleteProportion, txop::kDelete},
      {&kBatchReadProportion, txop::kBatchRead},
      {&kBatchInsertProportion, txop::kBatchInsert},
  };
  for (const auto& [decl, op] : mix) {
    double proportion = decl->Get<double>(props);
    if (proportion > 0) op_chooser_.AddValue(op, proportion);
  }
  if (op_chooser_.Empty()) {
    return Status::InvalidArgument("all operation proportions are zero");
  }

  uint64_t max_batch_size = kBatchSize.Get<uint64_t>(props);
  std::string batch_size_dist = kBatchSizeDistribution.Get<std::string>(props);
  if (batch_size_dist == "uniform") {
    batch_size_chooser_ = std::make_unique<UniformLongGenerator>(1, max_batch_size);
  } else if (batch_size_dist == "constant") {
    batch_size_chooser_ =
        std::make_unique<ConstantGenerator<uint64_t>>(max_batch_size);
  } else {
    batch_size_chooser_ = std::make_unique<ZipfianGenerator>(1, max_batch_size);
  }

  uint64_t last_initial_key = insert_start_ + insert_count_ - 1;
  load_sequence_ = std::make_unique<CounterGenerator>(insert_start_);
  insert_sequence_ =
      std::make_unique<AcknowledgedCounterGenerator>(last_initial_key + 1);

  std::string request_dist = kRequestDistribution.Get<std::string>(props);
  if (request_dist == "uniform") {
    key_chooser_ =
        std::make_unique<UniformLongGenerator>(insert_start_, last_initial_key);
  } else if (request_dist == "zipfian") {
    if (kZipfianTheta.Find(props) != nullptr) {
      // Explicit skew sweep (ablation benches): plain zipfian with the given
      // theta.  Hot keys cluster at low key numbers, which is fine for
      // contention studies.
      key_chooser_ = std::make_unique<ZipfianGenerator>(
          insert_start_, last_initial_key, kZipfianTheta.Get<double>(props));
    } else {
      // Inserts during the run expand the key space; size the zipfian
      // universe with the same headroom YCSB uses so new keys stay reachable.
      uint64_t expected_new = static_cast<uint64_t>(
          2.0 * kInsertProportion.Get<double>(props) *
          static_cast<double>(kOperationCount.Get<uint64_t>(props, insert_count_)));
      uint64_t universe = insert_count_ + std::max<uint64_t>(expected_new, 0);
      key_chooser_ = std::make_unique<ScrambledZipfianGenerator>(
          insert_start_, insert_start_ + universe - 1);
    }
  } else if (request_dist == "latest") {
    key_chooser_ = std::make_unique<SkewedLatestGenerator>(insert_sequence_.get());
  } else if (request_dist == "hotspot") {
    key_chooser_ = std::make_unique<HotspotIntegerGenerator>(
        insert_start_, last_initial_key, kHotspotDataFraction.Get<double>(props),
        kHotspotOpnFraction.Get<double>(props));
  } else if (request_dist == "sequential") {
    key_chooser_ =
        std::make_unique<SequentialGenerator>(insert_start_, last_initial_key);
  } else {
    key_chooser_ = std::make_unique<ExponentialGenerator>(
        kExponentialPercentile.Get<double>(props),
        static_cast<double>(record_count_) * kExponentialFrac.Get<double>(props));
  }

  uint64_t max_scan_length = kMaxScanLength.Get<uint64_t>(props);
  if (kScanLengthDistribution.Get<std::string>(props) == "uniform") {
    scan_length_chooser_ = std::make_unique<UniformLongGenerator>(1, max_scan_length);
  } else {
    scan_length_chooser_ = std::make_unique<ZipfianGenerator>(1, max_scan_length);
  }

  return Status::OK();
}

std::string CoreWorkload::BuildKeyName(uint64_t key_num) const {
  if (!ordered_inserts_) key_num = FNVHash64(key_num);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*" PRIu64, zero_padding_, key_num);
  return "user" + std::string(buf);
}

size_t CoreWorkload::NextFieldLength(Random64& rng) {
  return static_cast<size_t>(field_length_generator_->Next(rng));
}

std::string CoreWorkload::RandomString(Random64& rng, size_t length) const {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

std::string CoreWorkload::DeterministicValue(const std::string& key,
                                             const std::string& field) const {
  // Seed a private stream from the key and field so the expected value can
  // be re-derived by any reader (YCSB's data-integrity construction).
  uint64_t seed = FNVHash64(std::hash<std::string>{}(key)) ^
                  std::hash<std::string>{}(field);
  Random64 rng(seed);
  return RandomString(rng, field_length_);
}

bool CoreWorkload::VerifyRecord(const std::string& key, const FieldMap& record) {
  if (!data_integrity_) return true;
  bool clean = !record.empty();
  for (const auto& [name, value] : record) {
    if (value != DeterministicValue(key, name)) {
      clean = false;
      break;
    }
  }
  if (!clean) integrity_errors_.fetch_add(1, std::memory_order_relaxed);
  return clean;
}

FieldMap CoreWorkload::BuildValues(Random64& rng, const std::string& key) {
  FieldMap values;
  for (const auto& name : field_names_) {
    values[name] = data_integrity_ ? DeterministicValue(key, name)
                                   : RandomString(rng, NextFieldLength(rng));
  }
  return values;
}

FieldMap CoreWorkload::BuildUpdate(Random64& rng, const std::string& key) {
  if (write_all_fields_) return BuildValues(rng, key);
  FieldMap values;
  const std::string& name =
      field_names_[rng.Uniform(field_names_.size())];
  values[name] = data_integrity_ ? DeterministicValue(key, name)
                                 : RandomString(rng, NextFieldLength(rng));
  return values;
}

uint64_t CoreWorkload::NextKeyNum(Random64& rng) {
  uint64_t limit = insert_sequence_->Last();
  uint64_t key_num;
  do {
    key_num = key_chooser_->Next(rng);
  } while (key_num > limit);
  return key_num;
}

bool CoreWorkload::DoInsert(DB& db, ThreadState* state) {
  uint64_t key_num = load_sequence_->Next(state->rng);
  std::string key = BuildKeyName(key_num);
  FieldMap values = BuildValues(state->rng, key);
  return db.Insert(table_, key, values).ok();
}

bool CoreWorkload::BuildNextInsert(ThreadState* state, LoadRecord* record) {
  // Same draws in the same order as DoInsert, so a bulk-loaded table is
  // byte-identical to a per-op-loaded one.
  uint64_t key_num = load_sequence_->Next(state->rng);
  record->table = table_;
  record->key = BuildKeyName(key_num);
  record->values = BuildValues(state->rng, record->key);
  return true;
}

bool CoreWorkload::NextTransactionReadOnly(ThreadState* state) {
  // Draw the next operation once and park it on the thread state;
  // DoTransaction consumes the parked draw, so peeking is stream-neutral.
  if (state->peeked_op == nullptr) {
    state->peeked_op = op_chooser_.Next(state->rng);
  }
  return state->peeked_op == txop::kRead || state->peeked_op == txop::kScan ||
         state->peeked_op == txop::kBatchRead;
}

TxnOpResult CoreWorkload::DoTransaction(DB& db, ThreadState* state) {
  const char* op = state->peeked_op != nullptr
                       ? std::exchange(state->peeked_op, nullptr)
                       : op_chooser_.Next(state->rng);
  TxnOpResult result;
  result.op = op;
  if (op == txop::kRead) {
    result.ok = DoTransactionRead(db, state);
  } else if (op == txop::kUpdate) {
    result.ok = DoTransactionUpdate(db, state);
  } else if (op == txop::kInsert) {
    result.ok = DoTransactionInsert(db, state);
  } else if (op == txop::kScan) {
    result.ok = DoTransactionScan(db, state);
  } else if (op == txop::kDelete) {
    result.ok = DoTransactionDelete(db, state);
  } else if (op == txop::kBatchRead) {
    result.ok = DoTransactionBatchRead(db, state);
  } else if (op == txop::kBatchInsert) {
    result.ok = DoTransactionBatchInsert(db, state);
  } else {
    result.ok = DoTransactionReadModifyWrite(db, state);
  }
  return result;
}

bool CoreWorkload::DoTransactionRead(DB& db, ThreadState* state) {
  std::string key = BuildKeyName(NextKeyNum(state->rng));
  FieldMap result;
  Status s;
  if (read_all_fields_) {
    s = db.Read(table_, key, nullptr, &result);
  } else {
    std::vector<std::string> fields = {
        field_names_[state->rng.Uniform(field_names_.size())]};
    s = db.Read(table_, key, &fields, &result);
  }
  if (!s.ok()) return false;
  return VerifyRecord(key, result);
}

bool CoreWorkload::DoTransactionUpdate(DB& db, ThreadState* state) {
  std::string key = BuildKeyName(NextKeyNum(state->rng));
  return db.Update(table_, key, BuildUpdate(state->rng, key)).ok();
}

bool CoreWorkload::DoTransactionInsert(DB& db, ThreadState* state) {
  uint64_t key_num = insert_sequence_->Next(state->rng);
  std::string key = BuildKeyName(key_num);
  bool ok = db.Insert(table_, key, BuildValues(state->rng, key)).ok();
  // Acknowledge even on failure so the window keeps sliding (YCSB behaviour).
  insert_sequence_->Acknowledge(key_num);
  return ok;
}

bool CoreWorkload::DoTransactionScan(DB& db, ThreadState* state) {
  std::string key = BuildKeyName(NextKeyNum(state->rng));
  size_t len = static_cast<size_t>(scan_length_chooser_->Next(state->rng));
  std::vector<ScanRow> rows;
  if (read_all_fields_) {
    return db.Scan(table_, key, len, nullptr, &rows).ok();
  }
  std::vector<std::string> fields = {
      field_names_[state->rng.Uniform(field_names_.size())]};
  return db.Scan(table_, key, len, &fields, &rows).ok();
}

bool CoreWorkload::DoTransactionDelete(DB& db, ThreadState* state) {
  std::string key = BuildKeyName(NextKeyNum(state->rng));
  Status s = db.Delete(table_, key);
  return s.ok() || s.IsNotFound();
}

bool CoreWorkload::DoTransactionReadModifyWrite(DB& db, ThreadState* state) {
  std::string key = BuildKeyName(NextKeyNum(state->rng));
  FieldMap result;
  if (!db.Read(table_, key, nullptr, &result).ok()) return false;
  if (!VerifyRecord(key, result)) return false;
  return db.Update(table_, key, BuildUpdate(state->rng, key)).ok();
}

size_t CoreWorkload::NextBatchSize(Random64& rng) {
  return static_cast<size_t>(batch_size_chooser_->Next(rng));
}

bool CoreWorkload::DoTransactionBatchRead(DB& db, ThreadState* state) {
  size_t len = NextBatchSize(state->rng);
  std::vector<std::string> keys;
  keys.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    keys.push_back(BuildKeyName(NextKeyNum(state->rng)));
  }
  std::vector<MultiReadRow> rows;
  if (read_all_fields_) {
    db.MultiRead(table_, keys, nullptr, &rows);
  } else {
    std::vector<std::string> fields = {
        field_names_[state->rng.Uniform(field_names_.size())]};
    db.MultiRead(table_, keys, &fields, &rows);
  }
  bool ok = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].status.ok() || !VerifyRecord(keys[i], rows[i].fields)) {
      ok = false;
    }
  }
  return ok;
}

bool CoreWorkload::DoTransactionBatchInsert(DB& db, ThreadState* state) {
  size_t len = NextBatchSize(state->rng);
  std::vector<uint64_t> key_nums;
  std::vector<std::string> keys;
  std::vector<FieldMap> values;
  key_nums.reserve(len);
  keys.reserve(len);
  values.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    uint64_t key_num = insert_sequence_->Next(state->rng);
    key_nums.push_back(key_num);
    keys.push_back(BuildKeyName(key_num));
    values.push_back(BuildValues(state->rng, keys.back()));
  }
  std::vector<Status> statuses;
  db.BatchInsert(table_, keys, values, &statuses);
  // Acknowledge every key even on failure so the window keeps sliding,
  // matching the single-insert convention.
  for (uint64_t key_num : key_nums) insert_sequence_->Acknowledge(key_num);
  for (const Status& s : statuses) {
    if (!s.ok()) return false;
  }
  return true;
}

}  // namespace core
}  // namespace ycsbt
