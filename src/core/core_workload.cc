#include "core/core_workload.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
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
  single_fields_.clear();
  for (int i = 0; i < field_count_; ++i) {
    field_names_.push_back(field_prefix_ + std::to_string(i));
    single_fields_.push_back({field_names_.back()});
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

namespace {

constexpr char kAlphabet[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

void RandomString(Random64& rng, size_t length, std::string* out) {
  out->resize(length);
  for (char& c : *out) c = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
}

/// Walks the deterministic value of (key, field), `length` bytes, eight at
/// a time (YCSB's data-integrity mode).  The stream is seeded from key and
/// field, so any reader can re-derive it; `std::hash` of a string_view
/// equals that of the same std::string.  Each 64-bit draw becomes eight
/// characters: every byte keeps its low six bits and is offset to '0',
/// giving the 64 printable symbols '0'..'o' (YCSB's RandomByteIterator
/// expands its draws into characters the same way).  `visit(offset, chunk,
/// n)` gets bytes [offset, offset + n) of the value, n <= 8, in `chunk`; the
/// walk stops when it returns false.  Writers and the verifier both walk
/// this one sequence, so they cannot drift apart.
template <typename Visit>
bool WalkIntegrityValue(std::string_view key, std::string_view field,
                        size_t length, Visit visit) {
  Random64 stream(FNVHash64(std::hash<std::string_view>{}(key)) ^
                  std::hash<std::string_view>{}(field));
  for (size_t offset = 0; offset < length; offset += 8) {
    const uint64_t word =
        (stream.Next() & 0x3F3F3F3F3F3F3F3Full) + 0x3030303030303030ull;
    char chunk[8];
    std::memcpy(chunk, &word, sizeof(chunk));
    if (!visit(offset, chunk, std::min<size_t>(8, length - offset))) return false;
  }
  return true;
}

}  // namespace

const std::string& CoreWorkload::BuildKeyName(uint64_t key_num,
                                              std::string* out) const {
  if (!ordered_inserts_) key_num = FNVHash64(key_num);
  // "user" + the number zero-padded to `zeropadding` digits.  The cap at 31
  // characters keeps the bytes of the former snprintf into a 32-byte buffer.
  char digits[20];
  size_t len = static_cast<size_t>(
      std::to_chars(digits, digits + sizeof(digits), key_num).ptr - digits);
  size_t width = static_cast<size_t>(zero_padding_);
  size_t pad = std::min<size_t>(width > len ? width - len : 0, 31);
  out->assign("user").append(pad, '0').append(digits, len);
  out->resize(std::min<size_t>(out->size(), 4 + 31));
  return *out;
}

size_t CoreWorkload::NextFieldLength(Random64& rng) {
  return static_cast<size_t>(field_length_generator_->Next(rng));
}

void CoreWorkload::FieldValue(Random64& rng, std::string_view key,
                              std::string_view field, std::string* out) {
  if (data_integrity_) {
    out->resize(field_length_);
    WalkIntegrityValue(key, field, field_length_,
                       [out](size_t offset, const char* chunk, size_t n) {
                         std::memcpy(out->data() + offset, chunk, n);
                         return true;
                       });
  } else {
    RandomString(rng, NextFieldLength(rng), out);
  }
}

const std::vector<std::string>* CoreWorkload::NextProjection(Random64& rng) const {
  if (read_all_fields_) return nullptr;
  return &single_fields_[rng.Uniform(single_fields_.size())];
}

bool CoreWorkload::VerifyRecord(std::string_view key, const FieldMap& record) {
  if (!data_integrity_) return true;
  // Each stored byte is compared against the deterministic stream, a word
  // per draw, so no expected value is ever built.
  bool clean = !record.empty();
  for (const auto& [name, value] : record) {
    clean = value.size() == field_length_ &&
            WalkIntegrityValue(key, name, field_length_,
                               [&value](size_t offset, const char* chunk, size_t n) {
                                 const char* stored = value.data() + offset;
                                 return n == 8 ? std::memcmp(stored, chunk, 8) == 0
                                               : std::memcmp(stored, chunk, n) == 0;
                               });
    if (!clean) break;
  }
  if (!clean) integrity_errors_.fetch_add(1, std::memory_order_relaxed);
  return clean;
}

void CoreWorkload::BuildValues(ThreadState* state, std::string_view key,
                               FieldMap* out) {
  out->clear();
  for (const auto& name : field_names_) {
    FieldValue(state->rng, key, name, &state->value);
    out->Set(name, state->value);
  }
}

void CoreWorkload::BuildUpdate(ThreadState* state, std::string_view key,
                               FieldMap* out) {
  if (write_all_fields_) return BuildValues(state, key, out);
  out->clear();
  const std::string& name = field_names_[state->rng.Uniform(field_names_.size())];
  FieldValue(state->rng, key, name, &state->value);
  out->Set(name, state->value);
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
  const std::string& key = BuildKeyName(key_num, &state->key);
  BuildValues(state, key, &state->row);
  return db.Insert(table_, key, state->row).ok();
}

bool CoreWorkload::BuildNextInsert(ThreadState* state, LoadRecord* record) {
  // Same draws in the same order as DoInsert, so a bulk-loaded table is
  // byte-identical to a per-op-loaded one.
  uint64_t key_num = load_sequence_->Next(state->rng);
  record->table = table_;
  BuildKeyName(key_num, &record->key);
  BuildValues(state, record->key, &record->values);
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
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  if (!db.Read(table_, key, NextProjection(state->rng), &state->row).ok()) {
    return false;
  }
  return VerifyRecord(key, state->row);
}

bool CoreWorkload::DoTransactionUpdate(DB& db, ThreadState* state) {
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  BuildUpdate(state, key, &state->row);
  return db.Update(table_, key, state->row).ok();
}

bool CoreWorkload::DoTransactionInsert(DB& db, ThreadState* state) {
  uint64_t key_num = insert_sequence_->Next(state->rng);
  const std::string& key = BuildKeyName(key_num, &state->key);
  BuildValues(state, key, &state->row);
  bool ok = db.Insert(table_, key, state->row).ok();
  // Acknowledge even on failure so the window keeps sliding (YCSB behaviour).
  insert_sequence_->Acknowledge(key_num);
  return ok;
}

bool CoreWorkload::DoTransactionScan(DB& db, ThreadState* state) {
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  size_t len = static_cast<size_t>(scan_length_chooser_->Next(state->rng));
  std::vector<ScanRow> rows;
  return db.Scan(table_, key, len, NextProjection(state->rng), &rows).ok();
}

bool CoreWorkload::DoTransactionDelete(DB& db, ThreadState* state) {
  Status s = db.Delete(table_, BuildKeyName(NextKeyNum(state->rng), &state->key));
  return s.ok() || s.IsNotFound();
}

bool CoreWorkload::DoTransactionReadModifyWrite(DB& db, ThreadState* state) {
  const std::string& key = BuildKeyName(NextKeyNum(state->rng), &state->key);
  if (!db.Read(table_, key, nullptr, &state->row).ok()) return false;
  if (!VerifyRecord(key, state->row)) return false;
  BuildUpdate(state, key, &state->row);
  return db.Update(table_, key, state->row).ok();
}

size_t CoreWorkload::NextBatchSize(Random64& rng) {
  return static_cast<size_t>(batch_size_chooser_->Next(rng));
}

bool CoreWorkload::DoTransactionBatchRead(DB& db, ThreadState* state) {
  std::vector<std::string>& keys = state->keys;
  keys.resize(NextBatchSize(state->rng));
  for (std::string& key : keys) BuildKeyName(NextKeyNum(state->rng), &key);
  db.MultiRead(table_, keys, NextProjection(state->rng), &state->rows);
  bool ok = true;
  for (size_t i = 0; i < state->rows.size(); ++i) {
    const MultiReadRow& row = state->rows[i];
    if (!row.status.ok() || !VerifyRecord(keys[i], row.fields)) ok = false;
  }
  return ok;
}

bool CoreWorkload::DoTransactionBatchInsert(DB& db, ThreadState* state) {
  size_t len = NextBatchSize(state->rng);
  std::vector<uint64_t> key_nums(len);
  std::vector<std::string>& keys = state->keys;
  std::vector<FieldMap> values(len);
  keys.resize(len);
  for (size_t i = 0; i < len; ++i) {
    key_nums[i] = insert_sequence_->Next(state->rng);
    BuildKeyName(key_nums[i], &keys[i]);
    BuildValues(state, keys[i], &values[i]);
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
