#ifndef YCSBT_CORE_CORE_WORKLOAD_H_
#define YCSBT_CORE_CORE_WORKLOAD_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/workload.h"
#include "generator/acknowledged_counter_generator.h"
#include "generator/discrete_generator.h"
#include "generator/exponential_generator.h"
#include "generator/generator.h"
#include "generator/zipfian_generator.h"

namespace ycsbt {
namespace core {

/// Workload-level operation names (the `TX-<OP>` series of Listing 3 use
/// these, as do the proportion properties).
namespace txop {
inline constexpr const char kRead[] = "READ";
inline constexpr const char kUpdate[] = "UPDATE";
inline constexpr const char kInsert[] = "INSERT";
inline constexpr const char kScan[] = "SCAN";
inline constexpr const char kDelete[] = "DELETE";
inline constexpr const char kReadModifyWrite[] = "READMODIFYWRITE";
inline constexpr const char kBatchRead[] = "BATCH_READ";
inline constexpr const char kBatchInsert[] = "BATCH_INSERT";
}  // namespace txop

/// The CoreWorkload properties (YCSB names, plus the batch extension).
inline constexpr PropertyDecl kTable = StringProperty("table", "usertable", "table name");
inline constexpr PropertyDecl kRecordCount =
    UintProperty("recordcount", 1000, 1, kNoLimit, "records the load phase inserts");
inline constexpr PropertyDecl kFieldCount =
    IntProperty("fieldcount", 10, 1, kIntMax, "fields per record");
inline constexpr PropertyDecl kFieldNamePrefix =
    StringProperty("fieldnameprefix", "field", "field names are prefix + index");
inline constexpr PropertyDecl kFieldLength =
    UintProperty("fieldlength", 100, "(maximum) bytes per field value");
inline constexpr PropertyDecl kMinFieldLength = UintProperty(
    "minfieldlength", 1, "shortest field for the non-constant distributions");
inline constexpr std::string_view kFieldLengthDistributions[] = {
    "constant", "uniform", "zipfian"};
inline constexpr PropertyDecl kFieldLengthDistribution = EnumProperty(
    "fieldlengthdistribution", "constant", kFieldLengthDistributions,
    "field length distribution");
inline constexpr PropertyDecl kReadAllFields =
    BoolProperty("readallfields", true, "reads fetch every field (else one)");
inline constexpr PropertyDecl kWriteAllFields =
    BoolProperty("writeallfields", false, "updates write every field (else one)");
inline constexpr std::string_view kInsertOrders[] = {"hashed", "ordered"};
inline constexpr PropertyDecl kInsertOrder =
    EnumProperty("insertorder", "hashed", kInsertOrders, "key order of inserted records");
inline constexpr PropertyDecl kDataIntegrity = BoolProperty(
    "dataintegrity", false, "verify every read against its deterministic value");
inline constexpr PropertyDecl kZeroPadding =
    IntProperty("zeropadding", 1, 1, kIntMax, "minimum digits of the key number");
inline constexpr PropertyDecl kInsertStart =
    UintProperty("insertstart", 0, "first key number of the load phase");
inline constexpr PropertyDecl kInsertCount = Derived(
    UintProperty("insertcount", 0, "records this client loads"),
    "recordcount");
inline constexpr PropertyDecl kReadProportion =
    DoubleProperty("readproportion", 0.95, 0.0, 1.0, "share of READ operations");
inline constexpr PropertyDecl kUpdateProportion =
    DoubleProperty("updateproportion", 0.05, 0.0, 1.0, "share of UPDATE operations");
inline constexpr PropertyDecl kInsertProportion =
    DoubleProperty("insertproportion", 0.0, 0.0, 1.0, "share of INSERT operations");
inline constexpr PropertyDecl kScanProportion =
    DoubleProperty("scanproportion", 0.0, 0.0, 1.0, "share of SCAN operations");
inline constexpr PropertyDecl kReadModifyWriteProportion = DoubleProperty(
    "readmodifywriteproportion", 0.0, 0.0, 1.0, "share of READMODIFYWRITE operations");
inline constexpr PropertyDecl kDeleteProportion =
    DoubleProperty("deleteproportion", 0.0, 0.0, 1.0, "share of DELETE operations");
/// BATCH_READ / BATCH_INSERT drive `DB::MultiRead` / `DB::BatchInsert`: the
/// multi-item surface YCSB's one-op-per-call model never exercises.
inline constexpr PropertyDecl kBatchReadProportion = DoubleProperty(
    "batchreadproportion", 0.0, 0.0, 1.0, "share of BATCH_READ operations");
inline constexpr PropertyDecl kBatchInsertProportion = DoubleProperty(
    "batchinsertproportion", 0.0, 0.0, 1.0, "share of BATCH_INSERT operations");
inline constexpr PropertyDecl kBatchSize =
    UintProperty("batch.size", 16, 1, kNoLimit, "largest batch, in keys");
inline constexpr std::string_view kBatchSizeDistributions[] = {
    "uniform", "constant", "zipfian"};
inline constexpr PropertyDecl kBatchSizeDistribution = EnumProperty(
    "batch.size_distribution", "uniform", kBatchSizeDistributions,
    "batch size distribution over [1, batch.size]");
inline constexpr std::string_view kRequestDistributions[] = {
    "uniform", "zipfian", "latest", "hotspot", "sequential", "exponential"};
inline constexpr PropertyDecl kRequestDistribution = EnumProperty(
    "requestdistribution", "uniform", kRequestDistributions,
    "which keys operations pick");
inline constexpr PropertyDecl kZipfianTheta = DoubleProperty(
    "zipfian.theta", ZipfianGenerator::kDefaultTheta, 0.0, kNoLimit,
    "when set, zipfian requests use plain (unscrambled) zipfian of this skew");
inline constexpr PropertyDecl kHotspotDataFraction =
    DoubleProperty("hotspotdatafraction", 0.2, 0.0, 1.0, "share of keys that are hot");
inline constexpr PropertyDecl kHotspotOpnFraction = DoubleProperty(
    "hotspotopnfraction", 0.8, 0.0, 1.0, "share of operations on hot keys");
inline constexpr PropertyDecl kExponentialPercentile = DoubleProperty(
    "exponential.percentile", ExponentialGenerator::kDefaultPercentile, 0.0, 100.0,
    "percentile of requests that fall in the first frac of keys");
inline constexpr PropertyDecl kExponentialFrac =
    DoubleProperty("exponential.frac", 0.8571, 0.0, 1.0, "that fraction of recordcount");
inline constexpr PropertyDecl kMaxScanLength =
    UintProperty("maxscanlength", 1000, 1, kNoLimit, "longest scan, in records");
inline constexpr std::string_view kScanLengthDistributions[] = {"uniform", "zipfian"};
inline constexpr PropertyDecl kScanLengthDistribution = EnumProperty(
    "scanlengthdistribution", "uniform", kScanLengthDistributions,
    "scan length distribution over [1, maxscanlength]");
inline constexpr const PropertyDecl* kCoreWorkloadProperties[] = {
    &kTable, &kRecordCount, &kFieldCount, &kFieldNamePrefix, &kFieldLength,
    &kMinFieldLength, &kFieldLengthDistribution, &kReadAllFields, &kWriteAllFields,
    &kInsertOrder, &kDataIntegrity, &kZeroPadding, &kInsertStart, &kInsertCount,
    &kReadProportion, &kUpdateProportion, &kInsertProportion, &kScanProportion,
    &kReadModifyWriteProportion, &kDeleteProportion, &kBatchReadProportion,
    &kBatchInsertProportion, &kBatchSize, &kBatchSizeDistribution, &kRequestDistribution,
    &kZipfianTheta, &kHotspotDataFraction, &kHotspotOpnFraction, &kExponentialPercentile,
    &kExponentialFrac, &kMaxScanLength, &kScanLengthDistribution};

/// Port of YCSB's CoreWorkload: the configurable mix of read / update /
/// insert / scan / read-modify-write (plus delete and the batch operations,
/// YCSB+T extensions) over a table of synthetic records that realises the
/// standard workloads A-F shipped in `workloads/`, configured by the
/// properties declared above.
class CoreWorkload : public Workload {
 public:
  CoreWorkload() = default;

  Status Init(const Properties& props) override;

  bool DoInsert(DB& db, ThreadState* state) override;
  bool BuildNextInsert(ThreadState* state, LoadRecord* record) override;
  TxnOpResult DoTransaction(DB& db, ThreadState* state) override;
  bool NextTransactionReadOnly(ThreadState* state) override;

  uint64_t record_count() const override { return record_count_; }
  const std::string& table() const { return table_; }

  /// Key-number -> key-string mapping ("user<padded number>", optionally
  /// FNV-scattered), written into the reused buffer `out`; exposed for tests
  /// and the CEW subclass.
  const std::string& BuildKeyName(uint64_t key_num, std::string* out) const;

  /// Reads detected as corrupted when `dataintegrity=true` (values are
  /// deterministic functions of key+field, re-derived and compared on every
  /// read — YCSB's data-integrity mode).
  uint64_t data_integrity_errors() const {
    return integrity_errors_.load(std::memory_order_relaxed);
  }

 protected:
  // Individual operations, overridable by derived workloads (the paper's
  // doTransactionRead/... methods).
  virtual bool DoTransactionRead(DB& db, ThreadState* state);
  virtual bool DoTransactionUpdate(DB& db, ThreadState* state);
  virtual bool DoTransactionInsert(DB& db, ThreadState* state);
  virtual bool DoTransactionScan(DB& db, ThreadState* state);
  virtual bool DoTransactionDelete(DB& db, ThreadState* state);
  virtual bool DoTransactionReadModifyWrite(DB& db, ThreadState* state);
  virtual bool DoTransactionBatchRead(DB& db, ThreadState* state);
  virtual bool DoTransactionBatchInsert(DB& db, ThreadState* state);

  /// Draws the number of keys for one batch operation, in [1, batch.size].
  size_t NextBatchSize(Random64& rng);

  /// Draws a key number guaranteed to be <= the highest acknowledged insert.
  uint64_t NextKeyNum(Random64& rng);

  /// Builds a full set of `fieldcount` field values for `key` into `out`
  /// (random, or deterministic when data integrity checking is on).
  void BuildValues(ThreadState* state, std::string_view key, FieldMap* out);
  /// Builds new value(s) for an update of `key` (one field, or all when
  /// `writeallfields`) into `out`.
  void BuildUpdate(ThreadState* state, std::string_view key, FieldMap* out);
  /// One field value into `out` (from `rng`, or deterministic).
  void FieldValue(Random64& rng, std::string_view key, std::string_view field,
                  std::string* out);

  /// A read's projection: nullptr (`readallfields`) or one drawn field.
  const std::vector<std::string>* NextProjection(Random64& rng) const;

  /// Verifies a read record against the deterministic expectation; counts
  /// and returns false on mismatch.  No-op (true) when integrity is off.
  bool VerifyRecord(std::string_view key, const FieldMap& record);

  size_t NextFieldLength(Random64& rng);

  std::string table_ = "usertable";
  uint64_t record_count_ = 0;
  int field_count_ = 10;
  std::string field_prefix_ = "field";
  size_t field_length_ = 100;
  size_t min_field_length_ = 1;
  std::string field_length_dist_ = "constant";
  bool read_all_fields_ = true;
  bool write_all_fields_ = false;
  bool data_integrity_ = false;
  std::atomic<uint64_t> integrity_errors_{0};
  bool ordered_inserts_ = false;
  int zero_padding_ = 1;
  uint64_t insert_start_ = 0;
  uint64_t insert_count_ = 0;

  DiscreteGenerator<const char*> op_chooser_;
  std::unique_ptr<IntegerGenerator> key_chooser_;
  std::unique_ptr<AcknowledgedCounterGenerator> insert_sequence_;
  std::unique_ptr<CounterGenerator> load_sequence_;
  std::unique_ptr<IntegerGenerator> scan_length_chooser_;
  std::unique_ptr<IntegerGenerator> batch_size_chooser_;
  std::unique_ptr<IntegerGenerator> field_length_generator_;
  std::vector<std::string> field_names_;
  /// {field_names_[i]} for each i, read-only: the one-field projections.
  std::vector<std::vector<std::string>> single_fields_;
};

}  // namespace core
}  // namespace ycsbt

#endif  // YCSBT_CORE_CORE_WORKLOAD_H_
