// The typed property schema: the shared parsers, per-value checks, the suite
// forms of the validation pass, the well-formedness of every declaration,
// and README's property tables against the declarations.

#include "common/property_schema.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/properties.h"
#include "db/property_catalog.h"

namespace ycsbt {
namespace {

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

const PropertyDecl* Decl(std::string_view key) {
  return FindPropertyDecl(AllPropertyLists(), key);
}

TEST(PropertySchemaTest, IntegersAreDecimalOnly) {
  EXPECT_EQ(ParseInt("-42"), -42);
  EXPECT_EQ(ParseInt(" 7 "), 7);
  EXPECT_FALSE(ParseInt("8x"));
  EXPECT_FALSE(ParseInt("0x1234"));
  EXPECT_FALSE(ParseInt(""));
  EXPECT_FALSE(ParseInt("1.5"));
  EXPECT_EQ(ParseUint("99"), 99u);
  EXPECT_FALSE(ParseUint("-1"));
  EXPECT_EQ(ParseDouble("2.5"), 2.5);
  EXPECT_FALSE(ParseDouble("0.5x"));
  EXPECT_EQ(ParseBool("ON"), true);
  EXPECT_EQ(ParseBool("no"), false);
  EXPECT_FALSE(ParseBool("ture"));
}

TEST(PropertySchemaTest, SplitListTrimsAndDropsEmptyEntries) {
  EXPECT_EQ(SplitPropertyList(" 1, 2 ,,4 "),
            (std::vector<std::string>{"1", "2", "4"}));
  EXPECT_TRUE(SplitPropertyList("").empty());
}

TEST(PropertySchemaTest, CheckNamesKeyValueAndWhatIsAllowed) {
  Status s = Decl("threads")->Check("threads", "8x");
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("'threads'"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("'8x'"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("an integer in [1, 2147483647]"), std::string::npos)
      << s.ToString();

  s = Decl("insertorder")->Check("insertorder", "orderd");
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("one of hashed, ordered"), std::string::npos)
      << s.ToString();

  s = Decl("breaker.failure_ratio")->Check("breaker.failure_ratio", "2.5");
  EXPECT_NE(s.message().find("a number in [0, 1]"), std::string::npos)
      << s.ToString();
  s = Decl("arrival.flash.duration_s")->Check("arrival.flash.duration_s", "0");
  EXPECT_NE(s.message().find("a number in (0, inf]"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(Decl("memkv.sync_wal")->Check("memkv.sync_wal", "ture")
                  .IsInvalidArgument());
  EXPECT_TRUE(Decl("readproportion")->Check("readproportion", "nan")
                  .IsInvalidArgument());
}

TEST(PropertySchemaTest, ReadsReturnTheDefaultWhenAbsentOrInvalid) {
  const PropertyDecl& threads = *Decl("threads");
  EXPECT_EQ(threads.Get<int>(Properties()), 1);
  EXPECT_EQ(threads.Get<int>(Props({{"threads", "8"}})), 8);
  EXPECT_EQ(threads.Get<int>(Props({{"threads", "0"}})), 1);
  EXPECT_EQ(threads.Get<int>(Props({{"threads", "8x"}}), 5), 5);
  EXPECT_EQ(Decl("db")->Get<std::string>(Properties()), "basic");
  EXPECT_FALSE(Decl("memkv.sync_wal")->Get<bool>(Props({{"memkv.sync_wal", "ture"}})));
}

TEST(PropertySchemaTest, KnowsCoreAndSubsystemKeys) {
  for (const char* key : {"threads", "recordcount", "readproportion", "db",
                          "bulkload.batch", "cew.transfer_accounts", "seed"}) {
    EXPECT_NE(Decl(key), nullptr) << key;
  }
}

TEST(PropertySchemaTest, FlagsTyposInsideKnownNamespaces) {
  // Exact matching, never prefix-family matching: the classic silent typo
  // (`txn.fanout_thread`, missing the trailing `s`) must be caught even
  // though plenty of `txn.*` keys exist.
  EXPECT_NE(Decl("txn.fanout_threads"), nullptr);
  EXPECT_EQ(Decl("txn.fanout_thread"), nullptr);
  EXPECT_EQ(Decl("readsproportion"), nullptr);
  EXPECT_EQ(Decl("thread"), nullptr);
  EXPECT_EQ(Decl("suite.bogus_control"), nullptr);
}

TEST(PropertySchemaTest, ValidationUnwrapsTheSuiteForms) {
  std::vector<std::string> unknown;
  Properties p = Props({{"suite.name", "x"},
                        {"base.threads", "4"},
                        {"base.thread", "4"},
                        {"sweep.threads", "1, 2,4"},
                        {"sweep.threadz", "1"},
                        {"config.mix90_10.readproportion", "0.9"},
                        {"config.mix90_10.readproportionn", "0.9"},
                        {"mix.scanheavy.scanproportion", "0.95"},
                        {"config.orphan", "1"},
                        {"txn.fanout_thread", "4"}});
  ASSERT_TRUE(ValidateProperties(p, &unknown).ok());
  EXPECT_EQ(unknown, (std::vector<std::string>{
                         "base.thread", "config.mix90_10.readproportionn",
                         "config.orphan", "sweep.threadz", "txn.fanout_thread"}));

  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"base.threads", "0"},
           {"sweep.threads", "1,2x"},
           {"config.a.readproportion", "1.5"},
           {"mix.b.insertorder", "orderd"},
           {"seed", "0x1234"}}) {
    Status s = ValidateProperties(Props({{key, value}}));
    ASSERT_TRUE(s.IsInvalidArgument()) << key;
    EXPECT_NE(s.message().find("'" + key + "'"), std::string::npos)
        << s.ToString();
  }
}

TEST(PropertySchemaTest, EveryDeclarationIsWellFormed) {
  std::set<std::string_view> names;
  for (PropertyList list : AllPropertyLists()) {
    for (const PropertyDecl* d : list) {
      SCOPED_TRACE(std::string(d->name));
      EXPECT_TRUE(names.insert(d->name).second) << "declared twice";
      EXPECT_FALSE(d->doc.empty());
      switch (d->type) {
        case PropertyType::kInt:
        case PropertyType::kUint:
        case PropertyType::kDouble:
          EXPECT_LE(d->min, d->max);
          // A derived default is computed by its reader, not declared.
          if (d->derived.empty()) {
            EXPECT_TRUE(d->Check(d->name, d->DefaultText()).ok())
                << "default outside its range";
          }
          break;
        case PropertyType::kBool:
          EXPECT_TRUE(d->number == 0 || d->number == 1);
          break;
        case PropertyType::kEnum:
        case PropertyType::kList:
          EXPECT_FALSE(d->choices.empty());
          EXPECT_TRUE(d->Check(d->name, d->text).ok()) << "default not allowed";
          break;
        case PropertyType::kString:
          break;
      }
    }
  }
}

TEST(PropertySchemaTest, DeclaredKeysAreExactlyTheFormerRegistry) {
  // The hand-kept key list the schema replaced, verbatim.  A key added or
  // removed from now on changes this list on purpose.
  const std::set<std::string_view> registry = {
      "2pl.lock_timeout_us", "arrival.diurnal.low_frac",
      "arrival.diurnal.period_s", "arrival.flash.at_s",
      "arrival.flash.duration_s", "arrival.flash.multiplier",
      "arrival.hotspot_shift.at_s", "arrival.hotspot_shift.multiplier",
      "arrival.max_backlog", "arrival.process", "arrival.rate", "arrival.shape",
      "batch.size", "batch.size_distribution",
      "batchinsertproportion", "batchreadproportion",
      "breaker.cooldown_rejects", "breaker.cooldown_us", "breaker.enabled",
      "breaker.failure_ratio", "breaker.min_samples", "breaker.probes",
      "breaker.window", "bulkload.batch", "cew.transfer_accounts",
      "cloud.client_serial_us", "cloud.containers", "cloud.fault.election_ops",
      "cloud.fault.election_us", "cloud.fault.leader_crash_at",
      "cloud.fault.lost_tail", "cloud.fault.partition_at",
      "cloud.fault.partition_ops", "cloud.fault.partition_region",
      "cloud.latency_scale", "cloud.local_region", "cloud.max_queue_delay_us",
      "cloud.rate_limit", "cloud.read_mode", "cloud.regions",
      "cloud.replica_lag_ops", "cloud.replica_lag_us", "dataintegrity", "db",
      "deleteproportion", "dotransactions",
      "exponential.frac", "exponential.percentile", "fault.crash_points",
      "fault.crash_rate", "fault.error_rate", "fault.latency_spike_rate",
      "fault.latency_spike_us", "fault.lost_reply_rate", "fault.seed",
      "fault.throttle_burst", "fault.throttle_rate", "fieldcount",
      "fieldlength", "fieldlengthdistribution", "fieldnameprefix",
      "hedge.delay_max_us", "hedge.delay_min_us", "hedge.delay_us",
      "hedge.enabled", "hedge.percentile", "hedge.workers",
      "hotspotdatafraction", "hotspotopnfraction", "insertcount", "insertorder",
      "insertproportion", "insertstart", "loadthreads", "loadwrapped",
      "maxexecutiontime", "maxscanlength", "memkv.checkpoint_dir_sync",
      "memkv.checkpoint_path", "memkv.shards", "memkv.sync_wal",
      "memkv.wal_group_commit", "memkv.wal_group_max_batch",
      "memkv.wal_group_window_us", "memkv.wal_path", "minfieldlength",
      "occ.epoch_ms", "occ.read_validation", "occ.retire_batch",
      "operationcount", "readallfields",
      "readmodifywriteproportion", "readproportion", "recordcount",
      "requestdistribution", "retry.backoff_initial_us",
      "retry.backoff_max_us", "retry.backoff_multiplier", "retry.deadline_us",
      "retry.jitter", "retry.max_attempts", "retry.throttle_cooldown_us",
      "scanlengthdistribution", "scanproportion", "seed", "shed.drop_reads",
      "shed.enabled", "shed.max_inflight", "shed.queue_delay_us",
      "shed.windows", "skipload", "skiprun", "status.interval",
      "status.stall_windows", "storage.fault.crash_file",
      "storage.fault.crash_point", "storage.fault.crash_point_pass",
      "storage.fault.crash_write_offset",
      "storage.fault.drop_unsynced_on_crash",
      "storage.fault.enospc_after_bytes", "storage.fault.read_flip_file",
      "storage.fault.read_flip_offset",
      "storage.fault.seed", "storage.fault.sync_fail_at",
      "storage.fault.sync_fail_rate", "storage.fault.torn_write_at",
      "storage.fault.write_error_rate",
      "suite.load", "suite.name", "suite.operations_per_thread",
      "suite.output_dir", "suite.repeats", "table", "target", "threads",
      "totalcash", "txn.cleanup_tsr", "txn.fanout_threads", "txn.isolation",
      "txn.lease_us", "txn.lock_acquire_mode", "txn.lock_wait_delay_us",
      "txn.lock_wait_jitter", "txn.lock_wait_max_delay_us",
      "txn.oracle_rtt_us", "txn.timestamps", "updateproportion", "workload",
      "writeallfields", "writeskew.initial", "zeropadding", "zipfian.theta"};
  ASSERT_EQ(registry.size(), 152u);
  std::set<std::string_view> declared;
  for (PropertyList list : AllPropertyLists()) {
    for (const PropertyDecl* d : list) declared.insert(d->name);
  }
  for (std::string_view key : registry) EXPECT_TRUE(declared.count(key)) << key;
  for (std::string_view key : declared) EXPECT_TRUE(registry.count(key)) << key;
}

/// README's `| property | default | meaning |` tables are the third copy of
/// each default: every row must name a declared key and print its default.
TEST(PropertySchemaTest, ReadmePropertyTablesMatchTheDeclarations) {
  std::ifstream in(std::string(YCSBT_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "README.md not found";
  auto cells = [](const std::string& row) {
    std::vector<std::string> out;
    std::stringstream ss(row);
    std::string cell;
    std::getline(ss, cell, '|');  // before the leading '|'
    while (std::getline(ss, cell, '|')) {
      size_t b = cell.find_first_not_of(' ');
      size_t e = cell.find_last_not_of(' ');
      out.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    return out;
  };
  auto strip_ticks = [](std::string s) {
    std::erase(s, '`');
    return s;
  };
  std::string line;
  bool in_table = false;
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.rfind("| property | default | meaning |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (line.rfind('|', 0) != 0) {
      in_table = false;
      continue;
    }
    if (!in_table || line.rfind("|---", 0) == 0) continue;
    std::vector<std::string> row = cells(line);
    ASSERT_GE(row.size(), 3u) << line;
    std::string key = strip_ticks(row[0]);
    const PropertyDecl* decl = Decl(key);
    ASSERT_NE(decl, nullptr) << "README documents an undeclared key: " << line;
    EXPECT_EQ(strip_ticks(row[1]), decl->DefaultText()) << key;
    ++rows;
  }
  EXPECT_GE(rows, 90);
}

}  // namespace
}  // namespace ycsbt
