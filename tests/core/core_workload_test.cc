#include "core/core_workload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "db/basic_db.h"
#include "db/field_codec.h"
#include "db/kvstore_db.h"

namespace ycsbt {
namespace core {
namespace {

Properties Props(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Properties p;
  for (auto& [k, v] : kv) p.Set(k, v);
  return p;
}

TEST(CoreWorkloadTest, InitRejectsBadConfig) {
  CoreWorkload w;
  EXPECT_TRUE(w.Init(Props({{"requestdistribution", "pareto"}})).IsInvalidArgument());
  EXPECT_TRUE(w.Init(Props({{"recordcount", "0"}})).IsInvalidArgument());
  EXPECT_TRUE(
      w.Init(Props({{"readproportion", "0"}, {"updateproportion", "0"}}))
          .IsInvalidArgument());
  EXPECT_TRUE(
      w.Init(Props({{"fieldlengthdistribution", "normal"}})).IsInvalidArgument());
  EXPECT_TRUE(
      w.Init(Props({{"scanlengthdistribution", "normal"}})).IsInvalidArgument());
}

TEST(CoreWorkloadTest, HashedVsOrderedKeys) {
  CoreWorkload hashed;
  ASSERT_TRUE(hashed.Init(Props({{"insertorder", "hashed"}})).ok());
  CoreWorkload ordered;
  ASSERT_TRUE(ordered.Init(Props({{"insertorder", "ordered"}})).ok());
  std::string k1, k2;
  EXPECT_EQ(ordered.BuildKeyName(7, &k1), "user7");
  EXPECT_NE(hashed.BuildKeyName(7, &k1), "user7");
  // Deterministic either way.
  EXPECT_EQ(hashed.BuildKeyName(7, &k1), hashed.BuildKeyName(7, &k2));
}

TEST(CoreWorkloadTest, ZeroPaddingWidensKeys) {
  CoreWorkload w;
  ASSERT_TRUE(
      w.Init(Props({{"insertorder", "ordered"}, {"zeropadding", "8"}})).ok());
  std::string key;
  EXPECT_EQ(w.BuildKeyName(42, &key), "user00000042");
}

TEST(CoreWorkloadTest, KeyNamesMatchThePrintfForm) {
  for (const char* order : {"hashed", "ordered"}) {
    for (int padding : {1, 8, 25, 40}) {
      CoreWorkload w;
      ASSERT_TRUE(w.Init(Props({{"insertorder", order},
                                {"zeropadding", std::to_string(padding)}}))
                      .ok());
      for (uint64_t n : {uint64_t{0}, uint64_t{42}, UINT64_MAX}) {
        uint64_t printed = std::string(order) == "hashed" ? FNVHash64(n) : n;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%0*" PRIu64, padding, printed);
        std::string reused = "stale contents of a reused buffer";
        EXPECT_EQ(w.BuildKeyName(n, &reused), "user" + std::string(buf))
            << order << padding;
      }
    }
  }
}

TEST(CoreWorkloadTest, LoadPhaseInsertsExactlyRecordcountDistinctKeys) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "250"}, {"fieldcount", "2"}})).ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < w.record_count(); ++i) {
    ASSERT_TRUE(w.DoInsert(db, state.get()));
  }
  EXPECT_EQ(store->Count(), 250u);
}

TEST(CoreWorkloadTest, OperationMixMatchesProportions) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "100"},
                            {"readproportion", "0.6"},
                            {"updateproportion", "0.2"},
                            {"scanproportion", "0.1"},
                            {"insertproportion", "0.1"},
                            {"maxscanlength", "10"}}))
                  .ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));

  std::map<std::string, int> ops;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok) << r.op;
    ++ops[r.op];
  }
  EXPECT_NEAR(ops["READ"], kOps * 0.6, kOps * 0.03);
  EXPECT_NEAR(ops["UPDATE"], kOps * 0.2, kOps * 0.03);
  EXPECT_NEAR(ops["SCAN"], kOps * 0.1, kOps * 0.02);
  EXPECT_NEAR(ops["INSERT"], kOps * 0.1, kOps * 0.02);
}

TEST(CoreWorkloadTest, AllOperationTypesSucceedAgainstRealStore) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "50"},
                            {"readproportion", "0.2"},
                            {"updateproportion", "0.2"},
                            {"scanproportion", "0.2"},
                            {"insertproportion", "0.1"},
                            {"readmodifywriteproportion", "0.2"},
                            {"deleteproportion", "0.1"},
                            {"maxscanlength", "5"}}))
                  .ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    // Deletes may race nothing here (single thread), but reads of previously
    // deleted keys legitimately fail; count rather than assert.
    if (!w.DoTransaction(db, state.get()).ok) ++failures;
  }
  // Reads/updates of deleted keys are the only failure mode and should be a
  // modest fraction under this mix.
  EXPECT_LT(failures, 1000);
}

TEST(CoreWorkloadTest, RequestDistributionsProduceValidKeys) {
  for (const char* dist :
       {"uniform", "zipfian", "latest", "hotspot", "sequential", "exponential"}) {
    CoreWorkload w;
    ASSERT_TRUE(w.Init(Props({{"recordcount", "100"},
                              {"requestdistribution", dist},
                              {"readproportion", "1.0"},
                              {"updateproportion", "0"}}))
                    .ok())
        << dist;
    auto store = std::make_shared<kv::ShardedStore>();
    KvStoreDB db(store);
    auto state = w.InitThread(0, 1);
    for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));
    for (int i = 0; i < 500; ++i) {
      TxnOpResult r = w.DoTransaction(db, state.get());
      EXPECT_TRUE(r.ok) << dist << " read failed (key outside loaded range?)";
    }
  }
}

TEST(CoreWorkloadTest, FieldLengthDistributionsRespectBounds) {
  for (const char* dist : {"constant", "uniform", "zipfian"}) {
    CoreWorkload w;
    ASSERT_TRUE(w.Init(Props({{"recordcount", "10"},
                              {"fieldcount", "3"},
                              {"fieldlength", "64"},
                              {"minfieldlength", "8"},
                              {"fieldlengthdistribution", dist}}))
                    .ok());
    auto store = std::make_shared<kv::ShardedStore>();
    KvStoreDB db(store);
    auto state = w.InitThread(0, 1);
    ASSERT_TRUE(w.DoInsert(db, state.get()));
    std::vector<kv::ScanEntry> entries;
    ASSERT_TRUE(store->Scan("", 10, &entries).ok());
    ASSERT_EQ(entries.size(), 1u);
    FieldMap fields;
    ASSERT_TRUE(DecodeFields(entries[0].value, &fields).ok());
    ASSERT_EQ(fields.size(), 3u);
    for (const auto& [name, value] : fields) {
      EXPECT_LE(value.size(), 64u) << dist;
      if (std::string(dist) != "constant") {
        EXPECT_GE(value.size(), 1u);
      }
    }
  }
}

TEST(CoreWorkloadTest, DataIntegrityRequiresConstantFieldLength) {
  CoreWorkload w;
  EXPECT_TRUE(w.Init(Props({{"dataintegrity", "true"},
                            {"fieldlengthdistribution", "uniform"}}))
                  .IsInvalidArgument());
  EXPECT_TRUE(w.Init(Props({{"dataintegrity", "true"}})).ok());
}

TEST(CoreWorkloadTest, DataIntegrityPassesOnCleanStore) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "100"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "3"},
                            {"readproportion", "0.6"},
                            {"updateproportion", "0.2"},
                            {"readmodifywriteproportion", "0.2"}}))
                  .ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));
  for (int i = 0; i < 3000; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok) << r.op << " flagged a clean record";
  }
  EXPECT_EQ(w.data_integrity_errors(), 0u);
}

TEST(CoreWorkloadTest, DataIntegrityDetectsCorruption) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "50"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "2"},
                            {"readproportion", "1.0"},
                            {"updateproportion", "0"}}))
                  .ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));

  // Corrupt every record in place (bit rot / buggy store).
  std::vector<kv::ScanEntry> entries;
  ASSERT_TRUE(store->Scan("", 1000, &entries).ok());
  ASSERT_EQ(entries.size(), 50u);
  for (const auto& entry : entries) {
    FieldMap fields;
    ASSERT_TRUE(DecodeFields(entry.value, &fields).ok());
    auto [name, value] = *fields.begin();
    std::string flipped(value);
    flipped[0] ^= 1;
    fields.Set(std::string(name), flipped);
    ASSERT_TRUE(store->Put(entry.key, EncodeFields(fields)).ok());
  }

  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!w.DoTransaction(db, state.get()).ok) ++failures;
  }
  EXPECT_EQ(failures, 200) << "every read must flag the corruption";
  EXPECT_EQ(w.data_integrity_errors(), 200u);
}

TEST(CoreWorkloadTest, DataIntegrityCatchesEveryFlippedByte) {
  // The verifier compares a word of bytes per draw; a flip in any byte of
  // any field, the partial last word included (100 = 12 * 8 + 4), must
  // still fail the read, and restoring the byte must pass it again.
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "1"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "3"},
                            {"fieldlength", "100"},
                            {"readproportion", "1.0"},
                            {"updateproportion", "0"}}))
                  .ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  ASSERT_TRUE(w.DoInsert(db, state.get()));
  std::vector<kv::ScanEntry> entries;
  ASSERT_TRUE(store->Scan("", 10, &entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  const std::string& key = entries[0].key;
  FieldMap clean;
  ASSERT_TRUE(DecodeFields(entries[0].value, &clean).ok());
  ASSERT_EQ(clean.size(), 3u);

  uint64_t flips = 0;
  for (const auto& [name, value] : clean) {
    ASSERT_EQ(value.size(), 100u);
    for (size_t i = 0; i < value.size(); ++i) {
      FieldMap fields;
      ASSERT_TRUE(DecodeFields(entries[0].value, &fields).ok());
      std::string flipped(value);
      flipped[i] ^= 1;
      fields.Set(std::string(name), flipped);
      ASSERT_TRUE(store->Put(key, EncodeFields(fields)).ok());
      EXPECT_FALSE(w.DoTransaction(db, state.get()).ok)
          << "flip of byte " << i << " of " << name << " went unseen";
      ++flips;
      ASSERT_EQ(w.data_integrity_errors(), flips);
    }
  }
  ASSERT_TRUE(store->Put(key, entries[0].value).ok());
  EXPECT_TRUE(w.DoTransaction(db, state.get()).ok);
  EXPECT_EQ(w.data_integrity_errors(), 300u);
}

TEST(CoreWorkloadTest, DataIntegritySurvivesUpdatesAndInserts) {
  // Updates and run-phase inserts must write the same deterministic values,
  // or later reads would flag them.
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "50"},
                            {"dataintegrity", "true"},
                            {"fieldcount", "2"},
                            {"writeallfields", "false"},
                            {"readproportion", "0.4"},
                            {"updateproportion", "0.3"},
                            {"insertproportion", "0.1"},
                            {"readmodifywriteproportion", "0.2"},
                            {"requestdistribution", "uniform"}}))
                  .ok());
  KvStoreDB db(std::make_shared<kv::ShardedStore>());
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));
  for (int i = 0; i < 2000; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok) << r.op;
  }
  EXPECT_EQ(w.data_integrity_errors(), 0u);
}

TEST(CoreWorkloadTest, InsertsDuringRunBecomeReadable) {
  CoreWorkload w;
  ASSERT_TRUE(w.Init(Props({{"recordcount", "20"},
                            {"operationcount", "1000"},
                            {"requestdistribution", "latest"},
                            {"readproportion", "0.5"},
                            {"updateproportion", "0"},
                            {"insertproportion", "0.5"}}))
                  .ok());
  auto store = std::make_shared<kv::ShardedStore>();
  KvStoreDB db(store);
  auto state = w.InitThread(0, 1);
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(w.DoInsert(db, state.get()));
  for (int i = 0; i < 1000; ++i) {
    TxnOpResult r = w.DoTransaction(db, state.get());
    ASSERT_TRUE(r.ok) << "op " << r.op << " at " << i;
  }
  EXPECT_GT(store->Count(), 20u);
}

}  // namespace
}  // namespace core
}  // namespace ycsbt
