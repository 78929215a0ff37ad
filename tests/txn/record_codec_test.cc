#include "txn/record_codec.h"

#include <gtest/gtest.h>

namespace ycsbt {
namespace txn {
namespace {

TEST(TxRecordCodecTest, RoundTripPlainRecord) {
  TxRecord record;
  record.commit_ts = 12345;
  record.value = "balance=100";
  std::string encoded = EncodeTxRecord(record);
  TxRecord decoded;
  ASSERT_TRUE(DecodeTxRecord(encoded, &decoded).ok());
  EXPECT_EQ(decoded.commit_ts, 12345u);
  EXPECT_EQ(decoded.value, "balance=100");
  EXPECT_FALSE(decoded.has_prev);
  EXPECT_FALSE(decoded.Locked());
  EXPECT_FALSE(decoded.pending_delete);
}

TEST(TxRecordCodecTest, RoundTripFullyLoadedRecord) {
  TxRecord record;
  record.commit_ts = 99;
  record.value = std::string("\0bin\xFF", 5);
  record.has_prev = true;
  record.prev_commit_ts = 42;
  record.prev_value = "older";
  record.lock_owner = "client-7";
  record.lock_ts = 777777;
  record.pending_value = "tentative";
  record.pending_delete = true;
  std::string encoded = EncodeTxRecord(record);
  TxRecord decoded;
  ASSERT_TRUE(DecodeTxRecord(encoded, &decoded).ok());
  EXPECT_EQ(decoded.commit_ts, 99u);
  EXPECT_EQ(decoded.value, record.value);
  EXPECT_TRUE(decoded.has_prev);
  EXPECT_EQ(decoded.prev_commit_ts, 42u);
  EXPECT_EQ(decoded.prev_value, "older");
  EXPECT_TRUE(decoded.Locked());
  EXPECT_EQ(decoded.lock_owner, "client-7");
  EXPECT_EQ(decoded.lock_ts, 777777u);
  EXPECT_EQ(decoded.pending_value, "tentative");
  EXPECT_TRUE(decoded.pending_delete);
}

TEST(TxRecordCodecTest, RejectsGarbage) {
  TxRecord decoded;
  EXPECT_TRUE(DecodeTxRecord("", &decoded).IsCorruption());
  EXPECT_TRUE(DecodeTxRecord("not a record", &decoded).IsCorruption());
  std::string truncated = EncodeTxRecord(TxRecord{});
  truncated.resize(truncated.size() / 2);
  EXPECT_TRUE(DecodeTxRecord(truncated, &decoded).IsCorruption());
  std::string padded = EncodeTxRecord(TxRecord{}) + "junk";
  EXPECT_TRUE(DecodeTxRecord(padded, &decoded).IsCorruption());
}

TEST(TxRecordCodecTest, RollForwardPromotesPending) {
  // Built whole rather than field by field: assigning a short literal into
  // a default-constructed member string trips GCC 12's -O3
  // -Wmaybe-uninitialized on the string's inline buffer.
  TxRecord record{.commit_ts = 10,
                  .value = "v1",
                  .has_prev = false,
                  .prev_commit_ts = 0,
                  .prev_value = "",
                  .lock_owner = "me",
                  .lock_ts = 5,
                  .pending_value = "v2",
                  .pending_delete = false};
  record.RollForward(20);
  EXPECT_EQ(record.commit_ts, 20u);
  EXPECT_EQ(record.value, "v2");
  EXPECT_TRUE(record.has_prev);
  EXPECT_EQ(record.prev_commit_ts, 10u);
  EXPECT_EQ(record.prev_value, "v1");
  EXPECT_FALSE(record.Locked());
  EXPECT_TRUE(record.pending_value.empty());
}

TEST(TxRecordCodecTest, RollForwardOfFreshInsertHasNoPrev) {
  TxRecord record;  // commit_ts == 0: never committed
  record.lock_owner = "me";
  record.pending_value = "first";
  record.RollForward(30);
  EXPECT_FALSE(record.has_prev);
  EXPECT_EQ(record.commit_ts, 30u);
  EXPECT_EQ(record.value, "first");
}

TEST(TxRecordCodecTest, ClearLockResetsLockBlockOnly) {
  TxRecord record{.commit_ts = 7,
                  .value = "kept",
                  .has_prev = false,
                  .prev_commit_ts = 0,
                  .prev_value = "",
                  .lock_owner = "me",
                  .lock_ts = 1,
                  .pending_value = "dropped",
                  .pending_delete = true};
  record.ClearLock();
  EXPECT_FALSE(record.Locked());
  EXPECT_FALSE(record.pending_delete);
  EXPECT_TRUE(record.pending_value.empty());
  EXPECT_EQ(record.value, "kept");
  EXPECT_EQ(record.commit_ts, 7u);
}

TEST(TsrCodecTest, RoundTrip) {
  TsrRecord committed{TsrRecord::State::kCommitted, 555};
  TsrRecord decoded;
  ASSERT_TRUE(DecodeTsr(EncodeTsr(committed), &decoded).ok());
  EXPECT_EQ(decoded.state, TsrRecord::State::kCommitted);
  EXPECT_EQ(decoded.commit_ts, 555u);

  TsrRecord aborted{TsrRecord::State::kAborted, 0};
  ASSERT_TRUE(DecodeTsr(EncodeTsr(aborted), &decoded).ok());
  EXPECT_EQ(decoded.state, TsrRecord::State::kAborted);
}

TEST(TsrCodecTest, RejectsGarbage) {
  TsrRecord decoded;
  EXPECT_TRUE(DecodeTsr("", &decoded).IsCorruption());
  EXPECT_TRUE(DecodeTsr("xx", &decoded).IsCorruption());
  std::string bad_state = EncodeTsr(TsrRecord{});
  bad_state[1] = 99;  // invalid state byte
  EXPECT_TRUE(DecodeTsr(bad_state, &decoded).IsCorruption());
}

TEST(TxRecordCodecTest, TsrAndRecordTagsDiffer) {
  // A TSR blob must never decode as a TxRecord and vice versa.
  TxRecord record;
  TsrRecord tsr;
  TxRecord r_out;
  TsrRecord t_out;
  EXPECT_TRUE(DecodeTxRecord(EncodeTsr(tsr), &r_out).IsCorruption());
  EXPECT_TRUE(DecodeTsr(EncodeTxRecord(record), &t_out).IsCorruption());
}

}  // namespace
}  // namespace txn
}  // namespace ycsbt
