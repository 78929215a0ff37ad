#include "db/field_codec.h"

#include <gtest/gtest.h>

#include "common/coding.h"

namespace ycsbt {
namespace {

TEST(FieldCodecTest, RoundTripEmpty) {
  FieldMap in, out;
  ASSERT_TRUE(DecodeFields(EncodeFields(in), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FieldCodecTest, RoundTripTypicalRecord) {
  FieldMap in;
  for (int i = 0; i < 10; ++i) {
    in.Set("field" + std::to_string(i), std::string(100, static_cast<char>('a' + i)));
  }
  FieldMap out;
  ASSERT_TRUE(DecodeFields(EncodeFields(in), &out).ok());
  EXPECT_EQ(in, out);
}

TEST(FieldCodecTest, BinarySafe) {
  FieldMap in;
  in.Set(std::string("k\0ey", 4), std::string("\xFF\x00\x01", 3));
  FieldMap out;
  ASSERT_TRUE(DecodeFields(EncodeFields(in), &out).ok());
  EXPECT_EQ(in, out);
}

TEST(FieldCodecTest, ProjectionKeepsOnlyRequested) {
  FieldMap in = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  std::vector<std::string> projection = {"a", "c"};
  FieldMap out;
  ASSERT_TRUE(DecodeFields(EncodeFields(in), &out, &projection).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.Get("a"), "1");
  EXPECT_EQ(out.Get("c"), "3");
  EXPECT_FALSE(out.contains("b"));
}

TEST(FieldCodecTest, NullProjectionKeepsAll) {
  FieldMap in = {{"a", "1"}, {"b", "2"}};
  FieldMap out;
  ASSERT_TRUE(DecodeFields(EncodeFields(in), &out, nullptr).ok());
  EXPECT_EQ(out, in);
}

TEST(FieldCodecTest, MergeReplacesNamedFieldsOnly) {
  FieldMap base = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  FieldMap updates = {{"b", "NEW"}, {"d", "ADDED"}};
  FieldMap out;
  ASSERT_TRUE(MergeFields(EncodeFields(base), updates, &out).ok());
  EXPECT_EQ(out.Get("a"), "1");
  EXPECT_EQ(out.Get("b"), "NEW");
  EXPECT_EQ(out.Get("c"), "3");
  EXPECT_EQ(out.Get("d"), "ADDED");
}

TEST(FieldCodecTest, TwelveFieldRecordMatchesGoldenBytes) {
  // Captured from the std::map-backed codec: fields in name order, so
  // field10 sorts before field2, whatever order they were set in.
  const std::string kGolden(
      "\xf1\x0c\x00\x00\x00"  // format tag, 12 fields
      "\x06\x00\x00\x00" "field0" "\x01\x00\x00\x00" "a"
      "\x06\x00\x00\x00" "field1" "\x02\x00\x00\x00" "bb"
      "\x07\x00\x00\x00" "field10" "\x02\x00\x00\x00" "kk"
      "\x07\x00\x00\x00" "field11" "\x03\x00\x00\x00" "lll"
      "\x06\x00\x00\x00" "field2" "\x03\x00\x00\x00" "ccc"
      "\x06\x00\x00\x00" "field3" "\x01\x00\x00\x00" "d"
      "\x06\x00\x00\x00" "field4" "\x02\x00\x00\x00" "ee"
      "\x06\x00\x00\x00" "field5" "\x03\x00\x00\x00" "fff"
      "\x06\x00\x00\x00" "field6" "\x01\x00\x00\x00" "g"
      "\x06\x00\x00\x00" "field7" "\x02\x00\x00\x00" "hh"
      "\x06\x00\x00\x00" "field8" "\x03\x00\x00\x00" "iii"
      "\x06\x00\x00\x00" "field9" "\x01\x00\x00\x00" "j",
      199);
  FieldMap row;
  for (int i = 0; i < 12; ++i) {
    row.Set("field" + std::to_string(i), std::string(i % 3 + 1, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(EncodeFields(row), kGolden);
  // Replacing a value in the middle re-encodes in place.
  FieldMap decoded;
  ASSERT_TRUE(DecodeFields(kGolden, &decoded).ok());
  EXPECT_EQ(decoded, row);
  decoded.Set("field10", "KKKK");
  decoded.Set("field10", "kk");
  EXPECT_EQ(EncodeFields(decoded), kGolden);
}

TEST(FieldCodecTest, OutOfOrderAndDuplicateNamesDecodeLikeAMap) {
  // Never written by EncodeFields, but a record from elsewhere decodes as
  // the std::map-backed codec did: sorted, the last duplicate winning.
  std::string raw("\xf1\x03\x00\x00\x00", 5);
  for (auto [name, value] : {std::pair{"b", "1"}, {"a", "2"}, {"b", "3"}}) {
    PutLengthPrefixed(&raw, name);
    PutLengthPrefixed(&raw, value);
  }
  FieldMap out;
  ASSERT_TRUE(DecodeFields(raw, &out).ok());
  EXPECT_EQ(out, (FieldMap{{"a", "2"}, {"b", "3"}}));
}

TEST(FieldCodecTest, RejectsGarbage) {
  FieldMap out;
  EXPECT_TRUE(DecodeFields("", &out).IsCorruption());
  EXPECT_TRUE(DecodeFields("garbage", &out).IsCorruption());
  std::string truncated = EncodeFields({{"key", "value"}});
  truncated.resize(truncated.size() - 3);
  EXPECT_TRUE(DecodeFields(truncated, &out).IsCorruption());
  std::string padded = EncodeFields({{"k", "v"}}) + "x";
  EXPECT_TRUE(DecodeFields(padded, &out).IsCorruption());
}

}  // namespace
}  // namespace ycsbt
