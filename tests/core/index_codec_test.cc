#include "core/index_codec.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/random.h"

namespace diffindex {
namespace {

TEST(IndexCodecTest, EscapeRemovesZeroBytes) {
  // Split literals: "a\x00b\x01c" would parse as a, \x0b, \x1c.
  const std::string raw("a\x00" "b\x01" "c", 5);
  ASSERT_NE(raw.find('\0'), std::string::npos);
  const std::string escaped = EscapeIndexComponent(raw);
  EXPECT_EQ(escaped.find('\x00'), std::string::npos);
  std::string back;
  ASSERT_TRUE(UnescapeIndexComponent(escaped, &back));
  EXPECT_EQ(back, raw);
}

TEST(IndexCodecTest, EscapePreservesOrder) {
  Random rng(77);
  std::vector<std::string> raws;
  for (int i = 0; i < 500; i++) {
    std::string s;
    const size_t len = rng.Uniform(12);
    for (size_t j = 0; j < len; j++) {
      s.push_back(static_cast<char>(rng.Uniform(4)));  // bias to 0x00-0x03
    }
    raws.push_back(s);
  }
  for (size_t i = 0; i < raws.size(); i++) {
    for (size_t j = i + 1; j < raws.size(); j++) {
      const int raw_cmp = Slice(raws[i]).compare(Slice(raws[j]));
      const int esc_cmp = Slice(EscapeIndexComponent(raws[i]))
                              .compare(Slice(EscapeIndexComponent(raws[j])));
      ASSERT_EQ(raw_cmp < 0, esc_cmp < 0);
      ASSERT_EQ(raw_cmp == 0, esc_cmp == 0);
    }
  }
}

TEST(IndexCodecTest, IndexRowRoundTrip) {
  const std::string value("price\x00\x01!", 8);
  const std::string row = "user42";
  const std::string index_row = EncodeIndexRow(value, row);
  std::string value_out, row_out;
  ASSERT_TRUE(DecodeIndexRow(index_row, &value_out, &row_out));
  EXPECT_EQ(value_out, value);
  EXPECT_EQ(row_out, row);
}

TEST(IndexCodecTest, IndexRowContainsNoCellSeparator) {
  const std::string value("\x00\x00\x00", 3);
  const std::string index_row = EncodeIndexRow(value, "row");
  EXPECT_EQ(index_row.find('\x00'), std::string::npos);
}

TEST(IndexCodecTest, BaseRowWithEscByteSurvives) {
  // Base rows may contain 0x01; only 0x00 is reserved.
  const std::string row("r\x01ow", 4);
  const std::string index_row = EncodeIndexRow("v", row);
  std::string value_out, row_out;
  ASSERT_TRUE(DecodeIndexRow(index_row, &value_out, &row_out));
  EXPECT_EQ(row_out, row);
}

TEST(IndexCodecTest, EntriesOfOneValueAreContiguous) {
  // Entries of value "ab" must all fall in
  // [IndexScanStartForValue, IndexScanEndForValue), and entries of other
  // values (including extensions like "ab\x00") must not.
  const std::string start = IndexScanStartForValue("ab");
  const std::string end = IndexScanEndForValue("ab");

  const std::string inside1 = EncodeIndexRow("ab", "row1");
  const std::string inside2 = EncodeIndexRow("ab", "zzzz");
  const std::string outside1 = EncodeIndexRow("aa", "row1");
  const std::string outside2 = EncodeIndexRow("abc", "row1");
  const std::string outside3 = EncodeIndexRow(std::string("ab\x00", 3), "r");
  const std::string outside4 = EncodeIndexRow(std::string("ab\x01", 3), "r");

  auto in_range = [&](const std::string& key) {
    return key >= start && key < end;
  };
  EXPECT_TRUE(in_range(inside1));
  EXPECT_TRUE(in_range(inside2));
  EXPECT_FALSE(in_range(outside1));
  EXPECT_FALSE(in_range(outside2));
  EXPECT_FALSE(in_range(outside3));
  EXPECT_FALSE(in_range(outside4));
}

TEST(IndexCodecTest, RangeBoundsMatchValueOrder) {
  // Property: entry(v, r) is in [RangeStart(lo), RangeEnd(hi)) iff
  // lo <= v < hi.
  Random rng(99);
  std::vector<std::string> values;
  for (int i = 0; i < 60; i++) {
    std::string v;
    const size_t len = 1 + rng.Uniform(6);
    for (size_t j = 0; j < len; j++) {
      v.push_back(static_cast<char>(rng.Uniform(6)));
    }
    values.push_back(v);
  }
  for (const auto& lo : values) {
    for (const auto& hi : values) {
      if (!(lo < hi)) continue;
      const std::string start = IndexRangeStart(lo);
      const std::string end = IndexRangeEnd(hi);
      for (const auto& v : values) {
        const std::string entry = EncodeIndexRow(v, "somerow");
        const bool in_encoded = entry >= start && entry < end;
        const bool in_logical = v >= lo && v < hi;
        ASSERT_EQ(in_encoded, in_logical)
            << "v=" << v << " lo=" << lo << " hi=" << hi;
      }
    }
  }
}

TEST(IndexCodecTest, Uint64EncodingOrders) {
  std::vector<uint64_t> values = {0, 1, 255, 256, 1000000, UINT64_MAX};
  for (size_t i = 0; i + 1 < values.size(); i++) {
    EXPECT_LT(EncodeUint64IndexValue(values[i]),
              EncodeUint64IndexValue(values[i + 1]));
  }
  uint64_t decoded;
  ASSERT_TRUE(DecodeUint64IndexValue(EncodeUint64IndexValue(123456), &decoded));
  EXPECT_EQ(decoded, 123456u);
}

TEST(IndexCodecTest, DoubleEncodingOrders) {
  std::vector<double> values = {-1e18, -3.5, -0.0001, 0.0,
                                0.0001, 2.5, 1e18};
  for (size_t i = 0; i + 1 < values.size(); i++) {
    EXPECT_LT(EncodeDoubleIndexValue(values[i]),
              EncodeDoubleIndexValue(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(IndexCodecTest, CompositeOrdersComponentWise) {
  // ("a", "z") < ("ab", "a"): component-wise, not concatenation order.
  const std::string az = EncodeCompositeIndexValue({"a", "z"});
  const std::string aba = EncodeCompositeIndexValue({"ab", "a"});
  EXPECT_LT(az, aba);
  // Equal first components order by the second.
  EXPECT_LT(EncodeCompositeIndexValue({"a", "b"}),
            EncodeCompositeIndexValue({"a", "c"}));
}

TEST(IndexCodecTest, CompositeRoundTripsThroughIndexRow) {
  const std::string composite =
      EncodeCompositeIndexValue({"electronics", "usb-c cable"});
  const std::string index_row = EncodeIndexRow(composite, "item9");
  std::string value_out, row_out;
  ASSERT_TRUE(DecodeIndexRow(index_row, &value_out, &row_out));
  EXPECT_EQ(value_out, composite);
  EXPECT_EQ(row_out, "item9");
}

TEST(IndexCodecTest, UnescapeRejectsMalformed) {
  std::string out;
  EXPECT_FALSE(UnescapeIndexComponent(std::string("\x01", 1), &out));
  EXPECT_FALSE(UnescapeIndexComponent(std::string("\x01\x07", 2), &out));
  EXPECT_FALSE(UnescapeIndexComponent(std::string("a\x01\x01b", 4), &out));
}

TEST(IndexCodecTest, DecodeIndexRowRejectsNoTerminator) {
  std::string value, row;
  EXPECT_FALSE(DecodeIndexRow("plainbytes", &value, &row));
}

}  // namespace
}  // namespace diffindex
