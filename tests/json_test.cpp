// Tests for the streaming JSON writer.
#include "rcb/cli/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cfloat>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace rcb {
namespace {

TEST(JsonTest, FlatObject) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("a").value(std::int64_t{1});
  w.key("b").value("two");
  w.key("c").value(true);
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out, R"({"a":1,"b":"two","c":true})");
}

TEST(JsonTest, NestedStructures) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("list").begin_array();
  w.value(std::int64_t{1}).value(std::int64_t{2});
  w.begin_object().key("x").value(false).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, R"({"list":[1,2,{"x":false}]})");
}

TEST(JsonTest, StringEscaping) {
  std::string out;
  JsonWriter w(out);
  w.value(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonTest, ControlCharacterEscaping) {
  std::string out;
  JsonWriter w(out);
  w.value(std::string("x\x01y"));
  EXPECT_EQ(out, "\"x\\u0001y\"");
}

TEST(JsonTest, DoubleFormatting) {
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  w.value(0.5);
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(out, "[0.5,null]");
}

/// What the writer must print for a double: printf "%.17g", or null.
std::string reference_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string written_double(double v) {
  std::string out;
  JsonWriter(out).value(v);
  return out;
}

TEST(JsonTest, DoublesMatchPrintfOnEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           5e-324,
                           -5e-324,
                           DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           1e16,
                           1e17,
                           1e-5,
                           1e-4,
                           0.1,
                           1.0 / 3.0,
                           9007199254740992.0,
                           9007199254740993.0,
                           18446744073709551616.0,
                           123456789012345678.0,
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    EXPECT_EQ(written_double(v), reference_double(v)) << reference_double(v);
  }
  EXPECT_EQ(written_double(kInf), "null");
  EXPECT_EQ(written_double(-0.0), "-0");
}

TEST(JsonTest, DoublesMatchPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    ASSERT_EQ(written_double(v), reference_double(v));
  }
}

TEST(JsonTest, IntegersAndKeysNeedingNoEscape) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("min").value(std::numeric_limits<std::int64_t>::min());
  w.key("max").value(std::numeric_limits<std::uint64_t>::max());
  w.key(std::string(40, 'k')).value(std::string_view("plain \x7f\xc3\xa9"));
  w.end_object();
  EXPECT_EQ(out, "{\"min\":-9223372036854775808,\"max\":18446744073709551615,\"" +
                     std::string(40, 'k') + "\":\"plain \x7f\xc3\xa9\"}");
}

TEST(JsonTest, EmptyContainers) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("arr").begin_array().end_array();
  w.key("obj").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(out, R"({"arr":[],"obj":{}})");
}

TEST(JsonTest, TopLevelArray) {
  std::string out;
  JsonWriter w(out);
  w.begin_array().value("x").value(std::uint64_t{9}).end_array();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out, R"(["x",9])");
}

TEST(JsonDeathTest, ObjectValueWithoutKeyRejected) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  EXPECT_DEATH(w.value("oops"), "precondition");
}

TEST(JsonDeathTest, KeyOutsideObjectRejected) {
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  EXPECT_DEATH(w.key("k"), "precondition");
}

TEST(JsonDeathTest, MismatchedCloseRejected) {
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  EXPECT_DEATH(w.end_object(), "precondition");
}

TEST(JsonDeathTest, TwoTopLevelValuesRejected) {
  std::string out;
  JsonWriter w(out);
  w.value(std::int64_t{1});
  EXPECT_DEATH(w.value(std::int64_t{2}), "precondition");
}

}  // namespace
}  // namespace rcb
