// Tests for the JSON parser.
#include "rcb/cli/json_parse.hpp"

#include <gtest/gtest.h>

#include <string>

#include "rcb/cli/json.hpp"

namespace rcb {
namespace {

JsonValue must_parse(const std::string& text) {
  const JsonParseResult r = json_parse(text);
  EXPECT_TRUE(r.ok) << text << " -> " << r.error << " @" << r.error_offset;
  return r.value;
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(must_parse("null").is_null());
  EXPECT_EQ(must_parse("true").as_bool(), true);
  EXPECT_EQ(must_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(must_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(must_parse("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(must_parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(must_parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(must_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(must_parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(must_parse(R"("Aé")").as_string(), "A\xC3\xA9");
  EXPECT_EQ(must_parse(R"("€")").as_string(), "\xE2\x82\xAC");
}

TEST(JsonParseTest, Containers) {
  const JsonValue v = must_parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_TRUE(v.find("c")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_TRUE(must_parse("[]").as_array().empty());
  EXPECT_TRUE(must_parse("{}").as_object().empty());
  EXPECT_TRUE(must_parse("  { }  ").as_object().empty());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  const JsonValue v = must_parse(" {\n\t\"x\" :\r [ 1 , 2 ] } ");
  EXPECT_EQ(v.find("x")->as_array().size(), 2u);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
        "[1] garbage", "{'a':1}", "+1", "1.", "1e", "\"\\q\"", "nul",
        "{\"a\" 1}", "[1 2]", "\"\\ud800\""}) {
    const JsonParseResult r = json_parse(bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty()) << bad;
  }
}

TEST(JsonParseTest, DeepNestingRejectedGracefully) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  const JsonParseResult r = json_parse(deep);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deep"), std::string::npos);
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("name").value("rcb \"sim\"\n");
  w.key("trials").value(std::int64_t{128});
  w.key("rate").value(0.375);
  w.key("flags").begin_array();
  w.value(true).value(false);
  w.end_array();
  w.end_object();

  const JsonValue v = must_parse(out);
  EXPECT_EQ(v.find("name")->as_string(), "rcb \"sim\"\n");
  EXPECT_DOUBLE_EQ(v.find("trials")->as_number(), 128.0);
  EXPECT_DOUBLE_EQ(v.find("rate")->as_number(), 0.375);
  EXPECT_EQ(v.find("flags")->as_array().size(), 2u);
}

TEST(JsonParseTest, ErrorOffsetsPointAtProblem) {
  const JsonParseResult r = json_parse("{\"a\": 1, \"b\": tru}");
  EXPECT_FALSE(r.ok);
  EXPECT_GE(r.error_offset, 14u);
}

TEST(JsonParseDeathTest, WrongAccessorRejected) {
  const JsonValue v = json_parse("42").value;
  EXPECT_DEATH((void)v.as_string(), "precondition");
}

}  // namespace
}  // namespace rcb
