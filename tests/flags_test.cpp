// Tests for the command-line flag parser.
#include "rcb/cli/flags.hpp"

#include <gtest/gtest.h>

namespace rcb {
namespace {

FlagSet make_set() {
  FlagSet flags("test tool");
  flags.add_string("name", "default", "a string");
  flags.add_int("count", 42, "an int");
  flags.add_double("ratio", 0.5, "a double");
  flags.add_bool("verbose", false, "a bool");
  return flags;
}

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_string("name"), "default");
  EXPECT_EQ(flags.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.5);
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(FlagsTest, EqualsForm) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--name=alpha", "--count=7", "--ratio=0.25",
                        "--verbose=true"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_string("name"), "alpha");
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(FlagsTest, SpaceForm) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--count", "-3", "--name", "x y"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_int("count"), -3);
  EXPECT_EQ(flags.get_string("name"), "x y");
}

TEST(FlagsTest, BareBooleanFlag) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, MalformedIntRejected) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, MalformedDoubleRejected) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--ratio=1.2.3"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, MalformedBoolRejected) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--verbose=maybe"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, MissingValueRejected) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, PositionalArgumentRejected) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, HelpReturnsFalseAndListsFlags) {
  FlagSet flags = make_set();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
  const std::string help = flags.help_text();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("default: 42"), std::string::npos);
}

TEST(FlagsTest, IntBelowMinimumRejected) {
  // e.g. --threads=-4: must fail loudly at parse time instead of wrapping
  // through an unsigned cast deep inside the tool.
  FlagSet flags("test tool");
  flags.add_int("threads", 0, "worker threads", 0, 4096);
  const char* argv[] = {"prog", "--threads=-4"};
  EXPECT_FALSE(flags.parse(2, argv));
  EXPECT_EQ(flags.get_int("threads"), 0);  // default untouched
}

TEST(FlagsTest, IntAboveMaximumRejected) {
  FlagSet flags("test tool");
  flags.add_int("workers", 0, "worker processes", 0, 1024);
  const char* argv[] = {"prog", "--workers=4097"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(FlagsTest, IntBoundsAreInclusive) {
  FlagSet flags("test tool");
  flags.add_int("count", 5, "bounded", 1, 10);
  EXPECT_TRUE(flags.set("count", "1"));
  EXPECT_TRUE(flags.set("count", "10"));
  EXPECT_FALSE(flags.set("count", "0"));
  EXPECT_FALSE(flags.set("count", "11"));
  EXPECT_EQ(flags.get_int("count"), 10);  // last accepted value sticks
}

TEST(FlagsTest, UnboundedIntStillAcceptsNegatives) {
  FlagSet flags = make_set();
  EXPECT_TRUE(flags.set("count", "-42"));
  EXPECT_EQ(flags.get_int("count"), -42);
}

TEST(FlagsTest, ChoiceDefaultsToFirstAndRejectsOthers) {
  // e.g. --metric=success_rate must fail loudly instead of silently
  // fitting the default metric.
  FlagSet flags("test tool");
  flags.add_choice("format", {"csv", "table"}, "output format");
  EXPECT_EQ(flags.get_string("format"), "csv");
  const char* argv[] = {"prog", "--format=json"};
  EXPECT_FALSE(flags.parse(2, argv));
  EXPECT_EQ(flags.get_string("format"), "csv");  // default untouched
  EXPECT_TRUE(flags.set("format", "table"));
  EXPECT_EQ(flags.get_string("format"), "table");
  EXPECT_NE(flags.help_text().find("output format: csv | table"),
            std::string::npos);
}

TEST(FlagsDeathTest, DefaultOutsideBoundsRejected) {
  EXPECT_DEATH(
      {
        FlagSet flags("test tool");
        flags.add_int("bad", -1, "default below minimum", 0, 10);
      },
      "");
}

TEST(FlagsDeathTest, DuplicateRegistrationRejected) {
  FlagSet flags("t");
  flags.add_int("x", 1, "");
  EXPECT_DEATH(flags.add_string("x", "a", ""), "precondition");
}

TEST(FlagsDeathTest, TypeMismatchOnGetRejected) {
  FlagSet flags = make_set();
  EXPECT_DEATH((void)flags.get_int("name"), "precondition");
}

}  // namespace
}  // namespace rcb
