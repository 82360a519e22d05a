#include "impatience/util/flags.hpp"

#include <gtest/gtest.h>

#include <string>

namespace impatience::util {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  auto f = make({"--trials=7", "--mu=0.25"});
  EXPECT_EQ(f.get_int("trials", 0), 7);
  EXPECT_DOUBLE_EQ(f.get_double("mu", 0.0), 0.25);
}

TEST(Flags, SpaceForm) {
  auto f = make({"--trials", "9"});
  EXPECT_EQ(f.get_int("trials", 0), 9);
}

TEST(Flags, BareFlagIsTrue) {
  auto f = make({"--fast"});
  EXPECT_TRUE(f.get_bool("fast", false));
}

TEST(Flags, MissingUsesFallback) {
  auto f = make({});
  EXPECT_EQ(f.get_int("absent", 42), 42);
  EXPECT_EQ(f.get_string("absent", "d"), "d");
  EXPECT_FALSE(f.get_bool("absent", false));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=on"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=no"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=off"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
}

TEST(Flags, BadBooleanThrows) {
  EXPECT_THROW(make({"--x=maybe"}).get_bool("x", false),
               std::invalid_argument);
}

TEST(Flags, NonNumericValueThrowsNamingFlagAndValue) {
  auto f = make({"--nodes=many", "--mu", "fast", "--seed="});
  try {
    f.get_int("nodes", 0);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'many'"), std::string::npos);
  }
  EXPECT_THROW(f.get_double("mu", 0.0), FlagError);
  EXPECT_THROW(f.get_long("seed", 0), FlagError);  // empty value
}

TEST(Flags, TrailingGarbageThrows) {
  auto f = make({"--nodes=12abc", "--slots=5000x", "--mu=0.05.1",
                 "--big=99999999999999999999"});
  EXPECT_THROW(f.get_int("nodes", 0), FlagError);
  EXPECT_THROW(f.get_long("slots", 0), FlagError);
  EXPECT_THROW(f.get_double("mu", 0.0), FlagError);
  EXPECT_THROW(f.get_long("big", 0), FlagError);  // out of range
  // Whole values of every numeric spelling still parse.
  auto ok = make({"--n=-7", "--l=1000000", "--d=1e-3"});
  EXPECT_EQ(ok.get_int("n", 0), -7);
  EXPECT_EQ(ok.get_long("l", 0), 1000000L);
  EXPECT_DOUBLE_EQ(ok.get_double("d", 0.0), 1e-3);
}

TEST(Flags, PositionalArguments) {
  auto f = make({"input.txt", "--n=3", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, HasDetectsPresence) {
  auto f = make({"--a=1"});
  EXPECT_TRUE(f.has("a"));
  EXPECT_FALSE(f.has("b"));
}

TEST(Flags, NegativeNumberAsValue) {
  auto f = make({"--alpha", "-1.5"});
  // "-1.5" does not look like a --flag, so it is consumed as the value.
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), -1.5);
}

TEST(Flags, ProgramName) {
  auto f = make({});
  EXPECT_EQ(f.program(), "prog");
}

TEST(ParseDuration, UnitsAndBareSeconds) {
  EXPECT_DOUBLE_EQ(parse_duration("90").value(), 90.0);  // bare = seconds
  EXPECT_DOUBLE_EQ(parse_duration("250ms").value(), 0.25);
  EXPECT_DOUBLE_EQ(parse_duration("30s").value(), 30.0);
  EXPECT_DOUBLE_EQ(parse_duration("5m").value(), 300.0);
  EXPECT_DOUBLE_EQ(parse_duration("2h").value(), 7200.0);
  EXPECT_DOUBLE_EQ(parse_duration("1d").value(), 86400.0);
  EXPECT_DOUBLE_EQ(parse_duration("1.5m").value(), 90.0);  // fractional
  EXPECT_DOUBLE_EQ(parse_duration("0").value(), 0.0);
  EXPECT_DOUBLE_EQ(parse_duration("0.5").value(), 0.5);
}

TEST(ParseDuration, RejectsMalformedInput) {
  for (const char* text : {"", "abc", "10x", "-3s", "5 m", "m", "1e", "nan",
                           "inf", "1.5ss", "ms"}) {
    EXPECT_FALSE(parse_duration(text).has_value()) << "text: " << text;
  }
}

TEST(Flags, GetDurationParsesAndFallsBack) {
  auto f = make({"--snapshot-interval=30s", "--deadline", "5m",
                 "--grace=250ms", "--legacy=90"});
  EXPECT_DOUBLE_EQ(f.get_duration("snapshot-interval", 0.0), 30.0);
  EXPECT_DOUBLE_EQ(f.get_duration("deadline", 0.0), 300.0);
  EXPECT_DOUBLE_EQ(f.get_duration("grace", 0.0), 0.25);
  // Back-compat: the old integer-seconds spelling still works.
  EXPECT_DOUBLE_EQ(f.get_duration("legacy", 0.0), 90.0);
  EXPECT_DOUBLE_EQ(f.get_duration("absent", 7.5), 7.5);
}

TEST(Flags, GetDurationThrowsOnBadValue) {
  EXPECT_THROW(make({"--deadline=soon"}).get_duration("deadline", 0.0),
               std::invalid_argument);
  EXPECT_THROW(make({"--deadline=-5s"}).get_duration("deadline", 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace impatience::util
