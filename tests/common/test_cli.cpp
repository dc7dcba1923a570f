#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace lvrm {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const Cli cli = make({"prog", "--rate=60000", "--name=vr1"});
  EXPECT_EQ(cli.get_int("rate", 0), 60000);
  EXPECT_EQ(cli.get_string("name", ""), "vr1");
}

TEST(Cli, SpaceSeparatedForm) {
  const Cli cli = make({"prog", "--rate", "125", "--mode", "jsq"});
  EXPECT_EQ(cli.get_int("rate", 0), 125);
  EXPECT_EQ(cli.get_string("mode", ""), "jsq");
}

TEST(Cli, BooleanFlags) {
  const Cli cli = make({"prog", "--csv", "--verbose"});
  EXPECT_TRUE(cli.get_bool("csv", false));
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("absent", false));
  EXPECT_TRUE(cli.get_bool("absent", true));
}

TEST(Cli, ExplicitBooleanValues) {
  const Cli cli = make({"prog", "--a=true", "--b=false", "--c=1", "--d=0",
                        "--e=yes", "--f=no"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_TRUE(cli.get_bool("e", false));
  EXPECT_FALSE(cli.get_bool("f", true));
}

TEST(Cli, Positional) {
  const Cli cli = make({"prog", "input.txt", "--n", "3", "out.txt"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "out.txt");
}

TEST(Cli, DoubleDashStopsParsing) {
  const Cli cli = make({"prog", "--", "--not-a-flag"});
  EXPECT_FALSE(cli.has("not-a-flag"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "--not-a-flag");
}

TEST(Cli, Doubles) {
  const Cli cli = make({"prog", "--tol=0.02"});
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 1.0), 0.02);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 3.5), 3.5);
}

TEST(Cli, FallbacksWhenMissing) {
  const Cli cli = make({"prog"});
  EXPECT_EQ(cli.get_int("x", -7), -7);
  EXPECT_EQ(cli.get_string("y", "dflt"), "dflt");
  EXPECT_FALSE(cli.has("x"));
}

TEST(Cli, NegativeAndSignedNumbersParse) {
  const Cli cli = make({"prog", "--n=-3", "--x=+2.5e-1"});
  EXPECT_EQ(cli.get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 0.25);
}

TEST(Cli, EmptyValueFallsBack) {
  const Cli cli = make({"prog", "--seed=", "--tol"});
  EXPECT_EQ(cli.get_int("seed", 4), 4);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0.5), 0.5);
}

TEST(CliDeathTest, MalformedIntegerExitsNamingTheFlag) {
  EXPECT_EXIT(make({"prog", "--seed=1x"}).get_int("seed", 1),
              ::testing::ExitedWithCode(2), "--seed must be an integer");
  EXPECT_EXIT(make({"prog", "--flows=abc"}).get_int("flows", 1),
              ::testing::ExitedWithCode(2), "--flows .*'abc'");
  EXPECT_EXIT(make({"prog", "--n=2.5"}).get_int("n", 1),
              ::testing::ExitedWithCode(2), "--n must be an integer");
  EXPECT_EXIT(make({"prog", "--n=99999999999999999999"}).get_int("n", 1),
              ::testing::ExitedWithCode(2), "--n must be an integer");
  EXPECT_EXIT(make({"prog", "--n= 7"}).get_int("n", 1),
              ::testing::ExitedWithCode(2), "--n must be an integer");
}

TEST(CliDeathTest, MalformedDoubleExitsNamingTheFlag) {
  EXPECT_EXIT(make({"prog", "--tolerance=0.2.5"}).get_double("tolerance", 0),
              ::testing::ExitedWithCode(2), "--tolerance must be a number");
  EXPECT_EXIT(make({"prog", "--rate=fast"}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate .*'fast'");
  EXPECT_EXIT(make({"prog", "--rate=inf"}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate must be a number");
}

TEST(CliDeathTest, MalformedBooleanExitsNamingTheFlag) {
  EXPECT_EXIT(make({"prog", "--csv=on"}).get_bool("csv", false),
              ::testing::ExitedWithCode(2), "--csv .*'on'");
  EXPECT_EXIT(make({"prog", "--smoke=False"}).get_bool("smoke", false),
              ::testing::ExitedWithCode(2), "--smoke .*'False'");
  // "--name value": a positional word after a boolean flag is its value.
  EXPECT_EXIT(make({"prog", "--quick", "out.json"}).get_bool("quick", false),
              ::testing::ExitedWithCode(2), "--quick .*'out.json'");
}

}  // namespace
}  // namespace lvrm
