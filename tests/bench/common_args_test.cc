// Exit-code contract of the shared bench flag parsers (bench/common):
// --help exits 0, an unknown flag exits 2, and — the regression this file
// pins — a KNOWN flag missing its trailing value exits 2 with a message
// naming the flag ("flag X requires a value"), instead of falling through
// to the unknown-flag branch as every parser did when the `i + 1 < argc`
// guard lived in the match condition.
#include "bench/common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace simdx::bench {
namespace {

// argv builder for the parser helpers (they take char**, not const char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (std::string& s : strings_) {
      ptrs_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(RequireFlagValueTest, ReturnsValueAndAdvances) {
  Argv a({"bin", "--seed", "42"});
  int i = 1;
  const char* value = RequireFlagValue(a.argc(), a.argv(), i, "--seed");
  EXPECT_STREQ(value, "42");
  EXPECT_EQ(i, 2);  // advanced past the value, loop ++ lands on argc
}

TEST(RequireFlagValueDeathTest, TrailingFlagExits2NamingTheFlag) {
  Argv a({"bin", "--seed"});
  int i = 1;
  EXPECT_EXIT(RequireFlagValue(a.argc(), a.argv(), i, "--seed"),
              ::testing::ExitedWithCode(2), "flag --seed requires a value");
}

TEST(ParseU64FlagDeathTest, NonNumericExits2) {
  EXPECT_EXIT(ParseU64Flag("12x", "--seed"), ::testing::ExitedWithCode(2),
              "--seed expects a number");
}

TEST(ParseU64FlagDeathTest, NegativeNeverWraps) {
  EXPECT_EXIT(ParseU64Flag("-1", "--seed"), ::testing::ExitedWithCode(2),
              "--seed expects a number");
}

TEST(ParseU32FlagDeathTest, OutOfRangeExits2) {
  EXPECT_EXIT(ParseU32Flag("4294967296", "--scale"),
              ::testing::ExitedWithCode(2), "--scale out of uint32 range");
}

TEST(ParseDoubleFlagTest, AcceptsFiniteNumbers) {
  EXPECT_DOUBLE_EQ(ParseDoubleFlag("5000", "--qps"), 5000.0);
  EXPECT_DOUBLE_EQ(ParseDoubleFlag("0.25", "--hot-fraction"), 0.25);
  EXPECT_DOUBLE_EQ(ParseDoubleFlag("1e3", "--qps"), 1000.0);
}

TEST(ParseDoubleFlagDeathTest, TrailingGarbageExits2) {
  EXPECT_EXIT(ParseDoubleFlag("5000abc", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
}

TEST(ParseDoubleFlagDeathTest, NanAndInfinityExit2) {
  EXPECT_EXIT(ParseDoubleFlag("nan", "--fault-rate"),
              ::testing::ExitedWithCode(2), "--fault-rate expects a finite");
  EXPECT_EXIT(ParseDoubleFlag("inf", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
  EXPECT_EXIT(ParseDoubleFlag("1e999", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
}

TEST(ParseDoubleFlagDeathTest, EmptyOrSpacedExits2) {
  EXPECT_EXIT(ParseDoubleFlag("", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
  EXPECT_EXIT(ParseDoubleFlag(" 5", "--qps"), ::testing::ExitedWithCode(2),
              "--qps expects a finite number");
}

TEST(ParseArgsDeathTest, UnknownFlagExits2WithUsage) {
  Argv a({"bin", "--bogus"});
  EXPECT_EXIT(ParseArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "unknown flag: --bogus");
}

TEST(ParseArgsDeathTest, TrailingCsvFlagExits2NamingTheFlag) {
  Argv a({"bin", "--csv"});
  EXPECT_EXIT(ParseArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "flag --csv requires a value");
}

TEST(ParseArgsDeathTest, HelpExits0) {
  // (usage text goes to stdout; the death-test regex only sees stderr, so
  // the assertion here is purely the exit code.)
  Argv a({"bin", "--help"});
  EXPECT_EXIT(ParseArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(0), "");
}

TEST(ParseArgsTest, ParsesGraphListAndQuick) {
  Argv a({"bin", "--graphs", "FB,ER", "--quick"});
  const BenchArgs parsed = ParseArgs(a.argc(), a.argv());
  ASSERT_EQ(parsed.graphs.size(), 2u);
  EXPECT_EQ(parsed.graphs[0], "FB");
  EXPECT_EQ(parsed.graphs[1], "ER");
  EXPECT_TRUE(parsed.quick);
}

}  // namespace
}  // namespace simdx::bench
