#include "bench_util.h"

#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

namespace rsse::bench {
namespace {

Flags MakeFlags(std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("bench_test")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return Flags(static_cast<int>(argv.size()), argv.data(),
               "usage: bench_test [--seed=N] [--rate=X]");
}

TEST(FlagsTest, ParsesNumbersAndDefaults) {
  const Flags flags = MakeFlags({"--seed=42", "--rate=2.5", "--big=0"});
  EXPECT_EQ(flags.GetUint("seed", 0), 42u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0), 2.5);
  EXPECT_EQ(flags.GetUint("big", 9), 0u);
  EXPECT_EQ(flags.GetUint("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("absent", 0.5), 0.5);
  EXPECT_EQ(MakeFlags({"--seed=18446744073709551615"}).GetUint("seed", 0),
            UINT64_MAX);
}

TEST(FlagsDeathTest, NonNumericUintExits2WithUsage) {
  EXPECT_EXIT(MakeFlags({"--seed=abc"}).GetUint("seed", 0),
              ::testing::ExitedWithCode(2), "--seed=abc.*\nusage: bench_test");
}

TEST(FlagsDeathTest, NegativeUintExits2InsteadOfWrapping) {
  EXPECT_EXIT(MakeFlags({"--seed=-5"}).GetUint("seed", 0),
              ::testing::ExitedWithCode(2), "--seed=-5");
}

TEST(FlagsDeathTest, TrailingGarbageExits2InsteadOfTruncating) {
  EXPECT_EXIT(MakeFlags({"--seed=12x"}).GetUint("seed", 0),
              ::testing::ExitedWithCode(2), "--seed=12x");
}

TEST(FlagsDeathTest, OutOfRangeAndBareUintExit2) {
  EXPECT_EXIT(MakeFlags({"--seed=18446744073709551616"}).GetUint("seed", 0),
              ::testing::ExitedWithCode(2), "--seed=");
  EXPECT_EXIT(MakeFlags({"--seed"}).GetUint("seed", 0),
              ::testing::ExitedWithCode(2), "--seed=true");
  EXPECT_EXIT(MakeFlags({"--seed="}).GetUint("seed", 0),
              ::testing::ExitedWithCode(2), "--seed=");
}

TEST(FlagsDeathTest, MalformedDoubleExits2) {
  EXPECT_EXIT(MakeFlags({"--rate=abc"}).GetDouble("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=abc");
  EXPECT_EXIT(MakeFlags({"--rate=1.5x"}).GetDouble("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=1.5x");
  EXPECT_EXIT(MakeFlags({"--rate=nan"}).GetDouble("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=nan");
}

}  // namespace
}  // namespace rsse::bench
