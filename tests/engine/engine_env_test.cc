// Environment-knob validation: misconfigured VSTREAM_* variables must fail
// loudly (a silent fallback would quietly benchmark the wrong workload).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "engine/engine.h"
#include "runtime/executor.h"
#include "sim/env_util.h"

namespace vstream {
namespace {

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) { unsetenv(name); }
  ~EnvGuard() { unsetenv(name_); }
  void set(const char* value) { setenv(name_, value, /*overwrite=*/1); }

 private:
  const char* name_;
};

TEST(PositiveEnvTest, UnsetReturnsFallback) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  EXPECT_EQ(sim::positive_env("VSTREAM_TEST_KNOB", 42u), 42u);
}

TEST(PositiveEnvTest, ValidValueParses) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  guard.set("17");
  EXPECT_EQ(sim::positive_env("VSTREAM_TEST_KNOB", 42u), 17u);
}

TEST(PositiveEnvTest, RejectsZero) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  guard.set("0");
  EXPECT_THROW(sim::positive_env("VSTREAM_TEST_KNOB", 42u),
               std::runtime_error);
}

TEST(PositiveEnvTest, RejectsNegative) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  guard.set("-3");
  EXPECT_THROW(sim::positive_env("VSTREAM_TEST_KNOB", 42u),
               std::runtime_error);
}

TEST(PositiveEnvTest, RejectsNonNumeric) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  guard.set("many");
  EXPECT_THROW(sim::positive_env("VSTREAM_TEST_KNOB", 42u),
               std::runtime_error);
}

TEST(PositiveEnvTest, RejectsTrailingGarbage) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  guard.set("12abc");
  EXPECT_THROW(sim::positive_env("VSTREAM_TEST_KNOB", 42u),
               std::runtime_error);
}

TEST(PositiveEnvTest, RejectsEmpty) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  guard.set("");
  EXPECT_THROW(sim::positive_env("VSTREAM_TEST_KNOB", 42u),
               std::runtime_error);
}

TEST(PositiveEnvTest, RejectsSignsAndBlanks) {
  EnvGuard guard("VSTREAM_TEST_KNOB");
  for (const char* raw : {"+3", " 3", "3 ", "-0"}) {
    guard.set(raw);
    EXPECT_THROW(sim::positive_env("VSTREAM_TEST_KNOB", 42u),
                 std::runtime_error)
        << raw;
  }
}

// The same parser behind every numeric command-line flag.
TEST(ParseUintTest, AcceptsDigitsWithinRange) {
  EXPECT_EQ(sim::parse_uint("--n", "1"), 1u);
  EXPECT_EQ(sim::parse_uint("--n", "007"), 7u);
  EXPECT_EQ(sim::parse_uint("--n", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(sim::parse_uint("--seed", "0", 0), 0u);
  EXPECT_EQ(sim::parse_uint("--n", "10", 0, 10), 10u);
}

TEST(ParseUintTest, RejectsEverythingElse) {
  // "-1" is the case strtoull alone would wrap to 2^64 - 1.
  for (const char* raw : {"-1", "+1", " 1", "1 ", "abc", "12abc", "", "0",
                          "1.5", "18446744073709551616"}) {
    EXPECT_THROW(sim::parse_uint("--n", raw), std::runtime_error) << raw;
  }
  EXPECT_THROW(sim::parse_uint("--n", "11", 0, 10), std::runtime_error);
  try {
    sim::parse_uint("--threads", "-1");
    FAIL() << "no exception";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("--threads"), std::string::npos);
  }
}

TEST(ParsePositiveDoubleTest, AcceptsPositiveFiniteNumbers) {
  EXPECT_DOUBLE_EQ(sim::parse_positive_double("--ms", "150"), 150.0);
  EXPECT_DOUBLE_EQ(sim::parse_positive_double("--ms", "0.5"), 0.5);
}

TEST(ParsePositiveDoubleTest, RejectsEverythingElse) {
  for (const char* raw :
       {"0", "-1", "abc", "", "1.5x", "inf", "nan", "1e999"}) {
    EXPECT_THROW(sim::parse_positive_double("--ms", raw), std::runtime_error)
        << raw;
  }
}

TEST(ResolveShardCountTest, ExplicitRequestWins) {
  EnvGuard guard("VSTREAM_SHARDS");
  guard.set("16");
  EXPECT_EQ(engine::resolve_shard_count(3), 3u);
}

TEST(ResolveShardCountTest, EnvVariableUsedWhenUnspecified) {
  EnvGuard guard("VSTREAM_SHARDS");
  guard.set("6");
  EXPECT_EQ(engine::resolve_shard_count(0), 6u);
}

TEST(ResolveShardCountTest, DefaultsToFixedLogicalShardCount) {
  // The logical partition is a fixed constant, not hardware concurrency:
  // the physical pool (resolve_thread_count) tracks the machine, the
  // partition defines determinism and batch granularity.
  EnvGuard guard("VSTREAM_SHARDS");
  EXPECT_EQ(engine::resolve_shard_count(0), runtime::kDefaultLogicalShards);
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EnvGuard guard("VSTREAM_THREADS");
  guard.set("16");
  EXPECT_EQ(runtime::resolve_thread_count(3), 3u);
}

TEST(ResolveThreadCountTest, EnvVariableUsedWhenUnspecified) {
  EnvGuard guard("VSTREAM_THREADS");
  guard.set("6");
  EXPECT_EQ(runtime::resolve_thread_count(0), 6u);
}

TEST(ResolveThreadCountTest, DefaultsToHardwareConcurrency) {
  EnvGuard guard("VSTREAM_THREADS");
  EXPECT_GE(runtime::resolve_thread_count(0), 1u);
}

TEST(ResolveThreadCountTest, InvalidEnvThrows) {
  EnvGuard guard("VSTREAM_THREADS");
  guard.set("0");
  EXPECT_THROW(runtime::resolve_thread_count(0), std::runtime_error);
  guard.set("turbo");
  EXPECT_THROW(runtime::resolve_thread_count(0), std::runtime_error);
}

TEST(ResolveShardCountTest, InvalidEnvThrows) {
  EnvGuard guard("VSTREAM_SHARDS");
  guard.set("0");
  EXPECT_THROW(engine::resolve_shard_count(0), std::runtime_error);
  guard.set("fast");
  EXPECT_THROW(engine::resolve_shard_count(0), std::runtime_error);
}

}  // namespace
}  // namespace vstream
