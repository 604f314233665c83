// Tests for src/common: RNG, counter hash, logging, CLI parsing, failpoints
// and the CPU-dispatch level.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/qgemm.hpp"
#include "test_util.hpp"

namespace qcaps {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  common::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  common::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  common::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float u = rng.uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformRangeRespected) {
  common::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.uniform(-3.0f, 5.0f);
    EXPECT_GE(u, -3.0f);
    EXPECT_LT(u, 5.0f);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  common::Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMeanAndVariance) {
  common::Rng rng(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  common::Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0f, 0.5f);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, UniformIndexInRange) {
  common::Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(Rng, UniformIndexZeroIsSafe) {
  common::Rng rng(19);
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  common::Rng a(23);
  common::Rng child = a.split();
  // Child and parent must not mirror each other.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == child.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(CounterHash, DeterministicAndSeedSensitive) {
  EXPECT_EQ(common::counter_hash(1, 42), common::counter_hash(1, 42));
  EXPECT_NE(common::counter_hash(1, 42), common::counter_hash(2, 42));
  EXPECT_NE(common::counter_hash(1, 42), common::counter_hash(1, 43));
}

TEST(CounterHash, UnitFloatMappingInRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const float u = common::u64_to_unit_float(common::counter_hash(9, i));
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(CounterHash, StreamIsApproximatelyUniform) {
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += common::u64_to_unit_float(
        common::counter_hash(123, static_cast<std::uint64_t>(i)));
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Check, ThrowsOnFailure) {
  EXPECT_THROW(QCAPS_CHECK(1 == 2), qcaps::Error);
  EXPECT_NO_THROW(QCAPS_CHECK(1 == 1));
}

TEST(Check, MessageIncludesExpression) {
  try {
    QCAPS_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const qcaps::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

TEST(Cli, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--alpha=3", "--name=foo"};
  common::CliArgs args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("name", ""), "foo");
}

TEST(Cli, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--count", "7"};
  common::CliArgs args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("count", 0), 7);
}

TEST(Cli, BareFlagActsAsBoolean) {
  const char* argv[] = {"prog", "--verbose"};
  common::CliArgs args(2, const_cast<char**>(argv));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Cli, FallbacksUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  common::CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("missing", -5), -5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(Cli, PositionalArgumentsCollected) {
  const char* argv[] = {"prog", "a.txt", "--k=1", "b.txt"};
  common::CliArgs args(4, const_cast<char**>(argv));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a.txt");
  EXPECT_EQ(args.positional()[1], "b.txt");
}

TEST(Logging, LevelFiltering) {
  const auto prev = common::log_level();
  common::set_log_level(common::LogLevel::kError);
  // Nothing to assert on output easily; exercise the paths for coverage and
  // restore the level.
  QCAPS_INFO << "suppressed";
  QCAPS_WARN << "suppressed";
  common::set_log_level(prev);
  SUCCEED();
}

// ---- failpoints ------------------------------------------------------------

/// Every failpoint test disarms on scope exit so a failing assertion cannot
/// leak an armed site into later tests.
struct FailpointGuard {
  ~FailpointGuard() { common::failpoint_disarm_all(); }
};

TEST(Failpoint, DisarmedSiteIsFree) {
  // Default state: nothing armed, the macro's fast path must say so, and
  // evaluating an unarmed site is a no-op.
  EXPECT_FALSE(common::failpoints_armed());
  QCAPS_FAILPOINT("test.never.armed");
  SUCCEED();
}

TEST(Failpoint, ArmedThrowSiteThrowsAndCounts) {
  FailpointGuard guard;
  const std::uint64_t before = common::failpoint_hits("test.throw");
  common::failpoint_arm("test.throw", {});
  EXPECT_TRUE(common::failpoints_armed());
  EXPECT_THROW(QCAPS_FAILPOINT("test.throw"), common::FailpointError);
  EXPECT_EQ(common::failpoint_hits("test.throw"), before + 1);
  common::failpoint_disarm("test.throw");
  EXPECT_FALSE(common::failpoints_armed());
  QCAPS_FAILPOINT("test.throw");  // disarmed again: no-op
}

TEST(Failpoint, MaxHitsSelfDisarms) {
  FailpointGuard guard;
  common::FailpointSpec spec;
  spec.max_hits = 2;
  common::failpoint_arm("test.twice", spec);
  EXPECT_THROW(QCAPS_FAILPOINT("test.twice"), common::FailpointError);
  EXPECT_THROW(QCAPS_FAILPOINT("test.twice"), common::FailpointError);
  // Budget exhausted: the site disarmed itself.
  EXPECT_FALSE(common::failpoints_armed());
  QCAPS_FAILPOINT("test.twice");
}

TEST(Failpoint, SkipPassesThroughFirstEvaluations) {
  FailpointGuard guard;
  common::FailpointSpec spec;
  spec.skip = 2;
  spec.max_hits = 1;
  common::failpoint_arm("test.skip", spec);
  QCAPS_FAILPOINT("test.skip");  // skipped
  QCAPS_FAILPOINT("test.skip");  // skipped
  EXPECT_THROW(QCAPS_FAILPOINT("test.skip"), common::FailpointError);
}

TEST(Failpoint, SleepActionStallsTheCaller) {
  FailpointGuard guard;
  common::FailpointSpec spec;
  spec.action = common::FailpointAction::kSleep;
  spec.delay_ms = 30;
  spec.max_hits = 1;
  common::failpoint_arm("test.sleep", spec);
  const auto t0 = std::chrono::steady_clock::now();
  QCAPS_FAILPOINT("test.sleep");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
}

TEST(Failpoint, EnvStringArmsMultipleSites) {
  FailpointGuard guard;
  common::failpoints_arm_from_env(
      "test.env.a=throw:1;test.env.b=sleep:5:1:1");
  EXPECT_THROW(QCAPS_FAILPOINT("test.env.a"), common::FailpointError);
  QCAPS_FAILPOINT("test.env.b");  // skip = 1: first evaluation passes
  QCAPS_FAILPOINT("test.env.b");  // sleeps 5 ms, then self-disarms
  EXPECT_EQ(common::failpoint_hits("test.env.b"), 1u);
  EXPECT_FALSE(common::failpoints_armed());
}

TEST(Failpoint, MalformedEnvEntriesThrow) {
  FailpointGuard guard;
  EXPECT_THROW(common::failpoints_arm_from_env("nosign"), qcaps::Error);
  EXPECT_THROW(common::failpoints_arm_from_env("site=bogus"), qcaps::Error);
  EXPECT_THROW(common::failpoints_arm_from_env("site=sleep"), qcaps::Error);
  EXPECT_THROW(common::failpoints_arm_from_env("site=throw:x"), qcaps::Error);
}

// ---- CPU dispatch ----------------------------------------------------------

using common::Isa;

constexpr const char* kLegacyCaps[] = {
    "QCAPS_GEMM_NATIVE", "QCAPS_QGEMM_NATIVE", "QCAPS_CAPS_NATIVE"};

// Sets (or, for nullptr, unsets) one environment variable for a scope, then
// restores it and re-reads the dispatch level.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      setenv(name_, old_->c_str(), 1);
    else
      unsetenv(name_);
    common::reset_isa();
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// The highest level force_isa accepts on this machine and build.
Isa top_level() {
  Isa top = Isa::kScalar;
  testutil::for_each_isa([&](Isa level) { top = level; });
  return top;
}

TEST(CpuDispatch, ParseIsaCapAcceptsEachLevelName) {
  EXPECT_EQ(common::parse_isa_cap(nullptr), Isa::kAvx512Vnni);  // no cap
  EXPECT_EQ(common::parse_isa_cap(""), Isa::kAvx512Vnni);
  EXPECT_EQ(common::parse_isa_cap("scalar"), Isa::kScalar);
  EXPECT_EQ(common::parse_isa_cap("avx2"), Isa::kAvx2);
  EXPECT_EQ(common::parse_isa_cap("avx512"), Isa::kAvx512);
  EXPECT_EQ(common::parse_isa_cap("vnni"), Isa::kAvx512Vnni);
}

TEST(CpuDispatch, ParseIsaCapRejectsEverythingElse) {
  for (const char* bad : {"0", "1", "off", "native", "AVX2", " avx2", "avx2 ",
                          "avx512vnni", "avx512bw", "sse4.2", "avx"})
    EXPECT_EQ(common::parse_isa_cap(bad), std::nullopt) << bad;
}

TEST(CpuDispatch, EachLevelPinsWhatEveryBackendRuns) {
  struct Names {
    const char *gemm, *qgemm, *caps;
  };
  const Names want[common::kIsaLevels] = {
      {"scalar", "scalar", "scalar"},
      {"avx2", "avx2", "avx2"},
      {"avx512", "avx512", "avx512"},
      {"avx512", "avx512vnni", "avx512"},  // VNNI only changes qgemm
  };
  testutil::for_each_isa([&](Isa level) {
    EXPECT_EQ(common::isa(), level);
    const Names& w = want[static_cast<std::size_t>(level)];
    EXPECT_STREQ(tensor::gemm_kernel_name(), w.gemm);
    EXPECT_STREQ(tensor::qgemm_kernel_name(), w.qgemm);
    EXPECT_STREQ(tensor::caps_kernel_name(), w.caps);
  });
  const Isa top = top_level();
#ifdef QCAPS_DISABLE_NATIVE
  EXPECT_EQ(top, Isa::kScalar);
#endif
  // Levels this machine or build lacks are refused and change nothing.
  const Isa before = common::isa();
  for (auto i = static_cast<std::size_t>(top) + 1; i < common::kIsaLevels;
       ++i) {
    EXPECT_FALSE(common::force_isa(static_cast<Isa>(i)));
    EXPECT_EQ(common::isa(), before);
  }
}

TEST(CpuDispatch, EveryAcceptedLevelHasTheFeaturesItsKernelsUse) {
  // The contract of the table in common/cpu_dispatch.hpp: a level force_isa
  // accepts runs kernels compiled for these features, so the CPU has each.
#ifdef QCAPS_X86_NATIVE
  __builtin_cpu_init();
  testutil::for_each_isa([](Isa level) {
    if (level >= Isa::kAvx2) {
      EXPECT_TRUE(__builtin_cpu_supports("avx2"));
      EXPECT_TRUE(__builtin_cpu_supports("fma"));
      EXPECT_TRUE(__builtin_cpu_supports("sse4.2"));  // CRC-32C
    }
    if (level >= Isa::kAvx512) {
      EXPECT_TRUE(__builtin_cpu_supports("avx512f"));
      EXPECT_TRUE(__builtin_cpu_supports("avx512bw"));
      EXPECT_TRUE(__builtin_cpu_supports("avx512cd"));
      EXPECT_TRUE(__builtin_cpu_supports("avx512dq"));
      EXPECT_TRUE(__builtin_cpu_supports("avx512vl"));
    }
    if (level >= Isa::kAvx512Vnni) {
      EXPECT_TRUE(__builtin_cpu_supports("avx512vnni"));
    }
  });
#else
  EXPECT_EQ(top_level(), Isa::kScalar);
#endif
}

TEST(CpuDispatch, QcapsIsaCapsTheDetectedLevel) {
  const Isa top = top_level();
  const ScopedEnv g(kLegacyCaps[0], nullptr), q(kLegacyCaps[1], nullptr),
      c(kLegacyCaps[2], nullptr);
  for (std::size_t i = 0; i < common::kIsaLevels; ++i) {
    const auto cap = static_cast<Isa>(i);
    const ScopedEnv env("QCAPS_ISA", common::isa_name(cap));
    common::reset_isa();
    EXPECT_EQ(common::isa(), std::min(cap, top)) << common::isa_name(cap);
  }
}

TEST(CpuDispatch, LegacyZeroPinsEveryBackendAtScalar) {
  // The scalar oracle of the benchmark forces scalar through these names.
  for (const char* name : kLegacyCaps) {
    SCOPED_TRACE(name);
    const ScopedEnv env(name, "0");
    common::reset_isa();
    EXPECT_EQ(common::isa(), Isa::kScalar);
    EXPECT_STREQ(tensor::gemm_kernel_name(), "scalar");
    EXPECT_STREQ(tensor::qgemm_kernel_name(), "scalar");
    EXPECT_STREQ(tensor::caps_kernel_name(), "scalar");
  }
}

TEST(CpuDispatchDeathTest, UnknownCapValueStopsTheProcess) {
  // OpenMP worker threads may exist by now: re-execute instead of forking.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("QCAPS_ISA", "avx3", 1);
        common::reset_isa();
      },
      ::testing::ExitedWithCode(2),
      "QCAPS_ISA=avx3 .*accepted values: scalar, avx2, avx512, vnni");
  // The per-backend names take 0 only; their old caps are errors now.
  EXPECT_EXIT(
      {
        setenv("QCAPS_QGEMM_NATIVE", "avx2", 1);
        common::reset_isa();
      },
      ::testing::ExitedWithCode(2),
      "QCAPS_QGEMM_NATIVE=avx2 .*accepted values: 0");
  EXPECT_EXIT(
      {
        setenv("QCAPS_CAPS_NATIVE", "off", 1);
        common::reset_isa();
      },
      ::testing::ExitedWithCode(2),
      "QCAPS_CAPS_NATIVE=off .*accepted values: 0");
}

}  // namespace
}  // namespace qcaps
