#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <random>
#include <utility>
#include <vector>

namespace vstream::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(40.0);
  EXPECT_NEAR(sum / n, 40.0, 1.0);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(17);
  std::vector<double> samples;
  const int n = 50'001;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) samples.push_back(rng.lognormal_median(10.0, 0.5));
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], 10.0, 0.3);
}

TEST(RngTest, LognormalRejectsNonPositiveMedian) {
  Rng rng(1);
  EXPECT_THROW(rng.lognormal_median(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.lognormal_median(-3.0, 1.0), std::invalid_argument);
}

TEST(RngTest, ParetoMinimum) {
  Rng rng(19);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ParetoRejectsBadParams) {
  Rng rng(1);
  EXPECT_THROW(rng.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(23);
  const std::array<double, 3> weights = {1.0, 2.0, 7.0};
  std::array<int, 3> counts = {0, 0, 0};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(RngTest, DiscreteRejectsEmptyAndZeroWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.discrete({}), std::invalid_argument);
  const std::array<double, 2> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.discrete(zeros), std::invalid_argument);
}

// The fast draw paths must keep producing the same values the standard
// distributions produced when they sat on the hot path — every seeded run
// (and every statistical test in this suite) was recorded against that
// stream.  Pin bit-exact equivalence against the standard library on a
// shared engine state.
TEST(RngTest, Uniform01BitExactVsStdDistribution) {
  Rng rng(20160516);
  std::mt19937_64 reference(20160516);
  for (int i = 0; i < 200'000; ++i) {
    const double expected =
        std::uniform_real_distribution<double>(0.0, 1.0)(reference);
    ASSERT_EQ(rng.uniform01(), expected) << "draw " << i;
  }
}

TEST(RngTest, UniformBitExactVsStdDistribution) {
  Rng rng(7);
  std::mt19937_64 reference(7);
  for (int i = 0; i < 100'000; ++i) {
    const double expected =
        std::uniform_real_distribution<double>(-3.5, 17.25)(reference);
    ASSERT_EQ(rng.uniform(-3.5, 17.25), expected) << "draw " << i;
  }
}

TEST(RngTest, BernoulliBitExactVsStdDistribution) {
  Rng rng(777);
  std::mt19937_64 reference(777);
  const std::array<double, 7> ps = {1e-5, 8e-5, 2e-4, 0.02, 0.25, 0.5, 0.999};
  for (int i = 0; i < 200'000; ++i) {
    const double p = ps[static_cast<std::size_t>(i) % ps.size()];
    const bool expected = std::bernoulli_distribution(p)(reference);
    ASSERT_EQ(rng.bernoulli(p), expected) << "draw " << i << " p=" << p;
  }
}

// Binomial(n, p) at the TCP model's operating points: random loss at a
// 70-segment window on a clean and on a lossy path, tail drop at its
// default p = 0.5, and a large window at a p above the geometric-skip range.
constexpr std::array<std::pair<std::uint32_t, double>, 4> kBinomialPoints = {
    {{70, 1e-4}, {70, 0.02}, {300, 0.5}, {4096, 0.3}}};

TEST(RngTest, BinomialShortCircuitsWithoutDrawing) {
  Rng rng(5);
  rng.uniform01();  // leave the engine mid-block
  const Mt64 untouched = rng.engine();
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(70, 0.0), 0u);
  EXPECT_EQ(rng.binomial(70, -0.5), 0u);
  EXPECT_EQ(rng.binomial(70, 1.0), 70u);
  EXPECT_EQ(rng.binomial(70, 1.5), 70u);
  EXPECT_TRUE(rng.engine() == untouched);
}

TEST(RngTest, BinomialMeanAndVarianceWithinFiveSigma) {
  Rng rng(2016);
  constexpr int kDraws = 10'000;
  for (const auto& [n, p] : kBinomialPoints) {
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const double k = rng.binomial(n, p);
      sum += k;
      sq += k * k;
    }
    const double mean = sum / kDraws;
    const double var = (sq - sum * mean) / (kDraws - 1);
    const double npq = n * p * (1.0 - p);
    // Standard errors of the sample mean and variance; the fourth central
    // moment of Binomial(n, p) is npq (1 + 3 (n - 2) pq).
    const double mu4 = npq * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p));
    const double mean_se = std::sqrt(npq / kDraws);
    const double var_se = std::sqrt((mu4 - npq * npq) / kDraws);
    EXPECT_NEAR(mean, n * p, 5.0 * mean_se) << "n=" << n << " p=" << p;
    EXPECT_NEAR(var, npq, 5.0 * var_se) << "n=" << n << " p=" << p;
  }
}

// Two-sample Kolmogorov-Smirnov test of binomial() against the per-trial
// bernoulli() loop it replaces in the TCP model.
TEST(RngTest, BinomialMatchesPerTrialBernoulliLoop) {
  constexpr int kDraws = 10'000;
  Rng binomial_rng(11), loop_rng(12);
  for (const auto& [n, p] : kBinomialPoints) {
    std::vector<int> binomial_hist(n + 1, 0), loop_hist(n + 1, 0);
    for (int i = 0; i < kDraws; ++i) {
      ++binomial_hist[binomial_rng.binomial(n, p)];
      std::uint32_t k = 0;
      for (std::uint32_t t = 0; t < n; ++t) {
        if (loop_rng.bernoulli(p)) ++k;
      }
      ++loop_hist[k];
    }
    int binomial_cdf = 0, loop_cdf = 0, max_gap = 0;
    for (std::uint32_t k = 0; k <= n; ++k) {
      binomial_cdf += binomial_hist[k];
      loop_cdf += loop_hist[k];
      max_gap = std::max(max_gap, std::abs(binomial_cdf - loop_cdf));
    }
    // Critical distance at alpha = 1e-3: 1.949 * sqrt(2 / kDraws).
    EXPECT_LT(static_cast<double>(max_gap) / kDraws,
              1.949 * std::sqrt(2.0 / kDraws))
        << "n=" << n << " p=" << p;
  }
}

// At TCP random-loss rates a call costs one engine draw plus one per
// success.  Draws are counted by stepping a copy of the engine until it
// reaches the state the calls left behind.
TEST(RngTest, BinomialSmallPDrawsAboutOncePerCall) {
  Rng rng(70);
  Mt64 shadow = rng.engine();
  constexpr int kCalls = 10'000;
  int draws = 0;
  for (int i = 0; i < kCalls; ++i) {
    rng.binomial(70, 1e-4);
    while (!(shadow == rng.engine())) {
      shadow();
      ++draws;
    }
  }
  EXPECT_GE(draws, kCalls);
  EXPECT_LT(static_cast<double>(draws) / kCalls, 1.1);
}

// At tiny p one geometric gap passes 2^32 trials; the skip position must
// stay in floating point rather than overflow an integer.
TEST(RngTest, BinomialTinyPHasNoOverflow) {
  Rng rng(9);
  constexpr std::uint32_t kMaxN = 0xFFFF'FFFFu;
  std::uint32_t total = 0;
  for (int i = 0; i < 1'000; ++i) {
    total += rng.binomial(kMaxN, 1e-12);
    EXPECT_EQ(rng.binomial(70, 5e-324), 0u);  // denormal p
  }
  // Expected total: 1000 * 2^32 * 1e-12 ~ 4.3.
  EXPECT_LT(total, 30u);
  EXPECT_NEAR(rng.binomial(kMaxN, 1e-5) / (kMaxN * 1e-5), 1.0, 0.05);
}

// The custom engine (sim/mt64.h) must produce the standardized mt19937_64
// stream word for word: every seeded run depends on it.  Exercise several
// seeds, long enough streams to cross many refills, and reseeding.
TEST(RngTest, Mt64BitExactVsStdMt19937_64) {
  for (const std::uint64_t seed :
       {std::uint64_t{5489}, std::uint64_t{0}, std::uint64_t{20160516},
        std::uint64_t{0xdeadbeefcafe}}) {
    Mt64 ours(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(ours(), reference()) << "seed " << seed << " draw " << i;
    }
  }
  Mt64 reseeded(1);
  std::mt19937_64 reference(1);
  reseeded.seed(424242);
  reference.seed(424242);
  for (int i = 0; i < 1'000; ++i) ASSERT_EQ(reseeded(), reference());
}

// std's distribution templates must see the custom engine as an equivalent
// URBG — min/max drive generate_canonical's layout, so pin them too.
TEST(RngTest, Mt64UrbgTraitsMatchStd) {
  static_assert(Mt64::min() == std::mt19937_64::min());
  static_assert(Mt64::max() == std::mt19937_64::max());
  static_assert(Mt64::default_seed == std::mt19937_64::default_seed);
  Mt64 ours(123);
  std::mt19937_64 reference(123);
  std::normal_distribution<double> da(3.0, 1.5), db(3.0, 1.5);
  for (int i = 0; i < 10'000; ++i) ASSERT_EQ(da(ours), db(reference));
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(99);
  Rng child = parent.fork();
  // Child stream differs from the parent continuing stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform01() == child.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NormalMeanAndStddev) {
  Rng rng(31);
  constexpr int kDraws = 1'000'000;
  constexpr double kMean = 5.0, kSd = 2.0;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal(kMean, kSd) - kMean;
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kDraws;
  const double sd = std::sqrt((sq - sum * mean) / (kDraws - 1));
  // Standard errors: sd / sqrt(n) for the mean, ~sd / sqrt(2n) for the sd.
  EXPECT_NEAR(mean, 0.0, 5.0 * kSd / std::sqrt(kDraws));
  EXPECT_NEAR(sd, kSd, 5.0 * kSd / std::sqrt(2.0 * kDraws));
}

// ---- The ziggurat N(0, 1) sampler behind normal() and lognormal*() ----

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

// The sampler's state is the engine alone: no cached second variate, so
// copying the engine copies the stream.
static_assert(sizeof(Rng) == sizeof(Mt64));

TEST(RngTest, StandardNormalKolmogorovSmirnovVsPhi) {
  Rng rng(1966);
  constexpr int kDraws = 1'000'000;
  std::vector<double> z(kDraws);
  for (double& v : z) v = rng.standard_normal();
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double f = phi(z[i]);
    d = std::max({d, (i + 1.0) / kDraws - f, f - static_cast<double>(i) / kDraws});
  }
  // Critical distance at alpha = 1e-3: 1.949 / sqrt(n).
  EXPECT_LT(d, 1.949 / std::sqrt(static_cast<double>(kDraws)));
}

// The tail beyond the ziggurat's base (r = 3.44) comes from its own
// rejection sampler, and the masses beyond 3, 3.5 and 4 straddle it.
TEST(RngTest, StandardNormalTailMassesWithinFiveSigma) {
  Rng rng(2000);
  constexpr int kDraws = 10'000'000;
  constexpr std::array<double, 3> kCuts = {3.0, 3.5, 4.0};
  std::array<int, 3> beyond = {0, 0, 0};
  int negative = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.standard_normal();
    if (v < 0.0) ++negative;
    for (std::size_t c = 0; c < kCuts.size(); ++c) {
      if (std::abs(v) > kCuts[c]) ++beyond[c];
    }
  }
  for (std::size_t c = 0; c < kCuts.size(); ++c) {
    const double p = std::erfc(kCuts[c] / std::numbers::sqrt2);
    const double sigma = std::sqrt(kDraws * p * (1.0 - p));
    EXPECT_NEAR(beyond[c], kDraws * p, 5.0 * sigma) << "|z| > " << kCuts[c];
  }
  EXPECT_NEAR(negative, kDraws / 2.0, 5.0 * std::sqrt(kDraws / 4.0));
}

// About one engine draw per variate: 97.2% of proposals return from the
// first word, 1.2% are rejected, and the rest draw one or a few more
// words, 1.04 in all.  Draws are counted by stepping a copy of the engine.
TEST(RngTest, StandardNormalDrawsAboutOncePerVariate) {
  Rng rng(128);
  Mt64 shadow = rng.engine();
  constexpr int kVariates = 100'000;
  int draws = 0;
  for (int i = 0; i < kVariates; ++i) {
    rng.standard_normal();
    while (!(shadow == rng.engine())) {
      shadow();
      ++draws;
    }
  }
  EXPECT_LT(static_cast<double>(draws) / kVariates, 1.05);
}

// Half the mass lies below the median, and lognormal(mu, sigma) is
// lognormal_median(exp(mu), sigma) draw for draw.
TEST(RngTest, LognormalMedianHalvesTheMass) {
  Rng rng(5), mu_form(5);
  constexpr int kDraws = 1'000'000;
  constexpr double kMedian = 450.0, kSigma = 1.1;
  int below = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.lognormal_median(kMedian, kSigma);
    ASSERT_EQ(v, mu_form.lognormal(std::log(kMedian), kSigma));
    if (v < kMedian) ++below;
  }
  EXPECT_NEAR(below, kDraws / 2.0, 5.0 * std::sqrt(kDraws / 4.0));
}

}  // namespace
}  // namespace vstream::sim
