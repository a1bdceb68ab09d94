// Seeded random number generation for deterministic simulations.
//
// Every stochastic component in the library draws from an explicitly passed
// Rng so that a simulation run is a pure function of (scenario, seed).  The
// helpers cover the distributions the workload and path models need:
// uniform, Bernoulli, binomial, geometric, exponential, normal, log-normal,
// Pareto and discrete.
//
// Normal and log-normal variates come from one exact N(0, 1) sampler, a
// 128-layer ziggurat (standard_normal()).  It keeps no cached variate, so
// an Rng's whole state is its engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sim/mt64.h"

namespace vstream::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  ///
  /// Inline replication of libstdc++'s generate_canonical<double, 53>
  /// over mt19937_64 — one engine draw scaled by 2^-64 (exact, a power of
  /// two) with the >= 1.0 guard — so it returns bit-identical values to
  /// std::uniform_real_distribution<double>(0, 1) on the same engine state
  /// while skipping the per-call distribution machinery.
  /// tests/sim/rng_test.cc pins the equivalence.
  double uniform01() { return canonical(); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// True with probability p (clamped to [0, 1]).  p <= 0 and p >= 1
  /// short-circuit without consuming engine state, as before.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Successes in n independent Bernoulli(p) trials, drawn exactly from
  /// Binomial(n, p).  n == 0, p <= 0 and p >= 1 short-circuit without
  /// consuming engine state, as bernoulli() does.  Small p jumps from one
  /// success to the next with geometric() gaps, so a call costs
  /// O(successes + 1) engine draws.  From kGeometricMaxP up (tail drop's
  /// 0.5) it runs the per-trial bernoulli() loop: there most trials
  /// succeed, so skipping saves few draws and pays a logarithm for each.
  std::uint32_t binomial(std::uint32_t n, double p);

  /// The p from which binomial() loops over trials instead of skipping:
  /// each gap costs a logarithm and a division, and from p ~0.3 that
  /// outweighs the draws it skips (measured at n = 70, -O2).
  static constexpr double kGeometricMaxP = 0.25;

  /// Failures before the first success in Bernoulli(p) trials, given
  /// log_fail = log1p(-p) for 0 < p < 1: floor(log(1 - u) / log(1 - p)) by
  /// inversion, one engine draw.  Returned as a double, since at p = 1e-5
  /// a gap can pass 2^32.
  double geometric(double log_fail) {
    return std::floor(std::log1p(-canonical()) / log_fail);
  }

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Standard normal N(0, 1), drawn exactly by a 128-layer ziggurat
  /// (Marsaglia & Tsang 2000): one engine draw picks a layer, a sign and a
  /// point in the layer, and 97.2% of points return at once.  The rest
  /// take the wedge test against the density or, in the base layer, the
  /// exact tail beyond r = 3.44 by Marsaglia's exponential rejection; a
  /// rejected point (1.2%) draws afresh.  A variate costs 1.04 engine
  /// draws on average.
  double standard_normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * standard_normal();
  }

  /// Log-normal parameterized by the *median* and the shape sigma of the
  /// underlying normal.  median = exp(mu), so mu = ln(median).
  double lognormal_median(double median, double sigma);

  /// Log-normal exp(N(mu, sigma^2)): lognormal_median with the logarithm
  /// of the median taken once by a caller whose median is fixed.
  double lognormal(double mu, double sigma) {
    return std::exp(mu + sigma * standard_normal());
  }

  /// Pareto with scale x_m (minimum) and shape alpha.
  double pareto(double x_m, double alpha);

  /// Index in [0, weights.size()) drawn proportionally to weights.
  std::size_t discrete(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child generator (for parallel components).
  Rng fork();

  /// Draw the seed a fork() child would be built from (consumes exactly the
  /// same master state as fork()).  Lets callers defer child construction —
  /// e.g. ship the seed to a worker thread — while keeping the master
  /// sequence identical to an immediate fork().
  std::uint64_t fork_seed() { return engine_(); }

  Mt64& engine() { return engine_; }

 private:
  /// One engine draw mapped onto [0, 1) exactly as libstdc++'s
  /// generate_canonical does for a 64-bit engine: round the draw to double
  /// (53-bit mantissa), scale by 2^-64 (exact — power-of-two scaling never
  /// rounds), and clamp the half-ulp overflow case back under 1.0.
  double canonical() {
    const double r = static_cast<double>(engine_()) * 0x1p-64;
    if (r >= 1.0) [[unlikely]] {
      return 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
    }
    return r;
  }

  // Bit-exact mt19937_64 replacement with a faster refill (sim/mt64.h);
  // the std templates above (uniform_int, exponential, shuffle) accept it
  // like any URBG and draw the same values they would from
  // std::mt19937_64.
  Mt64 engine_;
};

}  // namespace vstream::sim
