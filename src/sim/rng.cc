#include "sim/rng.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace vstream::sim {

std::uint32_t Rng::binomial(std::uint32_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // From here up the per-trial loop is cheaper: each gap costs a logarithm
  // and a division, and from p ~0.3 that outweighs the draws it skips
  // (measured at n = 70, -O2).  NaN also takes the loop, where it never
  // succeeds.
  constexpr double kGeometricMaxP = 0.25;
  std::uint32_t successes = 0;
  if (p < kGeometricMaxP) {
    // Inversion: floor(log(1 - u) / log(1 - p)) failures precede the next
    // success.  The trial index stays a double: at p = 1e-5 one gap can
    // pass 2^32, and converting that to an integer would overflow.
    const double log_fail = std::log1p(-p);
    double trial = 0.0;
    for (;;) {
      trial += std::floor(std::log1p(-canonical()) / log_fail);
      if (trial >= static_cast<double>(n)) return successes;
      ++successes;
      trial += 1.0;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (canonical() < p) ++successes;
  }
  return successes;
}

double Rng::lognormal_median(double median, double sigma) {
  if (median <= 0.0) throw std::invalid_argument("lognormal median must be > 0");
  return std::lognormal_distribution<double>(std::log(median), sigma)(engine_);
}

double Rng::pareto(double x_m, double alpha) {
  if (x_m <= 0.0 || alpha <= 0.0) {
    throw std::invalid_argument("pareto parameters must be > 0");
  }
  // Inverse-CDF sampling: F(x) = 1 - (x_m/x)^alpha.
  const double u = 1.0 - uniform01();  // in (0, 1]
  return x_m / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::discrete(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("discrete: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("discrete: non-positive total");
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

Rng Rng::fork() {
  return Rng(fork_seed());
}

}  // namespace vstream::sim
