#include "sim/rng.h"

#include <array>
#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace vstream::sim {

namespace {

// The 128-layer ziggurat under the unnormalized density f(x) = exp(-x²/2),
// x >= 0.  Layer 0 is the base strip [0, x[0]) x [0, f(r)) with r = x[1]:
// the rectangle [0, r) x [0, f(r)) plus the tail beyond r, stacked into
// one strip of area v.  Layer i >= 1 is the rectangle [0, x[i]) x
// [f(x[i]), f(x[i+1])), also of area v; x[128] = 0 caps the top.
struct Ziggurat {
  static constexpr int kLayers = 128;
  std::array<double, kLayers + 1> x{};
  std::array<double, kLayers + 1> f{};  // f[i] = f(x[i])
};

double density(double x) { return std::exp(-0.5 * x * x); }

// Area of the base strip for a tail start r: r f(r) + ∫_r^∞ f.
double base_area(double r) {
  return r * density(r) +
         std::sqrt(std::numbers::pi / 2.0) * std::erfc(r / std::numbers::sqrt2);
}

// Stack layers of area base_area(r) from x[1] = r upwards.  Returns how far
// the 127th layer's top misses f = 1: positive when the layers are too fat
// (r too small) and run out early, negative when they are too thin.
double top_gap(double r, Ziggurat* z) {
  const double v = base_area(r);
  double x = r;
  for (int i = 1; i < Ziggurat::kLayers - 1; ++i) {
    const double top = v / x + density(x);  // f(x[i+1])
    if (top >= 1.0) return 1.0;
    x = std::sqrt(-2.0 * std::log(top));
    if (z != nullptr) z->x[i + 1] = x;
  }
  return v / x + density(x) - 1.0;
}

// r is the root of top_gap, found by bisection to the last bit, so the
// layers close exactly at the top and every layer has the base's area.
Ziggurat make_ziggurat() {
  double lo = 3.0, hi = 4.0;
  for (double mid = 0.5 * (lo + hi); lo < mid && mid < hi;
       mid = 0.5 * (lo + hi)) {
    (top_gap(mid, nullptr) > 0.0 ? lo : hi) = mid;
  }
  Ziggurat z;
  z.x[0] = base_area(hi) / density(hi);
  z.x[1] = hi;
  top_gap(hi, &z);
  z.x[Ziggurat::kLayers] = 0.0;
  for (int i = 0; i <= Ziggurat::kLayers; ++i) z.f[i] = density(z.x[i]);
  return z;
}

}  // namespace

double Rng::standard_normal() {
  static const Ziggurat z = make_ziggurat();
  for (;;) {
    // One 64-bit draw, split into disjoint bit fields: bits 0-6 pick the
    // layer, bit 7 the sign, and the top 53 bits a point u * x[layer] of
    // the layer's width.
    const std::uint64_t bits = engine_();
    const std::size_t layer = bits & (Ziggurat::kLayers - 1);
    const double sign = (bits & 0x80u) != 0 ? -1.0 : 1.0;
    const double x = static_cast<double>(bits >> 11) * 0x1p-53 * z.x[layer];
    // Inside the next layer up's width the point lies under the curve.
    if (x < z.x[layer + 1]) [[likely]] return sign * x;
    if (layer == 0) {
      // Past r = x[1] in the base strip: draw from the tail beyond r
      // exactly (Marsaglia 1964), with uniforms in (0, 1] for the logs.
      const double r = z.x[1];
      double t = 0.0, e = 0.0;
      do {
        t = -std::log(1.0 - canonical()) / r;
        e = -std::log(1.0 - canonical());
      } while (e + e < t * t);
      return sign * (r + t);
    }
    // The wedge between the layer's rectangle and the curve: accept if a
    // uniform height in [f(x[layer]), f(x[layer+1])) falls under f(x).
    if (z.f[layer] + canonical() * (z.f[layer + 1] - z.f[layer]) <
        density(x)) {
      return sign * x;
    }
  }
}

std::uint32_t Rng::binomial(std::uint32_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // NaN takes the per-trial loop, where it never succeeds.
  std::uint32_t successes = 0;
  if (p < kGeometricMaxP) {
    // The trial index stays a double: at p = 1e-5 one gap can pass 2^32,
    // and converting that to an integer would overflow.
    const double log_fail = std::log1p(-p);
    double trial = 0.0;
    for (;;) {
      trial += geometric(log_fail);
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
  return lognormal(std::log(median), sigma);
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
