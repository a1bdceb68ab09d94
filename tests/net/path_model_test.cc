#include "net/path_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "net/geo.h"

namespace vstream::net {
namespace {

TEST(PathConfigTest, EnterpriseHasMoreJitterThanResidential) {
  const PathConfig res = make_path_config(AccessType::kResidential, 500.0, 10'000);
  const PathConfig ent = make_path_config(AccessType::kEnterprise, 500.0, 10'000);
  EXPECT_GT(ent.jitter_median_ms, res.jitter_median_ms);
  EXPECT_GT(ent.jitter_sigma, res.jitter_sigma);
}

TEST(PathConfigTest, BaseRttGrowsWithDistance) {
  const PathConfig near = make_path_config(AccessType::kResidential, 100.0, 10'000);
  const PathConfig far = make_path_config(AccessType::kResidential, 8'000.0, 10'000);
  EXPECT_GT(far.base_rtt_ms, near.base_rtt_ms);
  EXPECT_NEAR(far.base_rtt_ms - near.base_rtt_ms,
              propagation_rtt_ms(8'000.0) - propagation_rtt_ms(100.0), 1e-9);
}

TEST(PathModelTest, RttAtLeastBase) {
  PathModel path(make_path_config(AccessType::kResidential, 1'000.0, 10'000));
  sim::Rng rng(1);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_GE(path.sample_rtt(1, 1460, rng), path.config().base_rtt_ms);
  }
}

TEST(PathModelTest, SerializationMsMatchesCapacity) {
  PathConfig config;
  config.bottleneck_kbps = 8'000.0;  // 8 kbit per ms -> 1000 bytes per ms
  PathModel path(config);
  // 10 segments * 1000 bytes * 8 bits = 80,000 bits / 8,000 kbps = 10 ms.
  EXPECT_NEAR(path.serialization_ms(10, 1'000), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(path.serialization_ms(0, 1'000), 0.0);
}

TEST(PathModelTest, SelfLoadingBuildsQueue) {
  PathConfig config;
  config.base_rtt_ms = 10.0;
  config.jitter_median_ms = 0.01;
  config.jitter_sigma = 0.01;
  config.bottleneck_kbps = 1'000.0;  // slow path
  config.max_queue_ms = 500.0;
  PathModel path(config);
  sim::Rng rng(2);
  // A 100-segment window serializes in 1168 ms >> 10 ms RTT: queue grows.
  path.sample_rtt(100, 1'460, rng);
  EXPECT_GT(path.queue_ms(), 0.0);
  const sim::Ms q1 = path.queue_ms();
  path.sample_rtt(100, 1'460, rng);
  EXPECT_GE(path.queue_ms(), q1);  // keeps growing (until the cap)
}

TEST(PathModelTest, QueueCapRespected) {
  PathConfig config;
  config.base_rtt_ms = 5.0;
  config.bottleneck_kbps = 500.0;
  config.max_queue_ms = 50.0;
  PathModel path(config);
  sim::Rng rng(3);
  for (int i = 0; i < 100; ++i) path.sample_rtt(200, 1'460, rng);
  EXPECT_LE(path.queue_ms(), 50.0);
}

TEST(PathModelTest, QueueDrainsWhenSendingSlowly) {
  PathConfig config;
  config.base_rtt_ms = 20.0;
  config.bottleneck_kbps = 1'000.0;
  PathModel path(config);
  sim::Rng rng(4);
  for (int i = 0; i < 20; ++i) path.sample_rtt(100, 1'460, rng);
  EXPECT_GT(path.queue_ms(), 0.0);
  for (int i = 0; i < 200; ++i) path.sample_rtt(1, 100, rng);
  EXPECT_DOUBLE_EQ(path.queue_ms(), 0.0);
}

TEST(PathModelTest, DrainClearsQueue) {
  PathConfig config;
  config.base_rtt_ms = 5.0;
  config.bottleneck_kbps = 800.0;
  PathModel path(config);
  sim::Rng rng(5);
  for (int i = 0; i < 10; ++i) path.sample_rtt(100, 1'460, rng);
  ASSERT_GT(path.queue_ms(), 0.0);
  path.drain(1e9);
  EXPECT_DOUBLE_EQ(path.queue_ms(), 0.0);
}

TEST(PathModelTest, LossProbabilityObeyed) {
  PathConfig config;
  config.random_loss = 0.05;
  config.tail_drop_prob = 0.30;
  PathModel path(config);
  sim::Rng rng(6);
  const std::uint32_t n = 100'000;
  const std::uint32_t random_losses =
      rng.binomial(n, path.config().random_loss);
  const std::uint32_t tail_drops =
      rng.binomial(n, path.config().tail_drop_prob);
  EXPECT_NEAR(random_losses / static_cast<double>(n), 0.05, 0.005);
  EXPECT_NEAR(tail_drops / static_cast<double>(n), 0.30, 0.01);
}

TEST(PathModelTest, SetRandomLossOverride) {
  PathConfig config;
  config.random_loss = 0.0;
  PathModel path(config);
  sim::Rng rng(7);
  EXPECT_EQ(rng.binomial(1'000, path.config().random_loss), 0u);
  path.set_random_loss(1.0);
  EXPECT_EQ(rng.binomial(10, path.config().random_loss), 10u);
}

TEST(PathModelTest, PipeSegmentsIsBdpPlusBuffer) {
  PathConfig config;
  config.base_rtt_ms = 20.0;
  config.max_queue_ms = 60.0;
  config.bottleneck_kbps = 11'680.0;  // 1 segment (1460 B) per ms
  PathModel path(config);
  // BDP = 20 segments, buffer = 60 segments.
  EXPECT_NEAR(path.pipe_segments(1'460), 80.0, 1e-9);
}

TEST(PathModelTest, SpikesAddLatencyForManyRounds) {
  PathConfig config;
  config.base_rtt_ms = 20.0;
  config.jitter_median_ms = 0.1;
  config.jitter_sigma = 0.1;
  config.spike_prob_per_round = 1.0;  // spike immediately
  config.spike_median_ms = 300.0;
  config.spike_sigma = 0.1;
  config.spike_min_rounds = 10;
  config.spike_max_rounds = 10;
  config.bottleneck_kbps = 1e9;
  PathModel path(config);
  sim::Rng rng(8);
  // Rounds 1..10 are spiked; afterwards a new spike starts immediately
  // (prob 1), so every sample is elevated.
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(path.sample_rtt(1, 1'460, rng), 200.0) << "round " << i;
    EXPECT_TRUE(path.spiking() || i == 9);
  }
}

TEST(PathModelTest, NoSpikesWhenDisabled) {
  PathConfig config;
  config.base_rtt_ms = 20.0;
  config.jitter_median_ms = 0.1;
  config.jitter_sigma = 0.1;
  config.spike_prob_per_round = 0.0;
  config.bottleneck_kbps = 1e9;
  PathModel path(config);
  sim::Rng rng(9);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_LT(path.sample_rtt(1, 1'460, rng), 25.0);
    EXPECT_FALSE(path.spiking());
  }
}

TEST(PathConfigTest, EnterpriseSpikesDwarfResidential) {
  const PathConfig res = make_path_config(AccessType::kResidential, 500.0, 10'000);
  const PathConfig ent = make_path_config(AccessType::kEnterprise, 500.0, 10'000);
  EXPECT_GT(ent.spike_prob_per_round, 10.0 * res.spike_prob_per_round);
  EXPECT_GT(ent.spike_median_ms, res.spike_median_ms);
}

TEST(PathModelTest, AccessTypeNames) {
  EXPECT_STREQ(to_string(AccessType::kResidential), "residential");
  EXPECT_STREQ(to_string(AccessType::kEnterprise), "enterprise");
  EXPECT_STREQ(to_string(AccessType::kInternational), "international");
}

// Property sweep over distances: base RTT stays consistent with the
// propagation rule for every access type.
class PathDistanceTest
    : public ::testing::TestWithParam<std::tuple<AccessType, double>> {};

TEST_P(PathDistanceTest, BaseRttAtLeastPropagation) {
  const auto [access, km] = GetParam();
  const PathConfig config = make_path_config(access, km, 10'000);
  EXPECT_GE(config.base_rtt_ms, propagation_rtt_ms(km));
  EXPECT_LE(config.base_rtt_ms, propagation_rtt_ms(km) + 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathDistanceTest,
    ::testing::Combine(::testing::Values(AccessType::kResidential,
                                         AccessType::kEnterprise,
                                         AccessType::kInternational),
                       ::testing::Values(10.0, 200.0, 1'500.0, 9'000.0)));

// ---- Memoryless countdowns: random losses and spike starts ----

PathModel lossy_path(double random_loss) {
  PathConfig config;
  config.random_loss = random_loss;
  return PathModel(config);
}

/// Mean and variance of per-window loss counts within five standard errors
/// of Binomial(n, p), and a two-sample KS test against `reference` counts.
void expect_binomial_counts(const std::vector<std::uint32_t>& counts,
                            const std::vector<std::uint32_t>& reference,
                            std::uint32_t n, double p) {
  SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
  const double draws = static_cast<double>(counts.size());
  double sum = 0.0, sq = 0.0;
  for (const std::uint32_t k : counts) {
    sum += k;
    sq += static_cast<double>(k) * k;
  }
  const double mean = sum / draws;
  const double var = (sq - sum * mean) / (draws - 1.0);
  const double npq = n * p * (1.0 - p);
  const double mu4 = npq * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p));
  EXPECT_NEAR(mean, n * p, 5.0 * std::sqrt(npq / draws));
  EXPECT_NEAR(var, npq, 5.0 * std::sqrt((mu4 - npq * npq) / draws));

  std::vector<long> hist(n + 1, 0), ref_hist(n + 1, 0);
  for (const std::uint32_t k : counts) ++hist[k];
  for (const std::uint32_t k : reference) ++ref_hist[k];
  long cdf = 0, ref_cdf = 0, max_gap = 0;
  for (std::uint32_t k = 0; k <= n; ++k) {
    cdf += hist[k];
    ref_cdf += ref_hist[k];
    max_gap = std::max(max_gap, std::abs(cdf - ref_cdf));
  }
  // Critical distance at alpha = 1e-3 for two equal samples.
  EXPECT_LT(max_gap / draws, 1.949 * std::sqrt(2.0 / draws));
}

// Per-window counts off the countdown match rng.binomial() at a short
// window on a lossy path and a long window on a clean one, with p changed
// in mid-stream between the two, and then at a loss as heavy as tail
// drop's, where rng.binomial() loops over trials instead.
TEST(PathModelTest, RandomLossesMatchBinomialAcrossAPChange) {
  constexpr int kWindows = 200'000;
  const std::pair<std::uint32_t, double> phases[] = {
      {40, 1e-3}, {400, 2e-4}, {70, 0.5}};
  PathModel path = lossy_path(phases[0].second);
  sim::Rng rng(13), binomial_rng(14);
  for (const auto& [n, p] : phases) {
    path.set_random_loss(p);
    std::vector<std::uint32_t> counts, reference;
    for (int w = 0; w < kWindows; ++w) {
      counts.push_back(path.random_losses(n, rng));
      reference.push_back(binomial_rng.binomial(n, p));
    }
    expect_binomial_counts(counts, reference, n, p);
  }
}

// The countdown is the per-segment Bernoulli process itself: losses sit at
// geometric gaps drawn back to back, whatever the window boundaries, and a
// new p starts a fresh gap.
TEST(PathModelTest, RandomLossesSitAtGeometricGaps) {
  PathModel path = lossy_path(0.02);
  sim::Rng rng(21);
  sim::Rng gaps = rng;
  double p = 0.02;
  double next_loss = gaps.geometric(std::log1p(-p));  // segment index
  double sent = 0.0;
  for (int w = 0; w < 20'000; ++w) {
    if (w == 10'000) {
      p = 0.05;
      path.set_random_loss(p);
      next_loss = sent + gaps.geometric(std::log1p(-p));
    }
    const std::uint32_t window = 1 + static_cast<std::uint32_t>(w % 97);
    std::uint32_t expected = 0;
    while (next_loss < sent + window) {
      ++expected;
      next_loss += 1.0 + gaps.geometric(std::log1p(-p));
    }
    sent += window;
    ASSERT_EQ(path.random_losses(window, rng), expected) << "window " << w;
  }
  EXPECT_TRUE(rng.engine() == gaps.engine());
}

TEST(PathModelTest, SameRandomLossKeepsTheCountdown) {
  PathModel reset_each_window = lossy_path(1e-3);
  PathModel untouched = lossy_path(1e-3);
  sim::Rng rng_a(3), rng_b(3);
  for (int w = 0; w < 10'000; ++w) {
    reset_each_window.set_random_loss(1e-3);
    ASSERT_EQ(reset_each_window.random_losses(40, rng_a),
              untouched.random_losses(40, rng_b));
  }
  EXPECT_TRUE(rng_a.engine() == rng_b.engine());
}

// No loss (p <= 0, NaN, an empty window) and certain loss (p >= 1) leave
// nothing to draw.
TEST(PathModelTest, RandomLossesDrawNothingWhenCertain) {
  PathModel path = lossy_path(0.0);
  sim::Rng rng(4);
  rng.uniform01();  // leave the engine mid-block
  const sim::Mt64 untouched = rng.engine();
  for (int w = 0; w < 1'000; ++w) EXPECT_EQ(path.random_losses(400, rng), 0u);
  path.set_random_loss(-0.5);
  EXPECT_EQ(path.random_losses(400, rng), 0u);
  path.set_random_loss(std::nan(""));
  EXPECT_EQ(path.random_losses(400, rng), 0u);
  path.set_random_loss(1e-3);
  EXPECT_EQ(path.random_losses(0, rng), 0u);
  path.set_random_loss(1.0);
  EXPECT_EQ(path.random_losses(70, rng), 70u);
  EXPECT_TRUE(rng.engine() == untouched);
}

// A spike starts in a quiet round with probability spike_prob_per_round.
TEST(PathModelTest, SpikeStartsPerQuietRoundMatchProbability) {
  PathConfig config = make_path_config(AccessType::kEnterprise, 500.0, 10'000);
  config.spike_min_rounds = 1;
  config.spike_max_rounds = 9;
  PathModel path(config);
  sim::Rng rng(6);
  constexpr int kRounds = 1'000'000;
  int quiet = 0, starts = 0;
  for (int i = 0; i < kRounds; ++i) {
    const bool was_spiking = path.spiking();
    path.sample_rtt(10, 1'460, rng);
    if (!was_spiking) {
      ++quiet;
      if (path.spiking()) ++starts;
    }
  }
  const double q = config.spike_prob_per_round;
  EXPECT_NEAR(starts, quiet * q, 5.0 * std::sqrt(quiet * q * (1.0 - q)));
}

}  // namespace
}  // namespace vstream::net
