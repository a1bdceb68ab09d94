#include "net/path_model.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace vstream::net
