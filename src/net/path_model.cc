#include "net/path_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/geo.h"

namespace vstream::net {

const char* to_string(AccessType type) {
  switch (type) {
    case AccessType::kResidential: return "residential";
    case AccessType::kEnterprise: return "enterprise";
    case AccessType::kInternational: return "international";
  }
  return "unknown";
}

PathConfig make_path_config(AccessType type, double distance_km,
                            double bottleneck_kbps) {
  PathConfig config;
  config.bottleneck_kbps = bottleneck_kbps;
  // Access-network base latency on top of propagation: DOCSIS/DSL add a few
  // milliseconds; enterprise middleboxes and VPN hops add more.
  switch (type) {
    case AccessType::kResidential:
      config.base_rtt_ms = propagation_rtt_ms(distance_km) + 8.0;
      config.jitter_median_ms = 1.5;
      config.jitter_sigma = 0.7;
      config.random_loss = 1e-5;
      config.max_queue_ms = 100.0;
      config.spike_prob_per_round = 5e-5;
      config.spike_median_ms = 60.0;
      break;
    case AccessType::kEnterprise:
      // Proxies, inspection appliances and oversubscribed uplinks create the
      // high latency variability the paper measures for enterprises
      // (Table 4: ~40% of enterprise sessions have CV(SRTT) > 1, vs ~1%
      // residential).  The dominant mechanism is episodic: long congestion
      // events that multiply latency for seconds at a time.
      config.base_rtt_ms = propagation_rtt_ms(distance_km) + 12.0;
      config.jitter_median_ms = 8.0;
      config.jitter_sigma = 1.1;
      config.random_loss = 8e-5;
      config.max_queue_ms = 100.0;
      config.spike_prob_per_round = 3.5e-3;
      config.spike_median_ms = 450.0;
      config.spike_sigma = 0.8;
      break;
    case AccessType::kInternational:
      config.base_rtt_ms = propagation_rtt_ms(distance_km) + 10.0;
      config.jitter_median_ms = 3.0;
      config.jitter_sigma = 0.9;
      config.random_loss = 2e-4;
      config.max_queue_ms = 120.0;
      config.spike_prob_per_round = 5e-4;
      config.spike_median_ms = 120.0;
      break;
  }
  return config;
}

PathModel::PathModel(PathConfig config)
    : config_(config),
      log_jitter_median_(std::log(config.jitter_median_ms)),
      log_spike_median_(std::log(config.spike_median_ms)),
      log_fail_(std::log1p(-config.random_loss)),
      log_quiet_(std::log1p(-config.spike_prob_per_round)) {
  if (config.jitter_median_ms <= 0.0 ||
      (config.spike_prob_per_round > 0.0 && config.spike_median_ms <= 0.0)) {
    throw std::invalid_argument("path jitter and spike medians must be > 0");
  }
}

void PathModel::set_random_loss(double p) {
  if (p == config_.random_loss) return;
  config_.random_loss = p;
  log_fail_ = std::log1p(-p);
  segments_to_loss_ = -1.0;
}

std::uint32_t PathModel::random_losses(std::uint32_t segments, sim::Rng& rng) {
  const double p = config_.random_loss;
  if (p >= 1.0) return segments;
  if (!(p > 0.0) || segments == 0) return 0;  // p <= 0 or NaN: no loss
  // Segments are independent Bernoulli(p) trials, so the clean run before
  // the next loss is geometric wherever it starts: the countdown carries
  // over from round to round and is only drawn afresh after a loss.
  if (segments_to_loss_ < 0.0) segments_to_loss_ = rng.geometric(log_fail_);
  std::uint32_t lost = 0;
  double left = segments;
  while (segments_to_loss_ < left) {
    left -= segments_to_loss_ + 1.0;
    ++lost;
    segments_to_loss_ = rng.geometric(log_fail_);
  }
  segments_to_loss_ -= left;
  return lost;
}

sim::Ms PathModel::sample_rtt(std::uint32_t window_segments,
                              std::uint32_t segment_bytes, sim::Rng& rng) {
  // Episodic latency spikes (enterprise congestion events, path changes).
  sim::Ms spike = 0.0;
  if (spike_rounds_left_ > 0) {
    spike = spike_ms_;
    --spike_rounds_left_;
  } else if (config_.spike_prob_per_round > 0.0) {
    // Quiet rounds are independent Bernoulli(spike_prob_per_round) trials
    // for a spike start, so the quiet run before the next start is
    // geometric: one draw per spike instead of one per round.
    if (rounds_to_spike_ < 0.0) rounds_to_spike_ = rng.geometric(log_quiet_);
    if (rounds_to_spike_ > 0.0) {
      --rounds_to_spike_;
    } else {
      rounds_to_spike_ = -1.0;
      spike_ms_ = rng.lognormal(log_spike_median_, config_.spike_sigma);
      spike_rounds_left_ = static_cast<std::uint32_t>(rng.uniform_int(
          config_.spike_min_rounds, config_.spike_max_rounds));
      spike = spike_ms_;
    }
  }

  // Self-loading (paper §4.2-1 footnote): in an ack-clocked steady state
  // the standing queue is the in-flight excess over the BDP — serializing
  // the window takes serialize(W); whatever exceeds one base RTT of
  // transmission sits in the bottleneck buffer.  The queue therefore
  // tracks the window (it does not integrate across rounds), capped at the
  // buffer depth; anything beyond the cap is drop-tail territory, handled
  // by the TCP model via pipe_segments().
  const sim::Ms serialize = serialization_ms(window_segments, segment_bytes);
  queue_ms_ = std::clamp(serialize - config_.base_rtt_ms, 0.0,
                         config_.max_queue_ms);

  const sim::Ms jitter = rng.lognormal(log_jitter_median_, config_.jitter_sigma);
  return config_.base_rtt_ms + jitter + spike + queue_ms_;
}

double PathModel::pipe_segments(std::uint32_t segment_bytes) const {
  const double bits_per_segment = 8.0 * static_cast<double>(segment_bytes);
  const double bdp =
      config_.bottleneck_kbps * config_.base_rtt_ms / bits_per_segment;
  const double buffer =
      config_.bottleneck_kbps * config_.max_queue_ms / bits_per_segment;
  return bdp + buffer;
}

sim::Ms PathModel::serialization_ms(std::uint32_t window_segments,
                                    std::uint32_t segment_bytes) const {
  if (config_.bottleneck_kbps <= 0.0) return 0.0;
  const double bits =
      static_cast<double>(window_segments) * segment_bytes * 8.0;
  return bits / config_.bottleneck_kbps;  // 1 kbit/s == 1 bit/ms
}

void PathModel::drain(sim::Ms idle_ms) {
  queue_ms_ = std::max(0.0, queue_ms_ - std::max(0.0, idle_ms));
}

}  // namespace vstream::net
