#include "net/tcp_model.h"

#include <algorithm>
#include <cmath>

namespace vstream::net {

const char* to_string(CongestionControl cc) {
  switch (cc) {
    case CongestionControl::kReno: return "reno";
    case CongestionControl::kCubic: return "cubic";
  }
  return "unknown";
}

TcpConnection::TcpConnection(TcpConfig config, PathConfig path, sim::Rng rng)
    : config_(config),
      path_(path),
      rng_(rng),
      cwnd_(std::max(1u, config.initial_window)),
      ssthresh_(config.initial_ssthresh) {
  hystart_active_ = rng_.bernoulli(config_.hystart_success_prob);
}

void TcpConnection::observe_rtt(sim::Ms m) {
  // RFC 6298 estimators, as implemented by the Linux kernel (alpha = 1/8,
  // beta = 1/4).  The paper's analyses consume exactly these smoothed values.
  if (!srtt_initialized_) {
    srtt_ms_ = m;
    rttvar_ms_ = m / 2.0;
    srtt_initialized_ = true;
    return;
  }
  const sim::Ms err = m - srtt_ms_;
  rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(err);
  srtt_ms_ = srtt_ms_ + err / 8.0;
}

void TcpConnection::on_loss() {
  if (config_.congestion_control == CongestionControl::kCubic) {
    // CUBIC multiplicative decrease: remember where the loss happened and
    // back off by beta; the cubic curve then climbs back toward W_max.
    set_cubic_wmax(static_cast<double>(cwnd_));
    ssthresh_ = std::max(
        2u, static_cast<std::uint32_t>(config_.cubic_beta * cwnd_));
    cwnd_ = ssthresh_;
    return;
  }
  // Reno fast-retransmit/fast-recovery approximation: halve the window once
  // per loss round and leave slow start.
  ssthresh_ = std::max(2u, cwnd_ / 2);
  cwnd_ = ssthresh_;
}

void TcpConnection::set_cubic_wmax(double wmax) {
  cubic_wmax_ = wmax;
  cubic_k_ = std::cbrt(wmax * (1.0 - config_.cubic_beta) / config_.cubic_c);
  cubic_epoch_ms_ = 0.0;
  cubic_epoch_rounds_ = 0;
}

void TcpConnection::grow_window(sim::Ms round_ms) {
  if (in_slow_start()) {
    if (hystart_active_ &&
        path_.queue_ms() > config_.hystart_queue_threshold_ms) {
      // HyStart: the queue is building — leave slow start before the
      // doubling overflows the bottleneck buffer.
      ssthresh_ = std::max(2u, cwnd_);
      if (config_.congestion_control == CongestionControl::kCubic &&
          cubic_wmax_ < static_cast<double>(cwnd_)) {
        // Treat the HyStart exit point as the curve's anchor.
        set_cubic_wmax(static_cast<double>(cwnd_));
      }
    } else {
      cwnd_ = std::min(config_.max_cwnd, cwnd_ * 2);
    }
    return;
  }

  if (config_.congestion_control == CongestionControl::kCubic &&
      cubic_wmax_ > 0.0) {
    // RFC 8312: W(t) = C*(t-K)^3 + W_max, t advancing with
    // congestion-avoidance time; never below the TCP-friendly
    // Reno-equivalent estimate.
    cubic_epoch_ms_ += std::max(round_ms, 0.0);
    ++cubic_epoch_rounds_;
    const double t_s = sim::to_seconds(cubic_epoch_ms_);
    const double dt = t_s - cubic_k_;
    const double w_cubic = config_.cubic_c * dt * dt * dt + cubic_wmax_;
    const double w_friendly =
        cubic_wmax_ * config_.cubic_beta +
        3.0 * (1.0 - config_.cubic_beta) / (1.0 + config_.cubic_beta) *
            static_cast<double>(cubic_epoch_rounds_);
    const double target = std::max(w_cubic, w_friendly);
    // Bound per-round growth so the curve's convex tail cannot teleport.
    const auto bounded = static_cast<std::uint32_t>(std::clamp(
        target, static_cast<double>(cwnd_), static_cast<double>(cwnd_) * 1.5));
    cwnd_ = std::min(config_.max_cwnd, std::max(cwnd_, bounded));
  } else {
    cwnd_ = std::min(config_.max_cwnd, cwnd_ + 1);
  }
}

sim::Ms TcpConnection::rto_ms() const {
  return std::max<sim::Ms>(config_.min_rto_ms, srtt_ms_ + 4.0 * rttvar_ms_);
}

void TcpConnection::idle(sim::Ms idle_ms) {
  path_.drain(idle_ms);
  if (srtt_initialized_ && idle_ms > rto_ms()) {
    // RFC 2861 congestion-window validation: after an RTO of idle the
    // window is no longer validated; restart from IW.  ssthresh keeps the
    // path memory, so the next chunk slow-starts straight back to it.
    cwnd_ = std::max(1u, config_.initial_window);
  }
}

TcpInfo TcpConnection::info() const {
  TcpInfo info;
  info.srtt_ms = srtt_ms_;
  info.rttvar_ms = rttvar_ms_;
  info.cwnd_segments = cwnd_;
  info.ssthresh_segments = ssthresh_;
  info.mss_bytes = config_.mss_bytes;
  info.total_retrans = total_retrans_;
  info.segments_out = segments_out_;
  info.bytes_acked = bytes_acked_;
  info.in_slow_start = in_slow_start();
  return info;
}

TransferResult TcpConnection::transfer(std::uint64_t bytes,
                                       std::vector<RoundSample>* round_samples) {
  TransferResult result;
  if (bytes == 0) return result;

  const std::uint32_t mss = config_.mss_bytes;
  std::uint64_t remaining =
      (bytes + mss - 1) / mss;  // segments left to deliver
  result.segments = static_cast<std::uint32_t>(remaining);

  // Pipe capacity (BDP + bottleneck buffer) in segments: windows beyond it
  // overflow the buffer.  Slow start's doubling overshoots by up to 2x —
  // the bursty end-of-slow-start loss of §4.2-3 — while congestion
  // avoidance only ever pokes one segment past.
  const double pipe_segments = path_.pipe_segments(mss);

  const std::uint32_t rwnd = config_.receiver_window_segments != 0
                                 ? config_.receiver_window_segments
                                 : config_.max_cwnd;

  sim::Ms clock = 0.0;
  while (remaining > 0) {
    std::uint32_t window = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::min(cwnd_, rwnd), remaining));

    // Drop-tail overflow (or pacing clamp) for the share of the window
    // beyond the pipe.
    std::uint32_t lost = 0;
    if (static_cast<double>(window) > pipe_segments) {
      const auto pipe_floor =
          std::max<std::uint32_t>(1, static_cast<std::uint32_t>(pipe_segments));
      if (config_.pacing) {
        // Paced senders spread the excess over subsequent rounds instead of
        // bursting it into a full buffer.
        window = pipe_floor;
      } else {
        lost += rng_.binomial(window - pipe_floor,
                              path_.config().tail_drop_prob);
      }
    }

    // Sample this round's RTT (advances the self-loading queue state) and
    // charge the round: a window takes max(rtt, serialization time) to be
    // delivered and acknowledged.
    const sim::Ms rtt = path_.sample_rtt(window, mss, rng_);
    const sim::Ms round_ms =
        std::max(rtt, path_.serialization_ms(window, mss));

    // Random loss for this round: the number of the window's segments
    // lost, counted off the path's loss countdown.
    lost += path_.random_losses(window, rng_);
    lost = std::min(lost, window);

    segments_out_ += window;
    ++result.rounds;

    if (result.rounds == 1) {
      // First data byte reaches the client one path RTT after the request
      // left it (request up + first segment down).  Queueing cannot have
      // built up yet, so this is the cleanest rtt0 observation.
      result.first_byte_ms = rtt;
    }

    if (lost > 0) {
      // Lost segments are retransmitted in a recovery round; the window
      // minus the losses is delivered this round.
      observe_rtt(rtt);
      on_loss();
      total_retrans_ += lost;
      result.retransmissions += lost;

      // Losing most of a window defeats fast retransmit (not enough dupacks)
      // and costs a full retransmission timeout — the stall that makes
      // early-session loss so damaging to QoE (§4.2-3).
      if (lost * 2 > window) {
        clock += rto_ms();
      }

      const std::uint64_t delivered = window - lost;
      remaining -= delivered;
      bytes_acked_ += delivered * static_cast<std::uint64_t>(mss);
      clock += round_ms;

      // Recovery round: retransmit the lost segments.
      const sim::Ms rec_rtt = path_.sample_rtt(lost, mss, rng_);
      observe_rtt(rec_rtt);
      segments_out_ += lost;
      ++result.rounds;
      remaining -= std::min<std::uint64_t>(lost, remaining);
      bytes_acked_ += static_cast<std::uint64_t>(lost) * mss;
      clock += std::max(rec_rtt, path_.serialization_ms(lost, mss));
    } else {
      observe_rtt(rtt);
      remaining -= window;
      bytes_acked_ += static_cast<std::uint64_t>(window) * mss;
      clock += round_ms;
      // Window growth only on clean rounds.
      grow_window(round_ms);
    }

    if (round_samples != nullptr) {
      round_samples->push_back(RoundSample{clock, info()});
    }
  }

  // The last byte cannot arrive before the whole transfer has serialized
  // through the bottleneck — even when the congestion window covers the
  // object in a single round.  Without this floor a one-round transfer
  // would report last-byte == first-byte (an infinite instantaneous
  // throughput, which only stack-buffered delivery should produce).
  result.duration_ms =
      std::max(clock, result.first_byte_ms +
                          path_.serialization_ms(result.segments, mss));
  if (round_samples != nullptr && !round_samples->empty()) {
    round_samples->back().at_ms =
        std::max(round_samples->back().at_ms, result.duration_ms);
  }
  return result;
}

}  // namespace vstream::net
