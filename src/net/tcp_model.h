// Round-granularity TCP sender model.
//
// The paper never needs packet traces: its CDN-side instrumentation is the
// kernel's tcp_info snapshot (SRTT, RTTVAR, CWND, MSS, retransmission
// counters) sampled every 500 ms (§2.1).  We therefore simulate a Reno-like
// sender at per-RTT round granularity:
//
//   * slow start doubles CWND per round, congestion avoidance adds one
//     segment per round,
//   * losses come from random per-segment drops, counted off the path's
//     countdown to the next loss (PathModel::random_losses), plus
//     drop-tail overflow when the window exceeds the path pipe (BDP +
//     bottleneck buffer), one binomial count per round; both trigger fast
//     retransmit (ssthresh = cwnd/2) and cost one recovery round.  Slow
//     start's doubling overshoots the pipe by up to 2x, which is exactly
//     the bursty end-of-slow-start loss the paper blames for first-chunk
//     retransmissions (§4.2-3, Fig. 15),
//   * after an idle period longer than the RTO the congestion window
//     resets to IW (RFC 2861 congestion-window validation) while ssthresh
//     keeps the learned path memory — so steady-state chunks ramp quickly
//     and cleanly,
//   * SRTT/RTTVAR follow the RFC 6298 EWMAs exactly as the kernel computes
//     them, so downstream analyses inherit the same estimator bias the
//     paper discusses (srtt_min > true min RTT, §4.2-1 footnote).
//
// transfer() moves one chunk over the connection and reports both the
// aggregate result (duration, first-byte time, retransmissions) and the
// per-round snapshot timeline that the telemetry layer downsamples to the
// paper's 500 ms tcp_info cadence.
#pragma once

#include <cstdint>
#include <vector>

#include "net/path_model.h"
#include "net/tcp_info.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace vstream::net {

/// Congestion-avoidance flavour.  Reno grows one segment per RTT; CUBIC
/// (the Linux default since 2.6.19, i.e. what the paper's CDN ran) follows
/// the cubic curve W(t) = C*(t-K)^3 + W_max — concave back toward the
/// window where the last loss happened, brief plateau, then convex probing.
enum class CongestionControl : std::uint8_t { kReno, kCubic };

const char* to_string(CongestionControl cc);

struct TcpConfig {
  CongestionControl congestion_control = CongestionControl::kReno;
  /// CUBIC constants (RFC 8312 defaults).
  double cubic_c = 0.4;
  double cubic_beta = 0.7;

  std::uint32_t mss_bytes = 1460;
  std::uint32_t initial_window = 10;        ///< IW10 (paper §4.3-3 filter)
  std::uint32_t initial_ssthresh = 1'000;   ///< effectively "until first loss"
  std::uint32_t max_cwnd = 4'096;
  sim::Ms min_rto_ms = 200.0;
  /// Server-side pacing (paper take-away §4.2-3, [19] Trickle): spreads the
  /// window over the RTT so bursts never overflow the bottleneck buffer;
  /// modelled as clamping the per-round window to the pipe size instead of
  /// dropping the excess.
  bool pacing = false;

  /// HyStart-style slow-start exit: when the standing queue passes the
  /// threshold, leave slow start without a loss.  Real HyStart misses the
  /// signal on jittery paths, so each connection draws whether it works;
  /// the sessions where it fails are the ones whose first chunk bursts
  /// losses at the end of slow start (Fig. 15).
  double hystart_success_prob = 0.5;
  sim::Ms hystart_queue_threshold_ms = 8.0;

  /// Receiver advertised window in segments (flow control); 0 = unlimited.
  /// Client OS receive-buffer autotuning caps this in practice, and a rwnd
  /// below the path pipe keeps the session loss-free.
  std::uint32_t receiver_window_segments = 0;
};

/// Aggregate outcome of one chunk transfer.
struct TransferResult {
  sim::Ms duration_ms = 0.0;    ///< request sent -> last byte at client NIC
  sim::Ms first_byte_ms = 0.0;  ///< request sent -> first byte at client NIC
                                ///< (one full RTT: request up + data down)
  std::uint32_t segments = 0;       ///< data segments (excluding retx)
  std::uint32_t retransmissions = 0;
  std::uint32_t rounds = 0;
};

/// One per-round checkpoint of connection state during a transfer.
struct RoundSample {
  sim::Ms at_ms = 0.0;  ///< offset from the start of the transfer
  TcpInfo info;
};

class TcpConnection {
 public:
  TcpConnection(TcpConfig config, PathConfig path, sim::Rng rng);

  /// Transfer `bytes` over the connection, advancing congestion state.
  /// `round_samples`, if non-null, receives per-round tcp_info checkpoints.
  TransferResult transfer(std::uint64_t bytes,
                          std::vector<RoundSample>* round_samples = nullptr);

  /// Snapshot of current state, as the CDN's tcp_info sampler would read it.
  TcpInfo info() const;

  /// Retransmission timeout per the kernel's formula (max(min_rto,
  /// srtt + 4*rttvar)); exposed because the connection uses it internally.
  sim::Ms rto_ms() const;

  /// Idle time between transfers: the bottleneck queue drains, and an idle
  /// longer than the RTO resets CWND to IW (congestion-window validation,
  /// RFC 2861) while keeping ssthresh.
  void idle(sim::Ms idle_ms);

  const PathModel& path() const { return path_; }
  /// Mutable path access for scripted experiments (loss schedules).
  PathModel& mutable_path() { return path_; }
  const TcpConfig& config() const { return config_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  std::uint32_t cwnd() const { return cwnd_; }
  bool hystart_active() const { return hystart_active_; }

 private:
  void observe_rtt(sim::Ms sample_ms);
  void on_loss();
  void grow_window(sim::Ms round_ms);
  /// Anchor the cubic curve at `wmax` and restart its epoch.
  void set_cubic_wmax(double wmax);

  TcpConfig config_;
  PathModel path_;
  sim::Rng rng_;
  bool hystart_active_ = false;

  std::uint32_t cwnd_;
  std::uint32_t ssthresh_;
  bool srtt_initialized_ = false;
  sim::Ms srtt_ms_ = 0.0;
  sim::Ms rttvar_ms_ = 0.0;
  std::uint64_t total_retrans_ = 0;
  std::uint64_t segments_out_ = 0;
  std::uint64_t bytes_acked_ = 0;

  // CUBIC state: window at the last loss, the curve's K =
  // cbrt(W_max*(1-beta)/C) (taken once per anchor, not per round),
  // congestion-avoidance time since the loss (the `t` of the cubic curve),
  // and CA rounds for the TCP-friendly lower bound.
  double cubic_wmax_ = 0.0;
  double cubic_k_ = 0.0;
  sim::Ms cubic_epoch_ms_ = 0.0;
  std::uint64_t cubic_epoch_rounds_ = 0;
};

}  // namespace vstream::net
