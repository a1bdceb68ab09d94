// A userspace snapshot of sender-side TCP state, mirroring the subset of
// Linux's `struct tcp_info` the paper's CDN instrumentation records
// (Table 2: CWND, SRTT, SRTTVAR, retx, MSS).
//
// Analyses must treat this struct as the *only* network observable — the
// simulator's ground truth (true path RTT, true loss times) is not exposed
// here, exactly as in production where the kernel exports smoothed
// estimators only (§5 discussion point 2).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace vstream::net {

struct TcpInfo {
  sim::Ms srtt_ms = 0.0;     ///< smoothed RTT (RFC 6298 EWMA)
  sim::Ms rttvar_ms = 0.0;   ///< smoothed mean deviation of RTT
  std::uint32_t cwnd_segments = 0;
  std::uint32_t ssthresh_segments = 0;
  std::uint32_t mss_bytes = 0;
  std::uint64_t total_retrans = 0;  ///< cumulative retransmitted segments
  std::uint64_t segments_out = 0;   ///< cumulative data segments sent
  std::uint64_t bytes_acked = 0;
  bool in_slow_start = false;

  /// Sender throughput estimate from TCP state (paper Eq. 3):
  /// TP = MSS * CWND / SRTT, in kilobits per second.
  double throughput_estimate_kbps() const {
    if (srtt_ms <= 0.0) return 0.0;
    return static_cast<double>(mss_bytes) * cwnd_segments * 8.0 / srtt_ms;
  }

  bool operator==(const TcpInfo&) const = default;
};

}  // namespace vstream::net
