// The paper's chunk-level diagnosis methods, reimplemented on observables
// only (never on simulator ground truth):
//
//   * Eq. 2  — performance score: tau / (D_FB + D_LB); < 1 means the chunk
//              drained more buffer than it delivered,
//   * Eq. 3  — server-side throughput estimate MSS * CWND / SRTT
//              (on net::TcpInfo),
//   * Eq. 4  — transient download-stack buffering detector (statistical
//              outlier screen within a session),
//   * Eq. 5  — persistent download-stack latency lower bound via the
//              conservative RTO estimate of rtt0.
#pragma once

#include <cstdint>
#include <vector>

#include "net/tcp_info.h"
#include "sim/time.h"
#include "telemetry/join.h"

namespace vstream::analysis {

/// Eq. 2: perfscore = tau / (D_FB + D_LB).  Score < 1 flags bad chunks.
double perf_score(double chunk_duration_s, sim::Ms dfb_ms, sim::Ms dlb_ms);

/// Instantaneous player-observed throughput of a chunk in kbps:
/// chunk bytes / D_LB (the "TP_inst" of §4.3-1).
double instantaneous_throughput_kbps(std::uint64_t chunk_bytes,
                                     sim::Ms dlb_ms);

/// The paper's conservative RTO formula (footnote 5, RFC 2988 flavour):
/// RTO = 200 ms + srtt + 4 * srttvar.
sim::Ms rto_conservative_ms(const net::TcpInfo& info);

/// Eq. 5: lower bound of download-stack latency for one chunk:
/// D_DS >= D_FB - D_CDN - D_BE - RTO, clamped at 0.  Returns 0 when the
/// chunk lacks either measurement side or a TCP snapshot.
sim::Ms dds_lower_bound_ms(const telemetry::JoinedChunk& chunk);

struct DsOutlierConfig {
  double high_sigma = 2.0;    ///< "abnormally higher": > mean + 2 sigma
  double normal_sigma = 1.0;  ///< "similar": within mean + 1 sigma
  std::size_t min_chunks = 5; ///< sessions shorter than this are skipped
  /// §4.3-1: the spike must be one "the measured connection's throughput
  /// from server (using CWND and SRTT) does not explain" — TP_inst must
  /// exceed the Eq. 3 estimate by this factor.
  double tp_unexplained_factor = 2.0;
};

/// Per-chunk verdict of the Eq. 4 screen for one session.
struct DsOutlierResult {
  std::vector<bool> flagged;  ///< parallel to session.chunks
  std::size_t flagged_count = 0;
};

/// Eq. 4: flag chunks whose D_FB and instantaneous throughput are both
/// > mean + high_sigma * sigma while SRTT, server latency and CWND stay
/// within mean + normal_sigma * sigma — the signature of stack-buffered
/// delivery (Fig. 17).
DsOutlierResult detect_ds_outliers(const telemetry::JoinedSession& session,
                                   const DsOutlierConfig& config = {});

/// What failure recovery cost the viewers, computed from observables only
/// (the player-side retry/timeout/failover annotations plus the CDN-side
/// stale-serve marks) — the fault-matrix bench's summary row.
struct RecoveryImpact {
  std::size_t sessions = 0;
  std::size_t completed_sessions = 0;
  std::size_t failover_sessions = 0;   ///< >= 1 chunk switched server
  std::size_t affected_sessions = 0;   ///< >= 1 retry, timeout or failover
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t stale_chunks = 0;      ///< served from cache during outage

  // Overload protection (cdn/overload.h), from the CDN-side chunk marks.
  std::uint64_t shed_chunks = 0;          ///< >= 1 attempt load-shed
  std::uint64_t hedged_chunks = 0;        ///< delivered with a hedge issued
  std::uint64_t hedge_wins = 0;           ///< ... where the hedge won
  std::uint64_t swr_chunks = 0;           ///< stale-while-revalidate serves
  std::uint64_t budget_denied_chunks = 0; ///< a retry hit a dry retry budget
  /// Mean recovery time over affected chunks only (0 when none).
  sim::Ms mean_recovery_ms = 0.0;
  /// Mean first-byte delay of chunks on a failed-over connection vs clean
  /// chunks — the §4.1 cold-connection/extra-RTT penalty, made measurable.
  sim::Ms mean_dfb_failover_ms = 0.0;
  sim::Ms mean_dfb_clean_ms = 0.0;
  /// Stall time over wall time, across all sessions (%).
  double rebuffer_rate_percent = 0.0;

  double completion_rate() const {
    return sessions == 0 ? 1.0
                         : static_cast<double>(completed_sessions) /
                               static_cast<double>(sessions);
  }
};

/// RecoveryImpactAccumulator (analysis/accumulators.h) folded over every
/// session.
RecoveryImpact recovery_impact(const telemetry::JoinedDataset& joined);

}  // namespace vstream::analysis
