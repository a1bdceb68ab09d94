// Session- and prefix-level aggregations for the §4.2 network analyses:
// per-session SRTT metrics, /24 prefix roll-ups, the per-(prefix, PoP) path
// variability of Fig. 10, the enterprise CV table (Table 4) and the
// persistent tail-latency prefix study (Fig. 9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/path_model.h"
#include "net/prefix.h"
#include "telemetry/join.h"

namespace vstream::analysis {

/// Per-session network-latency metrics, computed from observables only.
struct SessionNetMetrics {
  bool valid = false;
  /// Baseline latency: min over per-chunk baseline samples, where each
  /// chunk's baseline is min(SRTT at the chunk, rtt0 upper bound
  /// D_FB - (D_CDN + D_BE)) — the §4.2-1 methodology.
  double srtt_min_ms = 0.0;
  double srtt_mean_ms = 0.0;    ///< mean of the 500 ms SRTT samples
  double srtt_stddev_ms = 0.0;  ///< sigma_srtt of Fig. 8
  double srtt_cv = 0.0;         ///< CV(SRTT) of §4.2-2
  double first_chunk_srtt_ms = 0.0;  ///< SRTT context of chunk 0 (Fig. 7)
};

SessionNetMetrics session_net_metrics(const telemetry::JoinedSession& session);

/// One /24 prefix rolled up across its sessions.
struct PrefixRollup {
  net::Prefix24 prefix = 0;
  std::size_t session_count = 0;
  double srtt_min_ms = 0.0;     ///< min of session baselines
  double mean_srtt_ms = 0.0;    ///< mean of session mean SRTTs
  double distance_km = 0.0;     ///< mean geo distance to serving PoP
  std::string country;
  std::string org;
  net::AccessType access = net::AccessType::kResidential;
};

/// PrefixRollupAccumulator (analysis/accumulators.h) folded over every
/// session; sorted by prefix.
std::vector<PrefixRollup> rollup_prefixes(
    const telemetry::JoinedDataset& data);

/// Table 4 row: share of an organization's sessions with CV(SRTT) > 1.
struct OrgCvRow {
  std::string org;
  net::AccessType access = net::AccessType::kResidential;
  std::size_t high_cv_sessions = 0;
  std::size_t total_sessions = 0;

  double percent() const {
    return total_sessions == 0
               ? 0.0
               : 100.0 * static_cast<double>(high_cv_sessions) /
                     static_cast<double>(total_sessions);
  }
};

/// Organizations with at least `min_sessions` sessions, sorted by descending
/// high-CV share (the paper uses >= 50 sessions "to provide enough evidence
/// of persistence").
std::vector<OrgCvRow> org_cv_table(const telemetry::JoinedDataset& data,
                                   std::size_t min_sessions = 50);

/// Fig. 10: CV of latency per (prefix, PoP) path, using each session's
/// average SRTT as one sample; paths need >= `min_sessions` samples.
std::vector<double> path_cv_values(const telemetry::JoinedDataset& data,
                                   std::size_t min_sessions = 3);

/// Fig. 9 methodology: split the dataset into `epochs` equal time slices
/// ("days"), find prefixes in the latency tail (srtt_min > threshold) per
/// epoch, rank by recurrence frequency (ties broken by the share of the
/// prefix's *sessions* in the tail — persistent problems slow every
/// session, transient congestion only some), and return the top
/// `persistence_fraction` as the persistent-tail set.  Prefixes observed
/// in fewer than `min_present_epochs` epochs lack evidence of persistence
/// and are skipped (the paper applies the same kind of support threshold
/// to its org table).
struct TailPrefixStudy {
  std::vector<PrefixRollup> persistent_tail;  ///< the Fig. 9 population
  std::size_t tail_prefix_count = 0;   ///< prefixes ever seen in a tail
  std::size_t total_prefix_count = 0;
  double non_us_share = 0.0;  ///< fraction of the persistent set outside US
};

TailPrefixStudy persistent_tail_prefixes(const telemetry::JoinedDataset& data,
                                         double threshold_ms = 100.0,
                                         std::size_t epochs = 6,
                                         double persistence_fraction = 0.10,
                                         std::size_t min_present_epochs = 3);

}  // namespace vstream::analysis
