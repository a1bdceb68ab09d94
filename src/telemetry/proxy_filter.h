// Proxy detection and filtering (paper §3, "Data preprocessing to filter
// proxies").
//
// HTTP proxies terminate the CDN's TCP connection, so server-side network
// measurements describe the server-proxy path, not the client.  The paper
// filters a session when (i) the client IP or user agent differs between
// the HTTP requests (CDN view) and the client-side beacons, or (ii) the
// client IP appears in implausibly many sessions ("more minutes of video
// per day than there are minutes in a day").
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "telemetry/collector.h"

namespace vstream::telemetry {

struct ProxyFilterConfig {
  /// A single IP observed across more sessions than this (per dataset) is
  /// treated as a mega-proxy.  Stand-in for the paper's minutes-per-day
  /// volume rule, scaled to synthetic dataset sizes.
  std::size_t max_sessions_per_ip = 50;
};

struct ProxyFilterResult {
  std::unordered_set<std::uint64_t> proxy_sessions;
  std::size_t mismatch_detections = 0;  ///< rule (i) hits
  std::size_t volume_detections = 0;    ///< rule (ii) hits

  bool is_proxy(std::uint64_t session_id) const {
    return proxy_sessions.contains(session_id);
  }
};

/// All the two rules read of one CDN session record: its session, the IP
/// the CDN observed, and the rule (i) verdict against its session's first
/// beacon.
struct CdnSessionVerdict {
  std::uint64_t session_id = 0;
  net::IpV4 observed_ip = 0;
  bool mismatch = false;  ///< rule (i): IP or UA differs from the beacon
};

/// Rule (i) for `cdn` against its session's first beacon (nullptr when the
/// session has none: no mismatch).
CdnSessionVerdict rule_i_verdict(const CdnSessionRecord& cdn,
                                 const PlayerSessionRecord* beacon);

/// Both rules over the verdicts of every CDN session record of a dataset.
/// A session can be folded into its verdicts as soon as its records are
/// complete, so a streaming pass keeps only these.
ProxyFilterResult detect_proxies(const std::vector<CdnSessionVerdict>& verdicts,
                                 const ProxyFilterConfig& config = {});

/// Identify proxy sessions from the raw (un-joined) dataset: each CDN
/// session record's verdict against its session's first beacon, then the
/// overload above.
ProxyFilterResult detect_proxies(const Dataset& data,
                                 const ProxyFilterConfig& config = {});

}  // namespace vstream::telemetry
