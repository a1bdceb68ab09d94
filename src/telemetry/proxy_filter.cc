#include "telemetry/proxy_filter.h"

#include <unordered_map>

namespace vstream::telemetry {

CdnSessionVerdict rule_i_verdict(const CdnSessionRecord& cdn,
                                 const PlayerSessionRecord* beacon) {
  // Rule (i): IP or UA mismatch between HTTP (CDN) view and beacon.
  return {cdn.session_id, cdn.observed_ip,
          beacon != nullptr && (beacon->client_ip != cdn.observed_ip ||
                                beacon->user_agent != cdn.observed_user_agent)};
}

ProxyFilterResult detect_proxies(const std::vector<CdnSessionVerdict>& verdicts,
                                 const ProxyFilterConfig& config) {
  ProxyFilterResult result;

  // Rule (ii) bookkeeping: sessions per CDN-observed IP.
  std::unordered_map<net::IpV4, std::size_t> sessions_per_ip;
  for (const CdnSessionVerdict& v : verdicts) ++sessions_per_ip[v.observed_ip];

  for (const CdnSessionVerdict& v : verdicts) {
    bool proxy = v.mismatch;
    if (proxy) {
      ++result.mismatch_detections;
    } else if (sessions_per_ip[v.observed_ip] > config.max_sessions_per_ip) {
      proxy = true;
      ++result.volume_detections;
    }
    if (proxy) result.proxy_sessions.insert(v.session_id);
  }
  return result;
}

ProxyFilterResult detect_proxies(const Dataset& data,
                                 const ProxyFilterConfig& config) {
  // Index the beacon (player) view by session; the first beacon wins.
  std::unordered_map<std::uint64_t, const PlayerSessionRecord*> beacons;
  beacons.reserve(data.player_sessions.size());
  for (const PlayerSessionRecord& r : data.player_sessions) {
    beacons.emplace(r.session_id, &r);
  }
  std::vector<CdnSessionVerdict> verdicts;
  verdicts.reserve(data.cdn_sessions.size());
  for (const CdnSessionRecord& cdn : data.cdn_sessions) {
    const auto it = beacons.find(cdn.session_id);
    verdicts.push_back(
        rule_i_verdict(cdn, it != beacons.end() ? it->second : nullptr));
  }
  return detect_proxies(verdicts, config);
}

}  // namespace vstream::telemetry
