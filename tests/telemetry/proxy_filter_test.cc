#include "telemetry/proxy_filter.h"

#include <gtest/gtest.h>

namespace vstream::telemetry {
namespace {

void add_session(Dataset& d, std::uint64_t id, net::IpV4 beacon_ip,
                 net::IpV4 cdn_ip, const std::string& beacon_ua = "Chrome/Windows",
                 const std::string& cdn_ua = "Chrome/Windows") {
  PlayerSessionRecord ps;
  ps.session_id = id;
  ps.client_ip = beacon_ip;
  ps.user_agent = beacon_ua;
  d.player_sessions.push_back(ps);

  CdnSessionRecord cs;
  cs.session_id = id;
  cs.observed_ip = cdn_ip;
  cs.observed_user_agent = cdn_ua;
  d.cdn_sessions.push_back(cs);
}

TEST(ProxyFilterTest, CleanSessionsPass) {
  Dataset d;
  for (std::uint64_t s = 1; s <= 20; ++s) {
    add_session(d, s, net::make_ip(10, 0, 0, static_cast<std::uint8_t>(s)),
                net::make_ip(10, 0, 0, static_cast<std::uint8_t>(s)));
  }
  const ProxyFilterResult r = detect_proxies(d);
  EXPECT_TRUE(r.proxy_sessions.empty());
}

TEST(ProxyFilterTest, IpMismatchDetected) {
  // Rule (i): different client IPs between HTTP requests and beacons.
  Dataset d;
  add_session(d, 1, net::make_ip(10, 0, 0, 1), net::make_ip(198, 18, 0, 1));
  add_session(d, 2, net::make_ip(10, 0, 0, 2), net::make_ip(10, 0, 0, 2));
  const ProxyFilterResult r = detect_proxies(d);
  EXPECT_TRUE(r.is_proxy(1));
  EXPECT_FALSE(r.is_proxy(2));
  EXPECT_EQ(r.mismatch_detections, 1u);
}

TEST(ProxyFilterTest, UserAgentMismatchDetected) {
  Dataset d;
  add_session(d, 1, net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 1),
              "Chrome/Windows", "ProxyBot/1.0");
  const ProxyFilterResult r = detect_proxies(d);
  EXPECT_TRUE(r.is_proxy(1));
}

TEST(ProxyFilterTest, VolumeRuleCatchesTransparentMegaProxy) {
  // Rule (ii): one IP in implausibly many sessions, even though beacon and
  // HTTP views agree (NAT-style transparency).
  Dataset d;
  const net::IpV4 shared = net::make_ip(198, 19, 0, 10);
  for (std::uint64_t s = 1; s <= 60; ++s) add_session(d, s, shared, shared);
  ProxyFilterConfig config;
  config.max_sessions_per_ip = 50;
  const ProxyFilterResult r = detect_proxies(d, config);
  EXPECT_EQ(r.proxy_sessions.size(), 60u);
  EXPECT_EQ(r.volume_detections, 60u);
  EXPECT_EQ(r.mismatch_detections, 0u);
}

TEST(ProxyFilterTest, VolumeThresholdBoundary) {
  Dataset d;
  const net::IpV4 shared = net::make_ip(198, 19, 0, 20);
  for (std::uint64_t s = 1; s <= 10; ++s) add_session(d, s, shared, shared);
  ProxyFilterConfig config;
  config.max_sessions_per_ip = 10;  // exactly at the threshold: allowed
  EXPECT_TRUE(detect_proxies(d, config).proxy_sessions.empty());
  config.max_sessions_per_ip = 9;
  EXPECT_EQ(detect_proxies(d, config).proxy_sessions.size(), 10u);
}

TEST(ProxyFilterTest, MissingBeaconFallsBackToVolumeRule) {
  Dataset d;
  CdnSessionRecord cs;
  cs.session_id = 1;
  cs.observed_ip = net::make_ip(10, 0, 0, 1);
  d.cdn_sessions.push_back(cs);  // no matching player session
  const ProxyFilterResult r = detect_proxies(d);
  EXPECT_FALSE(r.is_proxy(1));  // single session, low volume: kept
}

TEST(ProxyFilterTest, MixedDataset) {
  Dataset d;
  // 30 clean, 5 mismatch-proxied, 55 through one transparent proxy.
  for (std::uint64_t s = 1; s <= 30; ++s) {
    add_session(d, s, net::make_ip(10, 1, 0, static_cast<std::uint8_t>(s)),
                net::make_ip(10, 1, 0, static_cast<std::uint8_t>(s)));
  }
  for (std::uint64_t s = 31; s <= 35; ++s) {
    add_session(d, s, net::make_ip(10, 2, 0, static_cast<std::uint8_t>(s)),
                net::make_ip(198, 18, 5, 5));
  }
  const net::IpV4 mega = net::make_ip(198, 19, 0, 10);
  for (std::uint64_t s = 36; s <= 90; ++s) add_session(d, s, mega, mega);

  ProxyFilterConfig config;
  config.max_sessions_per_ip = 50;
  const ProxyFilterResult r = detect_proxies(d, config);
  EXPECT_EQ(r.proxy_sessions.size(), 60u);
  EXPECT_EQ(r.mismatch_detections, 5u);
  EXPECT_EQ(r.volume_detections, 55u);
  for (std::uint64_t s = 1; s <= 30; ++s) EXPECT_FALSE(r.is_proxy(s));
}

TEST(ProxyFilterTest, RepeatedBeaconAndDuplicateCdnRecords) {
  // Session 1 has two beacons: the first agrees with the CDN view, the
  // second does not, and the first wins.  Session 2 has two CDN records,
  // one with a proxy's UA: each record is judged, and each counts
  // towards its IP's volume.
  Dataset d;
  const net::IpV4 ip1 = net::make_ip(10, 0, 0, 1);
  const net::IpV4 ip2 = net::make_ip(10, 0, 0, 2);
  add_session(d, 1, ip1, ip1);
  PlayerSessionRecord again = d.player_sessions.back();
  again.client_ip = net::make_ip(198, 18, 0, 1);
  d.player_sessions.push_back(again);
  add_session(d, 2, ip2, ip2);
  CdnSessionRecord duplicate = d.cdn_sessions.back();
  duplicate.observed_user_agent = "ProxyBot/1.0";
  d.cdn_sessions.push_back(duplicate);
  d.cdn_sessions.push_back(d.cdn_sessions.back());

  ProxyFilterConfig config;
  config.max_sessions_per_ip = 1;
  const ProxyFilterResult r = detect_proxies(d, config);
  EXPECT_FALSE(r.is_proxy(1));
  EXPECT_TRUE(r.is_proxy(2));
  EXPECT_EQ(r.mismatch_detections, 2u);
  EXPECT_EQ(r.volume_detections, 1u);  // the agreeing record, on ip2 x3

  // The per-session form a streaming pass uses: each group's CDN records
  // against the group's first beacon.
  std::vector<CdnSessionVerdict> verdicts;
  verdicts.push_back(rule_i_verdict(d.cdn_sessions[0], &d.player_sessions[0]));
  for (std::size_t i = 1; i < d.cdn_sessions.size(); ++i) {
    verdicts.push_back(rule_i_verdict(d.cdn_sessions[i], &d.player_sessions[2]));
  }
  const ProxyFilterResult v = detect_proxies(verdicts, config);
  EXPECT_EQ(v.proxy_sessions, r.proxy_sessions);
  EXPECT_EQ(v.mismatch_detections, r.mismatch_detections);
  EXPECT_EQ(v.volume_detections, r.volume_detections);
}

}  // namespace
}  // namespace vstream::telemetry
