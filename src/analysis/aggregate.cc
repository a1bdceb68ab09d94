#include "analysis/aggregate.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

#include "analysis/stats.h"

namespace vstream::analysis {

SessionNetMetrics session_net_metrics(const telemetry::JoinedSession& session) {
  SessionNetMetrics m;

  std::vector<double> srtt_samples;
  srtt_samples.reserve(session.snapshots.size());
  for (const telemetry::TcpSnapshotRecord* snap : session.snapshots) {
    if (snap->info.srtt_ms > 0.0) srtt_samples.push_back(snap->info.srtt_ms);
  }
  if (srtt_samples.empty()) return m;

  double baseline_min = std::numeric_limits<double>::infinity();
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    if (chunk.player == nullptr || chunk.cdn == nullptr) continue;
    // rtt0 upper bound from Eq. 1: D_FB - (D_CDN + D_BE) (still includes
    // the DS share, hence "upper bound").
    const double rtt0_bound =
        chunk.player->dfb_ms - chunk.cdn->dcdn_ms() - chunk.cdn->dbe_ms;
    double baseline = std::numeric_limits<double>::infinity();
    if (rtt0_bound > 0.0) baseline = rtt0_bound;
    if (chunk.last_snapshot != nullptr && chunk.last_snapshot->info.srtt_ms > 0.0) {
      baseline = std::min(baseline, chunk.last_snapshot->info.srtt_ms);
    }
    if (baseline < baseline_min) baseline_min = baseline;

    if (chunk.player->chunk_id == 0 && chunk.last_snapshot != nullptr) {
      m.first_chunk_srtt_ms = chunk.last_snapshot->info.srtt_ms;
    }
  }
  if (!std::isfinite(baseline_min)) baseline_min = srtt_samples.front();

  m.valid = true;
  m.srtt_min_ms = baseline_min;
  m.srtt_mean_ms = mean_of(srtt_samples);
  m.srtt_stddev_ms = stddev_of(srtt_samples);
  m.srtt_cv = m.srtt_mean_ms == 0.0 ? 0.0 : m.srtt_stddev_ms / m.srtt_mean_ms;
  return m;
}

std::vector<OrgCvRow> org_cv_table(const telemetry::JoinedDataset& data,
                                   std::size_t min_sessions) {
  std::map<std::string, OrgCvRow> rows;
  for (const telemetry::JoinedSession& session : data.sessions()) {
    const SessionNetMetrics m = session_net_metrics(session);
    if (!m.valid) continue;
    OrgCvRow& row = rows[session.cdn->org];
    row.org = session.cdn->org;
    row.access = session.cdn->access;
    ++row.total_sessions;
    if (m.srtt_cv > 1.0) ++row.high_cv_sessions;
  }

  std::vector<OrgCvRow> table;
  for (auto& [org, row] : rows) {
    if (row.total_sessions >= min_sessions) table.push_back(std::move(row));
  }
  std::sort(table.begin(), table.end(), [](const OrgCvRow& a, const OrgCvRow& b) {
    return a.percent() > b.percent();
  });
  return table;
}

std::vector<double> path_cv_values(const telemetry::JoinedDataset& data,
                                   std::size_t min_sessions) {
  // Path = (client /24 prefix, serving PoP); sample = session average SRTT.
  std::map<std::pair<net::Prefix24, std::uint32_t>, std::vector<double>> paths;
  for (const telemetry::JoinedSession& session : data.sessions()) {
    const SessionNetMetrics m = session_net_metrics(session);
    if (!m.valid) continue;
    const net::Prefix24 prefix = net::prefix24_of(session.player->client_ip);
    paths[{prefix, session.cdn->pop}].push_back(m.srtt_mean_ms);
  }
  std::vector<double> cvs;
  cvs.reserve(paths.size());
  for (const auto& [path, samples] : paths) {
    if (samples.size() < min_sessions) continue;
    cvs.push_back(cv_of(samples));
  }
  return cvs;
}

TailPrefixStudy persistent_tail_prefixes(const telemetry::JoinedDataset& data,
                                         double threshold_ms,
                                         std::size_t epochs,
                                         double persistence_fraction,
                                         std::size_t min_present_epochs) {
  TailPrefixStudy study;
  if (data.sessions().empty() || epochs == 0) return study;

  // Epoch boundaries over the session arrival span ("days" in the paper;
  // equal time slices of the synthetic trace here).
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = -std::numeric_limits<double>::infinity();
  for (const telemetry::JoinedSession& s : data.sessions()) {
    t_min = std::min(t_min, s.player->start_time_ms);
    t_max = std::max(t_max, s.player->start_time_ms);
  }
  const double span = std::max(1.0, t_max - t_min);

  struct Recurrence {
    std::vector<double> epoch_min;  // per-epoch srtt_min, inf if absent
    std::size_t sessions = 0;
    std::size_t tail_sessions = 0;
  };
  std::unordered_map<net::Prefix24, Recurrence> rec;
  for (const telemetry::JoinedSession& session : data.sessions()) {
    const SessionNetMetrics m = session_net_metrics(session);
    if (!m.valid) continue;
    const net::Prefix24 prefix = net::prefix24_of(session.player->client_ip);
    auto& r = rec[prefix];
    if (r.epoch_min.empty()) {
      r.epoch_min.assign(epochs, std::numeric_limits<double>::infinity());
    }
    auto e = static_cast<std::size_t>(
        (session.player->start_time_ms - t_min) / span * static_cast<double>(epochs));
    e = std::min(e, epochs - 1);
    r.epoch_min[e] = std::min(r.epoch_min[e], m.srtt_min_ms);
    ++r.sessions;
    if (m.srtt_min_ms > threshold_ms) ++r.tail_sessions;
  }
  study.total_prefix_count = rec.size();

  // Recurrence frequency: #epochs in tail / #epochs with data; ties broken
  // by the share of sessions in the tail (persistent problems slow every
  // session, transient congestion only some).
  struct Ranked {
    double recurrence;
    double session_tail_share;
    net::Prefix24 prefix;
  };
  std::vector<Ranked> ranked;
  for (const auto& [prefix, r] : rec) {
    std::size_t present = 0, in_tail = 0;
    for (const double v : r.epoch_min) {
      if (!std::isfinite(v)) continue;
      ++present;
      if (v > threshold_ms) ++in_tail;
    }
    if (in_tail == 0 || present < min_present_epochs) continue;
    ranked.push_back(
        Ranked{static_cast<double>(in_tail) / static_cast<double>(present),
               static_cast<double>(r.tail_sessions) /
                   static_cast<double>(r.sessions),
               prefix});
  }
  study.tail_prefix_count = ranked.size();
  if (ranked.empty()) return study;

  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.recurrence != b.recurrence) return a.recurrence > b.recurrence;
    if (a.session_tail_share != b.session_tail_share) {
      return a.session_tail_share > b.session_tail_share;
    }
    return a.prefix < b.prefix;
  });
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(persistence_fraction *
                                  static_cast<double>(ranked.size())));

  std::unordered_map<net::Prefix24, bool> keep_set;
  for (std::size_t i = 0; i < keep && i < ranked.size(); ++i) {
    keep_set[ranked[i].prefix] = true;
  }

  std::size_t non_us = 0;
  for (PrefixRollup& rollup : rollup_prefixes(data)) {
    if (!keep_set.contains(rollup.prefix)) continue;
    if (rollup.country != "US") ++non_us;
    study.persistent_tail.push_back(std::move(rollup));
  }
  if (!study.persistent_tail.empty()) {
    study.non_us_share = static_cast<double>(non_us) /
                         static_cast<double>(study.persistent_tail.size());
  }
  return study;
}

}  // namespace vstream::analysis
