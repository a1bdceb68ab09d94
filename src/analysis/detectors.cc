#include "analysis/detectors.h"

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"

namespace vstream::analysis {

double perf_score(double chunk_duration_s, sim::Ms dfb_ms, sim::Ms dlb_ms) {
  const sim::Ms total = dfb_ms + dlb_ms;
  if (total <= 0.0) return 0.0;
  return sim::seconds(chunk_duration_s) / total;
}

double instantaneous_throughput_kbps(std::uint64_t chunk_bytes,
                                     sim::Ms dlb_ms) {
  if (dlb_ms <= 0.0) return 0.0;
  return static_cast<double>(chunk_bytes) * 8.0 / dlb_ms;  // bits per ms
}

sim::Ms rto_conservative_ms(const net::TcpInfo& info) {
  return 200.0 + info.srtt_ms + 4.0 * info.rttvar_ms;
}

sim::Ms dds_lower_bound_ms(const telemetry::JoinedChunk& chunk) {
  if (chunk.player == nullptr || chunk.cdn == nullptr ||
      chunk.last_snapshot == nullptr) {
    return 0.0;
  }
  const sim::Ms rto = rto_conservative_ms(chunk.last_snapshot->info);
  const sim::Ms bound = chunk.player->dfb_ms - chunk.cdn->dcdn_ms() -
                        chunk.cdn->dbe_ms - rto;
  return std::max(0.0, bound);
}

DsOutlierResult detect_ds_outliers(const telemetry::JoinedSession& session,
                                   const DsOutlierConfig& config) {
  DsOutlierResult result;
  result.flagged.assign(session.chunks.size(), false);
  if (session.chunks.size() < config.min_chunks) return result;

  // Collect the per-chunk series the screen compares against its own
  // session-level distribution.
  std::vector<double> dfb, tp_inst, tp_conn, srtt, server, cwnd;
  dfb.reserve(session.chunks.size());
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    if (chunk.player == nullptr || chunk.cdn == nullptr ||
        chunk.last_snapshot == nullptr) {
      return result;  // screen needs the full e2e view for every chunk
    }
    dfb.push_back(chunk.player->dfb_ms);
    tp_inst.push_back(instantaneous_throughput_kbps(chunk.cdn->chunk_bytes,
                                                    chunk.player->dlb_ms));
    tp_conn.push_back(chunk.last_snapshot->info.throughput_estimate_kbps());
    srtt.push_back(chunk.last_snapshot->info.srtt_ms);
    server.push_back(chunk.cdn->server_total_ms());
    cwnd.push_back(static_cast<double>(chunk.last_snapshot->info.cwnd_segments));
  }

  const auto mu_sigma = [](std::span<const double> v) {
    return std::pair<double, double>(mean_of(v), stddev_of(v));
  };
  const auto [mu_dfb, sd_dfb] = mu_sigma(dfb);
  const auto [mu_tp, sd_tp] = mu_sigma(tp_inst);
  const auto [mu_srtt, sd_srtt] = mu_sigma(srtt);
  const auto [mu_server, sd_server] = mu_sigma(server);
  const auto [mu_cwnd, sd_cwnd] = mu_sigma(cwnd);

  for (std::size_t i = 0; i < session.chunks.size(); ++i) {
    const bool dfb_high = dfb[i] > mu_dfb + config.high_sigma * sd_dfb;
    const bool tp_high = tp_inst[i] > mu_tp + config.high_sigma * sd_tp;
    // "other similar latency metrics": network and server within one sigma,
    // and the server-side window not inflated either (Eq. 4's third line).
    const bool srtt_normal = srtt[i] <= mu_srtt + config.normal_sigma * sd_srtt;
    const bool server_normal =
        server[i] <= mu_server + config.normal_sigma * sd_server;
    const bool cwnd_normal = cwnd[i] <= mu_cwnd + config.normal_sigma * sd_cwnd;
    // The connection's own throughput estimate (Eq. 3) must NOT explain
    // the instantaneous rate — otherwise the chunk was just fast, not
    // stack-buffered.
    const bool tp_unexplained =
        tp_inst[i] > config.tp_unexplained_factor * tp_conn[i];
    if (dfb_high && tp_high && tp_unexplained && srtt_normal &&
        server_normal && cwnd_normal) {
      result.flagged[i] = true;
      ++result.flagged_count;
    }
  }
  return result;
}

}  // namespace vstream::analysis
