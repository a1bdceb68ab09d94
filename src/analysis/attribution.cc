#include "analysis/attribution.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <ostream>

namespace vstream::analysis {

double qoe_penalty(const SessionQoe& qoe, const PenaltyWeights& weights) {
  const double startup_s = qoe.startup_ms / 1'000.0;
  const double deficit_mbps =
      std::max(0.0, weights.top_bitrate_kbps - qoe.avg_bitrate_kbps) /
      1'000.0;
  return startup_s * weights.startup_per_s +
         qoe.rebuffer_rate_pct * weights.rebuffer_per_pct +
         deficit_mbps * weights.bitrate_deficit_per_mbps;
}

std::vector<std::size_t> worst_sessions(const std::vector<SessionQoeRow>& rows,
                                        std::size_t n,
                                        const PenaltyWeights& weights) {
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t take = std::min(n, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double pa = qoe_penalty(rows[a].qoe, weights);
                      const double pb = qoe_penalty(rows[b].qoe, weights);
                      if (pa != pb) return pa > pb;
                      return a < b;
                    });
  order.resize(take);
  return order;
}

SessionAttribution attribute_session(
    std::uint64_t session_id, double baseline_penalty,
    const double (&ideal_penalty)[cdn::kIdealizedSubsystemCount]) {
  SessionAttribution result;
  result.session_id = session_id;
  result.baseline_penalty = baseline_penalty;

  double raw[cdn::kIdealizedSubsystemCount];
  double raw_sum = 0.0;
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    result.ideal_penalty[i] = ideal_penalty[i];
    raw[i] = std::max(0.0, baseline_penalty - ideal_penalty[i]);
    raw_sum += raw[i];
  }

  // Overlapping fixes each claim the shared improvement; normalizing by
  // max(baseline, Σ raw) caps the blame total at 1 without ever inflating
  // a non-overlapping breakdown.
  const double denom = std::max(baseline_penalty, raw_sum);
  double blame_sum = 0.0;
  if (denom > 0.0) {
    for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
      result.blame[i] = raw[i] / denom;
      blame_sum += result.blame[i];
    }
  }
  result.residual =
      baseline_penalty > 0.0 ? std::max(0.0, 1.0 - blame_sum) : 0.0;
  return result;
}

double AttributionReport::mean_blame(std::size_t index) const {
  if (sessions.empty()) return 0.0;
  double sum = 0.0;
  for (const SessionAttribution& s : sessions) sum += s.blame[index];
  return sum / static_cast<double>(sessions.size());
}

double AttributionReport::mean_residual() const {
  if (sessions.empty()) return 0.0;
  double sum = 0.0;
  for (const SessionAttribution& s : sessions) sum += s.residual;
  return sum / static_cast<double>(sessions.size());
}

namespace {

void write_blame_object(std::ostream& out, const double (&values)[
                            cdn::kIdealizedSubsystemCount]) {
  out << "{";
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    if (i != 0) out << ", ";
    out << "\"" << cdn::idealization_name(cdn::kIdealizedSubsystems[i])
        << "\": " << values[i];
  }
  out << "}";
}

}  // namespace

void write_attribution_json(std::ostream& out,
                            const AttributionReport& report) {
  // Doubles round-trip: readers check the report's invariants (blame
  // fractions sum to <= 1, blame + residual = 1) on the parsed values, and
  // six significant digits can round a sum of 1 past it.
  const std::streamsize caller_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n";
  out << "  \"schema\": \"vstream-attribution-v1\",\n";
  out << "  \"sessions_analyzed\": " << report.sessions_analyzed << ",\n";
  out << "  \"worst_n\": " << report.sessions.size() << ",\n";
  out << "  \"weights\": {\"startup_per_s\": " << report.weights.startup_per_s
      << ", \"rebuffer_per_pct\": " << report.weights.rebuffer_per_pct
      << ", \"bitrate_deficit_per_mbps\": "
      << report.weights.bitrate_deficit_per_mbps
      << ", \"top_bitrate_kbps\": " << report.weights.top_bitrate_kbps
      << "},\n";

  double mean[cdn::kIdealizedSubsystemCount];
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    mean[i] = report.mean_blame(i);
  }
  out << "  \"mean_blame\": ";
  write_blame_object(out, mean);
  out << ",\n";
  out << "  \"mean_residual\": " << report.mean_residual() << ",\n";

  out << "  \"sessions\": [";
  bool first = true;
  for (const SessionAttribution& s : report.sessions) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"session_id\": " << s.session_id
        << ", \"baseline_penalty\": " << s.baseline_penalty
        << ", \"replay_matches_baseline\": "
        << (s.baseline_matches ? "true" : "false") << ",\n";
    out << "     \"ideal_penalty\": ";
    write_blame_object(out, s.ideal_penalty);
    out << ",\n";
    out << "     \"blame\": ";
    write_blame_object(out, s.blame);
    out << ", \"residual\": " << s.residual << "}";
  }
  out << "\n  ]\n";
  out << "}\n";
  out.precision(caller_precision);
}

}  // namespace vstream::analysis
