#include "engine/attribution.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/executor.h"
#include "telemetry/join.h"

namespace vstream::engine {

namespace {

/// The CSV export rounds doubles to 6 significant digits, so a baseline
/// that went through `--out` + re-import carries ~1e-6 relative noise the
/// replay (which is exact) will not have.  Allow exactly that much slack;
/// a replay of the wrong world diverges by whole milliseconds/kbps.
bool close_enough(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-5 * scale;
}

/// The factual replay must reproduce the measured QoE (bit-exactly for an
/// in-memory baseline, to within export rounding for a re-imported one);
/// any further drift means the replay world is not the measured world.
bool same_qoe(const analysis::SessionQoe& a, const analysis::SessionQoe& b) {
  return close_enough(a.startup_ms, b.startup_ms) &&
         close_enough(a.rebuffer_rate_pct, b.rebuffer_rate_pct) &&
         a.rebuffer_events == b.rebuffer_events &&
         close_enough(a.avg_bitrate_kbps, b.avg_bitrate_kbps) &&
         a.chunks == b.chunks;
}

}  // namespace

analysis::AttributionReport attribute_worst(
    const ReplayContext& ctx,
    const std::vector<analysis::SessionQoeRow>& sessions,
    AttributionOptions options) {
  const std::vector<std::size_t> worst =
      analysis::worst_sessions(sessions, options.worst_n, options.weights);

  analysis::AttributionReport report;
  report.sessions_analyzed = sessions.size();
  report.weights = options.weights;
  if (worst.empty()) return report;

  // The replay matrix: per worst session, one factual replay (column 0)
  // plus one per idealized subsystem.  Flat task indexing into
  // preallocated slots keeps the fan-out deterministic for any pool size.
  constexpr std::size_t kColumns = 1 + cdn::kIdealizedSubsystemCount;
  const std::size_t tasks = worst.size() * kColumns;
  std::vector<analysis::SessionQoe> replayed(tasks);
  // One byte per task: replay tasks on different workers write
  // neighbouring slots, which std::vector<bool> would pack into one word.
  std::vector<char> found(tasks, 0);

  runtime::Executor executor(runtime::resolve_thread_count(options.threads));
  executor.parallel_for(
      tasks,
      [&](std::size_t task) {
        const std::size_t row = task / kColumns;
        const std::size_t column = task % kColumns;
        cdn::IdealizationPolicy policy;
        if (column != 0) {
          policy.target = cdn::kIdealizedSubsystems[column - 1];
        }
        const std::uint64_t id = sessions[worst[row]].session_id;
        if (const auto result = ctx.replay_session(id, policy)) {
          replayed[task] = result->qoe;
          found[task] = 1;
        }
      },
      nullptr, "replay");

  report.sessions.reserve(worst.size());
  for (std::size_t row = 0; row < worst.size(); ++row) {
    const std::size_t base_task = row * kColumns;
    const analysis::SessionQoeRow& measured = sessions[worst[row]];
    const double baseline_penalty =
        analysis::qoe_penalty(replayed[base_task], options.weights);
    double ideal_penalty[cdn::kIdealizedSubsystemCount];
    for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
      ideal_penalty[i] = analysis::qoe_penalty(replayed[base_task + 1 + i],
                                               options.weights);
    }
    analysis::SessionAttribution attribution = analysis::attribute_session(
        measured.session_id, baseline_penalty, ideal_penalty);
    attribution.baseline_matches =
        found[base_task] != 0 && same_qoe(replayed[base_task], measured.qoe);
    report.sessions.push_back(attribution);
  }
  return report;
}

analysis::AttributionReport attribute_worst(const ReplayContext& ctx,
                                            const telemetry::Dataset& baseline,
                                            AttributionOptions options) {
  // Rank by penalty over the proxy-unfiltered join: attribution explains
  // the worst *sessions*, whether or not a proxy sat in front of them.
  const telemetry::JoinedDataset joined =
      telemetry::JoinedDataset::build(baseline);
  return attribute_worst(ctx, analysis::session_qoe_rows(joined), options);
}

}  // namespace vstream::engine
