// vstream_analyze — run the paper's offline analyses over a telemetry
// directory previously written by `vstream_sim --out DIR` (or any system
// emitting the same CSV schema).
//
//   vstream_analyze DIR [--tail-threshold MS] [--epochs N] [--spill-stats]
//                       [--attribution] [--sessions N] [--seed S]
//                       [--fault-profile none|eventful|overload]
//                       [--worst N] [--attribution-out FILE]
//
// --spill-stats prints a byte-level report of a spill directory's file
// instead of running the analyses: block and salvage counts and file
// bytes.
//
// --attribution replays the worst `--worst N` (default 20) sessions of
// the dataset in DIR under each subsystem idealization
// (cdn/idealization.h) and prints the blame breakdown, writing the full
// report to --attribution-out (default BENCH_attribution.json).  The
// replay rebuilds the run's world from scratch, so --sessions, --seed
// and --fault-profile must match the flags of the `vstream-sim` run that
// produced DIR; a mismatch is detected (the factual replays diverge from
// the measured records) and reported as a warning with
// `replay_matches_baseline: false` in the JSON.
//
// DIR may hold either the CSV export (player_sessions.csv, ...) or the
// one binary run.vspill spill file written by `vstream_sim
// --telemetry-spill DIR` / `--checkpoint DIR`; spill directories are
// detected automatically, and one holding more than one .vspill file is a
// usage error (exit 2): a run writes one.  Damaged spill data is salvaged
// block by block
// (a "spill recovery" section reports what was skipped) rather than
// aborting the analysis — but the tool then exits with the documented
// salvage-incomplete status (4, core/exit_codes.h) so scripts learn the
// results cover a subset.  Other errors print one diagnostic line and
// exit 2 (usage/config) or 3 (host I/O).
//
// Performs the §3 preprocessing (proxy filter + join), then prints:
//   * the QoE summary,
//   * the CDN latency breakdown (Fig. 5 headline numbers),
//   * the org CV table (Table 4),
//   * the persistent tail-prefix study (Fig. 9), and
//   * the Eq. 4 download-stack screen counts (§4.3-1).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "cli_report.h"
#include "analysis/aggregate.h"
#include "analysis/attribution.h"
#include "analysis/detectors.h"
#include "analysis/qoe.h"
#include "core/exit_codes.h"
#include "core/report.h"
#include "engine/attribution.h"
#include "engine/replay.h"
#include "faults/fault_schedule.h"
#include "sim/env_util.h"
#include "telemetry/export.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"
#include "telemetry/spill_format.h"
#include "workload/scenario.h"

using namespace vstream;

namespace {

/// Every *.vspill file in `dir`, sorted by name so a diagnostic naming
/// them is stable no matter the directory iteration order.
std::vector<std::filesystem::path> spill_files_in(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  if (!std::filesystem::is_directory(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".vspill") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// --spill-stats: byte-level inspection of the spill file.  A full
/// sequential read (so payload CRCs are actually verified and the salvage
/// numbers are real, not header-scan estimates).
int run_spill_stats(const std::filesystem::path& file) {
  telemetry::SpillReader reader(file);
  while (reader.next().has_value()) {
  }
  const telemetry::SpillReadStats& s = reader.stats();
  core::print_header(file.filename().string());
  core::print_metric("file_bytes", static_cast<double>(reader.file_bytes()));
  core::print_metric("blocks_ok", static_cast<double>(s.blocks_ok));
  core::print_metric("blocks_skipped", static_cast<double>(s.blocks_skipped));
  core::print_metric("commit_frames", static_cast<double>(s.commit_frames));
  core::print_metric("bytes_salvaged", static_cast<double>(s.bytes_salvaged));
  core::print_metric("bytes_skipped", static_cast<double>(s.bytes_skipped));
  core::print_metric("torn_tail_bytes", static_cast<double>(s.torn_tail_bytes));
  return s.corrupted() ? core::kExitSalvageIncomplete : core::kExitOk;
}

/// --attribution: counterfactual replay of the worst sessions in `data`.
/// The scenario must describe the run that produced the dataset; the
/// engine detects divergence (factual replay != measured records) rather
/// than silently attributing a different world.
int run_attribution(const telemetry::Dataset& data,
                    const workload::Scenario& scenario,
                    faults::FaultSchedule faults, std::size_t worst_n,
                    const std::string& out_path) {
  engine::RunOptions world;
  world.faults = std::move(faults);
  const engine::ReplayContext replay_ctx(scenario, std::move(world));
  engine::AttributionOptions attr_options;
  attr_options.worst_n = worst_n;
  const analysis::AttributionReport report =
      engine::attribute_worst(replay_ctx, data, attr_options);
  const std::size_t replay_mismatches =
      tools::print_attribution(report, out_path);
  if (replay_mismatches > 0) {
    std::fprintf(stderr,
                 "warning: %zu factual replays diverged from the measured "
                 "dataset; do --sessions/--seed/--fault-profile match the "
                 "run that produced it?\n",
                 replay_mismatches);
  }
  return core::kExitOk;
}

int run_tool(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s DIR [--tail-threshold MS] [--epochs N] "
                 "[--spill-stats]\n"
                 "          [--attribution] [--sessions N] [--seed S]\n"
                 "          [--fault-profile none|eventful|overload]\n"
                 "          [--worst N] [--attribution-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  double tail_threshold_ms = 100.0;
  std::size_t epochs = 4;
  bool spill_stats_only = false;
  bool attribution = false;
  // Replay-world knobs: defaults mirror vstream-sim's so a default run
  // attributes with no extra flags.
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = 2'000;
  faults::FaultSchedule faults;
  std::size_t worst_n = 20;
  std::string attribution_out = "BENCH_attribution.json";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tail-threshold" && i + 1 < argc) {
      tail_threshold_ms =
          sim::parse_positive_double("--tail-threshold", argv[++i]);
    } else if (arg == "--epochs" && i + 1 < argc) {
      epochs = sim::parse_uint("--epochs", argv[++i]);
    } else if (arg == "--spill-stats") {
      spill_stats_only = true;
    } else if (arg == "--attribution") {
      attribution = true;
    } else if (arg == "--sessions" && i + 1 < argc) {
      scenario.session_count = sim::parse_uint("--sessions", argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      scenario.seed = sim::parse_uint("--seed", argv[++i], 0);
    } else if (arg == "--fault-profile" && i + 1 < argc) {
      const std::optional<faults::FaultSchedule> named =
          faults::FaultSchedule::named(argv[++i]);
      if (!named.has_value()) {
        std::fprintf(stderr, "unknown fault profile: %s\n", argv[i]);
        return 2;
      }
      faults = *named;
    } else if (arg == "--worst" && i + 1 < argc) {
      worst_n = sim::parse_uint("--worst", argv[++i]);
    } else if (arg == "--attribution-out" && i + 1 < argc) {
      attribution_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  const std::vector<std::filesystem::path> spill_files = spill_files_in(dir);
  if (spill_files.size() > 1) {
    std::fprintf(stderr,
                 "%s: %zu .vspill files in %s; a run writes one — point DIR "
                 "at one run's directory\n",
                 argv[0], spill_files.size(), dir.c_str());
    return core::kExitConfig;
  }
  if (spill_stats_only) {
    if (spill_files.empty()) {
      std::fprintf(stderr, "--spill-stats: no *.vspill files in %s\n",
                   dir.c_str());
      return 2;
    }
    return run_spill_stats(spill_files.front());
  }

  // Spill directories analyze from the binary file directly; corrupt
  // blocks degrade to salvage accounting instead of a failed import.
  telemetry::Dataset data;
  telemetry::SpillReadStats spill_stats;
  if (!spill_files.empty()) {
    telemetry::SpillSet spill;
    spill.add_file(spill_files.front());
    data = spill.load(&spill_stats);
  } else {
    data = telemetry::import_dataset(dir);
  }
  core::print_header("Dataset");
  if (!spill_files.empty()) {
    core::print_metric("spill_files", static_cast<double>(spill_files.size()));
  }
  core::print_metric("player_sessions", static_cast<double>(data.player_sessions.size()));
  core::print_metric("player_chunks", static_cast<double>(data.player_chunks.size()));
  core::print_metric("tcp_snapshots", static_cast<double>(data.tcp_snapshots.size()));
  if (spill_stats.corrupted()) tools::print_spill_recovery(spill_stats);

  if (attribution) {
    const int status = run_attribution(data, scenario, std::move(faults),
                                       worst_n, attribution_out);
    return spill_stats.corrupted() ? core::kExitSalvageIncomplete : status;
  }

  const auto proxies = telemetry::detect_proxies(data);
  const auto joined = telemetry::JoinedDataset::build(data, &proxies);
  core::print_metric("proxy_sessions_filtered",
                     static_cast<double>(proxies.proxy_sessions.size()));
  core::print_metric("sessions_after_join",
                     static_cast<double>(joined.sessions().size()));

  core::print_header("QoE");
  const analysis::QoeAggregate qoe = analysis::aggregate_qoe(joined);
  core::print_metric("startup_median_ms", qoe.startup_ms.median);
  core::print_metric("rebuffer_rate_mean_pct", qoe.rebuffer_rate_pct.mean);
  core::print_metric("avg_bitrate_median_kbps", qoe.avg_bitrate_kbps.median);
  core::print_metric("share_with_rebuffering", qoe.share_with_rebuffering);

  core::print_header("CDN latency (Fig. 5 headlines)");
  std::vector<double> hit, miss;
  for (const auto& c : data.cdn_chunks) {
    (c.cache_hit() ? hit : miss).push_back(c.server_total_ms());
  }
  core::print_metric("hit_median_ms", analysis::summarize(hit).median);
  if (!miss.empty()) {
    core::print_metric("miss_median_ms", analysis::summarize(miss).median);
    core::print_metric("miss_share", static_cast<double>(miss.size()) /
                                         static_cast<double>(hit.size() +
                                                             miss.size()));
  }

  core::print_header("Table 4: orgs by share of CV(SRTT) > 1 sessions");
  core::Table table({"org", "access", "CV>1", "sessions", "share"});
  for (const analysis::OrgCvRow& row : analysis::org_cv_table(joined, 50)) {
    table.add_row({row.org, net::to_string(row.access),
                   std::to_string(row.high_cv_sessions),
                   std::to_string(row.total_sessions),
                   core::fmt(row.percent(), 1) + "%"});
  }
  table.print();

  core::print_header("Fig. 9: persistent tail-latency prefixes");
  const analysis::TailPrefixStudy study = analysis::persistent_tail_prefixes(
      joined, tail_threshold_ms, epochs, 0.10);
  core::print_metric("prefixes", static_cast<double>(study.total_prefix_count));
  core::print_metric("ever_in_tail", static_cast<double>(study.tail_prefix_count));
  core::print_metric("persistent", static_cast<double>(study.persistent_tail.size()));
  core::print_metric("non_us_share", study.non_us_share);

  core::print_header("Fig. 8: per-session latency CDFs");
  std::vector<double> srtt_min, sigma_srtt;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    const analysis::SessionNetMetrics m = analysis::session_net_metrics(s);
    if (!m.valid) continue;
    srtt_min.push_back(m.srtt_min_ms);
    sigma_srtt.push_back(m.srtt_stddev_ms);
  }
  core::print_cdf("analyze_srtt_min", analysis::make_cdf(srtt_min, 25));
  core::print_cdf("analyze_sigma_srtt", analysis::make_cdf(sigma_srtt, 25));

  core::print_header("Eq. 4 download-stack screen (§4.3-1)");
  std::size_t flagged = 0, sessions_with_flag = 0, chunks = 0;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    chunks += s.chunks.size();
    const analysis::DsOutlierResult r = analysis::detect_ds_outliers(s);
    flagged += r.flagged_count;
    if (r.flagged_count > 0) ++sessions_with_flag;
  }
  core::print_metric("flagged_chunk_share",
                     chunks == 0 ? 0.0
                                 : static_cast<double>(flagged) /
                                       static_cast<double>(chunks));
  core::print_metric("flagged_session_share",
                     joined.sessions().empty()
                         ? 0.0
                         : static_cast<double>(sessions_with_flag) /
                               static_cast<double>(joined.sessions().size()));
  // Salvaged-but-incomplete data: everything above was printed, but the
  // exit status records that corruption trimmed the dataset.
  return spill_stats.corrupted() ? core::kExitSalvageIncomplete
                                 : core::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vstream-analyze: error: %s\n", error.what());
    return core::exit_code_for(error);
  }
}
