// vstream_sim — run a simulated measurement campaign from the command line
// and optionally export the raw telemetry as CSV for offline analysis
// (see vstream_analyze).
//
//   vstream_sim [--sessions N] [--seed S] [--shards N] [--threads N]
//               [--abr fixed|rate|buffer|hybrid]
//               [--routing cache|partitioned] [--cache lru|lfu|gdsize]
//               [--prefetch N] [--pacing] [--universal-head]
//               [--abr-outlier-filter] [--out DIR]
//               [--telemetry-spill DIR]
//               [--checkpoint DIR] [--resume] [--checkpoint-interval N]
//               [--fault-profile none|eventful|overload]
//               [--attribute-worst N] [--attribution-out FILE]
//
// --attribute-worst N replays the N worst-QoE sessions once per idealized
// subsystem (cache, network, backend, overload, ABR — see
// cdn/idealization.h) and writes a blame breakdown to
// BENCH_attribution.json (or --attribution-out FILE).
//
// Runs on the layered sharded engine (deterministic for any --shards /
// VSTREAM_SHARDS value) and prints a QoE and CDN summary either way.
//
// --threads N (or VSTREAM_THREADS) sets the physical worker count of the
// work-stealing runtime: the logical shard partition — and therefore
// every output bit — is unchanged; only wall-clock time moves.  The
// thread count also drives the incremental spill analysis and CSV
// export.
//
// --telemetry-spill DIR streams telemetry to one binary spill file,
// DIR/run.vspill, instead of holding every record in memory; the file is
// written in canonical order and its bytes do not depend on --shards or
// --threads.  The summary and any --out CSV export are then produced
// incrementally from it and are byte-identical to the in-memory run.
//
// --checkpoint DIR makes the run crash-safe: one checkpoint sidecar,
// DIR/run.vckpt, is replaced at the first batch boundary past every
// --checkpoint-interval sessions (DIR doubles as the spill directory
// unless --telemetry-spill is also given), and --resume restarts from the
// last committed checkpoint after a crash — the final output is
// byte-identical to a run that was never interrupted.  See
// tools/vstream_chaos.cpp for the kill-and-resume harness that proves it.
//
// Errors surface as a one-line diagnostic and a documented exit status
// (core/exit_codes.h): 2 usage/config, 3 host I/O failure (disk full,
// unwritable directory, injected VSTREAM_FAILPOINTS fault — typically
// resumable with --resume), 4 when analysis completed but spill
// corruption limited it to the salvaged subset.  Never a raw terminate,
// never a truncated CSV with exit 0.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_report.h"
#include "analysis/attribution.h"
#include "analysis/qoe.h"
#include "core/exit_codes.h"
#include "engine/attribution.h"
#include "core/report.h"
#include "core/streaming.h"
#include "engine/engine.h"
#include "failpoints/failpoint.h"
#include "faults/fault_schedule.h"
#include "runtime/executor.h"
#include "sim/env_util.h"
#include "telemetry/export.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

using namespace vstream;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--sessions N] [--seed S] [--shards N] [--threads N]\n"
      "          [--abr fixed|rate|buffer|hybrid]\n"
      "          [--routing cache|partitioned] [--cache lru|lfu|gdsize]\n"
      "          [--prefetch N] [--pacing] [--universal-head]\n"
      "          [--abr-outlier-filter] [--out DIR]\n"
      "          [--telemetry-spill DIR]\n"
      "          [--checkpoint DIR] [--resume] [--checkpoint-interval N]\n"
      "          [--fault-profile none|eventful|overload]\n"
      "          [--breaker-threshold MS] [--retry-budget PCT]\n"
      "          [--shed-watermark PCT]\n"
      "          [--attribute-worst N] [--attribution-out FILE]\n",
      argv0);
  std::exit(2);
}

/// Named fault schedules (faults/fault_schedule.h) so scripted-fault runs
/// are reproducible from the command line, and so `vstream-analyze
/// --attribution` can rebuild the same fault world by name.
faults::FaultSchedule parse_fault_profile(const std::string& s,
                                          const char* argv0) {
  const std::optional<faults::FaultSchedule> schedule =
      faults::FaultSchedule::named(s);
  if (!schedule.has_value()) usage(argv0);
  return *schedule;
}

client::AbrKind parse_abr(const std::string& s, const char* argv0) {
  if (s == "fixed") return client::AbrKind::kFixed;
  if (s == "rate") return client::AbrKind::kRateBased;
  if (s == "buffer") return client::AbrKind::kBufferBased;
  if (s == "hybrid") return client::AbrKind::kHybrid;
  usage(argv0);
}

cdn::RoutingPolicy parse_routing(const std::string& s, const char* argv0) {
  if (s == "cache") return cdn::RoutingPolicy::kCacheFocused;
  if (s == "partitioned") return cdn::RoutingPolicy::kPopularityPartitioned;
  usage(argv0);
}

cdn::PolicyKind parse_cache(const std::string& s, const char* argv0) {
  if (s == "lru") return cdn::PolicyKind::kLru;
  if (s == "lfu") return cdn::PolicyKind::kPerfectLfu;
  if (s == "gdsize") return cdn::PolicyKind::kGdSize;
  usage(argv0);
}

int run_tool(int argc, char** argv) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = 2'000;
  engine::RunOptions options;
  std::string out_dir;
  std::size_t attribute_worst_n = 0;
  std::string attribution_out = "BENCH_attribution.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--sessions") {
      scenario.session_count = sim::parse_uint("--sessions", next());
    } else if (arg == "--seed") {
      scenario.seed = sim::parse_uint("--seed", next(), 0);
    } else if (arg == "--shards") {
      options.shards = sim::parse_uint("--shards", next());
    } else if (arg == "--threads") {
      options.threads = sim::parse_uint("--threads", next());
    } else if (arg == "--abr") {
      scenario.abr = parse_abr(next(), argv[0]);
    } else if (arg == "--routing") {
      scenario.routing = parse_routing(next(), argv[0]);
    } else if (arg == "--cache") {
      scenario.fleet.server.policy = parse_cache(next(), argv[0]);
    } else if (arg == "--prefetch") {
      // 0 disables prefetching (the default).
      scenario.fleet.server.prefetch_on_miss = static_cast<std::uint32_t>(
          sim::parse_uint("--prefetch", next(), 0, UINT32_MAX));
    } else if (arg == "--pacing") {
      scenario.tcp.pacing = true;
    } else if (arg == "--universal-head") {
      options.universal_head = true;
    } else if (arg == "--abr-outlier-filter") {
      scenario.abr_filters_throughput_outliers = true;
    } else if (arg == "--breaker-threshold") {
      scenario.fleet.server.overload.breaker_latency_threshold_ms =
          sim::parse_positive_double("--breaker-threshold", next());
    } else if (arg == "--retry-budget") {
      scenario.fleet.server.overload.retry_budget_ratio =
          sim::parse_positive_double("--retry-budget", next()) / 100.0;
    } else if (arg == "--shed-watermark") {
      scenario.fleet.server.overload.shed_watermark =
          sim::parse_positive_double("--shed-watermark", next()) / 100.0;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--telemetry-spill") {
      options.telemetry_spill_dir = next();
    } else if (arg == "--checkpoint") {
      options.checkpoint_dir = next();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--checkpoint-interval") {
      options.checkpoint_interval =
          sim::parse_uint("--checkpoint-interval", next());
    } else if (arg == "--fault-profile") {
      options.faults = parse_fault_profile(next(), argv[0]);
    } else if (arg == "--attribute-worst") {
      attribute_worst_n = sim::parse_uint("--attribute-worst", next());
    } else if (arg == "--attribution-out") {
      attribution_out = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }

  core::print_header("vstream_sim");
  core::print_metric("sessions", static_cast<double>(scenario.session_count));
  core::print_metric("seed", static_cast<double>(scenario.seed));
  core::print_metric("abr", client::to_string(scenario.abr));
  core::print_metric("routing", cdn::to_string(scenario.routing));
  core::print_metric("cache_policy", cdn::to_string(scenario.fleet.server.policy));

  // The attribution pass rebuilds the run's world from the same scenario
  // and world-shaping options; keep a copy before the move.
  const engine::RunOptions replay_options = options;
  engine::RunResult run = engine::run_simulation(scenario, std::move(options));
  core::print_metric("shards", static_cast<double>(run.shard_count));
  core::print_metric("threads", static_cast<double>(run.thread_count));
  if (!run.completed) {
    std::printf("run stopped at a checkpoint; resume with --resume to "
                "finish (partial committed state below)\n");
  }
  if (run.checkpoints_degraded) {
    core::print_metric("checkpoints_degraded", 1.0);
  }
  int exit_code = core::kExitOk;

  // Spilled runs analyze incrementally from disk (core::analyze_spill),
  // which also yields every session's QoE for the attribution ranking;
  // in-memory runs join the merged dataset with JoinedDataset::build.
  // Both feed the same per-session join and yield the same numbers (see
  // tests/engine/determinism_test.cc).
  analysis::QoeAggregate qoe;
  std::size_t dropped_as_proxy = 0;
  std::vector<analysis::SessionQoeRow> spilled_sessions;
  if (run.spilled()) {
    core::StreamingAnalysis streamed = core::analyze_spill(
        run.spill, run.catalog->chunk_duration_s(), {}, run.thread_count);
    qoe = streamed.qoe;
    dropped_as_proxy = streamed.dropped_as_proxy;
    spilled_sessions = std::move(streamed.session_qoe);
    if (streamed.spill.corrupted()) {
      // Damaged spill data is salvaged, not fatal — but say so out loud
      // and exit with the documented salvage-incomplete status so a
      // script knows the numbers cover a subset.
      exit_code = core::kExitSalvageIncomplete;
      tools::print_spill_recovery(streamed.spill);
    }
  } else {
    const telemetry::ProxyFilterResult proxies =
        telemetry::detect_proxies(run.dataset);
    const telemetry::JoinedDataset joined =
        telemetry::JoinedDataset::build(run.dataset, &proxies);
    qoe = analysis::aggregate_qoe(joined);
    dropped_as_proxy = joined.dropped_as_proxy();
  }

  core::print_header("QoE summary (proxy-filtered sessions)");
  core::Table table({"metric", "median", "mean", "p95"});
  table.add_row({"startup ms", core::fmt(qoe.startup_ms.median, 0),
                 core::fmt(qoe.startup_ms.mean, 0),
                 core::fmt(qoe.startup_ms.p95, 0)});
  table.add_row({"rebuffer %", core::fmt(qoe.rebuffer_rate_pct.median, 2),
                 core::fmt(qoe.rebuffer_rate_pct.mean, 2),
                 core::fmt(qoe.rebuffer_rate_pct.p95, 2)});
  table.add_row({"avg bitrate kbps", core::fmt(qoe.avg_bitrate_kbps.median, 0),
                 core::fmt(qoe.avg_bitrate_kbps.mean, 0),
                 core::fmt(qoe.avg_bitrate_kbps.p95, 0)});
  table.add_row({"dropped %", core::fmt(qoe.dropped_frame_pct.median, 2),
                 core::fmt(qoe.dropped_frame_pct.mean, 2),
                 core::fmt(qoe.dropped_frame_pct.p95, 2)});
  table.print();
  core::print_metric("sessions_joined", static_cast<double>(qoe.sessions));
  core::print_metric("sessions_dropped_as_proxy",
                     static_cast<double>(dropped_as_proxy));
  core::print_metric("share_with_rebuffering", qoe.share_with_rebuffering);

  core::print_header("CDN summary");
  std::uint64_t ram = 0, disk = 0, miss = 0, total = 0, backend = 0;
  std::uint64_t shed = 0, hedged = 0, swr = 0;
  for (const cdn::ServerStats& s : run.server_stats) {
    ram += s.ram_hits;
    disk += s.disk_hits;
    miss += s.misses;
    total += s.requests_served;
    backend += s.backend_requests();
    shed += s.shed_requests;
    hedged += s.hedged_fetches;
    swr += s.swr_serves;
  }
  const double n = static_cast<double>(total);
  core::print_metric("ram_hit_share", static_cast<double>(ram) / n);
  core::print_metric("disk_hit_share", static_cast<double>(disk) / n);
  core::print_metric("miss_share", static_cast<double>(miss) / n);
  core::print_metric("backend_requests", static_cast<double>(backend));
  core::print_metric("shed_requests", static_cast<double>(shed));
  core::print_metric("hedged_fetches", static_cast<double>(hedged));
  core::print_metric("swr_serves", static_cast<double>(swr));

  if (attribute_worst_n > 0) {
    // Counterfactual attribution: replay the worst-N sessions once per
    // idealized subsystem and report who is to blame.  A spilled run ranks
    // the sessions analyze_spill already folded; nothing is reloaded.
    const engine::ReplayContext replay_ctx(scenario, replay_options);
    engine::AttributionOptions attr_options;
    attr_options.worst_n = attribute_worst_n;
    attr_options.threads = run.thread_count;
    const analysis::AttributionReport report =
        run.spilled()
            ? engine::attribute_worst(replay_ctx, spilled_sessions,
                                      attr_options)
            : engine::attribute_worst(replay_ctx, run.dataset, attr_options);
    const std::size_t replay_mismatches =
        tools::print_attribution(report, attribution_out);
    if (replay_mismatches > 0) {
      std::fprintf(stderr,
                   "warning: %zu factual replays diverged from the measured "
                   "run; blame numbers are suspect\n",
                   replay_mismatches);
    }
  }

  if (!out_dir.empty()) {
    runtime::Executor exporter(run.thread_count);
    runtime::Executor* pool = exporter.workers() > 1 ? &exporter : nullptr;
    if (run.spilled()) {
      const auto stream = run.spill.open();
      telemetry::export_stream(*stream, out_dir, pool);
    } else {
      telemetry::export_dataset(run.dataset, out_dir, pool);
    }
    std::printf("\nexported raw telemetry to %s "
                "(player_sessions/cdn_sessions/player_chunks/cdn_chunks/"
                "tcp_snapshots .csv)\n",
                out_dir.c_str());
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // Any failure — bad flag, bad resume sidecar, unwritable directory,
  // disk full, injected failpoint — is one diagnostic line and the
  // documented exit code for its class (core/exit_codes.h), never an
  // unhandled exception.
  try {
    failpoints::Registry::instance().arm_from_env();
    return run_tool(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vstream-sim: error: %s\n", error.what());
    return core::exit_code_for(error);
  }
}
