// bench_telemetry_pipeline — throughput and peak memory of the telemetry
// pipeline, in-memory vs spill-to-disk, emitted as BENCH_telemetry.json.
//
//   bench_telemetry_pipeline [--sessions N] [--seed S]
//
// Peak RSS is a process high-water mark, so running both modes in one
// process would let whichever runs first contaminate the other's reading.
// The parent instead forks one child per mode (re-exec'ing itself with
// --child) and reads ru_maxrss from wait4(); the child reports record
// count and elapsed time through a small key=value metrics file.
//
// Environment knobs: VSTREAM_BENCH_SESSIONS overrides the session count,
// VSTREAM_SHARDS picks the logical shard count as usual.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/qoe.h"
#include "bench_common.h"
#include "bench_json.h"
#include "core/streaming.h"
#include "engine/engine.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

using namespace vstream;

namespace {

std::size_t dataset_records(const telemetry::Dataset& d) {
  return d.player_sessions.size() + d.cdn_sessions.size() +
         d.player_chunks.size() + d.cdn_chunks.size() +
         d.tcp_snapshots.size();
}

/// One end-to-end run (simulate + analyze) in the requested telemetry
/// mode; writes `records=`, `elapsed_ms=` and `sessions_joined=` to
/// `metrics_path` for the parent.
int run_child(const std::string& mode, std::size_t sessions,
              std::uint64_t seed, const std::filesystem::path& metrics_path,
              const std::filesystem::path& spill_dir) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = sessions;
  scenario.seed = seed;

  const auto start = std::chrono::steady_clock::now();
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::size_t records = 0;
  std::size_t joined_sessions = 0;
  double sim_ms = 0.0;
  double analyze_ms = 0.0;
  std::uint64_t spill_bytes = 0;

  if (mode == "spill" || mode == "ckpt") {
    engine::RunOptions options;
    options.telemetry_spill_dir = spill_dir.string();
    if (mode == "ckpt") {
      // Crash-safe variant: same spill pipeline plus checkpoint commits
      // (a flush and a sidecar) at the default interval.
      // The delta against plain spill is the durability tax.
      options.checkpoint_dir = (spill_dir / "ckpt").string();
    }
    const engine::RunResult run = engine::run_simulation(scenario, options);
    sim_ms = ms_since(start);
    std::error_code ec;
    spill_bytes = std::filesystem::file_size(run.spill.file(), ec);
    // One read pass to count records (also exercises the reader), then
    // the incremental two-pass analysis.
    {
      const auto stream = run.spill.open();
      while (auto group = stream->next()) records += group->record_count();
    }
    const auto analyze_start = std::chrono::steady_clock::now();
    const core::StreamingAnalysis streamed =
        core::analyze_spill(run.spill, run.catalog->chunk_duration_s());
    analyze_ms = ms_since(analyze_start);
    joined_sessions = streamed.sessions_joined;
  } else {
    const engine::RunResult run = engine::run_simulation(scenario, {});
    sim_ms = ms_since(start);
    records = dataset_records(run.dataset);
    const auto analyze_start = std::chrono::steady_clock::now();
    const telemetry::ProxyFilterResult proxies =
        telemetry::detect_proxies(run.dataset);
    const telemetry::JoinedDataset joined =
        telemetry::JoinedDataset::build(run.dataset, &proxies);
    joined_sessions = analysis::aggregate_qoe(joined).sessions;
    analyze_ms = ms_since(analyze_start);
  }

  const double elapsed_ms = ms_since(start);

  std::ofstream out(metrics_path, std::ios::trunc);
  out << "records=" << records << "\n"
      << "elapsed_ms=" << elapsed_ms << "\n"
      << "sim_ms=" << sim_ms << "\n"
      << "analyze_ms=" << analyze_ms << "\n"
      << "sessions_joined=" << joined_sessions << "\n"
      << "spill_bytes=" << spill_bytes << "\n";
  out.flush();
  return out ? 0 : 1;
}

struct ChildResult {
  std::size_t records = 0;
  double elapsed_ms = 0.0;
  double sim_ms = 0.0;
  double analyze_ms = 0.0;
  std::size_t sessions_joined = 0;
  double peak_rss_mb = 0.0;
  std::uint64_t spill_bytes = 0;
};

/// Fork + re-exec this binary in `mode`, harvest ru_maxrss via wait4 and
/// the child's metrics file.  Exits the bench on any child failure.
ChildResult run_mode(const char* self, const std::string& mode,
                     std::size_t sessions, std::uint64_t seed,
                     const std::filesystem::path& work_dir) {
  const std::filesystem::path metrics_path =
      work_dir / ("child-" + mode + ".txt");
  const std::filesystem::path spill_dir = work_dir / ("spill-" + mode);

  const std::string sessions_s = std::to_string(sessions);
  const std::string seed_s = std::to_string(seed);
  const std::string metrics_s = metrics_path.string();
  const std::string spill_s = spill_dir.string();

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_telemetry_pipeline: fork");
    std::exit(1);
  }
  if (pid == 0) {
    const char* argv[] = {self,
                          "--child",
                          mode.c_str(),
                          "--sessions",
                          sessions_s.c_str(),
                          "--seed",
                          seed_s.c_str(),
                          "--metrics",
                          metrics_s.c_str(),
                          "--spill-dir",
                          spill_s.c_str(),
                          nullptr};
    execv(self, const_cast<char* const*>(argv));
    std::perror("bench_telemetry_pipeline: execv");
    _exit(127);
  }

  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("bench_telemetry_pipeline: wait4");
    std::exit(1);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_telemetry_pipeline: %s child failed\n",
                 mode.c_str());
    std::exit(1);
  }

  ChildResult result;
  // Linux reports ru_maxrss in kilobytes.
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::ifstream in(metrics_path);
  std::string line;
  std::map<std::string, std::string> kv;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  if (kv.count("records") == 0 || kv.count("elapsed_ms") == 0) {
    std::fprintf(stderr,
                 "bench_telemetry_pipeline: %s child wrote no metrics\n",
                 mode.c_str());
    std::exit(1);
  }
  result.records = static_cast<std::size_t>(std::stoull(kv["records"]));
  result.elapsed_ms = std::stod(kv["elapsed_ms"]);
  result.sim_ms = std::stod(kv["sim_ms"]);
  result.analyze_ms = std::stod(kv["analyze_ms"]);
  result.sessions_joined =
      static_cast<std::size_t>(std::stoull(kv["sessions_joined"]));
  result.spill_bytes = std::stoull(kv["spill_bytes"]);
  return result;
}

double records_per_sec(const ChildResult& r) {
  return r.elapsed_ms > 0.0 ? static_cast<double>(r.records) /
                                  (r.elapsed_ms / 1000.0)
                            : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 0;
  std::uint64_t seed = 0;
  std::string child_mode;
  std::filesystem::path metrics_path;
  std::filesystem::path spill_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sessions") {
      sessions = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::stoull(next()));
    } else if (arg == "--child") {
      child_mode = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--spill-dir") {
      spill_dir = next();
    } else {
      std::fprintf(stderr, "usage: %s [--sessions N] [--seed S]\n", argv[0]);
      return 2;
    }
  }
  if (sessions == 0) sessions = bench::bench_session_count(5'000);
  if (seed == 0) seed = bench::kBenchSeed;

  if (!child_mode.empty()) {
    return run_child(child_mode, sessions, seed, metrics_path, spill_dir);
  }

  const std::filesystem::path work_dir = "bench_telemetry_work";
  std::filesystem::create_directories(work_dir);

  std::printf("bench_telemetry_pipeline: %zu sessions, seed %llu\n", sessions,
              static_cast<unsigned long long>(seed));

  const ChildResult memory =
      run_mode(argv[0], "memory", sessions, seed, work_dir);
  const ChildResult spill =
      run_mode(argv[0], "spill", sessions, seed, work_dir);
  const ChildResult ckpt = run_mode(argv[0], "ckpt", sessions, seed, work_dir);

  if (memory.records != spill.records ||
      memory.sessions_joined != spill.sessions_joined ||
      memory.records != ckpt.records ||
      memory.sessions_joined != ckpt.sessions_joined) {
    std::fprintf(stderr,
                 "bench_telemetry_pipeline: mode mismatch "
                 "(memory %zu records / %zu joined, spill %zu / %zu, "
                 "ckpt %zu / %zu)\n",
                 memory.records, memory.sessions_joined, spill.records,
                 spill.sessions_joined, ckpt.records, ckpt.sessions_joined);
    return 1;
  }

  std::printf("  memory: %zu records, %.0f ms, %.0f records/s, %.1f MB peak\n",
              memory.records, memory.elapsed_ms, records_per_sec(memory),
              memory.peak_rss_mb);
  std::printf("  spill:  %zu records, %.0f ms, %.0f records/s, %.1f MB peak\n",
              spill.records, spill.elapsed_ms, records_per_sec(spill),
              spill.peak_rss_mb);
  std::printf("  ckpt:   %zu records, %.0f ms, %.0f records/s, %.1f MB peak\n",
              ckpt.records, ckpt.elapsed_ms, records_per_sec(ckpt),
              ckpt.peak_rss_mb);

  const double rss_ratio =
      spill.peak_rss_mb > 0.0 ? memory.peak_rss_mb / spill.peak_rss_mb : 0.0;
  // Throughput cost of crash safety: checkpointed vs plain spill (same
  // telemetry path, the delta is batching + flushes + sidecar writes).
  const double ckpt_overhead_pct =
      spill.elapsed_ms > 0.0
          ? (ckpt.elapsed_ms - spill.elapsed_ms) / spill.elapsed_ms * 100.0
          : 0.0;
  // Simulation-phase cost of spilling telemetry vs keeping it in memory:
  // the spill byte path (encode + buffered writes) is the delta.
  const double spill_sim_overhead_pct =
      memory.sim_ms > 0.0
          ? (spill.sim_ms - memory.sim_ms) / memory.sim_ms * 100.0
          : 0.0;
  const double spill_bytes_per_session =
      sessions > 0 ? static_cast<double>(spill.spill_bytes) /
                         static_cast<double>(sessions)
                   : 0.0;

  bench::emit_json(
      "BENCH_telemetry.json", "telemetry",
      {
          {"sessions", static_cast<double>(sessions), "sessions"},
          {"records", static_cast<double>(memory.records), "records"},
          {"memory_elapsed_ms", memory.elapsed_ms, "ms"},
          {"memory_records_per_sec", records_per_sec(memory), "records/s"},
          {"memory_peak_rss_mb", memory.peak_rss_mb, "MB"},
          {"memory_sim_ms", memory.sim_ms, "ms"},
          {"spill_elapsed_ms", spill.elapsed_ms, "ms"},
          {"spill_records_per_sec", records_per_sec(spill), "records/s"},
          {"spill_peak_rss_mb", spill.peak_rss_mb, "MB"},
          {"spill_sim_ms", spill.sim_ms, "ms"},
          {"spill_sim_overhead_pct", spill_sim_overhead_pct, "%"},
          {"analyze_spill_ms", spill.analyze_ms, "ms"},
          {"spill_bytes_per_session", spill_bytes_per_session, "B/session"},
          {"peak_rss_ratio", rss_ratio, "x"},
          {"ckpt_elapsed_ms", ckpt.elapsed_ms, "ms"},
          {"ckpt_records_per_sec", records_per_sec(ckpt), "records/s"},
          {"ckpt_peak_rss_mb", ckpt.peak_rss_mb, "MB"},
          {"checkpoint_overhead_pct", ckpt_overhead_pct, "%"},
      });
  std::printf("  wrote BENCH_telemetry.json (peak RSS ratio %.2fx, "
              "spill sim overhead %.1f%%, %.0f B/session, "
              "checkpoint overhead %.1f%%)\n",
              rss_ratio, spill_sim_overhead_pct, spill_bytes_per_session,
              ckpt_overhead_pct);

  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  return 0;
}
