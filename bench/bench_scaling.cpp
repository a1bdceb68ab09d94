// bench_scaling — sessions/s versus physical worker count at a fixed
// logical partition, emitted as BENCH_scaling.json.
//
//   bench_scaling [--sessions N] [--seed S] [--reps R]
//
// The point of the logical-shards/physical-threads split is that the
// thread count is a pure throughput knob: this bench pins the partition
// at 64 logical shards (the engine default) and sweeps the worker pool
// over {1, 2, 4, 8}, reporting the best-of-reps simulation rate per
// thread count plus the analyze_spill wall time over a 64-file spill
// set at the same thread counts.  Each simulation point also reports its
// fewest minor page faults over the reps (getrusage, all threads), and
// the process's peak RSS once the point's reps are done — a high-water
// mark, so it can only grow along the sweep.  Faults show whether a
// change moved the memory side of a run or its computation.  Every timed run is also checked
// byte-identical against the single-threaded reference — a scaling
// number for a run that changed its output would be meaningless.
//
// Environment knobs: VSTREAM_BENCH_SESSIONS overrides the session count
// (--seed the seed); VSTREAM_THREADS is deliberately ignored (the sweep
// sets threads explicitly).

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/streaming.h"
#include "engine/engine.h"
#include "telemetry/export.h"

using namespace vstream;

namespace {

constexpr std::size_t kLogicalShards = 64;
constexpr std::size_t kThreadSweep[] = {1, 2, 4, 8};

rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string export_string(const telemetry::Dataset& data) {
  std::ostringstream out;
  telemetry::write_csv(out, data.player_sessions);
  telemetry::write_csv(out, data.cdn_sessions);
  telemetry::write_csv(out, data.player_chunks);
  telemetry::write_csv(out, data.cdn_chunks);
  telemetry::write_csv(out, data.tcp_snapshots);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = bench::bench_session_count(800);
  std::uint64_t seed = bench::kBenchSeed;
  std::size_t reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--sessions N] [--seed S] [--reps R]\n");
      return 2;
    }
  }
  if (reps == 0) reps = 1;

  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = sessions;
  scenario.seed = seed;

  std::printf("bench_scaling: %zu sessions, %zu logical shards, reps=%zu\n",
              sessions, kLogicalShards, reps);

  std::vector<bench::JsonMetric> metrics;
  metrics.push_back({"sessions", static_cast<double>(sessions), "count"});
  metrics.push_back(
      {"logical_shards", static_cast<double>(kLogicalShards), "count"});

  // --- simulation throughput sweep (in-memory telemetry) ----------------
  std::string reference_csv;
  for (const std::size_t threads : kThreadSweep) {
    double best_ms = 0.0;
    long fewest_faults = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      engine::RunOptions options;
      options.shards = kLogicalShards;
      options.threads = threads;
      const long faults_before = self_usage().ru_minflt;
      const double start = now_ms();
      const engine::RunResult run = engine::run_simulation(scenario, options);
      const double elapsed = now_ms() - start;
      const long faults = self_usage().ru_minflt - faults_before;
      if (rep == 0 || elapsed < best_ms) best_ms = elapsed;
      if (rep == 0 || faults < fewest_faults) fewest_faults = faults;
      if (rep == 0) {
        const std::string csv = export_string(run.dataset);
        if (reference_csv.empty()) {
          reference_csv = csv;
        } else if (csv != reference_csv) {
          std::fprintf(stderr,
                       "bench_scaling: output at threads=%zu differs from "
                       "the single-threaded reference — determinism broken\n",
                       threads);
          return 1;
        }
      }
    }
    const double rate = sessions / (best_ms / 1000.0);
    core::print_metric("sim_sessions_per_s_t" + std::to_string(threads),
                       rate);
    metrics.push_back({"sim_sessions_per_s_t" + std::to_string(threads),
                       rate, "sessions/s"});
    metrics.push_back({"sim_wall_ms_t" + std::to_string(threads), best_ms,
                       "ms"});
    const double peak_mb =
        static_cast<double>(self_usage().ru_maxrss) / 1024.0;  // KiB
    core::print_metric("sim_minor_faults_t" + std::to_string(threads),
                       static_cast<double>(fewest_faults));
    core::print_metric("peak_rss_mb_t" + std::to_string(threads), peak_mb);
    metrics.push_back({"sim_minor_faults_t" + std::to_string(threads),
                       static_cast<double>(fewest_faults), "faults"});
    metrics.push_back(
        {"peak_rss_mb_t" + std::to_string(threads), peak_mb, "MiB"});
  }

  // --- analyze_spill sweep over a 64-file spill set ---------------------
  const std::filesystem::path spill_dir =
      std::filesystem::temp_directory_path() / "vstream_bench_scaling";
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  engine::RunOptions spill_options;
  spill_options.shards = kLogicalShards;
  spill_options.threads = 0;  // resolved from the host
  spill_options.telemetry_spill_dir = spill_dir.string();
  const engine::RunResult spilled =
      engine::run_simulation(scenario, spill_options);
  const double tau = spilled.catalog->chunk_duration_s();

  std::size_t reference_joined = 0;
  for (const std::size_t threads : kThreadSweep) {
    double best_ms = 0.0;
    std::size_t joined = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const double start = now_ms();
      const core::StreamingAnalysis analysis =
          core::analyze_spill(spilled.spill, tau, {}, threads);
      const double elapsed = now_ms() - start;
      if (rep == 0 || elapsed < best_ms) best_ms = elapsed;
      joined = analysis.sessions_joined;
    }
    if (reference_joined == 0) {
      reference_joined = joined;
    } else if (joined != reference_joined) {
      std::fprintf(stderr,
                   "bench_scaling: analyze_spill at threads=%zu joined %zu "
                   "sessions, expected %zu\n",
                   threads, joined, reference_joined);
      return 1;
    }
    core::print_metric("analyze_spill_ms_t" + std::to_string(threads),
                       best_ms);
    metrics.push_back({"analyze_spill_ms_t" + std::to_string(threads),
                       best_ms, "ms"});
  }
  std::filesystem::remove_all(spill_dir);

  bench::emit_json("BENCH_scaling.json", "scaling", metrics);
  std::printf("wrote BENCH_scaling.json (%zu metrics)\n", metrics.size());
  return 0;
}
