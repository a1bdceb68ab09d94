#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "sim/env_util.h"

namespace vstream::bench {

namespace {

/// Strict env parse; misconfiguration kills the bench with a message
/// instead of silently benchmarking the wrong workload.
std::size_t checked_env(const char* name, std::size_t fallback) {
  try {
    return sim::positive_env(name, fallback);
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
}

}  // namespace

std::size_t bench_session_count(std::size_t fallback) {
  return checked_env("VSTREAM_BENCH_SESSIONS", fallback);
}

BenchRun run_paper_workload(std::size_t sessions, std::uint64_t seed) {
  BenchRun run;
  run.scenario = workload::paper_scenario();
  run.scenario.session_count = sessions;
  run.scenario.seed = seed;
  engine::AnalyzedRun analyzed = engine::run_and_analyze(run.scenario);
  run.result = std::move(analyzed.run);
  run.proxies = std::move(analyzed.proxies);
  run.joined = std::move(analyzed.joined);
  return run;
}

}  // namespace vstream::bench
