// Byte golden for the serve path: the hashes below pin every byte of all
// five exported CSV streams of an engine::run_simulation run whose fault
// schedule drives every serve regime (AtsServer::serve against the
// immutable warm archive through each session's own state).
//
// The constants pin the current random stream: they were last re-blessed
// for the ziggurat N(0, 1) sampler and the TCP path's loss and spike
// countdowns.  The behaviour
// the model must keep across such deliberate changes is checked by
// distribution (tests/integration/model_distribution_golden_test.cc) and
// by the paper's findings (tests/integration/findings_test.cc), not by
// these bytes.
//
// A refactor must leave these hashes unchanged.  After a deliberate
// behaviour change, regenerate with:
//
//   VSTREAM_SERVE_GOLDEN=print build/tests/test_engine
//       --gtest_filter='ServeUnificationGolden.*'      (one command line)
//
// and update the constants — in the same commit that changes behaviour,
// with the determinism suite still green.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "engine/engine.h"
#include "faults/fault_schedule.h"
#include "telemetry/export.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct StreamHashes {
  std::uint64_t player_sessions = 0;
  std::uint64_t cdn_sessions = 0;
  std::uint64_t player_chunks = 0;
  std::uint64_t cdn_chunks = 0;
  std::uint64_t tcp_snapshots = 0;
};

StreamHashes hash_streams(const telemetry::Dataset& data) {
  StreamHashes hashes;
  const auto hash_of = [](const auto& records) {
    std::ostringstream out;
    telemetry::write_csv(out, records);
    return fnv1a64(out.str());
  };
  hashes.player_sessions = hash_of(data.player_sessions);
  hashes.cdn_sessions = hash_of(data.cdn_sessions);
  hashes.player_chunks = hash_of(data.player_chunks);
  hashes.cdn_chunks = hash_of(data.cdn_chunks);
  hashes.tcp_snapshots = hash_of(data.tcp_snapshots);
  return hashes;
}

bool print_mode() {
  const char* mode = std::getenv("VSTREAM_SERVE_GOLDEN");
  return mode != nullptr && std::string(mode) == "print";
}

void check_or_print(const char* label, const StreamHashes& got,
                    const StreamHashes& want) {
  if (print_mode()) {
    std::fprintf(stderr,
                 "GOLDEN %s: {0x%016llxull, 0x%016llxull, 0x%016llxull, "
                 "0x%016llxull, 0x%016llxull}\n",
                 label,
                 static_cast<unsigned long long>(got.player_sessions),
                 static_cast<unsigned long long>(got.cdn_sessions),
                 static_cast<unsigned long long>(got.player_chunks),
                 static_cast<unsigned long long>(got.cdn_chunks),
                 static_cast<unsigned long long>(got.tcp_snapshots));
    return;
  }
  EXPECT_EQ(got.player_sessions, want.player_sessions)
      << label << ": player_sessions.csv changed";
  EXPECT_EQ(got.cdn_sessions, want.cdn_sessions)
      << label << ": cdn_sessions.csv changed";
  EXPECT_EQ(got.player_chunks, want.player_chunks)
      << label << ": player_chunks.csv changed";
  EXPECT_EQ(got.cdn_chunks, want.cdn_chunks)
      << label << ": cdn_chunks.csv changed";
  EXPECT_EQ(got.tcp_snapshots, want.tcp_snapshots)
      << label << ": tcp_snapshots.csv changed";
}

/// The schedule mixes every serve-path regime the serve path has to
/// reproduce: overload shedding, breaker trips + hedges (brownout), a
/// backend outage (stale serves, miss errors), a server crash (failover)
/// and a degraded disk (seek/retry-timer path).
faults::FaultSchedule serve_path_schedule() {
  return faults::FaultSchedule::scripted({
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 0, 3.0},
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 1, 3.0},
      {faults::FaultKind::kBackendSlowdown, 10'000.0, 60'000.0, 0, 0, 8.0},
      {faults::FaultKind::kServerCrash, 5'000.0, 60'000.0, 0, 2, 1.0},
      {faults::FaultKind::kBackendOutage, 70'000.0, 20'000.0, 0, 0, 1.0},
      {faults::FaultKind::kDiskDegradation, 40'000.0, 40'000.0, 1, 0, 8.0},
  });
}

TEST(ServeUnificationGolden, ShardedIsolatedPathMatchesPreRefactorBytes) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 150;
  engine::RunOptions options;
  options.shards = 2;
  options.faults = serve_path_schedule();
  const engine::RunResult run = engine::run_simulation(scenario, options);
  ASSERT_FALSE(run.dataset.player_chunks.empty());

  const StreamHashes want = {0xf10ac06eaa29f7a9ull, 0xa2cd5e6c1afa6959ull,
                             0xbfe25f32669c0a06ull, 0x63fa75f94c2c3953ull,
                             0xd5dd99c5305e5655ull};
  check_or_print("sharded", hash_streams(run.dataset), want);
}

}  // namespace
}  // namespace vstream
