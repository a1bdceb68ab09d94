// Checkpoint sidecar format and resume semantics: round trips, corruption
// tolerance (a damaged sidecar reads as "no checkpoint", never crashes),
// fingerprint sensitivity, and the engine-level refusal to mix runs.
#include "engine/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "engine/engine.h"
#include "telemetry/crc32c.h"
#include "telemetry/le_bytes.h"
#include "workload/scenario.h"

namespace vstream::engine {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("vstream_ckpt_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path file(const char* name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

RunCheckpoint sample_checkpoint() {
  RunCheckpoint cp;
  cp.fingerprint = 0xDEADBEEFCAFEF00Dull;
  cp.next_index = 1'500;
  cp.spill_committed_bytes = 123'456;
  cp.spill_blocks_written = 789;
  cp.ground_truth.ds_anomalies[42] = {1, 2, 7};
  cp.ground_truth.ds_anomalies[7] = {0};
  cp.ground_truth.proxied[42] = true;
  cp.ground_truth.proxied[9] = false;
  cp.ground_truth.total_chunks = 10'000;
  cp.ground_truth.total_ds_anomalies = 4;
  cp.ground_truth.stall_abandonments = 3;
  cp.ground_truth.request_timeouts = 17;
  cp.ground_truth.chunk_retries = 31;
  cp.ground_truth.failover_events = 2;
  cp.ground_truth.failed_sessions = 1;
  cdn::ServerStats stats;
  stats.requests_served = 5'000;
  stats.ram_hits = 3'000;
  stats.disk_hits = 1'200;
  stats.misses = 800;
  stats.prefetched_chunks = 55;
  stats.collapsed_misses = 11;
  stats.backend_fetches = 790;
  stats.stale_serves = 6;
  stats.backend_errors = 4;
  stats.shed_requests = 21;
  stats.hedged_fetches = 9;
  stats.hedge_wins = 5;
  stats.breaker_open_transitions = 2;
  stats.retry_budget_exhausted = 3;
  stats.swr_serves = 8;
  cp.server_stats.push_back(stats);
  cp.server_stats.push_back(cdn::ServerStats{});
  return cp;
}

TEST_F(CheckpointTest, RoundTripsEveryField) {
  const RunCheckpoint cp = sample_checkpoint();
  write_checkpoint(file("run.vckpt"), cp);
  const auto read = read_checkpoint(file("run.vckpt"));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->fingerprint, cp.fingerprint);
  EXPECT_EQ(read->next_index, cp.next_index);
  EXPECT_EQ(read->spill_committed_bytes, cp.spill_committed_bytes);
  EXPECT_EQ(read->spill_blocks_written, cp.spill_blocks_written);
  EXPECT_EQ(read->ground_truth.ds_anomalies, cp.ground_truth.ds_anomalies);
  EXPECT_EQ(read->ground_truth.proxied, cp.ground_truth.proxied);
  EXPECT_EQ(read->ground_truth.total_chunks, cp.ground_truth.total_chunks);
  EXPECT_EQ(read->ground_truth.failed_sessions,
            cp.ground_truth.failed_sessions);
  ASSERT_EQ(read->server_stats.size(), 2u);
  EXPECT_EQ(read->server_stats[0].requests_served, 5'000u);
  EXPECT_EQ(read->server_stats[0].swr_serves, 8u);
  EXPECT_EQ(read->server_stats[1].requests_served, 0u);
}

TEST_F(CheckpointTest, RewriteReplacesAtomically) {
  RunCheckpoint cp = sample_checkpoint();
  write_checkpoint(file("s.vckpt"), cp);
  cp.next_index = 9'999;
  write_checkpoint(file("s.vckpt"), cp);
  const auto read = read_checkpoint(file("s.vckpt"));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->next_index, 9'999u);
  // The tmp staging file never survives a successful write.
  EXPECT_FALSE(std::filesystem::exists(file("s.vckpt.tmp")));
}

TEST_F(CheckpointTest, MissingSidecarReadsAsNone) {
  EXPECT_FALSE(read_checkpoint(file("absent.vckpt")).has_value());
}

TEST_F(CheckpointTest, EveryByteFlipReadsAsNoneOrValid) {
  write_checkpoint(file("flip.vckpt"), sample_checkpoint());
  std::string clean;
  {
    std::ifstream in(file("flip.vckpt"), std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x5A);
    {
      std::ofstream out(file("mut.vckpt"), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    // Any damage must read as "no checkpoint" — a fresh start is always
    // safe — and must never throw or crash.
    EXPECT_FALSE(read_checkpoint(file("mut.vckpt")).has_value())
        << "byte " << i;
  }
}

TEST_F(CheckpointTest, OldFormatSidecarReadsAsNone) {
  // A version-1 sidecar: one per id-modulo shard, with the shard's index
  // and count after the fingerprint.  Built from a current one by
  // reinserting those fields, so only the format differs; its CRC is
  // valid, and it still reads as "no checkpoint" — a fresh start.
  write_checkpoint(file("run.vckpt"), sample_checkpoint());
  std::string bytes;
  {
    std::ifstream in(file("run.vckpt"), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u + 8u + 4u);
  std::string payload = bytes.substr(16, bytes.size() - 16 - 4);
  std::string shard_fields;
  telemetry::put_u64(shard_fields, 2);  // shard_index
  telemetry::put_u64(shard_fields, 4);  // shard_count
  payload.insert(8, shard_fields);
  std::string old;
  telemetry::put_u32(old, telemetry::load_u32(bytes.data()));  // magic
  telemetry::put_u32(old, 1);                                  // version
  telemetry::put_u64(old, payload.size());
  old += payload;
  telemetry::put_u32(old, telemetry::crc32c(payload.data(), payload.size()));
  {
    std::ofstream out(file("old.vckpt"), std::ios::binary | std::ios::trunc);
    out.write(old.data(), static_cast<std::streamsize>(old.size()));
  }
  EXPECT_FALSE(read_checkpoint(file("old.vckpt")).has_value());
}

TEST_F(CheckpointTest, EveryTruncationReadsAsNone) {
  write_checkpoint(file("trunc.vckpt"), sample_checkpoint());
  std::string clean;
  {
    std::ifstream in(file("trunc.vckpt"), std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (std::size_t len = 0; len < clean.size(); ++len) {
    {
      std::ofstream out(file("mut.vckpt"), std::ios::binary | std::ios::trunc);
      out.write(clean.data(), static_cast<std::streamsize>(len));
    }
    EXPECT_FALSE(read_checkpoint(file("mut.vckpt")).has_value())
        << "len " << len;
  }
}

TEST_F(CheckpointTest, FingerprintSeparatesRunConfigurations) {
  std::vector<AdmittedSession> admitted(3);
  admitted[0].spec.session_id = 1;
  admitted[0].spec.start_time_ms = 10.0;
  admitted[0].rng_seed = 111;
  admitted[1].spec.session_id = 2;
  admitted[1].spec.start_time_ms = 20.0;
  admitted[1].rng_seed = 222;
  admitted[2].spec.session_id = 3;
  admitted[2].spec.start_time_ms = 30.0;
  admitted[2].rng_seed = 333;

  const std::uint64_t base = run_fingerprint(admitted, 4, nullptr);
  EXPECT_EQ(run_fingerprint(admitted, 4, nullptr), base);  // deterministic

  EXPECT_NE(run_fingerprint(admitted, 2, nullptr), base);  // shard count

  std::vector<AdmittedSession> reseeded = admitted;
  reseeded[1].rng_seed = 223;  // different session substream
  EXPECT_NE(run_fingerprint(reseeded, 4, nullptr), base);

  std::vector<AdmittedSession> shifted = admitted;
  shifted[2].spec.start_time_ms = 31.0;  // different arrival schedule
  EXPECT_NE(run_fingerprint(shifted, 4, nullptr), base);

  const faults::FaultSchedule faults = faults::FaultSchedule::scripted(
      {{faults::FaultKind::kServerCrash, 5'000.0, 1'000.0, 0, 0, 1.0}});
  EXPECT_NE(run_fingerprint(admitted, 4, &faults), base);  // fault schedule
}

TEST_F(CheckpointTest, ResumeWithDifferentConfigurationThrows) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 40;

  RunOptions options;
  options.shards = 2;
  options.checkpoint_dir = (dir_ / "run").string();
  options.checkpoint_interval = 10;
  options.stop_after_checkpoints = 1;
  const RunResult partial = run_simulation(scenario, options);
  EXPECT_FALSE(partial.completed);

  // Same directory, different seed: the sidecar fingerprint cannot match.
  scenario.seed += 1;
  options.resume = true;
  options.stop_after_checkpoints = 0;
  EXPECT_THROW(run_simulation(scenario, options), std::runtime_error);
}

TEST_F(CheckpointTest, ResumeWithoutCheckpointDirThrows) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 5;
  RunOptions options;
  options.shards = 1;
  options.resume = true;
  EXPECT_THROW(run_simulation(scenario, options), std::runtime_error);
}

}  // namespace
}  // namespace vstream::engine
