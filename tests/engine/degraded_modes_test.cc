// Graceful-degradation policies under host faults: a failed checkpoint
// write degrades (the run completes, correct and flagged) while spill and
// export failures abort through sim::HostIoError with committed state
// intact — and each maps onto the documented exit code.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/exit_codes.h"
#include "engine/engine.h"
#include "failpoints/failpoint.h"
#include "sim/host_error.h"
#include "telemetry/export.h"
#include "telemetry/spill_format.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

namespace fs = std::filesystem;

std::string export_string(const telemetry::Dataset& data) {
  std::ostringstream out;
  telemetry::write_csv(out, data.player_sessions);
  telemetry::write_csv(out, data.cdn_sessions);
  telemetry::write_csv(out, data.player_chunks);
  telemetry::write_csv(out, data.cdn_chunks);
  telemetry::write_csv(out, data.tcp_snapshots);
  return out.str();
}

workload::Scenario small_scenario() {
  workload::Scenario s = workload::test_scenario();
  s.session_count = 80;
  return s;
}

class DegradedModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints::Registry::instance().disarm_all();
    dir_ = fs::temp_directory_path() /
           (std::string("vstream_degraded_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    failpoints::Registry::instance().disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

TEST_F(DegradedModesTest, CheckpointWriteFailureDegradesButCompletes) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions clean;
  clean.shards = 3;
  engine::RunResult reference = engine::run_simulation(scenario, clean);

  failpoints::Registry::instance().arm("checkpoint.write=error@once:0");
  engine::RunOptions options;
  options.shards = 3;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint_interval = 10;
  engine::RunResult degraded = engine::run_simulation(scenario, options);

  EXPECT_TRUE(degraded.completed);
  EXPECT_TRUE(degraded.checkpoints_degraded);
  EXPECT_FALSE(reference.checkpoints_degraded);
  // Degraded means "no more sidecars", never "different results".
  telemetry::SpillReadStats stats;
  const telemetry::Dataset salvaged = degraded.spill.load(&stats);
  EXPECT_FALSE(stats.corrupted());
  EXPECT_EQ(export_string(salvaged), export_string(reference.dataset));
}

TEST_F(DegradedModesTest, CheckpointRenameFailureAlsoDegrades) {
  failpoints::Registry::instance().arm("checkpoint.rename=error@once:1");
  engine::RunOptions options;
  options.shards = 2;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint_interval = 10;
  const engine::RunResult result =
      engine::run_simulation(small_scenario(), options);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.checkpoints_degraded);
  // The torn tmp never survives; whatever sidecars committed before the
  // fault are still readable (a crash would resume from them).
  for (const auto& entry : fs::directory_iterator(dir_ / "ckpt")) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(DegradedModesTest, SpillWriteFailureAbortsWithHostIoError) {
  failpoints::Registry::instance().arm("spill.write=error@once:2");
  engine::RunOptions options;
  options.shards = 2;
  options.telemetry_spill_dir = (dir_ / "spill").string();
  EXPECT_THROW(engine::run_simulation(small_scenario(), options),
               sim::HostIoError);
}

TEST_F(DegradedModesTest, SpillFileRemovedBeforeResumeAbortsWithHostIoError) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions options;
  options.shards = 2;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint_interval = 10;
  options.stop_after_checkpoints = 1;
  const engine::RunResult partial = engine::run_simulation(scenario, options);
  ASSERT_FALSE(partial.completed);

  // The host loses a spill file between the stop and the resume: the
  // sidecar promises committed bytes the file no longer has.
  std::vector<fs::path> spills;
  for (const auto& entry : fs::directory_iterator(dir_ / "ckpt")) {
    if (entry.path().extension() == ".vspill") spills.push_back(entry.path());
  }
  ASSERT_FALSE(spills.empty());
  for (const fs::path& spill : spills) fs::remove(spill);

  engine::RunOptions resume = options;
  resume.stop_after_checkpoints = 0;
  resume.resume = true;
  EXPECT_THROW(engine::run_simulation(scenario, resume), sim::HostIoError);
}

TEST_F(DegradedModesTest, ExportIntoPathUnderAFileMapsToHostIoExit) {
  // Running as root makes permission bits toothless, so the unwritable
  // directory is simulated the portable way: the export target's parent
  // is a regular file, which no process may mkdir through.
  const fs::path blocker = dir_ / "blocker";
  std::ofstream(blocker) << "not a directory\n";
  telemetry::Dataset empty;
  try {
    telemetry::export_dataset(empty, blocker / "out");
    FAIL() << "export into a path under a regular file must throw";
  } catch (const std::exception& error) {
    EXPECT_EQ(core::exit_code_for(error), core::kExitHostIo) << error.what();
  }
}

TEST_F(DegradedModesTest, ExportWriteFailpointThrowsHostIoError) {
  failpoints::Registry::instance().arm("export.write=error@once:0");
  telemetry::Dataset empty;
  EXPECT_THROW(telemetry::export_dataset(empty, dir_ / "out"),
               sim::HostIoError);
}

}  // namespace
}  // namespace vstream
