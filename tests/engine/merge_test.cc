// merge_shard_results edge cases, its run-sort against a reference
// std::stable_sort, memory mode's ordered stream against the merge, and
// partition-skew behavior.
//
// The canonical merge is the one place every spilled shard's output
// flows through, and memory mode's ordered stream must reproduce it, so
// their edge cases — empty parts, parts with no records, parts that
// disagree on server-stats shape — decide whether odd partitions stay
// bit-identical.  The skew tests document the worst case of the
// id-modulo partition (it is canonical, not balanced) and show that
// memory mode's contiguous ranges do not inherit it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/admission.h"
#include "engine/engine.h"
#include "engine/shard.h"
#include "engine/sharded_runner.h"
#include "engine/warmup.h"
#include "faults/fault_schedule.h"
#include "runtime/executor.h"
#include "telemetry/export.h"
#include "workload/population.h"
#include "workload/scenario.h"
#include "workload/session_generator.h"

namespace vstream {
namespace {

std::string export_string(const telemetry::Dataset& data) {
  std::ostringstream out;
  telemetry::write_csv(out, data.player_sessions);
  telemetry::write_csv(out, data.cdn_sessions);
  telemetry::write_csv(out, data.player_chunks);
  telemetry::write_csv(out, data.cdn_chunks);
  telemetry::write_csv(out, data.tcp_snapshots);
  return out.str();
}

std::filesystem::path merge_scratch(const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("vstream_merge_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------- synthetic parts

engine::ShardResult part_with_sessions(std::initializer_list<std::uint64_t> ids) {
  engine::ShardResult part;
  for (const std::uint64_t id : ids) {
    telemetry::PlayerSessionRecord player;
    player.session_id = id;
    part.dataset.player_sessions.push_back(player);
    telemetry::CdnSessionRecord cdn;
    cdn.session_id = id;
    part.dataset.cdn_sessions.push_back(cdn);
    telemetry::PlayerChunkRecord chunk;
    chunk.session_id = id;
    part.dataset.player_chunks.push_back(chunk);
  }
  return part;
}

TEST(MergeShardResultsTest, NoPartsYieldsEmptyCompletedResult) {
  const engine::ShardResult merged = engine::merge_shard_results({});
  EXPECT_TRUE(merged.dataset.player_sessions.empty());
  EXPECT_TRUE(merged.server_stats.empty());
  EXPECT_TRUE(merged.spill_files.empty());
  EXPECT_TRUE(merged.completed);
}

TEST(MergeShardResultsTest, AllEmptyPartsMergeToEmpty) {
  std::vector<engine::ShardResult> parts(5);
  const engine::ShardResult merged =
      engine::merge_shard_results(std::move(parts));
  EXPECT_TRUE(merged.dataset.player_sessions.empty());
  EXPECT_TRUE(merged.completed);
}

TEST(MergeShardResultsTest, ServerStatsSizedToLargestPart) {
  // Regression: a leading part with empty server stats (an empty shard,
  // or a stopped batch) must not truncate the fleet counters to zero
  // servers — the merge sizes to the largest part seen.
  std::vector<engine::ShardResult> parts(3);
  parts[1].server_stats.resize(4);
  parts[1].server_stats[2].requests_served = 7;
  parts[2].server_stats.resize(4);
  parts[2].server_stats[2].requests_served = 5;
  parts[2].server_stats[3].ram_hits = 11;
  const engine::ShardResult merged =
      engine::merge_shard_results(std::move(parts));
  ASSERT_EQ(merged.server_stats.size(), 4u);
  EXPECT_EQ(merged.server_stats[2].requests_served, 12u);
  EXPECT_EQ(merged.server_stats[3].ram_hits, 11u);
}

TEST(MergeShardResultsTest, CompletedIsConjunctionOverParts) {
  std::vector<engine::ShardResult> parts(3);
  parts[1].completed = false;  // one stopped-early shard taints the run
  EXPECT_FALSE(engine::merge_shard_results(std::move(parts)).completed);
}

TEST(MergeShardResultsTest, SingleSessionPartsInterleaveCanonically) {
  // Shard order deliberately scrambles session order; the merge must
  // re-establish ascending session id regardless.
  std::vector<engine::ShardResult> parts;
  parts.push_back(part_with_sessions({3}));
  parts.push_back(part_with_sessions({}));  // zero completed sessions
  parts.push_back(part_with_sessions({1}));
  parts.push_back(part_with_sessions({2, 5}));
  parts.push_back(part_with_sessions({0, 4}));
  const engine::ShardResult merged =
      engine::merge_shard_results(std::move(parts));
  ASSERT_EQ(merged.dataset.player_sessions.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(merged.dataset.player_sessions[i].session_id, i);
    EXPECT_EQ(merged.dataset.cdn_sessions[i].session_id, i);
    EXPECT_EQ(merged.dataset.player_chunks[i].session_id, i);
  }
}

TEST(MergeShardResultsTest, ParallelMergeIsByteIdenticalToSerial) {
  const auto build_parts = [] {
    std::vector<engine::ShardResult> parts;
    parts.push_back(part_with_sessions({2, 9, 11}));
    parts.push_back(part_with_sessions({}));
    parts.push_back(part_with_sessions({0, 7}));
    parts.push_back(part_with_sessions({1, 3, 5, 8}));
    return parts;
  };
  const engine::ShardResult serial =
      engine::merge_shard_results(build_parts(), nullptr);
  runtime::Executor executor(4);
  const engine::ShardResult parallel =
      engine::merge_shard_results(build_parts(), &executor);
  EXPECT_EQ(export_string(serial.dataset), export_string(parallel.dataset));
}

// ------------------------------------------ run-sort vs. stable sort

using Tagged = std::pair<std::uint64_t, std::uint32_t>;  // (session id, tag)

/// One record of every stream per entry, in the given order.  The tag
/// goes into a field the merge never reads, so any reordering within a
/// session shows in the exported bytes.
engine::ShardResult tagged_part(const std::vector<Tagged>& entries) {
  engine::ShardResult part;
  telemetry::Dataset& d = part.dataset;
  for (const auto& [id, tag] : entries) {
    telemetry::PlayerSessionRecord player;
    player.session_id = id;
    player.chunks_requested = tag;
    d.player_sessions.push_back(player);
    telemetry::CdnSessionRecord cdn;
    cdn.session_id = id;
    cdn.server = tag;
    d.cdn_sessions.push_back(cdn);
    telemetry::PlayerChunkRecord player_chunk;
    player_chunk.session_id = id;
    player_chunk.chunk_id = tag;
    d.player_chunks.push_back(player_chunk);
    telemetry::CdnChunkRecord cdn_chunk;
    cdn_chunk.session_id = id;
    cdn_chunk.chunk_id = tag;
    d.cdn_chunks.push_back(cdn_chunk);
    telemetry::TcpSnapshotRecord snapshot;
    snapshot.session_id = id;
    snapshot.chunk_id = tag;
    d.tcp_snapshots.push_back(snapshot);
  }
  return part;
}

/// The definition the merge must meet: concatenate the parts in order
/// and std::stable_sort every stream by session id.
telemetry::Dataset reference_merge(
    const std::vector<engine::ShardResult>& parts) {
  telemetry::Dataset all;
  const auto merge = [&](auto member) {
    auto& into = all.*member;
    for (const engine::ShardResult& part : parts) {
      const auto& from = part.dataset.*member;
      into.insert(into.end(), from.begin(), from.end());
    }
    std::stable_sort(into.begin(), into.end(),
                     [](const auto& a, const auto& b) {
                       return a.session_id < b.session_id;
                     });
  };
  merge(&telemetry::Dataset::player_sessions);
  merge(&telemetry::Dataset::cdn_sessions);
  merge(&telemetry::Dataset::player_chunks);
  merge(&telemetry::Dataset::cdn_chunks);
  merge(&telemetry::Dataset::tcp_snapshots);
  return all;
}

/// The serial merge and the 4-worker merge both equal the reference.
void expect_matches_stable_sort(const std::vector<std::vector<Tagged>>& spec) {
  const auto build = [&spec] {
    std::vector<engine::ShardResult> parts;
    for (const std::vector<Tagged>& entries : spec) {
      parts.push_back(tagged_part(entries));
    }
    return parts;
  };
  const std::string expected = export_string(reference_merge(build()));
  EXPECT_EQ(
      export_string(engine::merge_shard_results(build(), nullptr).dataset),
      expected)
      << "serial merge";
  runtime::Executor executor(4);
  EXPECT_EQ(
      export_string(engine::merge_shard_results(build(), &executor).dataset),
      expected)
      << "4-worker merge";
}

TEST(MergeRunSortTest, SessionSplitAcrossPartsKeepsPartOrder) {
  expect_matches_stable_sort({
      {{5, 0}, {5, 1}, {7, 0}},
      {{5, 2}, {5, 3}, {6, 0}},
      {{7, 1}},
  });
  std::vector<engine::ShardResult> parts;
  parts.push_back(tagged_part({{5, 0}, {5, 1}}));
  parts.push_back(tagged_part({{5, 2}}));
  const engine::ShardResult merged =
      engine::merge_shard_results(std::move(parts));
  ASSERT_EQ(merged.dataset.tcp_snapshots.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(merged.dataset.tcp_snapshots[i].chunk_id, i);
  }
}

TEST(MergeRunSortTest, IdsInterleavedWithinOnePart) {
  expect_matches_stable_sort({
      {{3, 0}, {1, 0}, {3, 1}, {2, 0}, {1, 1}, {3, 2}, {1, 2}},
      {{2, 1}, {0, 0}, {2, 2}, {0, 1}},
  });
}

TEST(MergeRunSortTest, SparseIdsNearUint64Max) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  expect_matches_stable_sort({
      {{kMax, 0}, {kMax - 1, 0}, {kMax, 1}},
      {{std::uint64_t{1} << 63, 0}, {0, 0}, {kMax - 1000, 0}},
      {{kMax - 1, 1}, {kMax, 2}, {std::uint64_t{1} << 63, 1}},
  });
}

TEST(MergeRunSortTest, ZeroRecordPartsBetweenNonEmptyOnes) {
  expect_matches_stable_sort({
      {},
      {{4, 0}, {4, 1}},
      {},
      {},
      {{1, 0}, {4, 2}, {2, 0}},
      {},
  });
}

TEST(MergeRunSortTest, RandomPartsMatchStableSort) {
  // Many parts, few distinct ids: long split sessions, short runs and
  // interleaving all at once.
  std::mt19937_64 rng(20161114);
  std::vector<std::vector<Tagged>> spec(23);
  std::uint32_t tag = 0;
  for (std::vector<Tagged>& entries : spec) {
    const std::size_t size = rng() % 40;  // some parts stay empty
    for (std::size_t i = 0; i < size; ++i) {
      entries.emplace_back(rng() % 17, tag++);
    }
  }
  expect_matches_stable_sort(spec);
}

// --------------------------------------------------- partition skew

engine::AdmittedSession admitted_with_id(std::uint64_t id) {
  engine::AdmittedSession session;
  session.spec.session_id = id;
  return session;
}

TEST(PartitionSkewTest, StridedIdsCollapseIntoOneShard) {
  // Documented worst case: ids strided by a multiple of the shard count
  // all land in one residue class — id-modulo is the *canonical*
  // partition (any shard count, same outputs), not a balanced one.
  std::vector<engine::AdmittedSession> admitted;
  for (std::uint64_t i = 0; i < 40; ++i) {
    admitted.push_back(admitted_with_id(i * 4));
  }
  const auto parts = engine::partition_sessions(admitted, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 40u);
  EXPECT_TRUE(parts[1].empty());
  EXPECT_TRUE(parts[2].empty());
  EXPECT_TRUE(parts[3].empty());
}

TEST(PartitionSkewTest, TenToOneSkewStillSpreadsAcrossWorkers) {
  // Ids that would put 10x the sessions in one id-mod shard must not
  // serialize the run.  Build a real world, then remap session ids so
  // residue 0 of 4 holds 10x what residue 1 holds (the other two are
  // empty) and the ids are no longer in admission order, run with 4
  // workers, and require (a) the task count of 4 balanced contiguous
  // ranges cut into kDefaultMemoryBatch batches, (b) more than one worker
  // executed tasks — or at least one steal happened — and (c) the output
  // is bit-identical to the single-threaded run.
  constexpr std::size_t kBatch = engine::kDefaultMemoryBatch;
  constexpr std::size_t kHeavy = 8 * kBatch;
  constexpr std::size_t kLight = kHeavy / 10;
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = kHeavy + kLight;

  sim::Rng rng(scenario.seed);
  const workload::VideoCatalog catalog(scenario.catalog, rng);
  workload::Population population(scenario.population, rng);
  workload::SessionGenerator generator(scenario.sessions, catalog, population);
  const cdn::Fleet prototype(scenario.fleet, catalog.size());
  const engine::WarmArchive warm =
      engine::build_warm_archive(prototype, catalog, 0.92, false);
  std::vector<engine::AdmittedSession> admitted =
      engine::admit_sessions(scenario, generator, rng);
  ASSERT_EQ(admitted.size(), kHeavy + kLight);
  // kHeavy sessions into residue 0, kLight into residue 1 (ids stay
  // unique).
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    admitted[i].spec.session_id =
        i < kHeavy ? i * 4 : (i - kHeavy) * 4 + 1;
  }

  const auto run = [&](std::size_t threads, runtime::ParallelStats* stats) {
    engine::ExecOptions exec;
    exec.threads = threads;
    return engine::run_sharded(scenario, catalog, warm, nullptr, nullptr,
                               admitted, 4, nullptr, nullptr, &exec, stats);
  };

  const engine::ShardResult reference = run(1, nullptr);
  runtime::ParallelStats stats;
  const engine::ShardResult skewed = run(4, &stats);

  // Memory mode cuts the id-sorted sessions into 4 balanced ranges, one
  // task per started batch of each.
  std::size_t expected_tasks = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    const std::size_t size =
        (r + 1) * admitted.size() / 4 - r * admitted.size() / 4;
    expected_tasks += (size + kBatch - 1) / kBatch;
  }
  EXPECT_EQ(stats.tasks, expected_tasks);
  EXPECT_TRUE(stats.workers_used() >= 2 || stats.steals >= 1)
      << "heavy shard was executed by a single worker with no steals";
  EXPECT_EQ(export_string(reference.dataset), export_string(skewed.dataset));
}

// ---------------------------------------------- ordered memory stream

void expect_same_accounting(const engine::ShardResult& a,
                            const engine::ShardResult& b) {
  EXPECT_EQ(a.ground_truth.ds_anomalies, b.ground_truth.ds_anomalies);
  EXPECT_EQ(a.ground_truth.proxied, b.ground_truth.proxied);
  EXPECT_EQ(a.ground_truth.total_chunks, b.ground_truth.total_chunks);
  EXPECT_EQ(a.ground_truth.total_ds_anomalies,
            b.ground_truth.total_ds_anomalies);
  EXPECT_EQ(a.ground_truth.stall_abandonments,
            b.ground_truth.stall_abandonments);
  EXPECT_EQ(a.ground_truth.request_timeouts, b.ground_truth.request_timeouts);
  EXPECT_EQ(a.ground_truth.chunk_retries, b.ground_truth.chunk_retries);
  EXPECT_EQ(a.ground_truth.failover_events, b.ground_truth.failover_events);
  EXPECT_EQ(a.ground_truth.failed_sessions, b.ground_truth.failed_sessions);
  static_assert(std::has_unique_object_representations_v<cdn::ServerStats>);
  ASSERT_EQ(a.server_stats.size(), b.server_stats.size());
  EXPECT_EQ(std::memcmp(a.server_stats.data(), b.server_stats.data(),
                        a.server_stats.size() * sizeof(cdn::ServerStats)),
            0);
  EXPECT_EQ(a.completed, b.completed);
}

TEST(OrderedStreamTest, MemoryModeEqualsMergeOfIdModParts) {
  // Memory-mode run_sharded streams contiguous id ranges into one output;
  // the spill path and the reference below run the id-mod parts and
  // merge them.  Both must agree byte for byte, records and accounting,
  // at any thread and shard count, with and without faults.
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 150;
  sim::Rng rng(scenario.seed);
  const workload::VideoCatalog catalog(scenario.catalog, rng);
  workload::Population population(scenario.population, rng);
  workload::SessionGenerator generator(scenario.sessions, catalog, population);
  const cdn::Fleet prototype(scenario.fleet, catalog.size());
  const engine::WarmArchive warm =
      engine::build_warm_archive(prototype, catalog, 0.92, false);
  const std::vector<engine::AdmittedSession> admitted =
      engine::admit_sessions(scenario, generator, rng);

  for (const char* profile : {"none", "overload"}) {
    const std::optional<faults::FaultSchedule> schedule =
        faults::FaultSchedule::named(profile);
    ASSERT_TRUE(schedule.has_value());
    const faults::FaultSchedule* faults =
        schedule->empty() ? nullptr : &*schedule;
    for (const std::size_t shards : {1u, 7u, 64u}) {
      std::vector<engine::ShardResult> parts;
      for (const auto& part : engine::partition_sessions(admitted, shards)) {
        engine::Shard shard(scenario, catalog, warm, faults, nullptr);
        parts.push_back(shard.run(part));
      }
      const engine::ShardResult reference =
          engine::merge_shard_results(std::move(parts));
      const std::string reference_csv = export_string(reference.dataset);
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(profile) + " shards=" +
                     std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        engine::ExecOptions exec;
        exec.threads = threads;
        const engine::ShardResult streamed =
            engine::run_sharded(scenario, catalog, warm, faults, nullptr,
                                admitted, shards, nullptr, nullptr, &exec);
        // Not EXPECT_EQ: gtest's line diff of two multi-MB strings takes
        // memory quadratic in the line count.
        const std::string streamed_csv = export_string(streamed.dataset);
        const auto [at, _] = std::mismatch(
            streamed_csv.begin(), streamed_csv.end(), reference_csv.begin(),
            reference_csv.end());
        EXPECT_TRUE(streamed_csv == reference_csv)
            << "CSV bytes differ from offset "
            << (at - streamed_csv.begin()) << " of " << streamed_csv.size()
            << " (reference " << reference_csv.size() << ")";
        expect_same_accounting(streamed, reference);
      }
    }
  }
}

TEST(ShardedRunnerTest, SpillFormatPinAcceptsOnlyTheOneFormat) {
  const workload::Scenario scenario = workload::test_scenario();
  sim::Rng rng(scenario.seed);
  const workload::VideoCatalog catalog(scenario.catalog, rng);
  const engine::WarmArchive warm;
  const std::vector<engine::AdmittedSession> none;
  engine::ExecOptions exec;
  exec.threads = 1;
  const auto run = [&](std::uint32_t format) {
    exec.spill_format = format;
    return engine::run_sharded(scenario, catalog, warm, nullptr, nullptr,
                               none, 1, nullptr, nullptr, &exec);
  };
  EXPECT_NO_THROW(run(0));
  EXPECT_NO_THROW(run(telemetry::kSpillVersionDefault));
  EXPECT_THROW(run(telemetry::kSpillVersionDefault - 1), std::invalid_argument);
  EXPECT_THROW(run(telemetry::kSpillVersionDefault + 1), std::invalid_argument);
}

// ------------------------------------- engine-level merge edge cases

TEST(MergeEdgeCaseTest, MostlyEmptyShardsMatchSingleShardBothPaths) {
  // 3 sessions over 8 shards: at least five shards run zero sessions.
  // Memory and spill paths must both reproduce the 1-shard output.
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 3;

  engine::RunOptions one;
  one.shards = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, one);
  const std::string reference_csv = export_string(reference.dataset);

  engine::RunOptions memory;
  memory.shards = 8;
  memory.threads = 4;
  EXPECT_EQ(export_string(engine::run_simulation(scenario, memory).dataset),
            reference_csv);

  engine::RunOptions spill;
  spill.shards = 8;
  spill.threads = 4;
  const std::filesystem::path dir = merge_scratch("empty_shards");
  spill.telemetry_spill_dir = dir.string();
  const engine::RunResult spilled = engine::run_simulation(scenario, spill);
  ASSERT_TRUE(spilled.spilled());
  EXPECT_EQ(spilled.spill.files().size(), 8u);  // empty shards spill too
  EXPECT_EQ(export_string(spilled.spill.load()), reference_csv);
  std::filesystem::remove_all(dir);
}

TEST(MergeEdgeCaseTest, SingleSessionShardsMatchSingleShardBothPaths) {
  // Exactly one session per shard — every per-shard stream is length 1,
  // so the merge is pure interleaving.
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 4;

  engine::RunOptions one;
  one.shards = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, one);
  const std::string reference_csv = export_string(reference.dataset);

  engine::RunOptions four;
  four.shards = 4;
  four.threads = 4;
  EXPECT_EQ(export_string(engine::run_simulation(scenario, four).dataset),
            reference_csv);

  engine::RunOptions spill;
  spill.shards = 4;
  spill.threads = 2;
  const std::filesystem::path dir = merge_scratch("single_session");
  spill.telemetry_spill_dir = dir.string();
  const engine::RunResult spilled = engine::run_simulation(scenario, spill);
  ASSERT_TRUE(spilled.spilled());
  EXPECT_EQ(export_string(spilled.spill.load()), reference_csv);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vstream
