#include "engine/engine.h"

#include <filesystem>
#include <stdexcept>

#include "engine/admission.h"
#include "engine/checkpoint.h"
#include "engine/sharded_runner.h"
#include "engine/warmup.h"
#include "runtime/executor.h"
#include "sim/env_util.h"
#include "workload/population.h"
#include "workload/session_generator.h"

namespace vstream::engine {

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested != 0) return requested;
  return sim::positive_env("VSTREAM_SHARDS", runtime::kDefaultLogicalShards);
}

RunResult run_simulation(const workload::Scenario& scenario,
                         RunOptions options) {
  RunResult result;
  result.scenario = scenario;
  result.shard_count = resolve_shard_count(options.shards);
  result.thread_count = runtime::resolve_thread_count(options.threads);

  // World construction: catalog, population, then admission, all from one
  // master RNG (engine::ReplayContext mirrors this order exactly).
  const workload::Scenario& world = result.scenario;
  sim::Rng rng(world.seed);
  auto catalog = std::make_shared<workload::VideoCatalog>(world.catalog, rng);
  workload::Population population(world.population, rng);
  workload::SessionGenerator generator(world.sessions, *catalog, population);
  const cdn::Fleet prototype(world.fleet, catalog->size());

  const WarmArchive warm =
      options.warm_caches
          ? build_warm_archive(prototype, *catalog, options.disk_fill,
                               options.universal_head)
          : WarmArchive{};

  const std::vector<AdmittedSession> admitted =
      admit_sessions(world, generator, rng);

  // Crash safety implies spill mode (record durability lives in the
  // spill files); with no spill dir configured the checkpoint directory
  // carries both.
  std::string spill_dir = options.telemetry_spill_dir;
  const std::string& ckpt_dir = options.checkpoint_dir;
  if (options.resume && ckpt_dir.empty()) {
    throw std::runtime_error(
        "run_simulation: resume requested without a checkpoint directory "
        "(RunOptions.checkpoint_dir)");
  }
  if (!ckpt_dir.empty() && spill_dir.empty()) spill_dir = ckpt_dir;

  std::filesystem::path spill_path;
  if (!spill_dir.empty()) {
    spill_path = spill_dir;
    std::filesystem::create_directories(spill_path);
  }

  CheckpointConfig checkpoint;
  if (!ckpt_dir.empty()) {
    checkpoint.dir = ckpt_dir;
    std::filesystem::create_directories(checkpoint.dir);
    checkpoint.resume = options.resume;
    if (options.checkpoint_interval != 0) {
      checkpoint.interval = options.checkpoint_interval;
    }
    checkpoint.fingerprint =
        run_fingerprint(admitted, result.shard_count,
                        options.faults.empty() ? nullptr : &options.faults);
    checkpoint.stop_after_batches = options.stop_after_checkpoints;
  }

  ExecOptions exec;
  exec.threads = result.thread_count;
  ShardResult merged = run_sharded(
      world, *catalog, warm,
      options.faults.empty() ? nullptr : &options.faults,
      options.bad_prefixes.empty() ? nullptr : &options.bad_prefixes,
      admitted, result.shard_count,
      spill_dir.empty() ? nullptr : &spill_path,
      ckpt_dir.empty() ? nullptr : &checkpoint, &exec);
  result.completed = merged.completed;
  result.checkpoints_degraded = merged.checkpoints_degraded;

  for (std::filesystem::path& file : merged.spill_files) {
    result.spill.add_file(std::move(file));
  }
  result.catalog = std::move(catalog);
  result.dataset = std::move(merged.dataset);
  result.ground_truth = std::move(merged.ground_truth);
  result.ground_truth.injected_faults = options.faults.events();
  result.server_stats = std::move(merged.server_stats);
  return result;
}

AnalyzedRun run_and_analyze(const workload::Scenario& scenario,
                            RunOptions options) {
  AnalyzedRun analyzed;
  analyzed.run = run_simulation(scenario, std::move(options));
  if (analyzed.run.spilled()) {
    // The batch join holds pointers into a materialized dataset, which a
    // spilled run deliberately does not have.  Spilled runs analyze
    // incrementally instead (core::analyze_spill).
    throw std::runtime_error(
        "run_and_analyze: telemetry was spilled to disk "
        "(RunOptions.telemetry_spill_dir); "
        "use core::analyze_spill on RunResult.spill instead");
  }
  analyzed.proxies = telemetry::detect_proxies(analyzed.run.dataset);
  analyzed.joined = telemetry::JoinedDataset::build(analyzed.run.dataset,
                                                    &analyzed.proxies);
  return analyzed;
}

}  // namespace vstream::engine
