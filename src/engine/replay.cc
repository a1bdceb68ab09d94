#include "engine/replay.h"

#include <algorithm>
#include <span>
#include <utility>

#include "engine/shard.h"
#include "workload/session_generator.h"

namespace vstream::engine {

ReplayContext::ReplayContext(const workload::Scenario& scenario,
                             RunOptions options)
    : scenario_(scenario),
      faults_(std::move(options.faults)),
      bad_prefixes_(std::move(options.bad_prefixes)) {
  // Mirror run_simulation()'s world construction exactly — same
  // master-RNG consumption order — so the admitted specs and RNG
  // substreams are the ones the original run executed.
  sim::Rng rng(scenario_.seed);
  catalog_ =
      std::make_shared<workload::VideoCatalog>(scenario_.catalog, rng);
  population_ =
      std::make_unique<workload::Population>(scenario_.population, rng);
  workload::SessionGenerator generator(scenario_.sessions, *catalog_,
                                       *population_);
  const cdn::Fleet prototype(scenario_.fleet, catalog_->size());

  if (options.warm_caches) {
    warm_ = build_warm_archive(prototype, *catalog_, options.disk_fill,
                               options.universal_head);
  }
  admitted_ = admit_sessions(scenario_, generator, rng);
}

std::optional<ReplayedSession> ReplayContext::replay_session(
    std::uint64_t session_id, const cdn::IdealizationPolicy& policy,
    const SessionOverrides* overrides) const {
  // Admitted ids are ascending, so the session is a binary search away.
  const auto it = std::lower_bound(
      admitted_.begin(), admitted_.end(), session_id,
      [](const AdmittedSession& session, std::uint64_t id) {
        return session.spec.session_id < id;
      });
  if (it == admitted_.end() || it->spec.session_id != session_id) {
    return std::nullopt;
  }

  // A one-session span through a private shard: session isolation makes
  // this identical to the session's slice of the full run (the property
  // the determinism suite pins), and makes concurrent replays share
  // nothing mutable.
  Shard shard(scenario_, *catalog_, warm_,
              faults_.empty() ? nullptr : &faults_,
              bad_prefixes_.empty() ? nullptr : &bad_prefixes_,
              /*sink=*/nullptr,
              policy.target == cdn::IdealizedSubsystem::kNone ? nullptr
                                                              : &policy);
  AdmittedSession session = *it;
  if (overrides != nullptr && overrides->chunk_count) {
    // Scripted sessions may stream a fixed chunk count regardless of the
    // sampled video's length (case studies need equal-length sessions).
    session.spec.chunk_count =
        std::max<std::uint32_t>(1, *overrides->chunk_count);
  }
  ShardResult result = shard.run(std::span(&session, 1), overrides);

  ReplayedSession replayed;
  replayed.completed = result.ground_truth.failed_sessions == 0;
  replayed.dataset = std::move(result.dataset);
  replayed.ground_truth = std::move(result.ground_truth);

  // Same join + metric pass as the analysis tools, proxy filter off: a
  // replay always wants its session's QoE, proxied or not.
  const telemetry::JoinedDataset joined =
      telemetry::JoinedDataset::build(replayed.dataset);
  if (!joined.sessions().empty()) {
    replayed.qoe = analysis::session_qoe(joined.sessions().front());
  }
  return replayed;
}

}  // namespace vstream::engine
