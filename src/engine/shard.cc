#include "engine/shard.h"

namespace vstream::engine {

Shard::Shard(const workload::Scenario& scenario,
             const workload::VideoCatalog& catalog, const WarmArchive& warm,
             const faults::FaultSchedule* faults,
             const std::unordered_set<net::Prefix24>* bad_prefixes,
             telemetry::RecordSink* sink,
             const cdn::IdealizationPolicy* ideal)
    : scenario_(scenario),
      fleet_(scenario.fleet, catalog.size()),
      collector_(scenario.tcp_sample_interval_ms, sink),
      server_stats_(static_cast<std::size_t>(fleet_.pop_count()) *
                    fleet_.servers_per_pop()) {
  ctx_.scenario = &scenario_;
  ctx_.catalog = &catalog;
  ctx_.fleet = &fleet_;
  ctx_.collector = &collector_;
  ctx_.ground_truth = &ground_truth_;
  ctx_.bad_prefixes = bad_prefixes;
  ctx_.idealization = ideal;
  ctx_.warm_archive = &warm;
  ctx_.server_stats = &server_stats_;
  ctx_.round_scratch = &round_scratch_;
  if (faults != nullptr && !faults->empty()) {
    injector_ =
        std::make_unique<faults::FaultInjector>(fleet_, queue_, *faults);
    ctx_.injector = injector_.get();
  }
}

void Shard::step_event(SessionRuntime* runtime) {
  const sim::Ms wall_ms = runtime->step(queue_.now());
  if (runtime->has_more()) {
    queue_.schedule_in(wall_ms, [this, runtime] { step_event(runtime); });
  } else {
    runtime->finish();
    // Sessions complete atomically on their shard: finish() emitted the
    // last record, so a spilling sink can serialize and free the session
    // right here, and the sampling clock is retired either way.
    collector_.session_complete(runtime->session_id());
  }
}

ShardResult Shard::run(std::span<const AdmittedSession> sessions,
                       const SessionOverrides* overrides) {
  // Arm faults FIRST: at equal timestamps the queue is FIFO, so fault
  // epochs flip the fleet before any same-instant chunk request fires —
  // the same relative order on every shard, for every shard count.
  if (injector_ != nullptr) injector_->arm();

  // Pre-size the telemetry streams: the admitted specs bound the record
  // counts, so steady-state recording appends without reallocating.
  std::size_t expected_chunks = 0;
  for (const AdmittedSession& session : sessions) {
    expected_chunks += session.spec.chunk_count;
  }
  collector_.reserve(sessions.size(), expected_chunks,
                     ctx_.catalog->chunk_duration_s() * 1000.0);

  // Materialize the runtimes, then let the event queue interleave the
  // sessions: every chunk request fires in true timestamp order.  Routing
  // happens at construction, before any fault epoch has been applied, so
  // the initial assignment is independent of the partition.
  std::vector<std::unique_ptr<SessionRuntime>> runtimes;
  runtimes.reserve(sessions.size());
  for (const AdmittedSession& session : sessions) {
    runtimes.push_back(std::make_unique<SessionRuntime>(
        ctx_, session.spec, sim::Rng(session.rng_seed), overrides));
    SessionRuntime* runtime = runtimes.back().get();
    queue_.schedule_at(session.spec.start_time_ms,
                       [this, runtime] { step_event(runtime); });
  }
  queue_.run_all();

  ShardResult result;
  result.dataset = collector_.take();
  result.ground_truth = std::move(ground_truth_);
  result.server_stats = std::move(server_stats_);
  return result;
}

}  // namespace vstream::engine
