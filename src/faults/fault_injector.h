// FaultInjector: replays a FaultSchedule onto a live fleet.
//
// arm() schedules one apply and one revert callback per fault epoch on the
// simulation event queue, so faults strike *during* a run, interleaved with
// chunk requests in true timestamp order.  Overlapping epochs of the same
// kind on the same target are reference-counted: a component comes back up
// only when its last covering epoch ends.
//
// Client-path loss bursts have no fleet-side switch to flip; sessions query
// extra_client_loss() at each chunk instead (see engine::SessionRuntime).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "cdn/fleet.h"
#include "faults/fault_schedule.h"
#include "sim/event_queue.h"

namespace vstream::faults {

class FaultInjector {
 public:
  /// Both `fleet` and `queue` must outlive the injector.
  /// Registers the schedule's kOverload epochs as Fleet overload windows at
  /// construction, so health-aware routing is a pure function of
  /// (schedule, now) — available before any epoch is applied, and identical
  /// on every shard.
  FaultInjector(cdn::Fleet& fleet, sim::EventQueue& queue,
                FaultSchedule schedule);

  /// Schedule every epoch's apply/revert on the queue.  Call once, before
  /// the queue runs; idempotence is not provided.
  void arm();

  const FaultSchedule& schedule() const { return schedule_; }

  /// Extra client-path random loss active at `now` (loss-burst epochs).
  double extra_client_loss(sim::Ms now) const {
    return schedule_.extra_client_loss(now);
  }

  /// Fault epochs applied so far (apply events fired by the queue).
  std::uint64_t applied_count() const { return applied_; }

 private:
  void apply(const FaultEvent& event, bool start);

  cdn::Fleet& fleet_;
  sim::EventQueue& queue_;
  FaultSchedule schedule_;

  // Reference counts for overlapping epochs, keyed by linear target index.
  std::unordered_map<std::uint32_t, int> crash_depth_;
  std::unordered_map<std::uint32_t, int> blackout_depth_;
  std::unordered_map<std::uint32_t, int> disk_depth_;
  std::unordered_map<std::uint32_t, int> overload_depth_;
  int backend_outage_depth_ = 0;
  int backend_slowdown_depth_ = 0;
  std::uint64_t applied_ = 0;
};

}  // namespace vstream::faults
