// One streaming session as a state machine.
//
// step() executes exactly one chunk (ABR decision -> server -> TCP
// transfer -> download stack -> playout -> rendering -> telemetry) and
// reports how much wall time passed, so a driver can interleave many
// sessions through an event queue in true timestamp order.  All stochastic
// draws come from the per-session generator handed to the constructor,
// keeping runs deterministic regardless of interleaving.
//
// The runtime talks to the world only through its RunContext.  Chunks are
// served against the context's warm archive through the session's own
// per-server state (AtsServer::serve).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "client/abr.h"
#include "client/download_stack.h"
#include "client/playback_buffer.h"
#include "client/rendering.h"
#include "engine/overrides.h"
#include "engine/run_context.h"
#include "net/tcp_model.h"
#include "sim/rng.h"
#include "workload/session_generator.h"

namespace vstream::engine {

class SessionRuntime {
 public:
  /// `rng` is the session's private substream, forked from the master
  /// generator by the caller (so admission order, not construction order,
  /// fixes the substream).  `overrides` may be null; it is copied.
  SessionRuntime(RunContext& ctx, workload::SessionSpec spec, sim::Rng rng,
                 const SessionOverrides* overrides);

  bool has_more() const { return next_chunk_ < spec_.chunk_count; }

  /// Execute chunk next_chunk_ with its request firing at `fleet_now`;
  /// returns the wall time until this session's next request.
  sim::Ms step(sim::Ms fleet_now);

  /// Emit the per-session records (call once, after the last step).
  void finish();

  std::uint64_t session_id() const { return spec_.session_id; }

 private:
  bool resolve_gpu(const SessionOverrides* overrides) const;
  double resolve_cpu_load(const SessionOverrides* overrides) const;

  /// (Re)open the TCP connection to the currently assigned server ref_.
  /// Called at construction and again after a mid-session failover: the new
  /// path carries the new PoP's distance, and the fresh connection restarts
  /// from a cold congestion window — the §4.1 failover penalty.
  void rebuild_connection();

  /// Serve one chunk on the currently assigned server.
  cdn::ServeResult serve_chunk(const cdn::ChunkKey& key, sim::Ms now,
                               const cdn::ServeOptions& opts);

  RunContext& ctx_;
  workload::SessionSpec spec_;
  std::optional<SessionOverrides> overrides_;
  sim::Rng rng_;
  cdn::ServerRef ref_;
  double distance_km_;
  client::DownloadStack stack_;
  client::RenderingPath rendering_;
  client::PlaybackBuffer buffer_;
  std::unique_ptr<net::TcpConnection> conn_;
  std::unique_ptr<client::AbrAlgorithm> abr_;

  /// This session's private server-state overlays, keyed by linear server
  /// index (a failover must not carry one server's overlay to another).
  std::unordered_map<std::uint32_t, cdn::SessionServerState> server_states_;

  // Path ingredients kept so a failover can rebuild the connection with
  // the same client-side draws (only the server end changes).
  double bottleneck_kbps_ = 0.0;
  sim::Ms congestion_offset_ms_ = 0.0;
  net::TcpConfig tcp_config_;
  double current_loss_ = 0.0;

  std::uint32_t next_chunk_ = 0;
  double session_clock_ms_ = 0.0;
  double smoothed_tp_kbps_ = 0.0;
  double last_tp_kbps_ = 0.0;
  std::uint32_t last_bitrate_ = 0;
  bool completed_ = true;
};

}  // namespace vstream::engine
