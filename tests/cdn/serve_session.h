// Test harness for AtsServer::serve: one session's requests to one server.
#pragma once

#include "cdn/ats_server.h"
#include "cdn/cache.h"

namespace vstream::cdn {

/// The server's warm cache content (empty unless a test admits objects)
/// plus one session's own serving state and the counters it accrues.
struct ServeSession {
  explicit ServeSession(const AtsServer& s)
      : server(s),
        warm(s.config().ram_bytes, s.config().disk_bytes, s.config().policy) {}

  ServeResult serve(const ChunkKey& key, sim::Ms now, sim::Rng& rng,
                    const ServeOptions& opts = {}) {
    return server.serve(key, now, rng, warm, state, stats, opts);
  }

  const AtsServer& server;
  TwoLevelCache warm;
  SessionServerState state;
  ServerStats stats;
};

}  // namespace vstream::cdn
