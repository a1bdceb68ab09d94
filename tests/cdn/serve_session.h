// Test harness for AtsServer::serve: one session's requests to one server.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "cdn/ats_server.h"
#include "cdn/warm_archive.h"

namespace vstream::cdn {

/// A warm archive holding exactly `resident`, each key at its level, on
/// server index 0.  The catalog is just large enough for those keys;
/// anything else misses.
inline WarmArchive explicit_residency(
    std::initializer_list<std::pair<ChunkKey, CacheLevel>> resident) {
  if (resident.size() == 0) return WarmArchive{};
  std::vector<std::uint32_t> chunk_counts;
  std::vector<std::uint32_t> ladder;
  for (const auto& [key, level] : resident) {
    if (key.video_id >= chunk_counts.size()) {
      chunk_counts.resize(key.video_id + 1, 0);
    }
    chunk_counts[key.video_id] =
        std::max(chunk_counts[key.video_id], key.chunk_index + 1);
    if (std::find(ladder.begin(), ladder.end(), key.bitrate_kbps) ==
        ladder.end()) {
      ladder.push_back(key.bitrate_kbps);
    }
  }
  WarmArchive archive(chunk_counts,
                      std::vector<std::uint32_t>(chunk_counts.size(), 0),
                      ladder);
  for (const auto& [key, level] : resident) {
    archive.set(archive.slot(key), level);
  }
  return archive;
}

/// The server's warm residency (empty unless a test places objects) plus
/// one session's own serving state and the counters it accrues.
struct ServeSession {
  explicit ServeSession(
      const AtsServer& s,
      std::initializer_list<std::pair<ChunkKey, CacheLevel>> resident = {})
      : server(s), warm(explicit_residency(resident)) {}

  ServeResult serve(const ChunkKey& key, sim::Ms now, sim::Rng& rng,
                    const ServeOptions& opts = {}) {
    return server.serve(key, now, rng, warm, /*server_index=*/0, state, stats,
                        opts);
  }

  const AtsServer& server;
  WarmArchive warm;
  SessionServerState state;
  ServerStats stats;
};

}  // namespace vstream::cdn
