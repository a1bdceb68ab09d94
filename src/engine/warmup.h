// Cache warm-up: the steady state of edge servers that have been running
// for weeks, reproduced deterministically.
//
// build_warm_archive() materializes that content once as an immutable
// archive the sharded engine's workers read concurrently.  The paper
// measures steady state (~2% session-chunk miss rate), so caches are
// pre-populated in popularity order; RunOptions::universal_head
// additionally pins the first few chunks of *every* video — the §4.3-3
// take-away ("cache the first chunk of every video ... to reduce the
// startup delay").
//
// Warm content is identical for every PoP — membership depends only on the
// within-PoP server index a video maps to — so the archive keeps one cache
// per server index instead of one per server, and per-shard fleet replicas
// carry no cache content at all.
#pragma once

#include <cstdint>
#include <vector>

#include "cdn/cache.h"
#include "cdn/fleet.h"
#include "workload/catalog.h"

namespace vstream::engine {

/// Immutable warmed cache content shared read-only across shards.
class WarmArchive {
 public:
  /// Empty archive (all probes miss) shaped for `servers_per_pop` indices.
  WarmArchive(const cdn::FleetConfig& config);

  const cdn::TwoLevelCache& for_server(std::uint32_t server_index) const {
    return caches_[server_index];
  }
  cdn::TwoLevelCache& mutable_for_server(std::uint32_t server_index) {
    return caches_[server_index];
  }
  std::uint32_t server_count() const {
    return static_cast<std::uint32_t>(caches_.size());
  }

 private:
  std::vector<cdn::TwoLevelCache> caches_;  // indexed by within-PoP index
};

/// How build_warm_archive fills the archive.  kAuto picks the LRU
/// resident-set shortcut when the policy allows it; kWriteThrough always
/// replays every admission through the two-level hierarchy (the reference
/// behaviour the shortcut must reproduce — kept selectable for tests).
enum class WarmBuildMode { kAuto, kWriteThrough };

/// Build the shared read-only archive: each within-PoP server index's warm
/// set, admitted cold -> hot.  `prototype` supplies the fleet geometry,
/// server configuration and the video->server mapping; it is not modified.
WarmArchive build_warm_archive(const cdn::Fleet& prototype,
                               const workload::VideoCatalog& catalog,
                               double disk_fill, bool universal_head,
                               WarmBuildMode mode = WarmBuildMode::kAuto);

}  // namespace vstream::engine
