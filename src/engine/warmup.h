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
// within-PoP server index a video maps to — and each video is warmed on one
// index only, so the archive is one dense residency table for the whole
// fleet (cdn/warm_archive.h) and per-shard fleet replicas carry no cache
// content at all.
#pragma once

#include "cdn/fleet.h"
#include "cdn/warm_archive.h"
#include "workload/catalog.h"

namespace vstream::engine {

/// Immutable warmed cache content shared read-only across shards.
using cdn::WarmArchive;

/// How build_warm_archive fills the archive.  kAuto takes the one backward
/// pass over the admission sequence when the policy is LRU; kWriteThrough
/// replays every admission through a real cdn::TwoLevelCache and records
/// where each object ended up (the reference the backward pass must
/// reproduce, kept selectable for tests, and the path for non-LRU
/// policies).
enum class WarmBuildMode { kAuto, kWriteThrough };

/// Build the shared read-only archive: each within-PoP server index's warm
/// set, admitted cold -> hot.  `prototype` supplies the fleet geometry,
/// server configuration and the video->server mapping; it is not modified.
/// Without a build, `WarmArchive{}` is the all-miss archive of cold caches.
WarmArchive build_warm_archive(const cdn::Fleet& prototype,
                               const workload::VideoCatalog& catalog,
                               double disk_fill, bool universal_head,
                               WarmBuildMode mode = WarmBuildMode::kAuto);

}  // namespace vstream::engine
