#include "engine/warmup.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "client/abr.h"

namespace vstream::engine {

namespace {

// Emulate the steady state of a long-running edge server under a
// partial-viewing workload, in two tiers:
//
//   1. every assigned video keeps its first few chunks cached at all
//      rungs — every viewer fetches the head of a video, so LRU retains
//      it (and it is exactly what the paper recommends pre-caching), and
//   2. the popular head of the catalog is cached in full, hot videos
//      freshest (so they also occupy RAM).
//
// Sessions on tail videos therefore hit the cached prefix and miss
// beyond it — reproducing §4.1-2's persistence shape (sessions with one
// miss average ~60% misses, while the overall rate stays ~2%).
constexpr std::uint32_t kPrefixChunks = 3;

/// Enumerate the warm set of the server at within-PoP index `sidx` in
/// admission order (cold -> hot, so the hottest videos end up freshest in
/// both LRU levels, i.e. in RAM), feeding each object to `admit`.
void enumerate_warm_set(
    const cdn::Fleet& prototype, const workload::VideoCatalog& catalog,
    std::uint32_t sidx, double disk_fill, bool universal_head,
    const std::function<void(const cdn::ChunkKey&, std::uint64_t)>& admit) {
  const auto ladder = client::default_bitrate_ladder();
  const double tau = catalog.chunk_duration_s();
  const cdn::AtsServer& server = prototype.server({0, sidx});
  const std::uint64_t budget = static_cast<std::uint64_t>(
      disk_fill * static_cast<double>(server.config().disk_bytes));

  const std::uint64_t chunk_size_all_rungs = [&] {
    std::uint64_t sum = 0;
    for (const std::uint32_t rung : ladder) sum += cdn::chunk_bytes(rung, tau);
    return sum;
  }();

  // Membership pass (hot -> cold): the popular head keeps full bodies
  // (~55% of the budget); the mid tail keeps a graded share of its
  // chunks (LRU retains what recent viewers fetched — heads always,
  // bodies in proportion to viewership); the deepest ~10% keeps
  // nothing, so its sessions miss from chunk 0.
  std::vector<std::uint32_t> assigned;
  for (std::uint32_t video = 0; video < catalog.size(); ++video) {
    if (prototype.server_index_for_video(video) != sidx) continue;
    assigned.push_back(video);
  }
  std::uint64_t bytes = 0;
  const std::uint64_t full_budget =
      static_cast<std::uint64_t>(0.55 * static_cast<double>(budget));
  std::size_t full_tier_count = 0;
  for (const std::uint32_t video : assigned) {
    const std::uint64_t body =
        catalog.video(video).chunk_count * chunk_size_all_rungs;
    if (bytes + body > full_budget) break;
    bytes += body;
    ++full_tier_count;
  }

  const auto warm_chunks_for = [&](std::size_t i) -> std::uint32_t {
    const workload::VideoMeta& meta = catalog.video(assigned[i]);
    if (i < full_tier_count) return meta.chunk_count;
    const double frac =
        static_cast<double>(i - full_tier_count) /
        std::max<double>(1.0,
                         static_cast<double>(assigned.size() - full_tier_count));
    const std::uint32_t head =
        universal_head ? std::min(kPrefixChunks, meta.chunk_count) : 0;
    if (frac >= 0.75) return head;  // never-watched deep tail
    // Graded retention: most of the body near the head of the band,
    // shrinking toward the prefix-only regime.
    const double w = 1.0 - frac * frac * frac;
    return std::max(std::min(kPrefixChunks, meta.chunk_count),
                    static_cast<std::uint32_t>(w * meta.chunk_count));
  };

  for (std::size_t i = assigned.size(); i-- > 0;) {
    const std::uint32_t video = assigned[i];
    const std::uint32_t warm_chunks = warm_chunks_for(i);
    for (std::uint32_t c = 0; c < warm_chunks; ++c) {
      for (const std::uint32_t rung : ladder) {
        admit(cdn::ChunkKey{video, c, rung},
              cdn::chunk_bytes_vbr(rung, tau, video, c));
      }
    }
  }

  if (universal_head) {
    // §4.3-3 take-away: the heads of ALL videos are pinned — admit them
    // last so they are the freshest objects and survive any eviction the
    // warm set itself caused.
    for (std::size_t i = assigned.size(); i-- > 0;) {
      const std::uint32_t video = assigned[i];
      const workload::VideoMeta& meta = catalog.video(video);
      const std::uint32_t head = std::min(kPrefixChunks, meta.chunk_count);
      for (std::uint32_t c = 0; c < head; ++c) {
        for (const std::uint32_t rung : ladder) {
          admit(cdn::ChunkKey{video, c, rung},
                cdn::chunk_bytes_vbr(rung, tau, video, c));
        }
      }
    }
  }
}

}  // namespace

WarmArchive::WarmArchive(const cdn::FleetConfig& config) {
  caches_.reserve(config.servers_per_pop);
  for (std::uint32_t sidx = 0; sidx < config.servers_per_pop; ++sidx) {
    caches_.emplace_back(config.server.ram_bytes, config.server.disk_bytes,
                         config.server.policy);
  }
}

namespace {

/// The final resident set of an empty LRU level fed an admission sequence:
/// dedupe by *last* admission (re-admits only refresh recency), then take
/// the maximal most-recent suffix whose bytes fit the capacity.  Greedy
/// LRU eviction can only ever remove objects older than that suffix — by
/// the time any suffix member could be threatened, everything older has
/// already been evicted and the remaining bytes fit.  Returned oldest ->
/// newest (admissible insertion order).  LRU-specific by construction;
/// tests/engine/warmup_test.cc pins the equivalence against the
/// write-through admission path.
std::vector<std::pair<cdn::ChunkKey, std::uint64_t>> lru_resident_suffix(
    const std::vector<std::pair<cdn::ChunkKey, std::uint64_t>>& sequence,
    const std::vector<char>& is_last, std::uint64_t capacity_bytes) {
  std::vector<std::pair<cdn::ChunkKey, std::uint64_t>> resident;
  std::uint64_t bytes = 0;
  for (std::size_t i = sequence.size(); i-- > 0;) {
    if (!is_last[i]) continue;
    const std::uint64_t size = sequence[i].second;
    if (size > capacity_bytes) continue;  // never admitted, evicts nothing
    if (bytes + size > capacity_bytes) break;
    bytes += size;
    resident.push_back(sequence[i]);
  }
  std::reverse(resident.begin(), resident.end());
  return resident;
}

}  // namespace

WarmArchive build_warm_archive(const cdn::Fleet& prototype,
                               const workload::VideoCatalog& catalog,
                               double disk_fill, bool universal_head,
                               WarmBuildMode mode) {
  WarmArchive archive(prototype.config());
  const cdn::AtsConfig& server = prototype.config().server;
  for (std::uint32_t sidx = 0; sidx < prototype.servers_per_pop(); ++sidx) {
    cdn::TwoLevelCache& cache = archive.mutable_for_server(sidx);
    if (mode == WarmBuildMode::kWriteThrough ||
        server.policy != cdn::PolicyKind::kLru) {
      // Non-LRU policies take the plain write-through admission path (the
      // suffix shortcut below encodes LRU's eviction order).
      enumerate_warm_set(prototype, catalog, sidx, disk_fill, universal_head,
                         [&](const cdn::ChunkKey& key, std::uint64_t size) {
                           cache.admit(key, size);
                         });
      continue;
    }
    // LRU fast path.  The archive is immutable once built — sharded serving
    // only reads residency — so instead of replaying every admission
    // through the write-through hierarchy (which cycles nearly the whole
    // warm set through the small RAM level), compute each level's final
    // resident set directly and insert exactly those objects.
    std::vector<std::pair<cdn::ChunkKey, std::uint64_t>> sequence;
    enumerate_warm_set(prototype, catalog, sidx, disk_fill, universal_head,
                       [&](const cdn::ChunkKey& key, std::uint64_t size) {
                         sequence.emplace_back(key, size);
                       });
    // Mark each key's last admission (recency order is by last touch).
    std::vector<char> is_last(sequence.size(), 0);
    std::unordered_set<cdn::ChunkKey, cdn::ChunkKeyHash> seen;
    seen.reserve(sequence.size());
    for (std::size_t i = sequence.size(); i-- > 0;) {
      is_last[i] = seen.insert(sequence[i].first).second ? 1 : 0;
    }
    cache.warm_bulk(
        lru_resident_suffix(sequence, is_last, server.disk_bytes),
        lru_resident_suffix(sequence, is_last, server.ram_bytes));
  }
  return archive;
}

}  // namespace vstream::engine
