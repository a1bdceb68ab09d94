#include "engine/warmup.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "cdn/cache.h"
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

/// One LRU level's fill during the backward pass.  Walking the admission
/// sequence newest first over each key's *last* admission (re-admits only
/// refresh recency), the level's final resident set is the longest run that
/// fits its capacity: an object larger than the whole level is never
/// admitted and evicts nothing, so it is skipped; the first object that no
/// longer fits ends the run, because greedy LRU eviction only ever removes
/// objects older than that run — by the time any run member could be
/// threatened, everything older has been evicted and the rest fits.
/// tests/engine/warmup_test.cc pins the equivalence against the
/// write-through admission path.
struct LevelFill {
  std::uint64_t capacity = 0;
  std::uint64_t bytes = 0;
  bool full = false;

  bool admits(std::uint64_t size) {
    if (full || size > capacity) return false;
    if (bytes + size > capacity) {
      full = true;
      return false;
    }
    bytes += size;
    return true;
  }
};

}  // namespace

WarmArchive build_warm_archive(const cdn::Fleet& prototype,
                               const workload::VideoCatalog& catalog,
                               double disk_fill, bool universal_head,
                               WarmBuildMode mode) {
  const auto ladder = client::default_bitrate_ladder();
  std::vector<std::uint32_t> chunk_counts(catalog.size());
  std::vector<std::uint32_t> owners(catalog.size());
  for (std::uint32_t video = 0; video < catalog.size(); ++video) {
    chunk_counts[video] = catalog.video(video).chunk_count;
    owners[video] = prototype.server_index_for_video(video);
  }
  WarmArchive archive(chunk_counts, owners, ladder);
  const cdn::AtsConfig& server = prototype.config().server;

  if (mode == WarmBuildMode::kWriteThrough ||
      server.policy != cdn::PolicyKind::kLru) {
    // Non-LRU policies take the plain write-through admission path (the
    // backward pass below encodes LRU's eviction order).
    for (std::uint32_t sidx = 0; sidx < prototype.servers_per_pop(); ++sidx) {
      cdn::TwoLevelCache cache(server.ram_bytes, server.disk_bytes,
                               server.policy);
      enumerate_warm_set(prototype, catalog, sidx, disk_fill, universal_head,
                         [&](const cdn::ChunkKey& key, std::uint64_t size) {
                           cache.admit(key, size);
                         });
      for (std::uint32_t video = 0; video < catalog.size(); ++video) {
        if (owners[video] != sidx) continue;
        for (std::uint32_t c = 0; c < chunk_counts[video]; ++c) {
          for (const std::uint32_t rung : ladder) {
            const cdn::ChunkKey key{video, c, rung};
            archive.set(archive.slot(key), cache.peek(key));
          }
        }
      }
    }
    return archive;
  }

  // LRU: the archive is immutable once built — serving only reads
  // residency — so instead of replaying every admission through the
  // write-through hierarchy (which cycles nearly the whole warm set through
  // the small RAM level), walk each server index's admission sequence once,
  // newest first, and fill both levels at the same time.  Slots of
  // different indices never overlap, so one "seen" mark serves them all.
  std::vector<char> seen(archive.slot_count(), 0);
  std::vector<std::pair<std::size_t, std::uint64_t>> sequence;
  for (std::uint32_t sidx = 0; sidx < prototype.servers_per_pop(); ++sidx) {
    sequence.clear();
    enumerate_warm_set(prototype, catalog, sidx, disk_fill, universal_head,
                       [&](const cdn::ChunkKey& key, std::uint64_t size) {
                         sequence.emplace_back(archive.slot(key), size);
                       });
    LevelFill disk{server.disk_bytes};
    LevelFill ram{server.ram_bytes};
    for (std::size_t i = sequence.size();
         i-- > 0 && !(disk.full && ram.full);) {
      const auto [slot, size] = sequence[i];
      if (seen[slot]) continue;
      seen[slot] = 1;
      const bool on_disk = disk.admits(size);
      const bool in_ram = ram.admits(size);
      if (in_ram) {
        archive.set(slot, cdn::CacheLevel::kRam);
      } else if (on_disk) {
        archive.set(slot, cdn::CacheLevel::kDisk);
      }
    }
  }
  return archive;
}

}  // namespace vstream::engine
