// Immutable steady-state cache residency, shared read-only by every serve.
//
// The paper measures edge servers that have run for weeks (§4.1): RAM
// hits, disk hits behind the retry timer, ~2% misses.  Serving only ever
// asks "where would this server find this object?", so the warmed state is
// one level byte (RAM / disk / miss) per (video, chunk, rung) slot of the
// catalog.  Slots are laid out video by video, chunk by chunk, rung by
// rung; a prefix sum of chunk counts gives each video's first slot.
//
// Each video is warmed on exactly one within-PoP server index (its owner
// under cache-focused routing), so one table covers every index: a lookup
// from any other index misses, as do keys outside the catalog or off the
// bitrate ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cdn/cache.h"
#include "cdn/chunk.h"

namespace vstream::cdn {

class WarmArchive {
 public:
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  /// Empty archive: every lookup misses (cold caches).
  WarmArchive() = default;

  /// All-miss table for a catalog: video v has `chunk_counts[v]` chunks,
  /// each at every rung of `ladder`, and is owned by server index
  /// `owners[v]`.
  WarmArchive(std::span<const std::uint32_t> chunk_counts,
              std::vector<std::uint32_t> owners,
              std::span<const std::uint32_t> ladder);

  /// The key's slot, or kNoSlot when the video is out of range, the chunk
  /// is past the video's end or the bitrate is not on the ladder.
  std::size_t slot(const ChunkKey& key) const {
    if (key.video_id >= owners_.size()) return kNoSlot;
    const std::size_t first = first_chunk_[key.video_id];
    if (key.chunk_index >= first_chunk_[key.video_id + 1] - first) {
      return kNoSlot;
    }
    for (std::size_t rung = 0; rung < ladder_.size(); ++rung) {
      if (ladder_[rung] == key.bitrate_kbps) {
        return (first + key.chunk_index) * ladder_.size() + rung;
      }
    }
    return kNoSlot;
  }

  /// Where server index `server_index` finds `key`.  Lock-free and
  /// allocation-free: the sharded engine reads it from every worker.
  CacheLevel peek(std::uint32_t server_index, const ChunkKey& key) const {
    const std::size_t s = slot(key);
    if (s == kNoSlot || owners_[key.video_id] != server_index) {
      return CacheLevel::kMiss;
    }
    return static_cast<CacheLevel>(levels_[s]);
  }

  /// Place a slot's object at `level`.  For building only: the archive is
  /// read-only once serving starts.  Throws std::out_of_range for kNoSlot.
  void set(std::size_t slot, CacheLevel level) {
    levels_.at(slot) = static_cast<std::uint8_t>(level);
  }

  std::size_t slot_count() const { return levels_.size(); }
  /// Number of slots resident at `level`.
  std::size_t count(CacheLevel level) const;

 private:
  std::vector<std::uint32_t> ladder_;
  std::vector<std::uint32_t> owners_;       // per video
  std::vector<std::size_t> first_chunk_;    // per video, plus the total
  std::vector<std::uint8_t> levels_;        // CacheLevel per slot
};

}  // namespace vstream::cdn
