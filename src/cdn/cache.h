// Cache stores: a single sized level, and the ATS-style two-level
// (RAM over disk) hierarchy.
//
// ATS checks the main-memory cache first, then the disk cache, and finally
// fetches from the backend (§4.1).  RAM eviction is harmless (the object is
// still on disk); disk eviction loses the object entirely.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "cdn/cache_policy.h"
#include "cdn/chunk.h"

namespace vstream::cdn {

/// One capacity-bounded cache level with a pluggable eviction policy.
class CacheStore {
 public:
  CacheStore(std::uint64_t capacity_bytes, std::unique_ptr<CachePolicy> policy);

  bool contains(const ChunkKey& key) const { return objects_.contains(key); }

  /// Record a hit (moves the object in the policy's order).  Returns
  /// whether the object is resident — the policy tracks exactly the
  /// resident set, so presence and the recency update cost one lookup.
  bool touch(const ChunkKey& key);

  /// Insert an object, evicting as needed.  Objects larger than the whole
  /// capacity are not admitted.  Returns false if not admitted.
  bool insert(const ChunkKey& key, std::uint64_t size_bytes);

  /// Remove a specific object if present.
  void erase(const ChunkKey& key);

  std::uint64_t used_bytes() const { return used_bytes_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t object_count() const { return objects_.size(); }
  std::uint64_t eviction_count() const { return evictions_; }

 private:
  std::uint64_t capacity_bytes_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::unique_ptr<CachePolicy> policy_;
  std::unordered_map<ChunkKey, std::uint64_t, ChunkKeyHash> objects_;
};

/// Where a lookup was satisfied.
enum class CacheLevel { kRam, kDisk, kMiss };

const char* to_string(CacheLevel level);

/// RAM + disk hierarchy.  Lookup promotes disk hits into RAM; admission
/// after a backend fetch writes both levels (write-through), matching ATS's
/// behaviour of serving from RAM when the object is "fresh in memory".
class TwoLevelCache {
 public:
  TwoLevelCache(std::uint64_t ram_bytes, std::uint64_t disk_bytes,
                PolicyKind policy);

  /// Look up and update recency state; promotes disk hits to RAM.
  CacheLevel lookup(const ChunkKey& key, std::uint64_t size_bytes);

  /// Read-only probe: where the object would be found, without touching
  /// recency state or promoting between levels.
  CacheLevel peek(const ChunkKey& key) const;

  /// Admit a freshly fetched object (backend miss path).
  void admit(const ChunkKey& key, std::uint64_t size_bytes);

 private:
  CacheStore ram_;
  CacheStore disk_;
};

}  // namespace vstream::cdn
