#include "cdn/cache.h"

#include <stdexcept>
#include <utility>

namespace vstream::cdn {

CacheStore::CacheStore(std::uint64_t capacity_bytes,
                       std::unique_ptr<CachePolicy> policy)
    : capacity_bytes_(capacity_bytes), policy_(std::move(policy)) {
  if (policy_ == nullptr) throw std::invalid_argument("CacheStore: null policy");
}

bool CacheStore::touch(const ChunkKey& key) { return policy_->on_access(key); }

bool CacheStore::insert(const ChunkKey& key, std::uint64_t size_bytes) {
  if (size_bytes > capacity_bytes_) return false;
  const auto [it, inserted] = objects_.try_emplace(key, size_bytes);
  if (!inserted) {
    policy_->on_access(key);
    return true;
  }
  // Evict until the new object fits.  The policy has not seen `key` yet,
  // so victims come from the previously resident set, exactly as when the
  // eviction loop preceded the index insertion.
  while (used_bytes_ + size_bytes > capacity_bytes_) {
    const ChunkKey victim = policy_->choose_victim();
    erase(victim);
    ++evictions_;
  }
  used_bytes_ += size_bytes;
  policy_->on_insert(key, size_bytes);
  return true;
}

void CacheStore::erase(const ChunkKey& key) {
  const auto it = objects_.find(key);
  if (it == objects_.end()) return;
  used_bytes_ -= it->second;
  objects_.erase(it);
  policy_->on_evict(key);
}

const char* to_string(CacheLevel level) {
  switch (level) {
    case CacheLevel::kRam: return "ram-hit";
    case CacheLevel::kDisk: return "disk-hit";
    case CacheLevel::kMiss: return "miss";
  }
  return "unknown";
}

TwoLevelCache::TwoLevelCache(std::uint64_t ram_bytes, std::uint64_t disk_bytes,
                             PolicyKind policy)
    : ram_(ram_bytes, make_policy(policy)),
      disk_(disk_bytes, make_policy(policy)) {}

CacheLevel TwoLevelCache::lookup(const ChunkKey& key,
                                 std::uint64_t size_bytes) {
  if (ram_.touch(key)) {
    disk_.touch(key);  // keep disk recency in sync for RAM-resident objects
    return CacheLevel::kRam;
  }
  if (disk_.touch(key)) {
    ram_.insert(key, size_bytes);  // promote: it is now "fresh in memory"
    return CacheLevel::kDisk;
  }
  return CacheLevel::kMiss;
}

CacheLevel TwoLevelCache::peek(const ChunkKey& key) const {
  if (ram_.contains(key)) return CacheLevel::kRam;
  if (disk_.contains(key)) return CacheLevel::kDisk;
  return CacheLevel::kMiss;
}

void TwoLevelCache::admit(const ChunkKey& key, std::uint64_t size_bytes) {
  disk_.insert(key, size_bytes);
  ram_.insert(key, size_bytes);
}

}  // namespace vstream::cdn
