#include "cdn/cache_policy.h"

#include <cassert>
#include <stdexcept>

namespace vstream::cdn {

// ---------------------------------------------------------------- LRU

std::uint32_t LruPolicy::acquire_node() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = nodes_[index].next;
    return index;
  }
  nodes_.push_back(Node{});
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void LruPolicy::unlink(std::uint32_t index) {
  Node& node = nodes_[index];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void LruPolicy::link_front(std::uint32_t index) {
  Node& node = nodes_[index];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) nodes_[head_].prev = index;
  head_ = index;
  if (tail_ == kNil) tail_ = index;
}

void LruPolicy::on_insert(const ChunkKey& key, std::uint64_t /*size_bytes*/) {
  assert(!position_.contains(key));
  const std::uint32_t index = acquire_node();
  nodes_[index].key = key;
  link_front(index);
  position_.emplace(key, index);
}

bool LruPolicy::on_access(const ChunkKey& key) {
  const auto it = position_.find(key);
  if (it == position_.end()) return false;  // tolerate spurious notifications
  const std::uint32_t index = it->second;
  if (index != head_) {
    unlink(index);
    link_front(index);
  }
  return true;
}

ChunkKey LruPolicy::choose_victim() {
  if (tail_ == kNil) throw std::logic_error("LruPolicy: empty cache");
  return nodes_[tail_].key;
}

void LruPolicy::on_evict(const ChunkKey& key) {
  const auto it = position_.find(key);
  if (it == position_.end()) return;
  const std::uint32_t index = it->second;
  unlink(index);
  nodes_[index].next = free_head_;  // return the slot to the free list
  free_head_ = index;
  position_.erase(it);
}

// ---------------------------------------------------------------- LFU

void PerfectLfuPolicy::on_insert(const ChunkKey& key,
                                 std::uint64_t /*size_bytes*/) {
  assert(!resident_.contains(key));
  const std::uint64_t freq = ++history_[key];  // history survives eviction
  const Entry entry{freq, next_seq_++};
  resident_[key] = entry;
  by_freq_[entry] = key;
}

bool PerfectLfuPolicy::on_access(const ChunkKey& key) {
  const auto it = resident_.find(key);
  if (it == resident_.end()) return false;
  by_freq_.erase(it->second);
  const Entry entry{++history_[key], next_seq_++};
  it->second = entry;
  by_freq_[entry] = key;
  return true;
}

ChunkKey PerfectLfuPolicy::choose_victim() {
  if (by_freq_.empty()) throw std::logic_error("PerfectLfuPolicy: empty cache");
  return by_freq_.begin()->second;
}

void PerfectLfuPolicy::on_evict(const ChunkKey& key) {
  const auto it = resident_.find(key);
  if (it == resident_.end()) return;
  by_freq_.erase(it->second);
  resident_.erase(it);
}

// ------------------------------------------------------------- GD-Size

void GdSizePolicy::on_insert(const ChunkKey& key, std::uint64_t size_bytes) {
  assert(!resident_.contains(key));
  sizes_[key] = std::max<std::uint64_t>(1, size_bytes);
  const Entry entry{inflation_ + 1.0 / static_cast<double>(sizes_[key]),
                    next_seq_++};
  resident_[key] = entry;
  by_priority_[entry] = key;
}

bool GdSizePolicy::on_access(const ChunkKey& key) {
  const auto it = resident_.find(key);
  if (it == resident_.end()) return false;
  by_priority_.erase(it->second);
  const Entry entry{inflation_ + 1.0 / static_cast<double>(sizes_[key]),
                    next_seq_++};
  it->second = entry;
  by_priority_[entry] = key;
  return true;
}

ChunkKey GdSizePolicy::choose_victim() {
  if (by_priority_.empty()) throw std::logic_error("GdSizePolicy: empty cache");
  // Ageing: future insertions/accesses are credited relative to the evicted
  // object's priority.
  inflation_ = by_priority_.begin()->first.priority;
  return by_priority_.begin()->second;
}

void GdSizePolicy::on_evict(const ChunkKey& key) {
  const auto it = resident_.find(key);
  if (it == resident_.end()) return;
  by_priority_.erase(it->second);
  resident_.erase(it);
  sizes_.erase(key);
}

// ------------------------------------------------------------- factory

std::unique_ptr<CachePolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return std::make_unique<LruPolicy>();
    case PolicyKind::kPerfectLfu: return std::make_unique<PerfectLfuPolicy>();
    case PolicyKind::kGdSize: return std::make_unique<GdSizePolicy>();
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kPerfectLfu: return "perfect-lfu";
    case PolicyKind::kGdSize: return "gd-size";
  }
  return "unknown";
}

}  // namespace vstream::cdn
