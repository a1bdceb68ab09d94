// Pluggable cache eviction policies.
//
// The paper's CDN uses ATS's default LRU and the authors recommend
// popularity-aware alternatives ("GD-size or perfect-LFU", §4.1-1 take-away,
// citing Breslau et al.).  We implement all three behind one interface so
// the ablation bench can compare hit rates on the same workload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdn/chunk.h"

namespace vstream::cdn {

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  /// A resident object was inserted (must not already be resident).
  virtual void on_insert(const ChunkKey& key, std::uint64_t size_bytes) = 0;

  /// A resident object was accessed.  Returns whether the policy tracks the
  /// object (i.e. it is resident); non-resident keys are a tolerated no-op.
  /// The return value lets the cache answer "resident?" and update recency
  /// with a single hash lookup on the hit path.
  virtual bool on_access(const ChunkKey& key) = 0;

  /// Pick the resident object to evict next.  Precondition: non-empty.
  virtual ChunkKey choose_victim() = 0;

  /// A resident object was removed (eviction or invalidation).
  virtual void on_evict(const ChunkKey& key) = 0;

  virtual std::string name() const = 0;
};

/// Classic LRU over resident objects (ATS default).
///
/// The recency list is intrusive over a slot arena (vector + free list)
/// instead of a std::list: steady-state serving churns the order on every
/// hit and eviction, and per-node heap allocation dominated the policy's
/// cost in profiles.  Victim order is identical to the std::list version.
class LruPolicy final : public CachePolicy {
 public:
  void on_insert(const ChunkKey& key, std::uint64_t size_bytes) override;
  bool on_access(const ChunkKey& key) override;
  ChunkKey choose_victim() override;
  void on_evict(const ChunkKey& key) override;
  std::string name() const override { return "lru"; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    ChunkKey key;
    std::uint32_t prev;
    std::uint32_t next;
  };

  std::uint32_t acquire_node();
  void unlink(std::uint32_t index);
  void link_front(std::uint32_t index);

  std::vector<Node> nodes_;   // arena; free slots chained through `next`
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent
  std::uint32_t free_head_ = kNil;
  std::unordered_map<ChunkKey, std::uint32_t, ChunkKeyHash> position_;
};

/// Perfect LFU: frequency counts persist across evictions (Breslau et al.),
/// so a once-popular object re-enters with its full history.
class PerfectLfuPolicy final : public CachePolicy {
 public:
  void on_insert(const ChunkKey& key, std::uint64_t size_bytes) override;
  bool on_access(const ChunkKey& key) override;
  ChunkKey choose_victim() override;
  void on_evict(const ChunkKey& key) override;
  std::string name() const override { return "perfect-lfu"; }

 private:
  // Resident set ordered by (frequency, insertion sequence) for O(log n)
  // victim selection; history_ keeps counts for evicted objects too.
  struct Entry {
    std::uint64_t freq;
    std::uint64_t seq;
    friend auto operator<=>(const Entry&, const Entry&) = default;
  };
  std::map<Entry, ChunkKey> by_freq_;
  std::unordered_map<ChunkKey, Entry, ChunkKeyHash> resident_;
  std::unordered_map<ChunkKey, std::uint64_t, ChunkKeyHash> history_;
  std::uint64_t next_seq_ = 0;
};

/// GreedyDual-Size with uniform fetch cost: priority = L + 1/size, evict the
/// minimum and raise the global ageing term L to the victim's priority.
class GdSizePolicy final : public CachePolicy {
 public:
  void on_insert(const ChunkKey& key, std::uint64_t size_bytes) override;
  bool on_access(const ChunkKey& key) override;
  ChunkKey choose_victim() override;
  void on_evict(const ChunkKey& key) override;
  std::string name() const override { return "gd-size"; }

 private:
  struct Entry {
    double priority;
    std::uint64_t seq;
    friend auto operator<=>(const Entry&, const Entry&) = default;
  };
  double inflation_ = 0.0;  // the "L" ageing term
  std::map<Entry, ChunkKey> by_priority_;
  std::unordered_map<ChunkKey, Entry, ChunkKeyHash> resident_;
  std::unordered_map<ChunkKey, std::uint64_t, ChunkKeyHash> sizes_;
  std::uint64_t next_seq_ = 0;
};

enum class PolicyKind { kLru, kPerfectLfu, kGdSize };

std::unique_ptr<CachePolicy> make_policy(PolicyKind kind);
const char* to_string(PolicyKind kind);

}  // namespace vstream::cdn
