#include "cdn/warm_archive.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vstream::cdn {

WarmArchive::WarmArchive(std::span<const std::uint32_t> chunk_counts,
                         std::vector<std::uint32_t> owners,
                         std::span<const std::uint32_t> ladder)
    : ladder_(ladder.begin(), ladder.end()), owners_(std::move(owners)) {
  if (owners_.size() != chunk_counts.size()) {
    throw std::invalid_argument("WarmArchive: one owner per video");
  }
  first_chunk_.reserve(chunk_counts.size() + 1);
  first_chunk_.push_back(0);
  for (const std::uint32_t chunks : chunk_counts) {
    first_chunk_.push_back(first_chunk_.back() + chunks);
  }
  levels_.assign(first_chunk_.back() * ladder_.size(),
                 static_cast<std::uint8_t>(CacheLevel::kMiss));
}

std::size_t WarmArchive::count(CacheLevel level) const {
  return static_cast<std::size_t>(
      std::count(levels_.begin(), levels_.end(),
                 static_cast<std::uint8_t>(level)));
}

}  // namespace vstream::cdn
