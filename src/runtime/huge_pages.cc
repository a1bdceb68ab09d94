#include "runtime/huge_pages.h"

#include <sys/mman.h>

#include <cstdint>

namespace vstream::runtime {

void advise_huge_pages(void* data, std::size_t bytes) {
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  if (data == nullptr || bytes < 2 * kHugePage) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(kHugePage - 1);
  if (hi <= lo) return;
  // The result is ignored on purpose: a refused advice leaves 4 KiB pages.
  ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
}

}  // namespace vstream::runtime
