// Huge-page advice for bulk record buffers.
//
// A buffer of tens of MiB that is written once from start to end (the
// ordered record output of a run, a loaded spill set) spends most of its
// first-touch time in 4 KiB page faults.  With transparent huge pages in
// `madvise` mode, advising MADV_HUGEPAGE on the buffer lets the kernel
// back it with 2 MiB pages instead: one fault per 2 MiB.  Only the
// 2 MiB-aligned interior is advised; reserved capacity that is never
// touched still costs no memory.
#pragma once

#include <cstddef>
#include <vector>

namespace vstream::runtime {

/// Advise MADV_HUGEPAGE on the 2 MiB-aligned interior of
/// [data, data + bytes).  Advice only: it does nothing below 4 MiB (at
/// most one aligned huge page would fit), when transparent huge pages are
/// off, or when madvise fails, and never changes the buffer's contents.
void advise_huge_pages(void* data, std::size_t bytes);

/// `v.reserve(n)`, then huge-page advice on the whole reserved storage.
template <typename T>
void reserve_huge(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

}  // namespace vstream::runtime
