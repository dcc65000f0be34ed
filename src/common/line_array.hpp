/**
 * @file
 * Fixed-size, zero-initialised arrays for the hot lookup tables (TM orec
 * tables, shard slot records) and the value arena's chunks.
 *
 * Storage always starts on a cache line, so a table of 8-byte entries
 * can promise that entries [8k, 8k+8) share exactly one line. A plain
 * std::vector cannot: malloc promises 16-byte alignment, and glibc
 * hands out large blocks 16 bytes past a page boundary.
 *
 * An array of kHugePageSize bytes or more also starts on a huge-page
 * boundary, and on Linux asks for transparent huge pages
 * (MADV_HUGEPAGE) before the zeroing pass faults it in. The second
 * cost of a random lookup into tens of MiB is the page walk: a
 * 2048-entry second-level TLB maps 8 MiB in 4 KiB pages, so nearly
 * every lookup into a larger table also walks the page table, and
 * under nested paging a walk can cost more than the cache miss beside
 * it. The hint is only a hint: with THP `never` the array keeps 4 KiB
 * pages and works the same (KvStore's `process_anon_huge_bytes` gauge
 * shows which one a process got).
 */

#ifndef PROTEUS_COMMON_LINE_ARRAY_HPP
#define PROTEUS_COMMON_LINE_ARRAY_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "common/cacheline.hpp"

namespace proteus {

/** Size (bytes) of one transparent huge page on x86-64 Linux. */
constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

/** A zero-initialised, non-resizable, line-aligned array of T. */
template <typename T>
class LineArray
{
    static_assert(std::is_trivially_destructible_v<T>);
    static_assert(std::is_nothrow_default_constructible_v<T>);

  public:
    explicit LineArray(std::size_t n)
        : data_(static_cast<T *>(
              ::operator new(n * sizeof(T), alignmentFor(n)))),
          size_(n)
    {
#ifdef MADV_HUGEPAGE
        if (n * sizeof(T) >= kHugePageSize) {
            // Before the first touch, so the zeroing pass below faults
            // in huge pages directly. A refused hint leaves 4 KiB pages.
            ::madvise(data_, n * sizeof(T), MADV_HUGEPAGE);
        }
#endif
        std::uninitialized_value_construct_n(data_, n);
    }
    ~LineArray() { ::operator delete(data_, alignmentFor(size_)); }

    LineArray(const LineArray &) = delete;
    LineArray &operator=(const LineArray &) = delete;

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return size_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    static std::align_val_t
    alignmentFor(std::size_t n)
    {
        return std::align_val_t{n * sizeof(T) >= kHugePageSize
                                    ? kHugePageSize
                                    : kCacheLineSize};
    }

    T *data_;
    std::size_t size_;
};

} // namespace proteus

#endif // PROTEUS_COMMON_LINE_ARRAY_HPP
