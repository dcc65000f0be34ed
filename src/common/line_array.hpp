/**
 * @file
 * Fixed-size, zero-initialised arrays for the hot lookup tables (TM orec
 * tables, shard slot records).
 *
 * Storage always starts on a cache line, so a table of 8-byte entries
 * can promise that entries [8k, 8k+8) share exactly one line. A plain
 * std::vector cannot: malloc promises 16-byte alignment, and glibc
 * hands out large blocks 16 bytes past a page boundary.
 */

#ifndef PROTEUS_COMMON_LINE_ARRAY_HPP
#define PROTEUS_COMMON_LINE_ARRAY_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

#include "common/cacheline.hpp"

namespace proteus {

/** A zero-initialised, non-resizable, line-aligned array of T. */
template <typename T>
class LineArray
{
    static_assert(std::is_trivially_destructible_v<T>);
    static_assert(std::is_nothrow_default_constructible_v<T>);

  public:
    explicit LineArray(std::size_t n)
        : data_(static_cast<T *>(::operator new(
              n * sizeof(T), std::align_val_t{kCacheLineSize}))),
          size_(n)
    {
        std::uninitialized_value_construct_n(data_, n);
    }
    ~LineArray()
    {
        ::operator delete(data_, std::align_val_t{kCacheLineSize});
    }

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
    T *data_;
    std::size_t size_;
};

} // namespace proteus

#endif // PROTEUS_COMMON_LINE_ARRAY_HPP
