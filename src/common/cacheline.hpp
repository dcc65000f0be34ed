/**
 * @file
 * Cache-line sized padding helpers.
 *
 * Hot words that many threads write (clocks, thread gates, per-thread
 * counters, a shard's WAL ticket, the store's commit sequence), and
 * hot words that every transaction reads (PolyTM's dispatch words: the
 * current backend and the HTM contention-management knobs, kept off
 * the line of PolyTM's admin mutex), live on private cache lines to
 * avoid false sharing; every such word in this codebase goes through
 * one of these wrappers.
 *
 * Orecs are the deliberate exception: they pack 8 to a line, one per
 * word of one data line (see tm/orec.hpp). A table of 64K orecs is
 * then 8x denser (512 KiB instead of 4 MiB), so a lookup's metadata
 * tends to stay in cache, and the false sharing this admits is rare:
 * a writer locking one word's orec mostly invalidates a line whose
 * data line it is writing anyway, and unrelated lines meet on an orec
 * line only through a hash collision.
 */

#ifndef PROTEUS_COMMON_CACHELINE_HPP
#define PROTEUS_COMMON_CACHELINE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace proteus {

/** Size (bytes) assumed for one cache line on the target machines. */
constexpr std::size_t kCacheLineSize = 64;

/**
 * A value of type T alone on its own cache line.
 *
 * Usable for plain values and for std::atomic<T>; the alignas both
 * aligns and pads the wrapper to a full line.
 */
template <typename T>
struct alignas(kCacheLineSize) Padded
{
    T value{};

    Padded() = default;
    explicit Padded(const T &v) : value(v) {}

    T &operator*() { return value; }
    const T &operator*() const { return value; }
    T *operator->() { return &value; }
    const T *operator->() const { return &value; }
};

/** Cache-line padded atomic 64-bit counter. */
using PaddedAtomicU64 = Padded<std::atomic<std::uint64_t>>;

static_assert(sizeof(Padded<std::uint64_t>) == kCacheLineSize);
static_assert(sizeof(PaddedAtomicU64) == kCacheLineSize);

} // namespace proteus

#endif // PROTEUS_COMMON_CACHELINE_HPP
