/**
 * @file
 * Branch-prediction and prefetch hints for hot probe loops.
 *
 * Thin, compiler-gated wrappers: hints are advisory only and compile
 * to nothing on toolchains without the builtins, so call sites stay
 * portable. Use sparingly — only on branches whose skew is structural
 * (e.g. "this slot carries no write intent" on the KV probe loop),
 * never on data-dependent guesses.
 */

#ifndef PROTEUS_COMMON_HINTS_HPP
#define PROTEUS_COMMON_HINTS_HPP

#include <cstddef>
#include <cstdint>

#include "common/cacheline.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define PROTEUS_LIKELY(x) __builtin_expect(!!(x), 1)
#define PROTEUS_UNLIKELY(x) __builtin_expect(!!(x), 0)
/** Read-prefetch with low temporal locality (probe walks stream). */
#define PROTEUS_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
/**
 * Read-prefetch into every cache level (a line used within ~1 us).
 * On x86-64 this is a volatile prefetcht0 rather than
 * __builtin_prefetch: GCC's mod/ref analysis treats the builtin as
 * free of side effects and deletes calls to functions that do nothing
 * but prefetch (read-ahead helpers are exactly such functions).
 */
#if defined(__x86_64__)
#define PROTEUS_PREFETCH_NEAR(addr)                                          \
    asm volatile("prefetcht0 (%0)" : : "r"(addr))
#else
#define PROTEUS_PREFETCH_NEAR(addr) __builtin_prefetch((addr), 0, 3)
#endif
#else
#define PROTEUS_LIKELY(x) (x)
#define PROTEUS_UNLIKELY(x) (x)
#define PROTEUS_PREFETCH(addr) ((void)0)
#define PROTEUS_PREFETCH_NEAR(addr) ((void)0)
#endif

namespace proteus {

/**
 * PROTEUS_PREFETCH_NEAR every cache line of [addr, addr + bytes).
 * A prefetch never faults and is no memory access to the language or
 * the sanitizers, so any address, even a stale or garbage one, is
 * legal here.
 */
inline void
prefetchLines(const void *addr, std::size_t bytes)
{
    const auto begin = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t offset = begin % kCacheLineSize;
    const std::size_t lines =
        (offset + bytes + kCacheLineSize - 1) / kCacheLineSize;
    for (std::size_t i = 0; i < lines; ++i) {
        PROTEUS_PREFETCH_NEAR(reinterpret_cast<const void *>(
            begin - offset + i * kCacheLineSize));
    }
}

} // namespace proteus

#endif // PROTEUS_COMMON_HINTS_HPP
