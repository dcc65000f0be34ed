/**
 * OrecTable layout contract: one unpadded 8-byte orec per word, the 8
 * words of one data line owning the 8 orecs of one orec line, and
 * every index inside the table at every size. Also checks the
 * line-aligned storage the contract rests on (common/line_array.hpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/line_array.hpp"
#include "tm/orec.hpp"

namespace proteus::tm {
namespace {

std::uintptr_t
lineOf(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) / kCacheLineSize;
}

TEST(OrecTableTest, OrecIsOneUnpaddedWord)
{
    EXPECT_EQ(sizeof(Orec), 8u);
    EXPECT_EQ(alignof(Orec), 8u);
}

TEST(OrecTableTest, LineWordsOwnOneOrecLine)
{
    OrecTable table(16);
    alignas(64) static std::uint64_t data[64 * 8];
    for (std::size_t line = 0; line < 64; ++line) {
        const std::uint64_t *words = &data[line * 8];
        std::set<const Orec *> orecs;
        std::set<std::size_t> indices;
        for (std::size_t w = 0; w < 8; ++w) {
            const Orec *orec = &table.forAddr(&words[w]);
            orecs.insert(orec);
            indices.insert(table.indexOf(&words[w]));
            // Word w of a data line owns word w of its orec line.
            EXPECT_EQ(table.indexOf(&words[w]) & 7, w);
            EXPECT_EQ(lineOf(orec), lineOf(&table.forAddr(&words[0])))
                << "line " << line << " word " << w;
        }
        EXPECT_EQ(orecs.size(), 8u) << "line " << line;
        EXPECT_EQ(indices.size(), 8u) << "line " << line;
    }
}

TEST(OrecTableTest, DistinctLinesSpreadOverOrecLines)
{
    // The line hash must not fold neighbouring lines together: 1024
    // consecutive data lines over 8192 orec lines should land on
    // (nearly) 1024 distinct orec lines.
    OrecTable table(16);
    std::vector<std::uint64_t> data(1024 * 8 + 8);
    const auto base = (reinterpret_cast<std::uintptr_t>(data.data()) + 63) &
                      ~std::uintptr_t{63};
    std::set<std::size_t> orec_lines;
    for (std::size_t line = 0; line < 1024; ++line)
        orec_lines.insert(
            table.indexOf(reinterpret_cast<const void *>(base + line * 64)) >>
            3);
    EXPECT_GE(orec_lines.size(), 950u);
}

TEST(OrecTableTest, IndicesStayInRangeAtEverySize)
{
    std::vector<std::uint64_t> data(4096);
    for (unsigned log2 = 0; log2 <= 20; ++log2) {
        OrecTable table(log2);
        ASSERT_EQ(table.size(), std::size_t{1} << log2);
        for (const std::uint64_t &word : data)
            ASSERT_LT(table.indexOf(&word), table.size()) << "log2 " << log2;
        // Addresses far apart in the address space too.
        for (std::uintptr_t a = 8; a != 0; a <<= 1)
            ASSERT_LT(table.indexOf(reinterpret_cast<const void *>(a)),
                      table.size())
                << "log2 " << log2 << " addr " << a;
    }
}

TEST(OrecTableTest, ResetZeroesEveryOrec)
{
    OrecTable table(10);
    std::uint64_t word = 0;
    Orec &orec = table.forAddr(&word);
    ASSERT_TRUE(orec.tryLock(orec.load(), 3));
    orec.releaseToVersion(42);
    table.reset();
    EXPECT_EQ(orec.load().raw, 0u);
}

TEST(LineArrayTest, ArraysAreLineAlignedAndZeroed)
{
    // Below 2 MiB an array starts on a cache line; from 2 MiB on (2^18
    // words) on a 2 MiB boundary, so huge pages cover it from its
    // first byte.
    constexpr std::size_t kTwoMiB = std::size_t{2} << 20;
    for (const std::size_t n : {std::size_t{1000}, std::size_t{1} << 18,
                                (std::size_t{1} << 18) + 1}) {
        LineArray<std::uint64_t> array(n);
        const std::size_t alignment =
            n * sizeof(std::uint64_t) >= kTwoMiB ? kTwoMiB : kCacheLineSize;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(array.begin()) %
                      alignment,
                  0u)
            << n;
        for (const std::uint64_t v : array)
            ASSERT_EQ(v, 0u) << n;
    }
}

} // namespace
} // namespace proteus::tm
