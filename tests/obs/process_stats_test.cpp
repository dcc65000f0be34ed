/**
 * The `process_anon_huge_bytes` gauge's parser on fixed smaps_rollup
 * text: the kB field becomes bytes, a missing field or empty text reads
 * 0, and only the AnonHugePages line counts. The live reading is
 * checked through a store's telemetry.
 */

#include <gtest/gtest.h>

#include <string>

#include "kvstore/kvstore.hpp"
#include "obs/process_stats.hpp"

namespace proteus::obs {
namespace {

const char *const kRollup =
    "55d0c0a00000-7ffd1e5f3000 ---p 00000000 00:00 0  [rollup]\n"
    "Rss:              412300 kB\n"
    "Anonymous:        401220 kB\n"
    "LazyFree:              0 kB\n"
    "AnonHugePages:    270336 kB\n"
    "ShmemPmdMapped:        0 kB\n"
    "FilePmdMapped:      2048 kB\n"
    "Private_Hugetlb:       0 kB\n";

TEST(ProcessStatsTest, ReadsAnonHugePagesInBytes)
{
    EXPECT_EQ(anonHugeBytes(kRollup), std::uint64_t{270336} * 1024);
}

TEST(ProcessStatsTest, MissingFieldReadsZero)
{
    EXPECT_EQ(anonHugeBytes(""), 0u);
    EXPECT_EQ(anonHugeBytes("Rss:  100 kB\nFilePmdMapped:  2048 kB\n"), 0u);
    // A field whose name only ends like it is not it.
    EXPECT_EQ(anonHugeBytes("XAnonHugePages:  4096 kB\n"), 0u);
}

TEST(ProcessStatsTest, LastLineWithoutNewline)
{
    EXPECT_EQ(anonHugeBytes("Rss: 1 kB\nAnonHugePages:\t2048 kB"),
              std::uint64_t{2048} * 1024);
    EXPECT_EQ(anonHugeBytes("AnonHugePages:       0 kB\n"), 0u);
}

TEST(ProcessStatsTest, StoreTelemetryExportsTheGauge)
{
    kvstore::KvStore store(kvstore::KvStoreOptions{});
    const TelemetrySnapshot snap = store.telemetry();
    const MetricSample *gauge = snap.find("process_anon_huge_bytes");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->kind, MetricKind::kGauge);
    // Whole huge pages only (0 on a host whose THP mode is `never`).
    EXPECT_EQ(snap.value("process_anon_huge_bytes") % (std::uint64_t{2} << 20),
              0u);
}

} // namespace
} // namespace proteus::obs
