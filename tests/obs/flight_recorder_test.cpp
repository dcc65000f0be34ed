/**
 * Flight-recorder suite:
 *
 *  1. Ring mechanics — events survive into dumpRecent(), sorted by
 *     (seq, order); wrap-around keeps only the newest kSlotsPerRing
 *     per ring; maxEvents trims from the old end; disabled recorders
 *     record nothing.
 *  2. Concurrent recording — threads racing record() against
 *     dumpRecent() stay TSan-clean and every surviving event is
 *     well-formed; past kRings threads (two threads on one ring) every
 *     order marker is nonzero and unique, and each thread's increase.
 *  3. Racing KvStore commits — cross-shard 2PC writers race; the
 *     store recorder's dump must contain one flip per committed
 *     multiOp, merged in commitSeq order with distinct sequences
 *     (the commit-point order IS the dump order).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "obs/flight_recorder.hpp"

namespace proteus::obs {
namespace {

TEST(FlightRecorderTest, DumpSortsBySeqThenOrder)
{
    FlightRecorder recorder;
    // Record out of seq order; same-seq events must keep record order.
    recorder.record(TraceKind::kTwoPhaseFlip, 1, 30);
    recorder.record(TraceKind::kTwoPhasePrepare, 0, 10, 2, 5);
    recorder.record(TraceKind::kTwoPhaseReserve, -1, 10);
    recorder.record(TraceKind::kSnapshotRetry, 2, 20, 1);

    const std::vector<TraceEvent> events = recorder.dumpRecent();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].seq, 10u);
    EXPECT_EQ(events[0].kind, TraceKind::kTwoPhasePrepare);
    EXPECT_EQ(events[0].shard, 0);
    EXPECT_EQ(events[0].a, 2u);
    EXPECT_EQ(events[0].b, 5u);
    EXPECT_EQ(events[1].seq, 10u);
    EXPECT_EQ(events[1].kind, TraceKind::kTwoPhaseReserve);
    EXPECT_EQ(events[1].shard, -1);
    EXPECT_LT(events[0].order, events[1].order);
    EXPECT_EQ(events[2].kind, TraceKind::kSnapshotRetry);
    EXPECT_EQ(events[3].kind, TraceKind::kTwoPhaseFlip);

    EXPECT_EQ(events[3].format(), "[seq 30] shard 1 2pc.flip a=0 b=0");

    // maxEvents keeps the most recent tail.
    const std::vector<TraceEvent> tail = recorder.dumpRecent(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].kind, TraceKind::kSnapshotRetry);
    EXPECT_EQ(tail[1].kind, TraceKind::kTwoPhaseFlip);
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndDisabledRecordsNothing)
{
    FlightRecorder recorder;
    const std::size_t n = FlightRecorder::kSlotsPerRing + 100;
    for (std::size_t i = 0; i < n; ++i)
        recorder.record(TraceKind::kGrow, 0, i);
    const std::vector<TraceEvent> events = recorder.dumpRecent();
    // One thread = one ring: exactly kSlotsPerRing survivors, and
    // they are the newest ones.
    ASSERT_EQ(events.size(), FlightRecorder::kSlotsPerRing);
    EXPECT_EQ(events.front().seq, 100u);
    EXPECT_EQ(events.back().seq, n - 1);

    FlightRecorder off(false);
    off.record(TraceKind::kGrow, 0, 1);
    EXPECT_TRUE(off.dumpRecent().empty());
    off.setEnabled(true);
    off.record(TraceKind::kGrow, 0, 2);
    EXPECT_EQ(off.dumpRecent().size(), 1u);
}

TEST(FlightRecorderTest, ConcurrentRecordAndDumpStayWellFormed)
{
    FlightRecorder recorder;
    constexpr int kThreads = 6;
    constexpr std::uint64_t kPerThread = 20000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                recorder.record(TraceKind::kSnapshotRetry, t, i, i, t);
        });
    }
    std::thread reader([&] {
        while (!stop.load()) {
            for (const TraceEvent &ev : recorder.dumpRecent(256)) {
                // A torn slot would mix fields from two events.
                ASSERT_EQ(ev.kind, TraceKind::kSnapshotRetry);
                ASSERT_EQ(ev.a, ev.seq);
                ASSERT_EQ(ev.b, static_cast<std::uint64_t>(ev.shard));
                ASSERT_NE(ev.order, 0u);
            }
        }
    });
    for (std::thread &w : writers)
        w.join();
    stop.store(true);
    reader.join();

    // Quiescent dump is fully sorted.
    const std::vector<TraceEvent> events = recorder.dumpRecent();
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_GE(events[i].seq, events[i - 1].seq);
        if (events[i].seq == events[i - 1].seq) {
            EXPECT_GT(events[i].order, events[i - 1].order);
        }
    }
}

TEST(FlightRecorderTest, MarkersStayUniqueWhenThreadsShareARing)
{
    FlightRecorder recorder;
    // One thread more than rings: two of them record into one ring.
    constexpr int kThreads = static_cast<int>(FlightRecorder::kRings) + 1;
    constexpr std::uint64_t kPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                recorder.record(TraceKind::kSnapshotRetry, t, i);
        });
    }
    for (std::thread &th : threads)
        th.join();

    // A shared ring holds 2 * kPerThread events: none was recycled.
    const std::vector<TraceEvent> events = recorder.dumpRecent();
    ASSERT_EQ(events.size(), kThreads * kPerThread);
    std::set<std::uint64_t> markers;
    std::vector<std::vector<std::uint64_t>> byThread(
        kThreads, std::vector<std::uint64_t>(kPerThread, 0));
    for (const TraceEvent &ev : events) {
        EXPECT_NE(ev.order, 0u);
        EXPECT_TRUE(markers.insert(ev.order).second)
            << "marker " << ev.order << " drawn twice";
        ASSERT_GE(ev.shard, 0);
        ASSERT_LT(ev.shard, kThreads);
        ASSERT_LT(ev.seq, kPerThread);
        byThread[static_cast<std::size_t>(ev.shard)][ev.seq] = ev.order;
    }
    for (int t = 0; t < kThreads; ++t) {
        const std::vector<std::uint64_t> &own =
            byThread[static_cast<std::size_t>(t)];
        for (std::uint64_t i = 1; i < kPerThread; ++i)
            EXPECT_GT(own[i], own[i - 1]) << "thread " << t << " event " << i;
    }
}

TEST(FlightRecorderTest, RacingKvStoreCommitsMergeInCommitSeqOrder)
{
    using namespace proteus::kvstore;
    constexpr int kWriters = 4;
    constexpr int kCommitsPerWriter = 200;
    constexpr std::uint64_t kKeys = 64;

    KvStoreOptions options;
    options.numShards = 4;
    options.log2SlotsPerShard = 10;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(options);

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            std::vector<KvOp> ops;
            for (int i = 0; i < kCommitsPerWriter; ++i) {
                // Two keys on distinct shards force the 2PC path.
                const std::uint64_t base =
                    static_cast<std::uint64_t>(w * kCommitsPerWriter + i);
                std::uint64_t first = base % kKeys;
                std::uint64_t second = (first + 1) % kKeys;
                while (store.shardOf(second) == store.shardOf(first))
                    second = (second + 1) % kKeys;
                ops.clear();
                ops.push_back({KvOp::Kind::kPut, first, base, false});
                ops.push_back(
                    {KvOp::Kind::kPut, second, base + 1, false});
                ASSERT_TRUE(store.multiOp(session, ops));
            }
            store.closeSession(session);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const std::vector<TraceEvent> events =
        store.flightRecorder().dumpRecent();
    ASSERT_FALSE(events.empty());

    std::set<std::uint64_t> flipSeqs;
    std::uint64_t lastSeq = 0;
    for (const TraceEvent &ev : events) {
        EXPECT_GE(ev.seq, lastSeq); // merged in commitSeq order
        lastSeq = ev.seq;
        if (ev.kind == TraceKind::kTwoPhaseFlip) {
            // Every commit point reserved a distinct store-wide seq.
            EXPECT_TRUE(flipSeqs.insert(ev.seq).second);
        }
    }
    // Rings are big enough that no flip was recycled, and every
    // multiOp crossed shards, so each commit contributed one flip.
    EXPECT_EQ(flipSeqs.size(),
              static_cast<std::size_t>(kWriters * kCommitsPerWriter));
    EXPECT_LE(*flipSeqs.rbegin(), store.commitSequence());
}

} // namespace
} // namespace proteus::obs
