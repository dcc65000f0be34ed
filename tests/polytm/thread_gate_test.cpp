#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "polytm/thread_gate.hpp"

namespace proteus::polytm {
namespace {

TEST(ThreadGateTest, EnterExitLeavesStateClean)
{
    ThreadGate gate;
    gate.enter(0);
    EXPECT_EQ(gate.rawState(0), 1u);
    gate.exit(0);
    EXPECT_EQ(gate.rawState(0), 0u);
}

TEST(ThreadGateTest, BlockOnIdleThreadReturnsImmediately)
{
    ThreadGate gate;
    gate.block(3);
    EXPECT_TRUE(gate.blocked(3));
    gate.unblock(3);
    EXPECT_FALSE(gate.blocked(3));
}

TEST(ThreadGateTest, BlockedThreadParksUntilUnblocked)
{
    ThreadGate gate;
    gate.block(0);

    std::atomic<bool> entered{false};
    std::thread worker([&] {
        gate.enter(0);
        entered.store(true);
        gate.exit(0);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(entered.load());

    gate.unblock(0);
    worker.join();
    EXPECT_TRUE(entered.load());
}

TEST(ThreadGateTest, BlockWaitsForInFlightTransaction)
{
    ThreadGate gate;
    std::atomic<bool> block_returned{false};

    gate.enter(0); // simulate an in-flight transaction

    std::thread adapter([&] {
        gate.block(0);
        block_returned.store(true);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(block_returned.load());

    gate.exit(0); // transaction ends; block() may now return
    adapter.join();
    EXPECT_TRUE(block_returned.load());
    gate.unblock(0);
}

TEST(ThreadGateTest, NestedBlocksRequireMatchingUnblocks)
{
    ThreadGate gate;
    gate.block(0);
    gate.block(0);
    EXPECT_TRUE(gate.blocked(0));
    gate.unblock(0);
    EXPECT_TRUE(gate.blocked(0));
    gate.unblock(0);
    EXPECT_FALSE(gate.blocked(0));
}

TEST(ThreadGateTest, ManyThreadsEnterExitConcurrently)
{
    ThreadGate gate;
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                gate.enter(t);
                gate.exit(t);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(gate.rawState(t), 0u);
}

TEST(ThreadGateTest, BlockUnblockRaceWithEnteringThread)
{
    // The adapter repeatedly toggles a thread that hammers the gate;
    // at the end everything must drain to a clean state.
    ThreadGate gate;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> entries{0};

    std::thread worker([&] {
        while (!stop.load()) {
            gate.enter(0);
            entries.fetch_add(1);
            gate.exit(0);
        }
    });
    // Toggle only once the worker is hammering: on a loaded host the
    // 200 toggles can otherwise finish before the worker first runs,
    // and the race under test never happens.
    while (entries.load() == 0)
        std::this_thread::yield();

    for (int i = 0; i < 200; ++i) {
        gate.block(0);
        std::this_thread::yield();
        gate.unblock(0);
    }
    stop.store(true);
    worker.join();
    EXPECT_EQ(gate.rawState(0), 0u);
    EXPECT_GT(entries.load(), 0u);
}

TEST(ThreadGateTest, OutOfRangeTidFailsLoudly)
{
    // A driver spawning more workers than tm::kMaxThreads must get a
    // clear error, not a scribble past the slot array.
    ThreadGate gate;
    EXPECT_THROW(gate.enter(tm::kMaxThreads), std::out_of_range);
    EXPECT_THROW(gate.enter(-1), std::out_of_range);
    EXPECT_THROW(gate.exit(tm::kMaxThreads), std::out_of_range);
    EXPECT_THROW(gate.block(tm::kMaxThreads + 7), std::out_of_range);
    EXPECT_THROW(gate.unblock(-3), std::out_of_range);
    EXPECT_THROW(gate.blocked(tm::kMaxThreads), std::out_of_range);
    EXPECT_THROW((void)gate.rawState(tm::kMaxThreads),
                 std::out_of_range);
    // In-range tids still work after the failed calls.
    gate.enter(tm::kMaxThreads - 1);
    gate.exit(tm::kMaxThreads - 1);
    EXPECT_EQ(gate.rawState(tm::kMaxThreads - 1), 0u);
}

} // namespace
} // namespace proteus::polytm
