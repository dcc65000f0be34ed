/**
 * Emulated-HTM specific behaviour: capacity aborts, retry budget and
 * fallback lock, requester-wins dooming, hybrid software path.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "tm/test_util.hpp"

namespace proteus::tm {
namespace {

TEST(SimHtmTest, WriteCapacityAbortRaised)
{
    SimHtmConfig cfg;
    cfg.writeCapacityLines = 8;
    SimHtm htm(cfg, 14);
    TxDesc desc(0, 1);
    htm.registerThread(desc);

    std::vector<std::uint64_t> xs(64, 0);
    desc.htmBudgetLeft = 1;
    htm.txBegin(desc);
    AbortCause cause = AbortCause::kNone;
    try {
        // Spread addresses so they land on distinct stripes.
        for (std::size_t i = 0; i < xs.size(); ++i)
            htm.txWrite(desc, &xs[i], 1);
        htm.txCommit(desc);
    } catch (const TxAbort &abort) {
        cause = abort.cause;
    }
    EXPECT_EQ(cause, AbortCause::kCapacity);
    for (const auto &x : xs)
        EXPECT_EQ(x, 0u) << "aborted hw writes must not be visible";
}

TEST(SimHtmTest, ReadCapacityAbortRaised)
{
    SimHtmConfig cfg;
    cfg.readCapacityLines = 8;
    SimHtm htm(cfg, 14);
    TxDesc desc(0, 1);
    htm.registerThread(desc);

    std::vector<std::uint64_t> xs(512, 0);
    desc.htmBudgetLeft = 1;
    htm.txBegin(desc);
    AbortCause cause = AbortCause::kNone;
    try {
        for (std::size_t i = 0; i < xs.size(); ++i)
            (void)htm.txRead(desc, &xs[i]);
        htm.txCommit(desc);
    } catch (const TxAbort &abort) {
        cause = abort.cause;
    }
    EXPECT_EQ(cause, AbortCause::kCapacity);
}

TEST(SimHtmTest, ZeroBudgetGoesToFallbackAndCommits)
{
    SimHtm htm({}, 14);
    TxDesc desc(0, 1);
    htm.registerThread(desc);

    std::uint64_t x = 0;
    desc.htmBudgetLeft = 0; // exhausted: must take the fallback lock
    htm.txBegin(desc);
    EXPECT_TRUE(desc.inFallback);
    htm.txWrite(desc, &x, 5);
    htm.txCommit(desc);
    EXPECT_EQ(x, 5u);
}

TEST(SimHtmTest, CapacityOverflowEventuallyCommitsViaFallback)
{
    SimHtmConfig cfg;
    cfg.writeCapacityLines = 4;
    SimHtm htm(cfg, 14);
    TxDesc desc(0, 1);
    htm.registerThread(desc);

    std::vector<std::uint64_t> xs(64, 0);
    testing::runTx(htm, desc, [&](TxDesc &d) {
        for (std::size_t i = 0; i < xs.size(); ++i)
            htm.txWrite(d, &xs[i], i + 1);
    });
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(xs[i], i + 1);
}

TEST(SimHtmTest, DoomedFlagAbortsTransaction)
{
    SimHtm htm({}, 14);
    TxDesc desc(0, 1);
    htm.registerThread(desc);

    std::uint64_t x = 0;
    desc.htmBudgetLeft = 5;
    htm.txBegin(desc);
    (void)htm.txRead(desc, &x);
    desc.doomed->store(true); // what a conflicting writer would do
    EXPECT_THROW((void)htm.txRead(desc, &x), TxAbort);
}

TEST(SimHtmTest, WriterDoomsConcurrentReader)
{
    SimHtm htm({}, 14);
    TxDesc reader(0, 1), writer(1, 2);
    htm.registerThread(reader);
    htm.registerThread(writer);

    std::uint64_t x = 0;

    reader.htmBudgetLeft = 5;
    htm.txBegin(reader);
    (void)htm.txRead(reader, &x); // publishes x in reader's signature

    writer.htmBudgetLeft = 5;
    htm.txBegin(writer);
    htm.txWrite(writer, &x, 1); // must doom the reader
    htm.txCommit(writer);

    EXPECT_TRUE(reader.doomed->load());
    EXPECT_THROW(htm.txCommit(reader), TxAbort);
    EXPECT_EQ(x, 1u);
}

TEST(SimHtmTest, FallbackAcquisitionDoomsSpeculators)
{
    SimHtm htm({}, 14);
    TxDesc hw(0, 1), fb(1, 2);
    htm.registerThread(hw);
    htm.registerThread(fb);

    std::uint64_t x = 0;
    hw.htmBudgetLeft = 5;
    htm.txBegin(hw);
    (void)htm.txRead(hw, &x);

    fb.htmBudgetLeft = 0;
    htm.txBegin(fb); // takes the fallback lock, dooms hw
    htm.txWrite(fb, &x, 7);
    htm.txCommit(fb);

    EXPECT_THROW(htm.txCommit(hw), TxAbort);
    EXPECT_EQ(x, 7u);
}

TEST(HybridNorecTest, BudgetExhaustionUsesSoftwarePath)
{
    HybridNorecTm hybrid({}, 14);
    TxDesc desc(0, 1);
    hybrid.registerThread(desc);

    std::uint64_t x = 0;
    desc.htmBudgetLeft = 0;
    hybrid.txBegin(desc);
    EXPECT_FALSE(desc.inHtm);
    hybrid.txWrite(desc, &x, 3);
    hybrid.txCommit(desc);
    EXPECT_EQ(x, 3u);
}

TEST(HybridNorecTest, SoftwareCommitAbortsHardwareTx)
{
    HybridNorecTm hybrid({}, 14);
    TxDesc hw(0, 1), sw(1, 2);
    hybrid.registerThread(hw);
    hybrid.registerThread(sw);

    std::uint64_t x = 0, y = 0;

    hw.htmBudgetLeft = 5;
    hybrid.txBegin(hw);
    EXPECT_TRUE(hw.inHtm);
    (void)hybrid.txRead(hw, &x);

    sw.htmBudgetLeft = 0;
    hybrid.txBegin(sw);
    hybrid.txWrite(sw, &y, 1); // disjoint data, but subscription is
    hybrid.txCommit(sw);       // seqlock-wide

    // The hw tx is doomed (or its seq snapshot is stale): its next
    // operation or its commit must fail.
    EXPECT_THROW(
        {
            hybrid.txWrite(hw, &x, 2);
            hybrid.txCommit(hw);
        },
        TxAbort);
    EXPECT_EQ(x, 0u);
    EXPECT_EQ(y, 1u);
}

TEST(HybridNorecTest, HardwareCommitForcesSoftwareRevalidation)
{
    HybridNorecTm hybrid({}, 14);
    TxDesc hw(0, 1), sw(1, 2);
    hybrid.registerThread(hw);
    hybrid.registerThread(sw);

    std::uint64_t x = 0;

    // Software tx reads x...
    sw.htmBudgetLeft = 0;
    hybrid.txBegin(sw);
    EXPECT_EQ(hybrid.txRead(sw, &x), 0u);

    // ...then a hardware tx commits a new value of x.
    hw.htmBudgetLeft = 5;
    hybrid.txBegin(hw);
    hybrid.txWrite(hw, &x, 9);
    hybrid.txCommit(hw);
    EXPECT_EQ(x, 9u);

    // The software tx's value-based validation must now fail at
    // commit (it wrote something, forcing validation).
    hybrid.txWrite(sw, &x, 1);
    EXPECT_THROW(hybrid.txCommit(sw), TxAbort);
    EXPECT_EQ(x, 9u);
}

TEST(SimHtmTest, ConcurrentStressMixedFallback)
{
    SimHtmConfig cfg;
    cfg.writeCapacityLines = 16; // force frequent capacity fallbacks
    SimHtm htm(cfg, 14);

    constexpr int kThreads = 4;
    constexpr int kOps = 1200;
    std::vector<std::uint64_t> accounts(32, 100);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TxDesc desc(t, 500 + t);
            htm.registerThread(desc);
            Rng rng(900 + t);
            for (int i = 0; i < kOps; ++i) {
                const bool big = rng.bernoulli(0.2);
                testing::runTx(htm, desc, [&](TxDesc &d) {
                    if (big) {
                        // Touches > capacity lines: must fall back.
                        std::uint64_t sum = 0;
                        for (auto &a : accounts)
                            sum += htm.txRead(d, &a);
                        htm.txWrite(d, &accounts[0], sum - sum + 100);
                        for (std::size_t k = 1; k < accounts.size(); ++k)
                            htm.txWrite(d, &accounts[k], 100);
                    } else {
                        const auto i1 = rng.nextBounded(accounts.size());
                        const auto i2 = rng.nextBounded(accounts.size());
                        if (i1 == i2)
                            return;
                        const auto a = htm.txRead(d, &accounts[i1]);
                        const auto b = htm.txRead(d, &accounts[i2]);
                        if (a == 0)
                            return;
                        htm.txWrite(d, &accounts[i1], a - 1);
                        htm.txWrite(d, &accounts[i2], b + 1);
                    }
                });
            }
            htm.deregisterThread(desc);
        });
    }
    for (auto &th : threads)
        th.join();
    // The "big" tx resets all accounts to 100; transfers conserve the
    // sum. Afterwards the total must be exactly 32*100 if the last big
    // tx dominates... which it need not. Instead assert bounds: the
    // sum is conserved modulo big-tx resets, so it equals 3200.
    std::uint64_t total = 0;
    for (const auto &a : accounts)
        total += a;
    EXPECT_EQ(total, 3200u);
}

TEST(SimHtmTest, FallbackWaitsOutHardwareCommitInFlight)
{
    // Regression: a fallback transaction that starts between a
    // hardware commit's checks and its write-back must not touch the
    // words that commit still owns, or its increment overwrites the
    // committer's (lost updates). The armed point yields inside every
    // hardware commit, holding that window open wide.
    fault::FaultSpec always;
    always.trigger = fault::FaultSpec::Trigger::kProbability;
    always.probability = 1.0;
    always.oneShot = false;
    fault::arm("htm.commit_window", always);

    SimHtm htm({}, 14);
    constexpr int kThreads = 4;
    constexpr int kIncrementsPerThread = 2000;
    std::uint64_t counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TxDesc desc(t, 500 + t);
            htm.registerThread(desc);
            for (int i = 0; i < kIncrementsPerThread; ++i) {
                testing::runTx(htm, desc, [&](TxDesc &d) {
                    htm.txWrite(d, &counter, htm.txRead(d, &counter) + 1);
                });
            }
            htm.deregisterThread(desc);
        });
    }
    for (auto &th : threads)
        th.join();
    const std::uint64_t fires = fault::firesOf("htm.commit_window");
    fault::disarmAll();

    EXPECT_GT(fires, 0u) << "no hardware commit reached the window";
    EXPECT_EQ(counter,
              static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

} // namespace
} // namespace proteus::tm
