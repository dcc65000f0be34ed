/**
 * Single-threaded semantic tests, parameterized over every backend and
 * the emulated HTM forced onto its fallback lock: committed writes
 * persist, read-own-writes, explicit abort rolls back, large write
 * sets survive, reset() clears metadata.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tm/test_util.hpp"

namespace proteus::tm {
namespace {

using testing::makeBackend;
using testing::runTx;

/** Instantiation prefix of the emulated HTM with a zero retry budget:
 *  every attempt runs on its fallback lock. */
constexpr std::string_view kHtmFallback = "HtmFallback/";

class BackendSingleTest : public ::testing::TestWithParam<BackendKind>
{
  protected:
    void
    SetUp() override
    {
        const std::string_view suite = ::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->test_suite_name();
        fallback_ = suite.substr(0, kHtmFallback.size()) == kHtmFallback;
        backend_ = makeBackend(GetParam());
        desc_ = std::make_unique<TxDesc>(0, 1234);
        backend_->registerThread(*desc_);
    }

    void
    TearDown() override
    {
        backend_->deregisterThread(*desc_);
    }

    template <typename F>
    void
    run(F &&body)
    {
        runTx(*backend_, *desc_, body, fallback_ ? 0 : 5);
    }

    bool fallback_ = false;
    std::unique_ptr<TmBackend> backend_;
    std::unique_ptr<TxDesc> desc_;
};

TEST_P(BackendSingleTest, CommitMakesWritesVisible)
{
    std::uint64_t x = 0, y = 0;
    run([&](TxDesc &d) {
        backend_->txWrite(d, &x, 7);
        backend_->txWrite(d, &y, 9);
    });
    EXPECT_EQ(x, 7u);
    EXPECT_EQ(y, 9u);
}

TEST_P(BackendSingleTest, ReadSeesCommittedState)
{
    std::uint64_t x = 123;
    std::uint64_t seen = 0;
    run([&](TxDesc &d) { seen = backend_->txRead(d, &x); });
    EXPECT_EQ(seen, 123u);
}

TEST_P(BackendSingleTest, ReadOwnWrites)
{
    std::uint64_t x = 1;
    std::uint64_t seen = 0;
    run([&](TxDesc &d) {
        backend_->txWrite(d, &x, 2);
        seen = backend_->txRead(d, &x);
    });
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(x, 2u);
}

TEST_P(BackendSingleTest, WriteAfterReadSameLocation)
{
    std::uint64_t x = 10;
    run([&](TxDesc &d) {
        const std::uint64_t v = backend_->txRead(d, &x);
        backend_->txWrite(d, &x, v + 5);
        EXPECT_EQ(backend_->txRead(d, &x), v + 5);
    });
    EXPECT_EQ(x, 15u);
}

TEST_P(BackendSingleTest, ExplicitAbortRollsBack)
{
    // Runs on every backend, including the global lock: its in-place
    // writes are undo-logged, so explicit aborts restore memory.
    std::uint64_t x = 5;
    bool aborted_once = false;
    run([&](TxDesc &d) {
        backend_->txWrite(d, &x, 99);
        if (!aborted_once) {
            aborted_once = true;
            backend_->abortTx(d, AbortCause::kExplicit);
        }
    });
    // First attempt aborted (no 99 visible in between), second
    // attempt committed.
    EXPECT_TRUE(aborted_once);
    EXPECT_EQ(x, 99u);
}

TEST_P(BackendSingleTest, AbortedWritesNeverVisible)
{
    std::uint64_t x = 5;
    int attempts = 0;
    run([&](TxDesc &d) {
        ++attempts;
        if (attempts == 1) {
            backend_->txWrite(d, &x, 42);
            // The global lock and the HTM fallback write in place
            // (undo-logged); every other backend buffers, and a
            // buffered write must not leak to memory before commit.
            // Either way the abort below must leave x == 5 — the
            // semantic property.
            if (!fallback_ && GetParam() != BackendKind::kGlobalLock) {
                EXPECT_EQ(x, 5u)
                    << "redo-log write leaked before commit";
            }
            backend_->abortTx(d, AbortCause::kExplicit);
        }
    });
    EXPECT_EQ(x, 5u);
}

TEST_P(BackendSingleTest, LargeWriteSetCommits)
{
    std::vector<std::uint64_t> xs(3000, 0);
    run([&](TxDesc &d) {
        for (std::size_t i = 0; i < xs.size(); ++i)
            backend_->txWrite(d, &xs[i], i + 1);
    });
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(xs[i], i + 1);
}

TEST_P(BackendSingleTest, SequentialTransactionsAccumulate)
{
    std::uint64_t counter = 0;
    for (int i = 0; i < 100; ++i) {
        run([&](TxDesc &d) {
            backend_->txWrite(d, &counter,
                              backend_->txRead(d, &counter) + 1);
        });
    }
    EXPECT_EQ(counter, 100u);
}

TEST_P(BackendSingleTest, ResetWhileQuiescedKeepsWorking)
{
    std::uint64_t x = 0;
    run([&](TxDesc &d) { backend_->txWrite(d, &x, 1); });
    backend_->reset();
    run([&](TxDesc &d) {
        backend_->txWrite(d, &x, backend_->txRead(d, &x) + 1);
    });
    EXPECT_EQ(x, 2u);
}

TEST_P(BackendSingleTest, ReadOnlyTransactionCommits)
{
    std::uint64_t x = 77;
    std::uint64_t total = 0;
    run([&](TxDesc &d) {
        total = 0;
        for (int i = 0; i < 10; ++i)
            total += backend_->txRead(d, &x);
    });
    EXPECT_EQ(total, 770u);
}

std::string
kindName(const ::testing::TestParamInfo<BackendKind> &info)
{
    return std::string(backendName(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSingleTest,
                         ::testing::ValuesIn(testing::allBackendKinds()),
                         kindName);

INSTANTIATE_TEST_SUITE_P(HtmFallback, BackendSingleTest,
                         ::testing::Values(BackendKind::kSimHtm),
                         kindName);

} // namespace
} // namespace proteus::tm
