/**
 * Kill-9 crash-recovery hunter: each iteration forks a child that
 * hammers a durable store with cross-shard 2PC transfers and
 * acknowledged single-key ledger puts, arms the flight recorder to
 * SIGKILL the process at a randomized trace point mid-protocol, then
 * the parent recovers the WAL directory and asserts
 *
 *   - conservation: cross-shard transfers moved value, never created
 *     or destroyed it (2PC all-or-nothing across shards);
 *   - no lost acks: every transfer/put acknowledged before the kill
 *     is present after recovery (the ack counters are pwritten to a
 *     sideband file at fixed offsets — atomic 8-byte overwrites, so
 *     the parent never parses a torn line);
 *   - idempotence: recovering the recovered directory again changes
 *     nothing.
 *
 * Iteration count comes from PROTEUS_CRASH_ITERS (CI loops >= 100).
 * A failing iteration keeps its WAL directory under ./crash_hunter/
 * for upload as a CI artifact.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kvstore.hpp"

namespace proteus::kvstore {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kPoolBase = 1'000'000;
constexpr int kPoolKeys = 32;
constexpr std::uint64_t kInitialBalance = 1'000;
constexpr std::uint64_t kTransferCounterKey = 2'000'000;
constexpr std::uint64_t kLedgerBase = 3'000'000;
constexpr int kThreads = 3;

// Ack-file layout: fixed-offset u64 slots, overwritten in place, one
// writer per slot (monotonic counters — a kill mid-write only ever
// under-reports, which is the safe direction).
constexpr off_t kAckPreloaded = 0;               // 1 once pool durable
constexpr off_t kAckTransfers0 = 8;              // + 8*tid: acked 2PC
constexpr off_t kAckLedger0 = 8 + 8 * kThreads;  // + 8*tid: ledger seq

std::uint64_t
splitMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

KvStoreOptions
hunterOptions(const std::string &wal_dir, Durability mode)
{
    KvStoreOptions options;
    options.numShards = 4;
    options.log2SlotsPerShard = 12;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    options.telemetry = true; // armCrash fires through record()
    options.durability = mode;
    options.walDir = wal_dir;
    return options;
}

void
pwriteU64(int fd, off_t off, std::uint64_t v)
{
    (void)::pwrite(fd, &v, sizeof v, off);
}

std::uint64_t
preadU64(int fd, off_t off)
{
    std::uint64_t v = 0;
    (void)::pread(fd, &v, sizeof v, off);
    return v;
}

/** Child body; never returns (exits or is SIGKILLed). */
[[noreturn]] void
runChild(const std::string &wal_dir, const std::string &ack_path,
         std::uint64_t seed)
{
    const Durability mode = (splitMix(seed) & 1) != 0
                                ? Durability::kBuffered
                                : Durability::kFsyncGroup;
    const int ack_fd =
        ::open(ack_path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (ack_fd < 0)
        ::_exit(2);
    try {
        KvStore store(hunterOptions(wal_dir, mode));
        {
            auto session = store.openSession();
            for (int j = 0; j < kPoolKeys; ++j)
                if (!store.put(session, kPoolBase + j, kInitialBalance))
                    ::_exit(2);
            store.closeSession(session);
        }
        store.flushWal();
        pwriteU64(ack_fd, kAckPreloaded, 1);

        // Arm the bomb AFTER the pool is durable, at a randomized
        // protocol point. kWalFsync never fires under kBuffered — the
        // iteration then just exhausts its budget and exits cleanly.
        static const obs::TraceKind kPoints[] = {
            obs::TraceKind::kWalAppend,
            obs::TraceKind::kWalFsync,
            obs::TraceKind::kTwoPhasePrepare,
            obs::TraceKind::kTwoPhaseReserve,
            obs::TraceKind::kTwoPhaseFlip,
            obs::TraceKind::kTwoPhaseFinalize,
        };
        const obs::TraceKind point =
            kPoints[splitMix(seed ^ 0xabcd) % std::size(kPoints)];
        const std::uint64_t nth = 1 + splitMix(seed ^ 0x1234) % 40;
        store.flightRecorder().armCrash(point, nth);

        const int budget =
            mode == Durability::kFsyncGroup ? 400 : 4000;
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                auto session = store.openSession();
                std::uint64_t rng = splitMix(seed ^ (0x77u + t));
                std::uint64_t ledger_seq = 0;
                std::uint64_t acked = 0;
                for (int i = 0; i < budget; ++i) {
                    rng = splitMix(rng);
                    const std::uint64_t a =
                        kPoolBase + rng % kPoolKeys;
                    const std::uint64_t b =
                        kPoolBase + (rng >> 8) % kPoolKeys;
                    if (a == b)
                        continue;
                    const std::int64_t delta =
                        static_cast<std::int64_t>((rng >> 16) % 100);
                    std::vector<KvOp> ops;
                    ops.push_back(
                        {KvOp::Kind::kAdd, a,
                         static_cast<std::uint64_t>(-delta), false});
                    ops.push_back(
                        {KvOp::Kind::kAdd, b,
                         static_cast<std::uint64_t>(delta), false});
                    ops.push_back({KvOp::Kind::kAdd,
                                   kTransferCounterKey, 1, false});
                    if (store.multiOp(session, ops)) {
                        // Acked: the outcome is durable everywhere.
                        ++acked;
                        pwriteU64(ack_fd, kAckTransfers0 + 8 * t,
                                  acked);
                    }
                    if ((i & 7) == 0) {
                        ++ledger_seq;
                        if (store.put(session, kLedgerBase + t,
                                      ledger_seq))
                            pwriteU64(ack_fd, kAckLedger0 + 8 * t,
                                      ledger_seq);
                    }
                }
                store.closeSession(session);
            });
        }
        for (auto &worker : workers)
            worker.join();
    } catch (...) {
        ::_exit(3);
    }
    ::_exit(0); // bomb never went off this time
}

struct RecoveredState {
    std::uint64_t poolSum = 0;
    std::uint64_t transferCount = 0;
    std::vector<std::uint64_t> ledger;
};

RecoveredState
readBack(const std::string &wal_dir, Durability mode)
{
    RecoveredState state;
    KvStore store(hunterOptions(wal_dir, mode));
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (int j = 0; j < kPoolKeys; ++j) {
        EXPECT_TRUE(store.get(session, kPoolBase + j, &value))
            << "pool key " << j << " lost";
        state.poolSum += value;
    }
    if (store.get(session, kTransferCounterKey, &value))
        state.transferCount = value;
    for (int t = 0; t < kThreads; ++t) {
        value = 0;
        (void)store.get(session, kLedgerBase + t, &value);
        state.ledger.push_back(value);
    }
    store.closeSession(session);
    return state;
}

TEST(CrashRecoveryHunter, Kill9MidProtocolNeverLosesAckedCommits)
{
    int iters = 8;
    if (const char *env = std::getenv("PROTEUS_CRASH_ITERS"))
        iters = std::atoi(env);
    const fs::path root = fs::current_path() / "crash_hunter";
    fs::create_directories(root);

    int crashed = 0;
    for (int iter = 0; iter < iters; ++iter) {
        const std::uint64_t seed = splitMix(0xc0ffee + iter);
        const Durability mode = (splitMix(seed) & 1) != 0
                                    ? Durability::kBuffered
                                    : Durability::kFsyncGroup;
        const fs::path dir =
            root / ("iter-" + std::to_string(iter));
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::string wal_dir = (dir / "wal").string();
        const std::string ack_path = (dir / "ack").string();

        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0)
            runChild(wal_dir, ack_path, seed); // never returns

        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        const bool killed =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        ASSERT_TRUE(killed || clean)
            << "child died abnormally, status=" << status
            << " (dir kept: " << dir << ")";
        crashed += killed ? 1 : 0;

        const int ack_fd = ::open(ack_path.c_str(), O_RDONLY);
        const bool preloaded =
            ack_fd >= 0 && preadU64(ack_fd, kAckPreloaded) == 1;
        std::uint64_t acked_transfers = 0;
        std::uint64_t acked_ledger[kThreads] = {};
        if (ack_fd >= 0) {
            for (int t = 0; t < kThreads; ++t) {
                acked_transfers +=
                    preadU64(ack_fd, kAckTransfers0 + 8 * t);
                acked_ledger[t] = preadU64(ack_fd, kAckLedger0 + 8 * t);
            }
            ::close(ack_fd);
        }
        if (!preloaded) {
            // Killed before the pool was durable: nothing to assert.
            fs::remove_all(dir);
            continue;
        }

        const RecoveredState first = readBack(wal_dir, mode);
        // Conservation: transfers are zero-sum (mod 2^64, so debits
        // past zero still cancel exactly).
        EXPECT_EQ(first.poolSum, kPoolKeys * kInitialBalance)
            << "iter " << iter << " (dir kept: " << dir << ")";
        // No lost acks.
        EXPECT_GE(first.transferCount, acked_transfers)
            << "iter " << iter << " (dir kept: " << dir << ")";
        for (int t = 0; t < kThreads; ++t)
            EXPECT_GE(first.ledger[t], acked_ledger[t])
                << "iter " << iter << " thread " << t
                << " (dir kept: " << dir << ")";

        // Idempotence: recovery of the recovered directory.
        const RecoveredState second = readBack(wal_dir, mode);
        EXPECT_EQ(second.poolSum, first.poolSum);
        EXPECT_GE(second.transferCount, first.transferCount);

        if (!::testing::Test::HasFailure())
            fs::remove_all(dir);
        else
            GTEST_FAIL() << "crash hunter failed at iter " << iter
                         << "; surviving WAL dir: " << dir;
    }
    // Not an assert: a pathological seed set could dodge every bomb,
    // but near-always most iterations die mid-protocol.
    RecordProperty("crashed_iterations", crashed);
}

} // namespace
} // namespace proteus::kvstore
