/**
 * Fault-armed chaos hunter: each iteration builds a durable store in
 * a scratch directory, arms a seeded schedule of injected I/O faults
 * (failed appends, spills, fsyncs, short writes, checkpoint faults),
 * then hammers it with cross-shard 2PC transfers, acknowledged ledger
 * puts and concurrent checkpoints. Whatever the schedule does to the
 * durability plane, the store must degrade — never corrupt:
 *
 *   - in-memory conservation: transfers stay zero-sum even when the
 *     WAL is failing under them (aborts unwind fully, flips apply
 *     fully);
 *   - graceful degradation: once health leaves kHealthy, writes fail
 *     fast with kReadOnly and snapshot reads keep serving a
 *     consistent state;
 *   - no lost acks: after disarming and reopening the directory,
 *     every acknowledged transfer/put is present (un-acked writes are
 *     of indeterminate durability and asserted neither way);
 *   - idempotence: recovering the recovered directory again changes
 *     nothing.
 *
 * Iteration count comes from PROTEUS_FAULT_ITERS (CI loops >= 100);
 * schedules are derived from the iteration seed, so a failure replays
 * exactly. A failing iteration keeps its WAL directory plus the fault
 * schedule (fault_schedule.txt) under ./fault_hunter/ for upload as a
 * CI artifact.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
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
constexpr int kOpsPerThread = 200;

std::uint64_t
splitMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

KvStoreOptions
chaosOptions(const std::string &wal_dir, Durability mode)
{
    KvStoreOptions options;
    options.numShards = 4;
    options.log2SlotsPerShard = 12;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    options.telemetry = true;
    options.durability = mode;
    options.walDir = wal_dir;
    options.walFlushBytes = 1 << 10; // small: batches hit the spill path
    return options;
}

/** One entry of the armable menu; which entries (and when they fire)
 *  is drawn from the iteration seed. */
struct ChaosFault {
    const char *point;
    int err;
};

constexpr ChaosFault kMenu[] = {
    {"wal.fsync", EIO},
    {"wal.append.write", EIO},
    {"wal.append.write", ENOSPC},
    {"wal.spill.write", ENOSPC},
    {"wal.append.short_write", EIO},
    {"wal.rotate.fsync", EIO},
    {"ckpt.write", ENOSPC},
    {"ckpt.fsync", EIO},
    {"ckpt.rename", EIO},
};

/** Arm 1-2 menu entries with seeded nth-hit triggers; returns the
 *  human-readable schedule for the artifact. */
std::string
armSchedule(std::uint64_t seed)
{
    const int count = 1 + static_cast<int>(splitMix(seed ^ 0x51ed) % 2);
    for (int i = 0; i < count; ++i) {
        const std::uint64_t draw = splitMix(seed ^ (0xfa0ull + i));
        const ChaosFault &choice = kMenu[draw % std::size(kMenu)];
        fault::FaultSpec spec;
        spec.trigger = fault::FaultSpec::Trigger::kNth;
        spec.nth = 1 + splitMix(draw) % 200;
        spec.err = choice.err;
        if (std::string(choice.point) == "wal.append.short_write")
            spec.arg = 1 + splitMix(draw ^ 0xbeef) % 40;
        fault::arm(choice.point, spec);
    }
    return fault::describeArmed();
}

struct AckState {
    std::uint64_t transfers = 0;
    std::uint64_t ledger[kThreads] = {};
};

struct RecoveredState {
    std::uint64_t poolSum = 0;
    std::uint64_t transferCount = 0;
    std::vector<std::uint64_t> ledger;
};

RecoveredState
readBack(const std::string &wal_dir, Durability mode)
{
    RecoveredState state;
    KvStore store(chaosOptions(wal_dir, mode));
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

/** Live phase: preload, arm, hammer, assert degradation semantics.
 *  Returns the acks the recovery phase must honour. */
AckState
runLivePhase(const std::string &wal_dir, Durability mode,
             std::uint64_t seed)
{
    AckState acks;
    KvStore store(chaosOptions(wal_dir, mode));
    {
        auto session = store.openSession();
        for (int j = 0; j < kPoolKeys; ++j)
            EXPECT_TRUE(
                store.put(session, kPoolBase + j, kInitialBalance));
        store.closeSession(session);
    }
    store.flushWal();

    // Arm only after the pool is durable, so conservation has a
    // well-defined baseline.
    armSchedule(seed);

    std::vector<std::uint64_t> acked_transfers(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            auto session = store.openSession();
            std::uint64_t rng = splitMix(seed ^ (0x77u + t));
            std::uint64_t ledger_seq = 0;
            for (int i = 0; i < kOpsPerThread; ++i) {
                rng = splitMix(rng);
                const std::uint64_t a = kPoolBase + rng % kPoolKeys;
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
                ops.push_back(
                    {KvOp::Kind::kAdd, kTransferCounterKey, 1, false});
                if (store.multiOp(session, ops))
                    ++acked_transfers[static_cast<std::size_t>(t)];
                if ((i & 7) == 0) {
                    ++ledger_seq;
                    if (store.put(session, kLedgerBase + t,
                                  ledger_seq))
                        acks.ledger[t] = ledger_seq;
                }
                // Thread 0 interleaves checkpoints so ckpt.* faults
                // and rotation race real traffic.
                if (t == 0 && (i % 64) == 63)
                    (void)store.checkpoint(session);
            }
            store.closeSession(session);
        });
    }
    for (auto &worker : workers)
        worker.join();
    for (int t = 0; t < kThreads; ++t)
        acks.transfers += acked_transfers[static_cast<std::size_t>(t)];

    // Whatever fired, the live store must still be consistent: the
    // 2PC unwind/flip discipline keeps transfers zero-sum in memory.
    auto session = store.openSession();
    std::uint64_t sum = 0;
    std::uint64_t value = 0;
    for (int j = 0; j < kPoolKeys; ++j) {
        EXPECT_TRUE(store.get(session, kPoolBase + j, &value));
        sum += value;
    }
    EXPECT_EQ(sum, kPoolKeys * kInitialBalance)
        << "live conservation broke";
    if (store.health() != Health::kHealthy) {
        // Degraded: writes fail fast *before* touching memory, reads
        // keep serving.
        EXPECT_EQ(store.put(session, 42, 1).status,
                  KvStatus::kReadOnly);
        // Degradation is always evidenced in telemetry: either a WAL
        // error or a checkpoint failure (ckpt ENOSPC degrades too).
        EXPECT_GE(store.telemetry().value("wal_errors") +
                      store.telemetry().value("checkpoint_failures"),
                  1u);
    }
    store.closeSession(session);
    return acks;
}

TEST(FaultChaosHunter, InjectedIoFaultsNeverLoseAckedWrites)
{
    int iters = 6;
    if (const char *env = std::getenv("PROTEUS_FAULT_ITERS"))
        iters = std::atoi(env);
    const fs::path root = fs::current_path() / "fault_hunter";
    fs::create_directories(root);

    for (int iter = 0; iter < iters; ++iter) {
        const std::uint64_t seed = splitMix(0xfa017 + iter);
        const Durability mode = (splitMix(seed) & 1) != 0
                                    ? Durability::kBuffered
                                    : Durability::kFsyncGroup;
        const fs::path dir = root / ("iter-" + std::to_string(iter));
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::string wal_dir = (dir / "wal").string();

        const AckState acks = runLivePhase(wal_dir, mode, seed);
        // Record the schedule (with fire counts) before disarming, so
        // a kept artifact shows exactly what was injected and when.
        const std::string schedule = fault::describeArmed();
        // Recovery itself must never run against armed faults the
        // schedule aimed at the live run.
        fault::disarmAll();
        // Recovery compacts (the constructor checkpoints), so keep a
        // pristine pre-recovery image for the artifact: without it a
        // failure's most interesting evidence is gone.
        fs::copy(wal_dir, dir / "wal.prerecovery",
                 fs::copy_options::recursive);

        const RecoveredState first = readBack(wal_dir, mode);
        EXPECT_EQ(first.poolSum, kPoolKeys * kInitialBalance)
            << "iter " << iter << " (dir kept: " << dir << ")";
        EXPECT_GE(first.transferCount, acks.transfers)
            << "iter " << iter << " (dir kept: " << dir << ")";
        for (int t = 0; t < kThreads; ++t)
            EXPECT_GE(first.ledger[static_cast<std::size_t>(t)],
                      acks.ledger[t])
                << "iter " << iter << " thread " << t
                << " (dir kept: " << dir << ")";

        // Idempotence: recovering the recovered directory.
        const RecoveredState second = readBack(wal_dir, mode);
        EXPECT_EQ(second.poolSum, first.poolSum);
        EXPECT_GE(second.transferCount, first.transferCount);

        if (!::testing::Test::HasFailure()) {
            fs::remove_all(dir);
        } else {
            std::ofstream(dir / "fault_schedule.txt")
                << "seed=" << seed << " mode="
                << (mode == Durability::kBuffered ? "buffered"
                                                  : "fsync_group")
                << "\n"
                << schedule;
            GTEST_FAIL() << "fault chaos hunter failed at iter "
                         << iter << "; surviving WAL dir + schedule: "
                         << dir;
        }
    }
}

} // namespace
} // namespace proteus::kvstore
