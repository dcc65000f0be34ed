/**
 * @file
 * FlightRecorder: lock-free per-thread rings of trace events for
 * post-hoc debugging of concurrent store internals.
 *
 * Each thread (by process-wide ordinal) records into one of kRings
 * fixed-size rings, so recording never blocks and never contends with
 * other threads' rings (threads whose ordinals are kRings apart share
 * one). An event is five u64 words — kind+shard, the store-wide
 * commitSeq it was stamped with, two kind-specific payloads, and an
 * order marker taken from the ring it already advances:
 * ((head + 1) << 6) | ring, where head is the ring position the event
 * claimed. The marker is nonzero, unique, and increases within each
 * thread, and drawing it touches no line that all threads share. It
 * is written LAST with release order, so a reader either sees a
 * fully-written event or skips the slot; all slot accesses are
 * atomic, keeping concurrent dump-while-recording TSan-clean.
 *
 * dumpRecent() walks every ring and merges the surviving events in
 * (commitSeq, order) order. Events stamped with the same commitSeq
 * (e.g. several prepares racing before one reserve) keep record order
 * within a thread; across threads they are ordered by ring position,
 * then ring index, which says nothing about which was recorded first.
 * Dumps taken while recording continues are best-effort: a slot
 * overwritten mid-read is detected via the marker and dropped, and the
 * oldest events in a busy ring may already have been recycled. That
 * trade — bounded memory, zero hot-path coordination — is the point
 * of a flight recorder.
 */

#ifndef PROTEUS_OBS_FLIGHT_RECORDER_HPP
#define PROTEUS_OBS_FLIGHT_RECORDER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cacheline.hpp"

namespace proteus::obs {

enum class TraceKind : std::uint16_t
{
    kNone = 0,
    // 2PC phases (multiOpTwoPhaseWrite).
    kTwoPhasePrepare,  // a = shards touched, b = ops
    kTwoPhaseReserve,  // seq = commitSeq reserved
    kTwoPhaseFlip,     // record flipped to committed at seq
    kTwoPhaseFinalize, // a = intents finalized
    kTwoPhaseAbort,    // a = abort cause, b = shards prepared
    // Snapshot-epoch read path.
    kSnapshotRetry,    // a = retry round
    kSnapshotEscalate, // a = rounds burned before escalating
    // Shard maintenance.
    kGrow,             // a = old capacity, b = new capacity
    kCompact,          // a = capacity
    kMigrateChunk,     // a = chunk index, b = entries moved
    kSweepChunk,       // a = chunk index, b = entries expired
    // Value arena reclamation.
    kArenaSpill,       // a = blobs spilled to the shared limbo, b = bytes
    kArenaRecycle,     // a = blobs recycled, b = bytes
    // Auto-tuner decisions.
    kRetune,           // a = (oldConfig << 32) | newConfig, b = KPI bits
    // Durability (WAL / checkpoint / recovery).
    kWalAppend,        // a = record LSN, b = frame bytes
    kWalFsync,         // a = bytes durable, b = fdatasync nanos
    kCkptBegin,        // a = barrier LSN
    kCkptEnd,          // a = live entries captured, b = chunks walked
    kRecoverReplay,    // a = records replayed, b = ops applied
    // Failure ladder (fault injection / degraded operation).
    kWalError,         // a = WalError code, b = bytes reported lost
    kHealthTransition, // a = from Health state, b = to Health state
};

/** Human-readable name for a trace kind ("2pc.prepare", ...). */
const char *traceKindName(TraceKind kind);

struct TraceEvent
{
    TraceKind kind = TraceKind::kNone;
    /** Shard the event is attributed to (-1 = store-wide). */
    std::int32_t shard = -1;
    /** Store-wide commitSeq observed when the event was recorded. */
    std::uint64_t seq = 0;
    /** Kind-specific payloads (see TraceKind comments). */
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    /** Marker ((ring position + 1) << 6) | ring index: nonzero,
     *  unique, and increasing within one recording thread. The
     *  tiebreak within one seq. */
    std::uint64_t order = 0;

    /** One-line rendering: "[seq 42] shard 3 2pc.flip a=.. b=..". */
    std::string format() const;
};

class FlightRecorder
{
  public:
    static constexpr std::size_t kRings = 64;
    static constexpr std::size_t kSlotsPerRing = 1024;

    explicit FlightRecorder(bool enabled = true);
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Record one event into the calling thread's ring. No-op (one
     *  relaxed load) when disabled. */
    void
    record(TraceKind kind, std::int32_t shard, std::uint64_t seq,
           std::uint64_t a = 0, std::uint64_t b = 0)
    {
        if (!enabled())
            return;
        recordSlow(kind, shard, seq, a, b);
    }

    /**
     * Merge every ring's surviving events, sorted by (seq, order),
     * keeping only the most recent `maxEvents` (0 = all). Safe to
     * call while other threads record (best-effort, see file
     * comment).
     */
    std::vector<TraceEvent> dumpRecent(std::size_t maxEvents = 0) const;

    /** dumpRecent() rendered one event per line. */
    std::string formatRecent(std::size_t maxEvents = 0) const;

    /**
     * Crash hunter hook: SIGKILL the process at the `nth` (1-based)
     * subsequently recorded event of `kind`. Turns every trace point
     * into a fault-injection site so the recovery test can die at
     * randomized places mid-protocol. Pass kNone to disarm.
     */
    void armCrash(TraceKind kind, std::uint64_t nth);

  private:
    struct Slot
    {
        /** Order marker: 0 = empty, written last with release. */
        std::atomic<std::uint64_t> order{0};
        std::atomic<std::uint64_t> kindShard{0};
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> a{0};
        std::atomic<std::uint64_t> b{0};
    };

    struct alignas(kCacheLineSize) Ring
    {
        /** Next slot index; only the owning thread(s) advance it. */
        std::atomic<std::uint64_t> head{0};
        Slot slots[kSlotsPerRing];
    };

    void recordSlow(TraceKind kind, std::int32_t shard,
                    std::uint64_t seq, std::uint64_t a,
                    std::uint64_t b);

    static std::size_t threadRingIndex();

    std::atomic<bool> enabled_;
    /** armCrash state: kind to die at + remaining matching events. */
    std::atomic<std::uint16_t> crashKind_{0};
    std::atomic<std::uint64_t> crashLeft_{0};
    std::unique_ptr<Ring[]> rings_;
};

} // namespace proteus::obs

#endif // PROTEUS_OBS_FLIGHT_RECORDER_HPP
