#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <unistd.h>
#endif

namespace proteus::obs {

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::kNone:             return "none";
      case TraceKind::kTwoPhasePrepare:  return "2pc.prepare";
      case TraceKind::kTwoPhaseReserve:  return "2pc.reserve";
      case TraceKind::kTwoPhaseFlip:     return "2pc.flip";
      case TraceKind::kTwoPhaseFinalize: return "2pc.finalize";
      case TraceKind::kTwoPhaseAbort:    return "2pc.abort";
      case TraceKind::kSnapshotRetry:    return "snapshot.retry";
      case TraceKind::kSnapshotEscalate: return "snapshot.escalate";
      case TraceKind::kGrow:             return "shard.grow";
      case TraceKind::kCompact:          return "shard.compact";
      case TraceKind::kMigrateChunk:     return "shard.migrate_chunk";
      case TraceKind::kSweepChunk:       return "shard.sweep_chunk";
      case TraceKind::kArenaSpill:       return "arena.spill";
      case TraceKind::kArenaRecycle:     return "arena.recycle";
      case TraceKind::kRetune:           return "tuner.retune";
      case TraceKind::kWalAppend:        return "wal.append";
      case TraceKind::kWalFsync:         return "wal.fsync";
      case TraceKind::kCkptBegin:        return "ckpt.begin";
      case TraceKind::kCkptEnd:          return "ckpt.end";
      case TraceKind::kRecoverReplay:    return "recover.replay";
      case TraceKind::kWalError:         return "wal.error";
      case TraceKind::kHealthTransition: return "health.transition";
    }
    return "unknown";
}

std::string
TraceEvent::format() const
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "[seq %" PRIu64 "] shard %d %s a=%" PRIu64
                  " b=%" PRIu64,
                  seq, static_cast<int>(shard), traceKindName(kind), a,
                  b);
    return buf;
}

static_assert(FlightRecorder::kRings == std::size_t{1} << 6,
              "an order marker keeps its ring index in the low 6 bits");

FlightRecorder::FlightRecorder(bool enabled)
    : enabled_(enabled), rings_(std::make_unique<Ring[]>(kRings))
{
}

std::size_t
FlightRecorder::threadRingIndex()
{
    static std::atomic<std::size_t> nextOrdinal{0};
    thread_local const std::size_t ordinal =
        nextOrdinal.fetch_add(1, std::memory_order_relaxed);
    return ordinal & (kRings - 1);
}

void
FlightRecorder::armCrash(TraceKind kind, std::uint64_t nth)
{
    crashLeft_.store(nth, std::memory_order_relaxed);
    crashKind_.store(static_cast<std::uint16_t>(kind),
                     std::memory_order_relaxed);
}

void
FlightRecorder::recordSlow(TraceKind kind, std::int32_t shard,
                           std::uint64_t seq, std::uint64_t a,
                           std::uint64_t b)
{
    // Fault injection for the crash-recovery hunter: die by SIGKILL
    // (no atexit, no flush — the same as a power-yank for the process)
    // at the armed trace point.
    if (crashKind_.load(std::memory_order_relaxed) ==
            static_cast<std::uint16_t>(kind) &&
        kind != TraceKind::kNone &&
        crashLeft_.fetch_sub(1, std::memory_order_relaxed) == 1) {
#if defined(__unix__) || defined(__APPLE__)
        ::kill(::getpid(), SIGKILL);
#else
        std::abort();
#endif
    }
    const std::size_t ring_index = threadRingIndex();
    Ring &ring = rings_[ring_index];
    const std::uint64_t head =
        ring.head.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = ring.slots[head & (kSlotsPerRing - 1)];
    const std::uint64_t order = ((head + 1) << 6) | ring_index;
    // Invalidate first so a concurrent reader that raced past the old
    // marker re-checks and drops the torn slot.
    slot.order.store(0, std::memory_order_release);
    slot.kindShard.store(
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(kind))
         << 32) |
            static_cast<std::uint32_t>(shard),
        std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.order.store(order, std::memory_order_release);
}

std::vector<TraceEvent>
FlightRecorder::dumpRecent(std::size_t maxEvents) const
{
    std::vector<TraceEvent> out;
    for (std::size_t r = 0; r < kRings; ++r) {
        const Ring &ring = rings_[r];
        for (const Slot &slot : ring.slots) {
            const std::uint64_t order =
                slot.order.load(std::memory_order_acquire);
            if (order == 0)
                continue;
            TraceEvent ev;
            const std::uint64_t ks =
                slot.kindShard.load(std::memory_order_relaxed);
            ev.kind = static_cast<TraceKind>(
                static_cast<std::uint16_t>(ks >> 32));
            ev.shard = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(ks));
            ev.seq = slot.seq.load(std::memory_order_relaxed);
            ev.a = slot.a.load(std::memory_order_relaxed);
            ev.b = slot.b.load(std::memory_order_relaxed);
            ev.order = order;
            // Re-check the marker: an overwrite in flight zeroes it
            // (or replaces it) before touching the payload words.
            if (slot.order.load(std::memory_order_acquire) != order)
                continue;
            out.push_back(ev);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &lhs, const TraceEvent &rhs) {
                  if (lhs.seq != rhs.seq)
                      return lhs.seq < rhs.seq;
                  return lhs.order < rhs.order;
              });
    if (maxEvents != 0 && out.size() > maxEvents)
        out.erase(out.begin(),
                  out.end() - static_cast<std::ptrdiff_t>(maxEvents));
    return out;
}

std::string
FlightRecorder::formatRecent(std::size_t maxEvents) const
{
    std::string text;
    for (const TraceEvent &ev : dumpRecent(maxEvents)) {
        text += ev.format();
        text += '\n';
    }
    return text;
}

} // namespace proteus::obs
