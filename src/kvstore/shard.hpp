/**
 * @file
 * One ProteusKV shard: an elastic open-addressing hash table whose
 * every operation runs as a transaction on the shard's private PolyTM
 * instance.
 *
 * Layout: a shard owns a chain of ShardTables plus a ValueArena for
 * wide values. A table is one array of 40-byte slot records (state /
 * key / value / expiry / intent words side by side, linear probing
 * with tombstones). A probe walks the records from the key's home
 * slot; a home-slot lookup reads only its record's words, so it
 * touches one or two data lines, and with the TM's line-local orecs
 * (tm/orec.hpp) one or two orec lines: about 3 cold lines instead of
 * one line per word array and per orec. Each cold line in a table far
 * larger than the TLB's reach also costs a page walk, which under
 * nested paging can cost more than the miss; the record array sits on
 * 2 MiB pages (common/line_array.hpp), so the TLB covers it and a
 * lookup pays the misses alone. The maintenance walkers
 * (migration, TTL sweep, scan) read each slot's state word first and
 * skip kEmpty/kTombstone slots on that one read: such slots never
 * carry a write intent. All slot words are accessed only through
 * Tx::readWord/writeWord, so any mix of backends (STM, emulated HTM,
 * hybrid, global lock) serializes get/put/del/scan correctly — and
 * the shard can be re-tuned live by a per-shard ProteusRuntime
 * without pausing the service.
 *
 * Online resize. Which tables exist is itself transactional state: a
 * TM-visible epoch word holds a pointer to an immutable TableEpoch
 * {live, old}. Every operation reads the epoch word first, so a grow
 * (publishing a doubled live table with the previous one as `old`)
 * invalidates every straddling transaction through ordinary TM
 * conflict detection. During migration, lookups consult live-then-old;
 * inserts go to live only; updates and deletes hit the key wherever it
 * currently lives — a key is live in at most one table at any
 * committed state. Writers piggyback bounded migration chunks
 * (maintainTick) that relocate old-table slots into live as small
 * transactions; when the old table drains, a follow-up epoch {live,
 * nullptr} retires it. Retired tables and epochs are never freed
 * before shard destruction, so a doomed transaction that loaded a
 * stale epoch never touches unmapped memory. put() only reports
 * failure once growth is capped (ShardOptions::maxLog2Slots) AND the
 * table is full; otherwise callers grow-and-retry via tryGrow().
 *
 * Writers. Each write op (put/putRef, del, add) has one transaction
 * body (putTx, delTx, addTx). It resolves the key's pre-image once —
 * a 2PC's own intent, else the settled slot — computes the post-image
 * and lands it in the slot words or, when a cross-shard commit passes
 * its prepare context, as that commit's intent (see Write intents).
 * The shard owns the single-key write loop (put, putBytes, putRef,
 * del) and each writer's private state: a line-aligned record per tid
 * holding the writer's maintenance tick, its held-back new-slot
 * count, its displaced-handle scratch list and its ValueArena::Cache
 * (magazines, slab and limbo). Only the thread holding the tid touches
 * the record, so a write touches no shared bookkeeping line in steady
 * state. KvStore's single-key writes and WAL replay call the write
 * loop; composites (multiOp slices, batches, 2PC prepares) call the
 * bodies inside their own transactions but stage, unstage and retire
 * their values through the same records (stageValue, unstageValue,
 * retireValue), and every committed write transaction and intent fold
 * feeds its WriteTally to the grow and compaction heuristics through
 * noteWrites. deregisterWorker hands a leaving writer's state back to
 * the shard.
 *
 * Values. A slot's value word is state-tagged: kFull means a raw
 * 64-bit value (numeric API, kAdd arithmetic); kFullRef means a
 * ValueRef — inline small bytes or a blob handle into the shard's
 * ValueArena (see value_arena.hpp). Numeric reads of byte values
 * decode the leading 8 bytes; byte reads of numeric values return the
 * 8 raw bytes. Blob allocation happens outside transactions
 * (stageValue); displaced blob handles are pushed onto reclaim lists
 * and *retired* (not freed) into the writer's limbo after the
 * displacing transaction committed: the arena recycles them only once
 * every reader-epoch section that could hold the handle has ended
 * (readerEpochs_). Every blob
 * dereference runs inside such a section, on a handle read through
 * the TM inside it, so a copy-out needs no check (decodeValueTx).
 *
 * TTL. A slot's expiry word is an absolute nowNanos() deadline (0 =
 * none). Reads treat an expired slot as absent (lazy expiry); a
 * clock-hand sweep (the migration walker pointed at the live table)
 * tombstones expired slots in the background.
 *
 * Write intents (2PC commit mode). A slot's intent word is either 0 or
 * a pointer to a WriteIntent belonging to an in-flight cross-shard
 * commit (see commit_record.hpp). A prepare runs the same write
 * bodies as a slice, with the commit's context: a write to a settled
 * slot publishes its post-image as a new intent, an insert claims its
 * slot kPendingInsert under one, and a later write of the same key in
 * the same composite updates that own intent in place. Slot states
 * then read as:
 *  - kFull/kFullRef + intent: the pre-image is live until the intent's
 *    record commits, after which the intent's post-image wins;
 *  - kPendingInsert (+ intent, always): the key is invisible until the
 *    record commits; the slot is consumed so concurrent inserts probe
 *    past it. A commit turns it kFull/kFullRef (or kTombstone when the
 *    composite deleted it again), an abort turns it kTombstone (never
 *    back to kEmpty — probe chains may already run past it).
 * Readers resolve intents without blocking: point reads take the
 * committed image (ReadView::kLatest), and snapshot reads compare the
 * record's commit sequence against their sampled read timestamp
 * (ReadView::kSnapshot) so an in-flight commit is included or
 * excluded deterministically instead of forcing a retry round — the
 * only wait left is the few-store window between a commit's sequence
 * reservation and its status flip. One fold settles an intent's
 * verdict in the slot words (foldIntentTx): the owner runs it after
 * its flip (settleIntentTx), and a writer, a writing composite's read
 * or migration that meets a finished foreign intent runs it in its
 * own transaction and proceeds; a still-pending intent makes them wait
 * out the short prepare→commit window by retrying with backoff. The
 * commit flip they wait for is a plain atomic store that the TM does
 * not track, so no validation could order the writer after it; the
 * retry drops the attempt (every backend's rollback restores its
 * writes) and holds no TM resources while the owner flips. Intents
 * record the table they were installed in, so a 2PC that straddles a
 * grow settles against the right slots.
 *
 * Read-ahead. prefetchSlot/prefetchValue let a multi-key caller start
 * every op's cache misses before its transactions run. They reach the
 * live table through the non-transactional epoch mirror, read slot
 * words only with relaxed atomic loads (every TM backend writes them
 * atomically, so the peeks race with nothing), and dereference nothing
 * they read: a blob handle is only ever prefetched, never loaded. A
 * hint can therefore go stale (a grow, a delete, a displaced blob)
 * but never unsafe: every table and epoch it can reach stays mapped
 * until shard destruction (retired ones included), arena chunks are
 * never released while the arena lives, and a prefetch of any address
 * cannot fault. A stale hint costs a wasted prefetch; the transactions
 * still read and validate every word that decides an answer.
 *
 * Resize vs compaction. A doubling grow is triggered by consumed
 * slots crossing growLoadPercent — unless tombstones dominate the
 * consumed count (delete churn), in which case the shard migrates
 * into a SAME-size table instead, shedding the tombstones without
 * doubling memory; a capped shard whose table fills with tombstones
 * compacts the same way rather than failing the insert.
 */

#ifndef PROTEUS_KVSTORE_SHARD_HPP
#define PROTEUS_KVSTORE_SHARD_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "common/epoch.hpp"
#include "common/line_array.hpp"
#include "kvstore/commit_record.hpp"
#include "kvstore/value_arena.hpp"
#include "obs/flight_recorder.hpp"
#include "polytm/polytm.hpp"

namespace proteus::kvstore {

/**
 * How a read resolves a slot that carries an in-flight cross-shard
 * write intent (see resolveSlotLiveTx):
 *
 *  - kLatest   : non-blocking point read. COMMITTED intents win,
 *                PENDING ones yield the pre-image. Single-key gets.
 *  - kSnapshot : validation-free snapshot read against the sampled
 *                store-wide commit sequence `seq`. A commit whose
 *                record sequence is <= seq is included (its verdict is
 *                briefly waited out if the flip is still in flight —
 *                the window spans only the owner's per-shard sequence
 *                bumps); one ordered after the snapshot is excluded.
 *                Used by read-only multiOps and KvStore scans, paired
 *                with the caller's trailing per-shard sequence check.
 *  - kSettle   : wait every PENDING intent out to its verdict. Gives
 *                a standalone shard scan all-or-nothing consistency
 *                per commit without any store-level sequence to
 *                validate against.
 */
struct ReadView
{
    enum class Mode : std::uint8_t
    {
        kLatest = 0,
        kSnapshot,
        kSettle,
    };

    Mode mode = Mode::kLatest;
    /** Sampled store-wide commit sequence (kSnapshot only). */
    std::uint64_t seq = 0;
};

struct ShardOptions
{
    /** log2 of the initial slot count; default 2^14 slots. */
    unsigned log2Slots = 14;
    /**
     * Growth cap: tables double until 2^maxLog2Slots slots. 0 means
     * unbounded; equal to log2Slots pins the seed's fixed capacity
     * (put() then reports failure on a full table again).
     */
    unsigned maxLog2Slots = 0;
    /** Consumed-slot percentage that triggers a proactive grow. */
    unsigned growLoadPercent = 70;
    /** Old-table slots relocated per migration step. */
    unsigned migrateChunkSlots = 64;
    /** Live-table slots visited per TTL sweep step. */
    unsigned sweepChunkSlots = 64;
    /** TM configuration active at construction. */
    polytm::TmConfig initial{};
    /**
     * log2 of the per-backend orec/stripe table. Smaller than the
     * PolyTM default (18): a shard covers only its own slice of the
     * key space, and a many-shard store pays this footprint (and
     * construction-time zeroing) once per shard per backend.
     */
    unsigned log2Orecs = 16;
    /**
     * Observability plane, injected by the owning KvStore (all three
     * null/-1 for a standalone shard): the flight recorder that
     * maintenance and arena events land in, the store-wide commit
     * sequence they are stamped with, and this shard's index for
     * attribution.
     */
    obs::FlightRecorder *recorder = nullptr;
    const std::atomic<std::uint64_t> *commitSeq = nullptr;
    int shardIndex = -1;
};

/** Slot states; the value word's interpretation is state-tagged. */
enum SlotState : std::uint64_t
{
    kEmpty = 0,
    kFull = 1, //!< value word is a raw 64-bit value
    kTombstone = 2,
    /** Insert prepared by an uncommitted cross-shard commit. */
    kPendingInsert = 3,
    kFullRef = 4, //!< value word is a ValueRef (see value_arena.hpp)
};

/** The one definition of "this slot state carries a value". */
inline bool
slotStateIsValue(std::uint64_t state)
{
    return state == kFull || state == kFullRef;
}

/**
 * One slot's TM-visible words, adjacent so that a lookup's reads share
 * one or two cache lines (and, with line-local orecs, one or two orec
 * lines). Not padded: 40 B is the whole per-slot footprint.
 */
struct SlotRecord
{
    std::uint64_t state;
    std::uint64_t key;
    std::uint64_t value;
    /** Absolute nowNanos() deadline; 0 = no TTL. */
    std::uint64_t expiry;
    /** 0 or a WriteIntent* of an in-flight cross-shard commit. */
    std::uint64_t intent;
};
static_assert(sizeof(SlotRecord) == 40, "slot records are 5 words");

/** One table generation (see the resize notes in the file comment). */
struct ShardTable
{
    explicit ShardTable(std::size_t slot_count)
        : slots(slot_count), mask(slot_count - 1), records(slot_count)
    {}

    const std::size_t slots;
    const std::size_t mask;
    /** Zero-initialised: every slot starts kEmpty with no intent. */
    LineArray<SlotRecord> records;

    /**
     * Heuristic non-kEmpty slot count (grow trigger; drift is ok).
     * No write adds its inserts at once: Shard::noteWrites holds every
     * writer's new slots back in its own record (single-key writes,
     * composite slices and the owner's 2PC folds alike) and adds them in
     * steps of Shard::consumedStep(slots) = clamp(slots >> 13, 1, 64).
     * A table of up to 2^13 slots therefore counts exactly; a larger
     * one can lag by under slots >> 13 per writer, so with every one
     * of tm::kMaxThreads writers holding a step back, the grow trigger
     * fires at most 64 / 8192 < 1% of the slots late.
     * deregisterWorker adds what a leaving writer still holds.
     */
    std::atomic<std::size_t> consumed{0};
    /**
     * Heuristic tombstone count (compaction trigger). Signed so racy
     * decrements can momentarily undershoot without wrapping. Known
     * drift: intents a helper folded before their owner (deletes,
     * aborted pending inserts) mint tombstones uncounted, since only
     * the owner knows what slot a pending insert claimed (low drift),
     * and raced double-accounting
     * can overshoot (high drift) — both are bounded to one table
     * generation, because every migration (grow OR compact) rebuilds
     * the new table's counters from the relocated truth.
     */
    std::atomic<std::int64_t> tombstones{0};
    /** Next migration chunk to claim (when this is the old table).
     *  Chunk claims are always chunk-aligned: stall rewinds CAS back
     *  to a chunk's begin, never into its middle. */
    std::atomic<std::size_t> migrateCursor{0};
    /** Distinct migration chunks fully relocated. */
    std::atomic<std::size_t> chunksDone{0};
    /** Per-chunk completion bits (allocated when this table becomes
     *  the migration source): a chunk re-processed after a stall
     *  rewind must count toward chunksDone exactly once, or the old
     *  table could retire with un-migrated keys still in it. */
    std::unique_ptr<std::atomic<std::uint8_t>[]> chunkDone;
    std::size_t totalChunks = 0;
    /** TTL clock hand (when this is the live table). */
    std::atomic<std::size_t> sweepCursor{0};
};

/**
 * Immutable per-generation table view; the shard's TM-visible epoch
 * word points at the current one.
 */
struct TableEpoch
{
    ShardTable *live = nullptr;
    ShardTable *old = nullptr; //!< non-null while migrating
};

/** One slot's (state, value, expiry) words (kEmpty state = no key). */
struct SlotImage
{
    std::uint64_t state = kEmpty;
    std::uint64_t value = 0;
    std::uint64_t expiry = 0;
};

class Shard
{
  public:
    explicit Shard(ShardOptions options = {});
    ~Shard();

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /**
     * Register the calling thread with this shard's PolyTM. Throws
     * (from PolyTM / ThreadGate) when more than tm::kMaxThreads
     * workers try to register — the KV driver must size its pool
     * accordingly. The token carries the thread's reader-epoch slot
     * so byte-read paths can pin blobs (see readerEpochs()).
     */
    polytm::ThreadToken
    registerWorker()
    {
        polytm::ThreadToken token = poly_.registerThread();
        token.epochSlot = readerEpochs_.claimSlot(
            static_cast<std::size_t>(token.tid));
        return token;
    }
    /**
     * Give the tid back, after handing the writer record's state back
     * to the shard: the held-back new-slot count joins the live
     * table's consumed count (see ShardTable::consumed), and the arena
     * cache is flushed (magazines to the free lists, slab tail to the
     * chunk, limbo to the shared limbo that maintenance sweeps).
     */
    void deregisterWorker(polytm::ThreadToken &token);

    /**
     * Whole-op transactions (each runs its own PolyTM transaction).
     *
     * The writes run the shard's one single-key write loop: the
     * transaction, a grow-and-retry on a full table (they fail only
     * when growth is capped), and the post-commit bookkeeping —
     * displaced blobs retired into the writer's limbo, the consumed
     * and tombstone heuristics fed, one maintenance tick. `expiry` is
     * an absolute nowNanos() deadline (0 = none). A non-null `lsn`
     * receives a WAL ticket (walTicketTx) drawn inside the write's
     * transaction: by a put only when it applied, by a del always (a
     * miss may still have reclaimed an expired slot). putBytes stages
     * its value (stageValue, which may throw) and publishes it with
     * putRef; putRef takes a value staged by the same token and
     * unstages it when the put fails.
     */
    bool get(polytm::ThreadToken &token, std::uint64_t key,
             std::uint64_t *value = nullptr);
    bool put(polytm::ThreadToken &token, std::uint64_t key,
             std::uint64_t value, std::uint64_t expiry = 0,
             std::uint64_t *lsn = nullptr);
    bool putBytes(polytm::ThreadToken &token, std::uint64_t key,
                  const void *data, std::size_t len,
                  std::uint64_t expiry = 0, std::uint64_t *lsn = nullptr);
    bool putRef(polytm::ThreadToken &token, std::uint64_t key,
                ValueRef staged, std::uint64_t expiry = 0,
                std::uint64_t *lsn = nullptr);
    bool del(polytm::ThreadToken &token, std::uint64_t key,
             std::uint64_t *lsn = nullptr);
    bool getBytes(polytm::ThreadToken &token, std::uint64_t key,
                  std::string *out);

    /**
     * The write side of a byte value's life, on the calling writer's
     * arena cache. stageValue packs up to kValueRefInlineMax bytes
     * inline and copies longer values into a fresh blob; call it
     * outside any transaction. It throws std::bad_alloc when the arena
     * cannot grow and std::length_error above
     * ValueArena::kMaxBlobBytes, in both cases with nothing allocated.
     * unstageValue recycles a staged value that no committed slot word
     * ever named (a failed write's). retireValue defers a displaced
     * value (one a committed slot word named) until every reader
     * section that could hold it has ended. Both ignore inline values.
     */
    ValueRef stageValue(polytm::ThreadToken &token, const void *data,
                        std::size_t len);
    void unstageValue(polytm::ThreadToken &token, ValueRef staged);
    void retireValue(polytm::ThreadToken &token, ValueRef displaced);

    /**
     * Collect up to `limit` live entries starting from key's home slot
     * (YCSB-E-style short range scan; open addressing makes it a slot
     * walk, not a key-ordered scan). One transaction, run under
     * ReadView::kSettle so every in-flight cross-shard commit it
     * touches resolves to a terminal verdict (all-or-nothing per
     * commit). During a migration the walk covers the live table,
     * then the old one — a key is live in at most one of them.
     */
    std::size_t scan(polytm::ThreadToken &token, std::uint64_t start_key,
                     std::size_t limit,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>
                         *out = nullptr);

    /**
     * Read-ahead hints for a lookup of `key` that a transaction will
     * run soon; KvStore's multiOp and applyBatch issue them for all
     * their ops before the first transaction, so the ops' independent
     * DRAM misses overlap instead of queueing behind each other. They
     * run outside any transaction, need no registration or gate
     * admission, and decide nothing: the transactions still do every
     * read, so a stale hint (a grow or a write in between) costs a
     * wasted prefetch and never a wrong answer.
     *  - prefetchSlot: the key's home slot record in the live table
     *    (one or two lines).
     *  - prefetchValue: peeks at the records from the home slot on
     *    with relaxed atomic loads and, when one holds `key` with a
     *    blob value, prefetches the blob. Issue it after prefetchSlot
     *    has had time to bring the record in.
     */
    void prefetchSlot(std::uint64_t key) const;
    void prefetchValue(std::uint64_t key) const;

    /**
     * What one write transaction did to the slot counts behind the
     * grow and compaction heuristics: inserts that claimed a kEmpty
     * slot, and the net tombstones it minted (+1 per value or claimed
     * slot turned tombstone) or reused (-1 per insert over one). Slot
     * landings and the owner's intent fold add into it; a retried
     * attempt starts from an empty tally, and the committed one goes
     * to noteWrites.
     */
    struct WriteTally
    {
        std::size_t newSlots = 0;
        std::int64_t tombstones = 0;
    };

    /**
     * Feed a committed write transaction's tally to the heuristics:
     * new slots through the writer record's held-back count (see
     * ShardTable::consumed), tombstones into the live table's count.
     */
    void noteWrites(polytm::ThreadToken &token, const WriteTally &tally);

    /**
     * Composite transaction bodies: run inside a caller-managed
     * transaction (single-key writes, KvStore slices and 2PC prepares,
     * WAL replay through the single-key writes). Every write op has
     * one body. It resolves the key's pre-image once — this commit's
     * own intent, else the settled slot after any foreign intent on it
     * was folded or waited out (see the file comment) — computes the
     * post-image, and lands it:
     *  - `prep` null: in the slot words, adding what it wrote to
     *    `tally`;
     *  - `prep` a 2PC's context: as that commit's intent. An insert
     *    claims its slot kPendingInsert under a new intent, an own
     *    intent is updated in place (nothing is visible until the
     *    record commits), and `tally` is left to the fold.
     * A pre-image is live only while its state is a value and its
     * deadline has not passed. A displaced kFullRef pre-image (a slot
     * value, or this commit's own staged value) goes onto `reclaim`;
     * the caller retires it only once the write committed.
     *
     * putTx stores `value` as `state`: kFull (a raw word) or kFullRef
     * (a ValueRef staged by stageValue). It and addTx return false only
     * when the table has no slot (the caller grows and retries, or
     * fails once growth is capped). delTx reports whether it deleted a
     * live value; a miss on an expired value still reclaims its slot.
     * addTx adds `delta` (two's complement) to a live value — a byte
     * value is coerced through its numeric decode — and re-creates any
     * other key at `delta` with no TTL; `post` receives the post-image.
     */
    bool putTx(polytm::Tx &tx, std::uint64_t key, std::uint64_t state,
               std::uint64_t value, std::uint64_t expiry,
               CommitContext *prep = nullptr, WriteTally *tally = nullptr,
               std::vector<std::uint64_t> *reclaim = nullptr);
    bool delTx(polytm::Tx &tx, std::uint64_t key,
               CommitContext *prep = nullptr, WriteTally *tally = nullptr,
               std::vector<std::uint64_t> *reclaim = nullptr);
    bool addTx(polytm::Tx &tx, std::uint64_t key, std::int64_t delta,
               CommitContext *prep = nullptr, WriteTally *tally = nullptr,
               std::vector<std::uint64_t> *reclaim = nullptr,
               SlotImage *post = nullptr);
    /**
     * Reads inside a writing composite: they decode the same live
     * pre-image the write bodies resolve, so the value returned is the
     * one a later write in the same transaction builds on — a kLatest
     * point read may return the pre-image of a still-PENDING foreign
     * commit that a following write then folds, and the commit flip
     * between the two is a plain store the TM does not track, so the
     * transaction would commit both answers. With a `prep` they also
     * see that commit's own intents (read-your-writes).
     */
    bool prepareGetTx(polytm::Tx &tx, const CommitContext *prep,
                      std::uint64_t key, std::uint64_t *value);
    bool prepareGetBytesTx(polytm::Tx &tx, const CommitContext *prep,
                           std::uint64_t key, std::string *out);

    /**
     * Point reads under an explicit ReadView: kLatest is a single-key
     * get's; kSnapshot resolves in-flight intents against the caller's
     * sampled commit sequence instead of retry-looping (the caller
     * pairs it with a trailing per-shard sequence check); kSettle
     * waits intents out to their verdict. A blob read pins itself; a
     * caller that pins the whole body in readerEpochs() (as the byte
     * read paths do) saves the re-read of the slot that a pin opened
     * at the blob costs.
     */
    bool snapshotGetTx(polytm::Tx &tx, std::uint64_t key,
                       std::uint64_t *value, const ReadView &view);
    bool snapshotGetBytesTx(polytm::Tx &tx, std::uint64_t key,
                            std::string *out, const ReadView &view);
    /** Scan under a ReadView (kLatest scans can return a torn mix of
     *  one composite's pre-/post-images; use kSnapshot + the trailing
     *  sequence check, or kSettle, for consistent scans). */
    std::size_t
    scanTx(polytm::Tx &tx, std::uint64_t start_key, std::size_t limit,
           std::vector<std::pair<std::uint64_t, std::uint64_t>> *out,
           const ReadView &view = {});
    /** Byte-decoding scan (numeric values yield their 8 raw bytes);
     *  callers pin the body in readerEpochs() (see
     *  snapshotGetBytesTx). */
    struct ScanEntry
    {
        std::uint64_t key = 0;
        std::string bytes;
    };
    std::size_t scanEntriesTx(polytm::Tx &tx, std::uint64_t start_key,
                              std::size_t limit,
                              std::vector<ScanEntry> *out,
                              const ReadView &view = {});

    /**
     * The owner's fold of one of its commit's intents under the
     * record's verdict (call after the flip): committed, the intent's
     * post-image replaces the slot words; aborted, the pre-image
     * stays, and a pending insert becomes a tombstone (never kEmpty —
     * probe chains may already run past it). Either way the intent
     * word is cleared and the transition goes to `tally` (a pending
     * insert counts from the slot it claimed). A no-op if a helping
     * writer already folded the intent. The verdict is not re-read
     * here: the flip is a plain store the TM does not track anyway.
     */
    void settleIntentTx(polytm::Tx &tx, WriteIntent *intent,
                        bool committed, WriteTally &tally);

    /**
     * Maintenance step, called by writers after their op commits (and
     * by the KvStore batching loop): relocates one migration chunk
     * when a resize is in flight, triggers a proactive grow when the
     * live table crosses the load threshold, and occasionally advances
     * the TTL clock hand and sweeps the arena limbo. When idle it
     * loads the epoch mirror, the live table's consumed count, the TTL
     * flag and the limbo count, and writes only the caller's own
     * writer record (its tick).
     */
    void maintainTick(polytm::ThreadToken &token);

    /**
     * Make capacity progress after an operation reported a full table
     * of `full_capacity` slots: helps drain an in-flight migration,
     * then doubles the live table. Returns false only when the table
     * cannot grow past `full_capacity` (maxLog2Slots reached) — the
     * caller's operation has genuinely failed.
     */
    bool tryGrow(polytm::ThreadToken &token, std::size_t full_capacity);

    /** Drive the current migration (if any) to completion. */
    void drainMigration(polytm::ThreadToken &token);

    /** Record that TTL'd values exist (enables the sweep); called by
     *  layers that drive the write bodies directly. */
    void noteTtlUsed() { ttlSeen_.store(true, std::memory_order_relaxed); }

    polytm::PolyTm &poly() { return poly_; }
    const polytm::PolyTm &poly() const { return poly_; }

    ValueArena &arena() { return arena_; }
    const ValueArena &arena() const { return arena_; }

    /** Reader-epoch domain for blob pinning: byte-read paths enter a
     *  section (via the token's epochSlot) for each transaction body
     *  so the arena defers blob recycling past them; any other blob
     *  read opens one at the blob (decodeValueTx). */
    EpochDomain &readerEpochs() { return readerEpochs_; }

    /** Current live-table slot count (grows over the shard's life). */
    std::size_t capacity() const;
    bool migrationActive() const;
    /** Step in which a writer adds its inserts to a
     *  `slots`-slot table's consumed count. */
    static std::size_t
    consumedStep(std::size_t slots)
    {
        return std::clamp<std::size_t>(slots >> 13, 1, 64);
    }

    /** Resizes completed since construction. */
    std::uint64_t growCount() const
    {
        return growCount_.load(std::memory_order_relaxed);
    }
    /** Same-size compacting migrations (tombstone churn) completed. */
    std::uint64_t compactCount() const
    {
        return compactCount_.load(std::memory_order_relaxed);
    }
    /** In-flight commit verdicts snapshot readers waited out. */
    std::uint64_t snapshotPendingWaits() const
    {
        return snapshotWaits_.load(std::memory_order_relaxed);
    }

    /** Live entries; quiesced-only (raw, non-transactional reads). */
    std::size_t sizeQuiesced() const;

    /** The full mixed hash behind homeSlot() (its low bits pick the
     *  home slot) — exposed so tests can build same-home chains. */
    static std::uint64_t keyHash(std::uint64_t key);

    /**
     * Quiesced-only test hook: the live-table slot holding `key`
     * (capacity() when absent), found by the same walk as probe()
     * with raw, non-transactional reads. Never call on a live store.
     */
    std::size_t findSlotQuiesced(std::uint64_t key) const;

    /**
     * WAL sequencing: draw the next log sequence number inside a
     * writing transaction. The ticket is a TM-visible word every
     * durable writer read-modify-writes, so the TM totally orders all
     * writing transactions on this shard and ticket order equals
     * serialization order — recovery replays records sorted by this
     * LSN. An aborted attempt leaves a gap, which replay tolerates.
     */
    std::uint64_t
    walTicketTx(polytm::Tx &tx)
    {
        const std::uint64_t next = tx.readWord(&*walTicketWord_) + 1;
        tx.writeWord(&*walTicketWord_, next);
        return next;
    }

    /** Quiesced-only: seed the ticket after recovery replay. */
    void setWalTicketQuiesced(std::uint64_t v) { *walTicketWord_ = v; }
    std::uint64_t walTicketQuiesced() const { return *walTicketWord_; }

    /** One checkpoint-walk step's outcome. */
    enum class CkptStep
    {
        kMore,    ///< chunk captured, keep walking
        kDone,    ///< table fully walked
        kRestart, ///< epoch changed / migration active — start over
    };

    struct CheckpointCursor
    {
        const void *epoch = nullptr; ///< table epoch the walk pinned
        std::size_t slot = 0;
    };

    /** One live entry as captured for a checkpoint image. */
    struct CheckpointEntry
    {
        std::uint64_t key = 0;
        bool isBytes = false;
        std::uint64_t value = 0;  ///< numeric payload (kFull slots)
        std::uint64_t expiry = 0; ///< absolute deadline ns, 0 = none
        std::string bytes;        ///< blob payload (kFullRef slots)
    };

    /**
     * Fuzzy-checkpoint walker: capture up to `chunk_slots` slots'
     * live entries into `out` (appended), one bounded transaction per
     * call — the same incremental pattern as the migration walker, so
     * writers are never stalled. Reads are kSettle (pending 2PC
     * intents are waited to their verdict). The walk only runs on a
     * migration-free epoch: kRestart means the caller must
     * drainMigration() and start over with a fresh cursor (entries
     * captured so far are stale — a migration may have relocated keys
     * across already-walked regions). Writers racing the walk are
     * fine: their records carry LSNs after the checkpoint barrier and
     * are re-applied over the image on replay (post-images make that
     * idempotent).
     */
    CkptStep checkpointChunk(polytm::ThreadToken &token,
                             CheckpointCursor *cursor,
                             std::vector<CheckpointEntry> *out,
                             unsigned chunk_slots);

  private:
    struct SlotRef
    {
        ShardTable *table = nullptr;
        std::size_t slot = 0;
    };

    /** Committed (state, value-word, expiry) of a resolved slot. */
    struct LiveValue
    {
        std::uint64_t state = kEmpty;
        std::uint64_t value = 0;
        std::uint64_t expiry = 0;
    };

    TableEpoch *epochTx(polytm::Tx &tx);
    static std::size_t homeSlot(const ShardTable &table,
                                std::uint64_t key);

    /**
     * Linear probe from `key`'s home slot: returns the key's slot
     * (*found) or the insert point — the first tombstone passed, else
     * the terminating kEmpty slot; table.slots when the table has
     * neither. *state is the state word the probe read at the slot
     * it returns, so callers need not read it again.
     */
    std::size_t probe(polytm::Tx &tx, ShardTable &table,
                      std::uint64_t key, bool *found, std::uint64_t *state);

    /** The single-key put loop behind put/putRef (see put()). */
    bool putLoop(polytm::ThreadToken &token, std::uint64_t key,
                 std::uint64_t state, std::uint64_t value,
                 std::uint64_t expiry, std::uint64_t *lsn);

    /** Post-commit bookkeeping of a single-key write: retire the
     *  writer's displaced handles, feed the tally (noteWrites) and run
     *  a maintenance tick. */
    void finishWrite(polytm::ThreadToken &token, const WriteTally &tally);

    /** Resync the live table's heuristic tombstone count from its
     *  state words after a migration retires its source. growMutex_
     *  held. */
    void recountTombstonesLocked(polytm::ThreadToken &token,
                                 ShardTable &live);

    /**
     * Reader lookup: probe live-then-old and resolve the match to its
     * committed view. False when the key is logically absent.
     */
    bool lookupLiveTx(polytm::Tx &tx, std::uint64_t key, SlotRef *ref,
                      LiveValue *live, const ReadView &view);

    /**
     * Shared slot walk behind scanTx/scanEntriesTx: visits live
     * entries starting at `start_key`'s home slot (live table, then
     * the migration source) and calls emit(table, slot, live) for
     * each, counting the ones it accepts, up to `limit`.
     */
    template <typename Emit>
    std::size_t
    scanWalkTx(polytm::Tx &tx, std::uint64_t start_key,
               std::size_t limit, const ReadView &view, Emit &&emit)
    {
        std::size_t count = 0;
        TableEpoch *ep = epochTx(tx);
        const auto walk = [&](ShardTable &table) {
            // `start`, then ascending with wraparound. Empty and
            // tombstone slots cost their state word alone; only value
            // and pending slots go on to resolve their intent.
            const std::size_t start = homeSlot(table, start_key);
            for (std::size_t step = 0;
                 step < table.slots && count < limit; ++step) {
                const std::size_t slot = (start + step) & table.mask;
                const std::uint64_t state =
                    tx.readWord(&table.records[slot].state);
                if (state == kEmpty || state == kTombstone)
                    continue;
                LiveValue live;
                if (resolveSlotLiveTx(tx, table, slot, &live, view) &&
                    emit(table, slot, live))
                    ++count;
            }
        };
        // A key is live in at most one table, so walking both cannot
        // double-count.
        walk(*ep->live);
        if (ep->old)
            walk(*ep->old);
        return count;
    }

    /**
     * Logical liveness+value of a probed-matching slot for readers:
     * resolves any intent against its commit record without writing
     * — per the ReadView's mode (see the ReadView comment) — and
     * applies lazy TTL expiry.
     */
    bool resolveSlotLiveTx(polytm::Tx &tx, ShardTable &table,
                           std::size_t slot, LiveValue *out,
                           const ReadView &view = {});

    /**
     * Wait out or fold the foreign intent published as `word` at
     * `slot` so the caller can write the slot. It loads the intent's
     * post-image before the record's status, with acquire loads (see
     * resolveSlotLiveTx), and folds a finished verdict through
     * foldIntentTx. A pending commit aborts the transaction
     * (tx.retry()): its flip is a plain store the TM does not track,
     * so retrying with backoff is the wait.
     */
    void resolveForeignIntentTx(polytm::Tx &tx, ShardTable &table,
                                std::size_t slot, std::uint64_t word);

    /**
     * The one fold of an intent's verdict into `rec`, for the owner's
     * settle, a writer or reader helping a foreign intent, and
     * migration (see settleIntentTx). `post` is the post-image the
     * caller loaded. The transition goes to `tally` when one is given;
     * only the owner knows `claimed`, the state a pending insert
     * claimed its slot from (kEmpty or kTombstone), so helpers pass
     * none.
     */
    void foldIntentTx(polytm::Tx &tx, SlotRecord &rec, bool committed,
                      const SlotImage &post, std::uint64_t claimed,
                      WriteTally *tally);

    /**
     * Probe live-then-old + make the matched slot writable. On return
     * with *found=true the slot carries either no intent (state
     * kFull/kFullRef) or this commit's own intent (*own != nullptr,
     * `record` non-null). *found=false means the key is logically
     * absent; the returned ref is the live-table insert point
     * (slot == live->slots when the live table has no room). *state
     * is the returned slot's state as this transaction last read it:
     * the probe's read, re-read only after a foreign intent's fold.
     */
    SlotRef writeLookup(polytm::Tx &tx, const CommitRecord *record,
                        std::uint64_t key, bool *found,
                        WriteIntent **own, std::uint64_t *state);

    /** A composite op's pre-image, resolved once by writeSiteTx. */
    struct WriteSite
    {
        /** The key's slot, or the live table's insert point. */
        SlotRef ref;
        /** The key has a slot: this commit's own intent, or a settled
         *  value (live or expired). */
        bool found = false;
        WriteIntent *own = nullptr;
        /** The own intent's post-image, the settled slot's words, or
         *  the insert point's state (kEmpty or kTombstone). */
        SlotImage pre;
    };
    WriteSite writeSiteTx(polytm::Tx &tx, const CommitContext *prep,
                          std::uint64_t key);
    /** Land `post` for `key` at `site` (see the write bodies). */
    void landTx(polytm::Tx &tx, const WriteSite &site, std::uint64_t key,
                const SlotImage &post, CommitContext *prep,
                WriteTally *tally, std::vector<std::uint64_t> *reclaim);
    /** Run `decode` on a site's pre-image if it is live: an own
     *  intent's directly (its staged blob stays put while the record
     *  is pending), a settled slot's through decodeValueTx. */
    template <typename Decode>
    bool decodeSiteTx(polytm::Tx &tx, const WriteSite &site,
                      Decode &&decode);

    /**
     * Run `decode` on the value `live` that `slot` resolved to. A blob
     * is decoded inside the calling thread's readerEpochs() section:
     * the caller's when it pinned the body, else one opened here, in
     * which the slot is first re-resolved under `view` (false when it
     * reads as absent by then).
     */
    template <typename Decode>
    bool decodeValueTx(polytm::Tx &tx, ShardTable &table,
                       std::size_t slot, LiveValue live,
                       const ReadView &view, Decode &&decode);
    /** Decode a (state, value word) pair that holds a value: a kFull
     *  word, an inline ValueRef or a blob's payload (numeric: the
     *  leading 8 bytes, zero-padded; bytes: a kFull word's 8 raw
     *  bytes). A blob needs the caller's pin, or a blob no committed
     *  slot word names yet (a composite's own staged value). */
    std::uint64_t numericOf(std::uint64_t state, std::uint64_t value) const;
    void bytesOf(std::uint64_t state, std::uint64_t value,
                 std::string *out) const;
    /** Numeric view of a resolved slot (see decodeValueTx). */
    bool numericValueTx(polytm::Tx &tx, ShardTable &table,
                        std::size_t slot, LiveValue live,
                        std::uint64_t *out,
                        const ReadView &view = {});
    /** Byte view; numeric values yield their 8 raw bytes. */
    bool bytesValueTx(polytm::Tx &tx, ShardTable &table,
                      std::size_t slot, LiveValue live,
                      std::string *out, const ReadView &view = {});

    /** Publish `post` at `slot` as a new intent of `prep`'s commit. */
    void installIntent(polytm::Tx &tx, CommitContext &prep,
                       ShardTable &table, std::size_t slot,
                       const SlotImage &post, bool claimed_tombstone);

    /** Capture a slot's words (after intent resolution), given the
     *  `state` this transaction read there. */
    SlotImage slotImageTx(polytm::Tx &tx, ShardTable &table,
                          std::size_t slot, std::uint64_t state);

    /** Relocate one claimed old-table chunk; true while migrating. */
    bool migrateChunk(polytm::ThreadToken &token);
    void sweepChunk(polytm::ThreadToken &token);
    /** Start a migration of `source` into a fresh table of
     *  `new_slots`; growMutex_ must be held, no migration in flight. */
    void startMigrationLocked(polytm::ThreadToken &token,
                              ShardTable *source,
                              std::size_t new_slots);
    /** Publish a doubled live table; growMutex_ must be held. */
    bool growLocked(polytm::ThreadToken &token,
                    std::size_t full_capacity);
    /** Same-size compacting migration (sheds tombstones without
     *  doubling); growMutex_ must be held, no migration in flight. */
    void compactLocked(polytm::ThreadToken &token);
    /** True when the live table's tombstone share says a same-size
     *  compaction beats (or must replace) a doubling grow. */
    static bool tombstoneHeavy(const ShardTable &live);
    void finishMigration(polytm::ThreadToken &token, ShardTable *old);
    void publishEpoch(polytm::ThreadToken &token, TableEpoch *next);

    polytm::PolyTm poly_;
    ValueArena arena_;
    ShardOptions options_;
    std::size_t maxSlots_;
    /** Reader-epoch slots (one per registered tid) for blob pinning. */
    EpochDomain readerEpochs_{static_cast<std::size_t>(tm::kMaxThreads)};

    /**
     * One writer's private state (see the file comment), on its own
     * lines, read and written only by the thread holding the tid
     * (PolyTM's admin mutex orders a tid's hand-over to its next
     * holder). One per tid, allocated and zeroed at construction, so
     * the write path allocates no record; ~4.4 KiB each, so the
     * records live outside the shard object, which stays small enough
     * to build on a stack.
     */
    struct alignas(kCacheLineSize) WriterRecord
    {
        /** Maintenance ticks run; sets the sweep cadence. */
        std::uint64_t ticks = 0;
        /** Inserts into `table` not yet added to its consumed count. */
        std::size_t pending = 0;
        ShardTable *table = nullptr;
        /** Displaced handles of the writer's current single-key write
         *  (reused, so overwriting a blob allocates nothing). */
        std::vector<std::uint64_t> displaced;
        ValueArena::Cache cache;
    };
    const std::unique_ptr<WriterRecord[]> writers_;

    WriterRecord &
    writerOf(const polytm::ThreadToken &token)
    {
        return writers_[static_cast<std::size_t>(token.tid)];
    }

    /** TM-visible: holds the current TableEpoch*. Every transaction
     *  reads it, so epoch changes conflict with all straddlers. */
    alignas(8) std::uint64_t epochWord_ = 0;

    /** TM-visible WAL ticket (see walTicketTx). Only touched when the
     *  owning KvStore runs durable, so non-durable stores pay nothing.
     *  On its own line: every durable write stores it, and sharing
     *  epochWord_'s line (and so its orec line) would invalidate that
     *  line in every reader. */
    Padded<std::uint64_t> walTicketWord_;

    /** Non-transactional mirror for heuristics and quiesced readers;
     *  correctness always goes through epochWord_. */
    std::atomic<TableEpoch *> epochMirror_{nullptr};

    /** Guards table/epoch creation and the retire lists. */
    std::mutex growMutex_;
    std::vector<std::unique_ptr<ShardTable>> tables_;
    std::vector<std::unique_ptr<TableEpoch>> epochs_;

    /** Flight-recorder hook for maintenance events, stamped with the
     *  store-wide commit sequence (no-op for standalone shards). */
    void
    trace(obs::TraceKind kind, std::uint64_t a = 0,
          std::uint64_t b = 0) const
    {
        if (options_.recorder) {
            options_.recorder->record(
                kind, options_.shardIndex,
                options_.commitSeq ? options_.commitSeq->load(
                                         std::memory_order_relaxed)
                                   : 0,
                a, b);
        }
    }

    std::atomic<std::uint64_t> growCount_{0};
    std::atomic<std::uint64_t> compactCount_{0};
    /** Snapshot readers that waited out an in-flight commit verdict. */
    std::atomic<std::uint64_t> snapshotWaits_{0};
    /** Set once any put carries a TTL; gates the sweep. */
    std::atomic<bool> ttlSeen_{false};
};

} // namespace proteus::kvstore

#endif // PROTEUS_KVSTORE_SHARD_HPP
