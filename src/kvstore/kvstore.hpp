/**
 * @file
 * ProteusKV: a sharded transactional key-value store on PolyTM.
 *
 * Keys are hash-partitioned over N shards; each shard is a Shard
 * (open-addressing table + private PolyTM instance) so every shard can
 * be tuned — backend, parallelism degree, contention knobs — fully
 * independently by its own ProteusRuntime (see kv_tunable.hpp).
 *
 * Concurrency design. Single-key operations are plain per-shard TM
 * transactions. Cross-shard atomicity cannot come from TM alone
 * (shards are separate PolyTM universes), so a writing multi-key
 * transaction commits through a 2PC-style protocol *over* the TM
 * layer. Per touched shard (ascending shard order — no deadlock), one
 * short *prepare* transaction validates the shard's reads and
 * publishes per-slot write intents pointing at a shared commit
 * record; the commit point then (1) reserves the store-wide commit
 * sequence and stamps it into the record, (2) bumps every touched
 * shard's sequence in the padded epoch vector, and (3) flips the
 * record PENDING → COMMITTED with one atomic store; *finalize*
 * transactions fold the intents into the live slot words. Single-key
 * traffic keeps flowing the whole time: a reader that hits an intent
 * resolves it against the commit record without blocking (pre-image
 * while PENDING, post-image once COMMITTED), and a writer folds
 * finished intents itself, waiting only out the short PENDING window
 * of its exact slot. A multiOp whose ops all land on one shard skips
 * the protocol: it bumps that shard's sequence and runs as one slice,
 * the same all-or-nothing transaction a batch runs per shard (see
 * Batching).
 *
 * Read-only multiOps and scans take a *snapshot-epoch* read: they
 * sample the touched shards' sequences and then the store-wide commit
 * sequence once, execute validation-free against that timestamp — an
 * intent's commit is included iff its record sequence is within the
 * snapshot, so resolving an in-flight 2PC never forces a retry round
 * — and re-check the touched shards' sequences at the end. A round
 * repeats only when a cross-shard commit actually flipped on a
 * touched shard inside it (ordering (1)-(3) above guarantees a
 * straddling round either sees the commit's sequence stamp or fails
 * the trailing check, so a torn pre/post mix can never validate); on
 * a write-free workload every round settles first try with zero
 * retries and zero waits (the snapshot_* counters in telemetry()).
 * Liveness under a sustained cross-shard commit storm on exactly the
 * touched shards is probabilistic, not hard-bounded: after
 * kSnapshotBackoffRounds failed rounds the reader sleeps with capped
 * exponential backoff (counted as an escalation), which converges
 * unless commits land inside *every* round indefinitely. No lock is
 * held anywhere on this path, so the per-shard tuners see real TM
 * aborts — the contention signal the recommender needs — instead of
 * lock convoys. Reads mixed into a *writing* multiOp keep the
 * wait-out-the-intent fallback (prepareGetTx) — they must observe the
 * values their own commit builds on.
 *
 * 2PC vs the ThreadGate: the per-shard tuner may disable a worker
 * thread (parallelism degree), which parks it inside PolyTm::run. A
 * parked thread must never strand a PENDING intent other operations
 * wait on, so a cross-shard writing multiOp pins its tokens for the
 * prepare-to-finalize span (the paper's §4.2 escape hatch), making
 * any gate pause bounded by an in-flight algorithm switch. Single-key
 * ops and slices are one transaction each and hold nothing across a
 * park, so they run unpinned.
 *
 * Batching. A Batch stages operations and flushes them grouped by
 * shard, one TM transaction per shard slice — amortizing begin/commit
 * costs. One function applies a slice, for batches and single-shard
 * writing multiOps alike: it runs the ops in program order and
 * all-or-nothing (a put that finds its shard full rolls the slice
 * back, the shard grows, and the whole slice re-runs), appends the
 * slice's WAL record, retires the displaced values and ticks the
 * shard's maintenance. Batches are atomic per shard, not across
 * shards: when growth is capped, the full shard's slice has no effect
 * and its ops report ok false, while the other shards' slices stay
 * applied.
 */

#ifndef PROTEUS_KVSTORE_KVSTORE_HPP
#define PROTEUS_KVSTORE_KVSTORE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "kvstore/commit_record.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/wal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metric_registry.hpp"

namespace proteus::kvstore {

/**
 * Store-wide health. Transitions are monotonic (a store never
 * un-degrades — reopen it to recover) and observable: each one emits
 * a `health.transition` flight-recorder event and bumps the
 * `health_transitions` counter; the current state is exported as the
 * `health_state` gauge.
 *
 *  - kHealthy: full service.
 *  - kDegradedReadOnly: the durability plane cannot accept new
 *    writes (disk full, unrescuable sync loss, ...). Writes fail
 *    fast with KvStatus::kReadOnly *before* touching memory;
 *    reads/scans/snapshots keep serving, recovery state is intact.
 *  - kFailed: a hard I/O error left a shard's log unusable; the
 *    in-memory store still serves reads but its durability claims
 *    are void. Operators should restart (recovery replays the acked
 *    prefix).
 */
enum class Health : std::uint8_t
{
    kHealthy = 0,
    kDegradedReadOnly = 1,
    kFailed = 2,
};

/** "healthy" / "degraded_readonly" / "failed". */
const char *healthName(Health h);

/** Why a write was not acknowledged. */
enum class KvStatus : std::uint8_t
{
    kOk = 0,
    kNotFound,  ///< del: key absent (the op itself is fine)
    kNoSpace,   ///< table growth capped and the insert cannot fit
    kNoMemory,  ///< value arena exhausted (wide-value allocation)
    kReadOnly,  ///< store degraded: write rejected before any effect
    kWalError,  ///< WAL/checkpoint I/O failed mid-op: NOT acked; the
                ///< in-memory effect may or may not survive recovery
};

/** "ok" / "not_found" / "no_space" / ... */
const char *kvStatusName(KvStatus s);

/**
 * Result of a write operation: `status` says whether it was
 * acknowledged (kOk) and, if not, why. `if (result)` tests for kOk;
 * the conversion is explicit, so a result never silently turns into
 * a bool.
 */
struct KvResult
{
    KvStatus status = KvStatus::kOk;

    KvResult() = default;
    KvResult(KvStatus s) : status(s) {}
    explicit operator bool() const { return status == KvStatus::kOk; }
};

struct KvStoreOptions
{
    int numShards = 4;
    /** log2 of the *initial* slot count per shard. */
    unsigned log2SlotsPerShard = 14;
    /**
     * Growth cap per shard: tables double online until
     * 2^maxLog2SlotsPerShard slots. 0 = unbounded; equal to
     * log2SlotsPerShard pins the seed's fixed capacity, restoring
     * table-full failures for the capacity-planning tests.
     */
    unsigned maxLog2SlotsPerShard = 0;
    /** Consumed-slot percentage that triggers a proactive grow. */
    unsigned growLoadPercent = 70;
    /** TTL attached to puts that do not carry their own (0 = none). */
    std::uint64_t defaultTtlNanos = 0;
    /** Initial TM configuration applied to every shard. */
    polytm::TmConfig initial{};
    /**
     * Gates flight-recorder trace capture (2PC phases, retries,
     * maintenance, retunes). The metric-registry counters stay on
     * either way — they replaced the seed's stats counters at the
     * same relaxed-add cost, and the old accessors read through them.
     * Off is the baseline leg of the bench's instrumentation A/B.
     */
    bool telemetry = true;
    /**
     * Durability level (see wal.hpp). Anything but kOff requires
     * walDir. Construction replays whatever the directory holds
     * (crash recovery) before serving.
     */
    Durability durability = Durability::kOff;
    /** WAL directory (created if missing). */
    std::string walDir;
    /** Append-buffer spill threshold per shard log — the group-commit
     *  batch window in bytes. */
    std::size_t walFlushBytes = 1 << 16;
    /** Slots per checkpoint-walker transaction (bounded chunks, same
     *  pattern as the migration walker). */
    unsigned checkpointChunkSlots = 256;
};

/** One operation of a multi-key transaction or a batch. */
struct KvOp
{
    enum class Kind : std::uint8_t
    {
        kGet = 0,
        kPut,
        kDel,
        kAdd, //!< value += (int64)value-field; creates absent keys
        kPutBytes, //!< store `bytes` (wide value; value is scratch)
        kGetBytes, //!< read into `bytes`
    };

    Kind kind = Kind::kGet;
    std::uint64_t key = 0;
    std::uint64_t value = 0; //!< put payload / add delta; get result
    bool ok = false;         //!< outcome (found / applied)
    /** kPutBytes payload / kGetBytes result. */
    std::string bytes{};
    /** Relative TTL for kPut/kPutBytes (0 = store default). */
    std::uint64_t ttlNanos = 0;
};

class KvStore
{
  public:
    explicit KvStore(KvStoreOptions options = {});
    /** Tears the retired-context lists down iteratively (the chained
     *  unique_ptrs would otherwise recurse once per context). */
    ~KvStore();

    int numShards() const { return static_cast<int>(shards_.size()); }
    std::size_t shardOf(std::uint64_t key) const;
    Shard &shard(std::size_t i) { return *shards_[i]; }
    const Shard &shard(std::size_t i) const { return *shards_[i]; }

    /**
     * Per-thread handle holding one registered ThreadToken per shard,
     * plus the scratch buffers of the multi-key paths. A session's
     * per-shard writer state (arena cache, limbo, held-back insert
     * count) lives in each shard's record for the token's tid, so
     * single-key writes are plain Shard calls. Open/close from the
     * owning thread; a session must not be shared across threads.
     */
    class Session
    {
      public:
        Session() = default;
        Session(Session &&) = default;
        /** Move-assign swaps the displaced resources into `other` so
         *  they are released properly (tokens deregistered, commit
         *  context parked — never freed) when `other` dies. */
        Session &
        operator=(Session &&other) noexcept
        {
            if (this != &other) {
                std::swap(store_, other.store_);
                ctx_.swap(other.ctx_);
                tokens_.swap(other.tokens_);
                tagged_ = std::move(other.tagged_);
                scratch_ = std::move(other.scratch_);
                slices_ = std::move(other.slices_);
                intents_ = std::move(other.intents_);
                intentRanges_ = std::move(other.intentRanges_);
                seqSnapshot_ = std::move(other.seqSnapshot_);
                reclaim_ = std::move(other.reclaim_);
                displaced_ = std::move(other.displaced_);
                walOps_ = std::move(other.walOps_);
                walOpRanges_ = std::move(other.walOpRanges_);
                walLsns_ = std::move(other.walLsns_);
                walBatchEnds_ = std::move(other.walBatchEnds_);
                walStatus_ = other.walStatus_;
            }
            return *this;
        }
        /**
         * A session destroyed without closeSession() (e.g. stack
         * unwinding) deregisters its shard tokens and parks its
         * commit context back at the store — destroying the context
         * would free intent memory a concurrent reader may still
         * dereference. Sessions must not outlive the store (their
         * tokens already reference its shards).
         */
        ~Session();

        /** This session's registered token on shard `i` — for callers
         *  driving Shard maintenance or *Tx primitives directly. */
        polytm::ThreadToken &token(std::size_t i) { return tokens_[i]; }

        /** One contiguous run of grouped ops on one shard
         *  (implementation detail of multiOp/applyBatch; a scan reads
         *  as one empty slice). */
        struct ShardSlice
        {
            std::uint32_t shard;
            std::uint32_t begin;
            std::uint32_t end;
        };

        /** One grouped op: home shard, the op, and the absolute TTL
         *  deadline its write carries (0 = none). */
        struct TaggedOp
        {
            std::uint32_t shard;
            KvOp *op;
            std::uint64_t expiry;
        };

      private:
        friend class KvStore;

        KvStore *store_ = nullptr;
        std::vector<polytm::ThreadToken> tokens_;
        /** Reusable multiOp/batch grouping scratch (hot path stays
         *  allocation-free in steady state): ops tagged with their
         *  home shard in program order, the same ops grouped by
         *  shard, and the contiguous per-shard slices. */
        std::vector<TaggedOp> tagged_;
        std::vector<TaggedOp> scratch_;
        std::vector<ShardSlice> slices_;
        /** 2PC state: commit record + intent arena (lazily created,
         *  retired — not freed — on close; see commit_record.hpp),
         *  the intents prepared by the current multiOp, and their
         *  per-slice [begin, end) ranges. */
        std::unique_ptr<CommitContext> ctx_;
        std::vector<WriteIntent *> intents_;
        std::vector<std::pair<std::uint32_t, std::uint32_t>>
            intentRanges_;
        /** Per-round shard-sequence samples (snapshotRounds' trailing
         *  check). */
        std::vector<std::uint64_t> seqSnapshot_;
        /**
         * Displaced blob handles of the current 2PC, tagged with
         * their home shard; retired into the shard arenas only once
         * the composite committed (a failed attempt's pre-images stay
         * live). Appended per slice only after that slice's
         * transaction ran, so retried attempts never double-capture.
         */
        std::vector<std::pair<std::uint32_t, std::uint64_t>> reclaim_;
        /** Displaced blob handles of one shard's composite write
         *  transaction (a slice, a 2PC prepare), captured by the
         *  shard's write primitives. Reused across calls, so
         *  overwriting a blob value allocates nothing. */
        std::vector<std::uint64_t> displaced_;
        /** WAL capture scratch (durable stores only): post-image ops
         *  recorded inside the current transaction bodies, their
         *  per-slice [begin, end) ranges, and each slice's LSN. */
        std::vector<wal::WalOp> walOps_;
        std::vector<std::pair<std::uint32_t, std::uint32_t>>
            walOpRanges_;
        std::vector<std::uint64_t> walLsns_;
        /** Per-shard WAL append end of the current composite's
         *  slices, not yet waited on (0 = none): the composite rides
         *  ONE barrier per touched shard (barrierSlices) instead of
         *  one per slice. Sized at openSession. */
        std::vector<std::uint64_t> walBatchEnds_;
        /** First WAL failure observed by the current composite (reset
         *  per op; reported as the op's KvResult). */
        KvStatus walStatus_ = KvStatus::kOk;
    };

    Session openSession();
    void closeSession(Session &session);

    /**
     * Single-key operations (one TM transaction on the home shard).
     * put/putBytes grow the shard online instead of failing on a full
     * table; they fail with kNoSpace only when growth is capped
     * (maxLog2SlotsPerShard) and the table stays full. On a degraded
     * store writes fail fast with kReadOnly before any effect; a WAL
     * error mid-op yields kWalError (not acked — the in-memory
     * effect may or may not survive recovery). ttl_nanos is a
     * relative expiry (0 = the store's defaultTtlNanos).
     */
    bool get(Session &session, std::uint64_t key,
             std::uint64_t *value = nullptr);
    KvResult put(Session &session, std::uint64_t key,
                 std::uint64_t value, std::uint64_t ttl_nanos = 0);
    /** kNotFound when the key was absent (compares false, matching
     *  the old bool contract). */
    KvResult del(Session &session, std::uint64_t key);
    /** Wide values: arbitrary byte strings (inline up to 7 bytes,
     *  blob-backed beyond; see value_arena.hpp for the contract). */
    KvResult putBytes(Session &session, std::uint64_t key,
                      const void *data, std::size_t len,
                      std::uint64_t ttl_nanos = 0);
    bool getBytes(Session &session, std::uint64_t key, std::string *out);
    std::size_t scan(Session &session, std::uint64_t start_key,
                     std::size_t limit,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>
                         *out = nullptr);
    /** Byte-decoding scan (numeric values yield their 8 raw bytes). */
    std::size_t scanEntries(Session &session, std::uint64_t start_key,
                            std::size_t limit,
                            std::vector<Shard::ScanEntry> *out);

    /**
     * Multi-key transaction. Results land in each op's ok/value/bytes
     * fields. A put/add that runs out of table space aborts the
     * composite with **no effect** — all-or-nothing (2PC aborts the
     * commit record before anything is visible; a single-shard
     * composite runs as one slice, like a batch's, whose transaction
     * rolls back, as it does on every TM backend) — after which the
     * store grows the full shard online and retries the composite
     * transparently. Returns kNoSpace only when growth is capped
     * (maxLog2SlotsPerShard) and the insert still cannot fit; the
     * ops' result fields are unspecified after a failure.
     *
     * Atomicity contract. A *writing* multiOp is atomic to every
     * observer: its writes become visible together at the
     * commit-record flip, and any observer that catches the finalize
     * in progress reads through the committed intents. A *read-only*
     * multiOp observes a consistent cross-shard snapshot with respect
     * to writing multiOps (the snapshot-epoch read: in-flight intents
     * resolve against the sampled commit sequence, and the round
     * repeats only if a cross-shard commit flipped on a *touched*
     * shard inside it). A single-shard writing multiOp bumps its
     * shard's sequence before its transaction, so a snapshot never
     * sees a session's later writing multiOp without its earlier one.
     * It is not a serializable snapshot against single-key writers or
     * batches: another session's two sequential puts (or batch
     * slices) on different shards may be observed out of program
     * order. Reads mixed into a *writing* multiOp are exact
     * for keys the composite also writes (read-your-writes) and
     * per-shard consistent otherwise, but do not form a global
     * snapshot.
     *
     * Read-ahead. Before the first transaction, grouping the ops by
     * shard also issues hint-only prefetches for all of them: every
     * op's home slot record, then, for byte reads, the blob each
     * record names (Shard::prefetchSlot / prefetchValue). The ops'
     * independent cache misses then overlap instead of queueing one
     * lookup behind the other. The hints
     * decide nothing: the transactions read and validate as before.
     */
    KvResult multiOp(Session &session, std::vector<KvOp> &ops);

    /** Staged operations, flushed grouped by shard. */
    class Batch
    {
      public:
        void
        get(std::uint64_t key)
        {
            ops_.push_back({KvOp::Kind::kGet, key, 0, false});
        }
        void
        put(std::uint64_t key, std::uint64_t value)
        {
            ops_.push_back({KvOp::Kind::kPut, key, value, false});
        }
        void
        del(std::uint64_t key)
        {
            ops_.push_back({KvOp::Kind::kDel, key, 0, false});
        }
        void
        putBytes(std::uint64_t key, std::string bytes,
                 std::uint64_t ttl_nanos = 0)
        {
            ops_.push_back({KvOp::Kind::kPutBytes, key, 0, false,
                            std::move(bytes), ttl_nanos});
        }
        void
        getBytes(std::uint64_t key)
        {
            ops_.push_back({KvOp::Kind::kGetBytes, key, 0, false});
        }

        std::size_t size() const { return ops_.size(); }
        const std::vector<KvOp> &ops() const { return ops_; }
        void clear() { ops_.clear(); }

      private:
        friend class KvStore;
        std::vector<KvOp> ops_;
    };

    /**
     * Apply a batch: one TM transaction per touched shard's slice, in
     * program order and all-or-nothing (atomic per shard only), run
     * by the same slice function as a single-shard writing multiOp.
     * Results are readable through `batch.ops()` until the next
     * clear(). A put that finds its shard full rolls the slice back,
     * grows the shard and re-runs the whole slice. Returns kNoSpace
     * only when growth is capped and an insert still cannot fit: the
     * full shard's slice then has no effect and every op of it
     * reports ok false, while the other shards' slices stay applied.
     * Each slice, applied or not, ticks its shard's maintenance
     * (migration / TTL-sweep walker). Durable batches append one
     * record per slice and wait on one barrier per touched shard.
     * Grouping issues the same hint-only read-ahead as multiOp before
     * the first shard's transaction.
     */
    KvResult applyBatch(Session &session, Batch &batch);

    /**
     * Store-wide commit sequence: the read timestamp snapshot reads
     * sample, reserved by every cross-shard 2PC at its commit point
     * (so it counts commits that reached the commit point, including
     * the handful that are mid-flip). Monotonic.
     */
    std::uint64_t commitSequence() const
    {
        return commitSeq_->load(std::memory_order_acquire);
    }

    /** The store's instrument registry. External publishers (e.g.
     *  the traffic driver) register their own metrics here so one
     *  telemetry() walk exports everything. */
    obs::MetricRegistry &metrics() { return metrics_; }
    /** Trace-event rings: 2PC phases, snapshot retries/escalations,
     *  shard maintenance, arena reclamation, retune decisions. */
    obs::FlightRecorder &flightRecorder() { return recorder_; }
    const obs::FlightRecorder &flightRecorder() const
    {
        return recorder_;
    }

    /**
     * One-pass walk of every registered metric — the native striped
     * counters/histograms plus the bridged TM / arena / shard stats —
     * stamped with the store-wide commit sequence. This is a *weak*
     * snapshot: each metric is read in turn while operations
     * continue (a bridged TM total samples every shard's per-thread
     * profiles one after another), so values from different metrics
     * or shards may differ by operations in flight during the walk —
     * every value is real, but the set is not a single point in time.
     * Quiesce the store first when exact cross-counter invariants are
     * needed (the tests do). Render with toJson() / toPrometheus().
     */
    obs::TelemetrySnapshot telemetry() const;

    /** Record an auto-tuner decision: trace event + retune counter.
     *  `packedConfigs` is (oldConfig << 32) | newConfig; `kpiBits`
     *  the bit-cast KPI that triggered it. */
    void noteRetune(int shard, std::uint64_t packedConfigs,
                    std::uint64_t kpiBits);

    /** Unpark every shard's disabled workers (shutdown path). */
    void resumeAllForShutdown();

    /** True when the store runs with a WAL (durability != kOff). */
    bool durable() const { return !wals_.empty(); }

    /** Current health (see Health). Monotonic; reads stay served in
     *  every state. */
    Health
    health() const
    {
        return static_cast<Health>(
            health_.load(std::memory_order_acquire));
    }

    /**
     * Checkpoint every shard: rotate its log segment, capture a
     * barrier LSN, walk the table in bounded transactional chunks
     * (writers never stall — racing writes land after the barrier and
     * replay over the image), write the image atomically, and delete
     * the log generations older than the *previous* checkpoint (the
     * previous generation is retained so recovery can fall back to it
     * if the newest image is corrupt). Safe to call on a live store;
     * concurrent checkpoint() calls serialize. Returns false when any
     * shard's checkpoint failed — the store keeps serving from the
     * old checkpoints and skips truncation, degrading only when the
     * failure was lack of space.
     */
    bool checkpoint(Session &session);

    /** Flush (and, under kFsyncGroup, fsync) every shard's append
     *  buffer — the graceful-shutdown final barrier. No-op when not
     *  durable. */
    void flushWal();

    /** What construction-time recovery replayed (zeroes for a fresh
     *  directory or a non-durable store). */
    struct RecoveryInfo
    {
        std::uint64_t checkpointEntries = 0;
        std::uint64_t replayedRecords = 0;
        std::uint64_t replayedOps = 0;
        std::uint64_t inDoubtAborted = 0;
        std::uint64_t tornBytes = 0;
    };
    const RecoveryInfo &recoveryInfo() const { return recoveryInfo_; }

  private:
    /** Sum of per-shard PolyTM stats: the source of the tm_commits /
     *  tm_aborts* bridges (same weak-snapshot semantics as
     *  telemetry()). */
    polytm::PolyStats totalStats() const;

    /** 2PC verdicts: committed; table-full with the shard already
     *  grown (the caller re-runs the whole composite); or a hard
     *  failure (growth capped, or the WAL refused the prepare). */
    enum class OpStatus
    {
        kDone,
        kRetryAfterGrow,
        kFailed,
    };

    /** Yield-only retry budget before a snapshot read backs off with
     *  sleeps (counted in snapshot_escalations). */
    static constexpr int kSnapshotBackoffRounds = 64;

    /** Stripe of a hot store counter bumped by `session` on shard
     *  `s`: the session's tid there, so concurrent sessions bump
     *  different lines even when they touch the same shard. */
    static std::size_t
    counterStripe(const Session &session, std::size_t s)
    {
        return static_cast<std::size_t>(session.tokens_[s].tid);
    }

    /** Per-round backoff of snapshotRounds. */
    void snapshotRetryPause(int round);

    /**
     * The snapshot-epoch read of every read-only composite (multiOps,
     * and scans as one slice): sample the slices' shard sequences and
     * then the store-wide read timestamp, run `body(slice, tx, view)`
     * as one validation-free transaction per slice, and re-check the
     * sequences — repeating the round only when a commit bumped a
     * touched shard inside it.
     */
    template <typename Body>
    void snapshotRounds(Session &session,
                        std::span<const Session::ShardSlice> slices,
                        Body &&body);

    /**
     * Apply one shard's slice of a batch or a single-shard writing
     * multiOp: the all-or-nothing transaction, grown and re-run on a
     * full table; the slice's WAL kBatch record appended (its end in
     * walBatchEnds_ — the caller rides the barrier, barrierSlices);
     * displaced values retired, the tally fed, one maintenance tick.
     * False when growth is capped: the slice then had no effect, every
     * op reports ok false and its staged values are unstaged.
     */
    bool applySlice(Session &session, const Session::ShardSlice &slice);
    /** Wait on each touched shard's WAL append end (durable stores). */
    void barrierSlices(Session &session);
    OpStatus multiOpTwoPhaseWrite(Session &session);

    /**
     * Stage the grouped ops' kPutBytes values on their home shards
     * (Shard::stageValue; once per composite, kept across
     * grow-retries, carried in the op's scratch value field) and
     * enable the TTL sweep of every shard a TTL'd write lands on. On
     * bad_alloc unstages what it staged and returns kNoMemory:
     * nothing was written.
     */
    KvStatus stageWrites(Session &session);
    /** Unstage the values staged for the kPutBytes ops among `ops`
     *  (a failed slice's, an aborted 2PC's): no committed slot word
     *  ever named them. */
    void unstageOps(Session &session,
                    std::span<const Session::TaggedOp> ops);

    KvStoreOptions options_;
    /**
     * Observability plane. Declared before shards_ (destroyed after
     * them): the shards hold raw pointers into the recorder, and the
     * registry's bridge callbacks read shard state during telemetry().
     * Counter handles are resolved once here; the hot paths record
     * through the references with a single relaxed add, striped by
     * the session's tid (counterStripe) or, off the hot paths, by
     * shard.
     */
    obs::MetricRegistry metrics_;
    obs::FlightRecorder recorder_;
    obs::Counter &snapRounds_;
    obs::Counter &snapRetries_;
    obs::Counter &snapEscalations_;
    obs::Counter &twoPhaseCommits_;
    obs::Counter &twoPhaseAborts_;
    obs::Counter &retunes_;
    obs::Counter &walAppends_;
    obs::Counter &walFsyncs_;
    obs::Counter &walBytes_;
    obs::Counter &walCkptChunks_;
    obs::Counter &walErrors_;
    obs::Counter &walRescues_;
    obs::Counter &walCkptFailures_;
    obs::Counter &writesRejected_;
    obs::Counter &healthTransitions_;
    obs::Histogram &walFsyncNanos_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Store-wide commit sequence: reserved (fetch_add) by every 2PC
     *  at its commit point *before* the per-shard bumps and the
     *  status flip; snapshot reads sample it as their timestamp. On
     *  its own line: every operation reads shards_, and sharing a
     *  line with it would cost each one a coherence miss per commit. */
    PaddedAtomicU64 commitSeq_;
    /**
     * The snapshot-epoch vector: per-shard commit sequences on
     * private cache lines, bumped for every *touched* shard between
     * the sequence reservation and the commit flip. Read-only rounds
     * sample the shards they actually read and re-check them at the
     * end, so commits to unrelated shards never force a retry.
     */
    std::unique_ptr<PaddedAtomicU64[]> shardSeqs_;
    /**
     * Durability plane (empty when durability == kOff). wals_[s] is
     * shard s's log; walGen_[s] the generation its active segment and
     * next checkpoint carry. walTxnId_ names cross-shard 2PC
     * transactions in prepare/outcome records (monotonic, seeded past
     * recovery's max).
     */
    std::vector<std::unique_ptr<wal::ShardWal>> wals_;
    std::vector<std::uint64_t> walGen_;
    std::atomic<std::uint64_t> walTxnId_{0};
    /** Serializes checkpoint() callers (rotation + gen bookkeeping)
     *  and the sync-loss rescue rotation in onWalError. */
    std::mutex walCkptMutex_;
    RecoveryInfo recoveryInfo_;
    /** Monotonic health ladder (see Health); raised by raiseHealth. */
    std::atomic<std::uint8_t> health_{0};

    /** One shard's checkpoint (see checkpoint()); false on failure. */
    bool checkpointShard(Session &session, std::size_t s);

    /** Log one single-key mutation as a kBatch record and ride the
     *  group-commit barrier (ack-after-durable). Returns the status
     *  the caller must report (kOk = acked durable). */
    KvStatus logSingleOp(std::size_t s, std::uint64_t lsn,
                         wal::WalOp op);

    /** Raise health monotonically (never lowers); emits the
     *  health.transition event + counter on an actual change. */
    void raiseHealth(Health target, int shard);

    /**
     * Central failure-ladder policy for a shard's WAL error:
     * kNoSpace degrades the store read-only; kSyncLoss attempts the
     * one-shot fresh-generation rescue (staying healthy on success,
     * degrading otherwise); kIo fails the store. Returns the
     * KvStatus the failed operation must report (never kOk).
     */
    KvStatus onWalError(std::size_t s, wal::WalError err);
    /** onWalError body for callers already holding walCkptMutex_
     *  (checkpointShard runs the whole shard loop under it). */
    KvStatus onWalErrorLocked(std::size_t s, wal::WalError err);

    /** onWalError for a kBatch record whose memory effects are
     *  already committed (and so cannot be unwound). If the record
     *  never entered the log (res.end == 0: the append failed fast
     *  against a sticky error) and the ladder's rescue left the
     *  shard's log accepting again, re-appends it there — later
     *  commits on the fresh generation embed these post-images, and
     *  recovery (LSN-ordered replay) must see the whole batch or a
     *  later writer of one of its keys would resurrect it half-
     *  applied. The op stays un-acked either way. */
    KvStatus committedBatchWalError(std::size_t s, wal::Record &rec,
                                    const wal::AppendResult &res);

    /** Write-path admission gate: kOk to proceed, kReadOnly once the
     *  store is degraded/failed (checked before any memory effect). */
    KvStatus
    admitWrite()
    {
        if (health() == Health::kHealthy) [[likely]]
            return KvStatus::kOk;
        writesRejected_.add(1, 0);
        return KvStatus::kReadOnly;
    }

    /** Park a clean commit context for reuse (see ctxPool_). */
    void retireContext(std::unique_ptr<CommitContext> ctx) noexcept;

    std::mutex ctxMutex_;
    /**
     * Retired commit contexts, kept alive until store destruction so
     * stale intent pointers in concurrent readers never dangle.
     * Cleanly closed sessions park theirs in the reuse pool
     * (`ctxPool_`; epoch tagging makes reuse by a new session safe);
     * only contexts poisoned by a mid-protocol exception — which may
     * still own uncleared intents — land in the permanent
     * `graveyard_`. Both are intrusive lists (CommitContext::next):
     * parking must stay allocation-free and noexcept because it runs
     * on bad_alloc unwind paths and in ~Session.
     */
    std::unique_ptr<CommitContext> graveyard_;
    std::unique_ptr<CommitContext> ctxPool_;
};

} // namespace proteus::kvstore

#endif // PROTEUS_KVSTORE_KVSTORE_HPP
