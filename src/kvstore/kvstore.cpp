#include "kvstore/kvstore.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <new>
#include <stdexcept>
#include <thread>

#include "common/timing.hpp"
#include "kvstore/recovery.hpp"
#include "obs/process_stats.hpp"

namespace proteus::kvstore {

namespace {

/** Shard router hash — distinct from the in-shard slot hash so shard
 *  choice and slot choice stay uncorrelated. */
std::uint64_t
routeMix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    return x ^ (x >> 33);
}

/**
 * Thrown out of a transaction body when a put/add finds no slot. A
 * foreign (non-TxAbort) exception, so PolyTm::run rolls the open
 * transaction back — nothing of the failing shard commits — and
 * rethrows for multiOp (which unwinds a 2PC's other shards) or
 * applyBatch to grow-and-retry (or fail for good when growth is
 * capped).
 */
struct TableFullError
{
};

/**
 * Absolute expiry word of a write whose relative TTL is `ttl_nanos`,
 * or `default_ttl` when that is 0 (0 = no expiry). Saturates: a TTL
 * past the clock's range never expires instead of wrapping into the
 * past.
 */
std::uint64_t
expiryFor(std::uint64_t ttl_nanos, std::uint64_t default_ttl)
{
    const std::uint64_t ttl = ttl_nanos != 0 ? ttl_nanos : default_ttl;
    if (ttl == 0)
        return 0;
    constexpr std::uint64_t kNever = ~std::uint64_t{0};
    const std::uint64_t now = nowNanos();
    return ttl > kNever - now ? kNever : now + ttl;
}

} // namespace

const char *
healthName(Health h)
{
    switch (h) {
      case Health::kHealthy:          return "healthy";
      case Health::kDegradedReadOnly: return "degraded_readonly";
      case Health::kFailed:           return "failed";
    }
    return "unknown";
}

const char *
kvStatusName(KvStatus s)
{
    switch (s) {
      case KvStatus::kOk:       return "ok";
      case KvStatus::kNotFound: return "not_found";
      case KvStatus::kNoSpace:  return "no_space";
      case KvStatus::kNoMemory: return "no_memory";
      case KvStatus::kReadOnly: return "read_only";
      case KvStatus::kWalError: return "wal_error";
    }
    return "unknown";
}

KvStore::KvStore(KvStoreOptions options)
    : options_(options), recorder_(options.telemetry),
      snapRounds_(metrics_.counter("snapshot_rounds")),
      snapRetries_(metrics_.counter("snapshot_retries")),
      snapEscalations_(metrics_.counter("snapshot_escalations")),
      twoPhaseCommits_(metrics_.counter("twophase_commits")),
      twoPhaseAborts_(metrics_.counter("twophase_aborts")),
      retunes_(metrics_.counter("tuner_retunes")),
      walAppends_(metrics_.counter("wal_appends")),
      walFsyncs_(metrics_.counter("wal_fsyncs")),
      walBytes_(metrics_.counter("wal_bytes")),
      walCkptChunks_(metrics_.counter("checkpoint_chunks")),
      walErrors_(metrics_.counter("wal_errors")),
      walRescues_(metrics_.counter("wal_rescues")),
      walCkptFailures_(metrics_.counter("checkpoint_failures")),
      writesRejected_(metrics_.counter("writes_rejected")),
      healthTransitions_(metrics_.counter("health_transitions")),
      walFsyncNanos_(metrics_.histogram("wal_fsync_nanos"))
{
    if (options.numShards <= 0)
        throw std::invalid_argument("KvStore: numShards must be >= 1");
    if (options.log2SlotsPerShard == 0 || options.log2SlotsPerShard > 30)
        throw std::invalid_argument(
            "KvStore: log2SlotsPerShard must be in [1, 30]");
    if (options.maxLog2SlotsPerShard != 0 &&
        options.maxLog2SlotsPerShard < options.log2SlotsPerShard)
        throw std::invalid_argument(
            "KvStore: maxLog2SlotsPerShard is below the initial "
            "log2SlotsPerShard (the table could never hold its seed)");
    if (options.growLoadPercent == 0 || options.growLoadPercent > 100)
        throw std::invalid_argument(
            "KvStore: growLoadPercent must be in [1, 100]");
    if (options.durability != Durability::kOff) {
        if (options.walDir.empty())
            throw std::invalid_argument(
                "KvStore: durability requires a walDir");
        if (options.walFlushBytes == 0)
            throw std::invalid_argument(
                "KvStore: walFlushBytes of 0 would make every group "
                "commit window empty; use >= 1");
        if (options.checkpointChunkSlots == 0)
            throw std::invalid_argument(
                "KvStore: checkpointChunkSlots must be >= 1");
    }
    shards_.reserve(static_cast<std::size_t>(options.numShards));
    shardSeqs_ = std::make_unique<PaddedAtomicU64[]>(
        static_cast<std::size_t>(options.numShards));
    for (int s = 0; s < options.numShards; ++s) {
        ShardOptions shard_options;
        shard_options.log2Slots = options.log2SlotsPerShard;
        shard_options.maxLog2Slots = options.maxLog2SlotsPerShard;
        shard_options.growLoadPercent = options.growLoadPercent;
        shard_options.initial = options.initial;
        shard_options.recorder = &recorder_;
        shard_options.commitSeq = &commitSeq_.value;
        shard_options.shardIndex = s;
        shards_.push_back(std::make_unique<Shard>(shard_options));
    }

    // Bridge the pre-existing stats planes into the registry so one
    // telemetry() walk exports them; the `this`-capturing callbacks
    // are safe because the registry is a member.
    const auto sumShards = [this](auto fn) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_)
            total += fn(*shard);
        return total;
    };
    metrics_.counterFn("tm_commits", [this] {
        return totalStats().commits;
    });
    metrics_.counterFn("tm_aborts", [this] {
        return totalStats().aborts;
    });
    static const char *const kCauseNames[] = {
        nullptr,
        "tm_aborts_conflict",
        "tm_aborts_capacity",
        "tm_aborts_explicit",
        "tm_aborts_fallback_lock",
        "tm_aborts_validation",
    };
    for (std::size_t c = 1; c < std::size(kCauseNames); ++c) {
        metrics_.counterFn(kCauseNames[c], [this, c] {
            return totalStats().abortsByCause[c];
        });
    }
    metrics_.counterFn("snapshot_pending_waits", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.snapshotPendingWaits();
        });
    });
    metrics_.counterFn("shard_grows", [sumShards] {
        return sumShards(
            [](const Shard &shard) { return shard.growCount(); });
    });
    metrics_.counterFn("shard_compacts", [sumShards] {
        return sumShards(
            [](const Shard &shard) { return shard.compactCount(); });
    });
    metrics_.gaugeFn("store_capacity_slots", [sumShards] {
        return sumShards(
            [](const Shard &shard) { return shard.capacity(); });
    });
    metrics_.counterFn("arena_allocs", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().allocs;
        });
    });
    metrics_.counterFn("arena_magazine_hits", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().magazineHits;
        });
    });
    metrics_.counterFn("arena_global_hits", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().globalHits;
        });
    });
    metrics_.counterFn("arena_carves", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().carves;
        });
    });
    metrics_.counterFn("arena_carve_contended", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().carveContended;
        });
    });
    metrics_.counterFn("arena_cas_retries", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().casRetries;
        });
    });
    metrics_.counterFn("arena_retired", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().retired;
        });
    });
    metrics_.counterFn("arena_recycled", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().recycled;
        });
    });
    metrics_.gaugeFn("arena_bytes_live", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().bytesLive();
        });
    });
    metrics_.gaugeFn("arena_limbo", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().limboCount();
        });
    });
    metrics_.gaugeFn("health_state", [this] {
        return static_cast<std::uint64_t>(
            health_.load(std::memory_order_relaxed));
    });
    metrics_.gaugeFn("wal_lost_bytes", [this] {
        std::uint64_t total = 0;
        for (const auto &shard_wal : wals_)
            total += shard_wal->lostBytes();
        return total;
    });
    metrics_.gaugeFn("process_anon_huge_bytes", [] {
        return obs::processAnonHugeBytes();
    });

    if (options_.durability != Durability::kOff) {
        std::filesystem::create_directories(options_.walDir);
        int meta_shards = 0;
        if (wal::readMeta(options_.walDir, &meta_shards)) {
            if (meta_shards != options_.numShards)
                throw std::invalid_argument(
                    "KvStore: walDir belongs to a store with " +
                    std::to_string(meta_shards) + " shards, not " +
                    std::to_string(options_.numShards));
        } else {
            wal::writeMeta(options_.walDir, options_.numShards);
        }

        // Replay what survived into the freshly built shards, then
        // seed the store-wide sequences past everything recovered.
        const recovery::RecoveryStats stats =
            recovery::recover(options_.walDir, shards_, &recorder_);
        commitSeq_->store(stats.maxCommitSeq, std::memory_order_relaxed);
        walTxnId_.store(stats.maxTxnId, std::memory_order_relaxed);
        for (std::size_t s = 0; s < shards_.size(); ++s)
            shardSeqs_[s].value.store(stats.maxCommitSeq,
                                      std::memory_order_relaxed);
        recoveryInfo_.checkpointEntries = stats.checkpointEntries;
        recoveryInfo_.replayedRecords = stats.replayedRecords;
        recoveryInfo_.replayedOps = stats.replayedOps;
        recoveryInfo_.inDoubtAborted = stats.inDoubtAborted;
        recoveryInfo_.tornBytes = stats.tornBytes;
        metrics_.counter("recovery_replayed_records")
            .add(stats.replayedRecords, 0);
        metrics_.counter("recovery_replayed_ops")
            .add(stats.replayedOps, 0);
        metrics_.counter("recovery_indoubt_aborted")
            .add(stats.inDoubtAborted, 0);

        // Open each shard's log at a fresh generation, then compact:
        // the initial checkpoint folds everything just replayed into
        // one image and deletes the old segment files.
        wals_.reserve(shards_.size());
        walGen_.resize(shards_.size(), 0);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            wal::WalObs obs{&walAppends_, &walFsyncs_, &walBytes_,
                            &walFsyncNanos_, &recorder_,
                            static_cast<int>(s)};
            const std::uint64_t gen =
                wal::maxGeneration(options_.walDir,
                                   static_cast<int>(s)) +
                1;
            walGen_[s] = gen;
            wals_.push_back(std::make_unique<wal::ShardWal>(
                options_.walDir + "/" +
                    wal::segmentFileName(static_cast<int>(s), gen),
                options_.durability, options_.walFlushBytes, obs));
        }
        Session session = openSession();
        checkpoint(session);
        closeSession(session);
    }
}

std::size_t
KvStore::shardOf(std::uint64_t key) const
{
    return static_cast<std::size_t>(routeMix(key) % shards_.size());
}

KvStore::~KvStore()
{
    flushWal(); // final barrier: nothing acknowledged stays buffered
    for (auto *list : {&graveyard_, &ctxPool_}) {
        while (*list)
            *list = std::move((*list)->next);
    }
}

KvStore::Session::~Session()
{
    if (!store_)
        return;
    // Same teardown as closeSession, so stack unwinding between
    // openSession and closeSession leaks neither thread slots nor the
    // commit context (deregisterThread is adminMutex-protected).
    for (std::size_t s = 0; s < tokens_.size(); ++s)
        store_->shards_[s]->deregisterWorker(tokens_[s]);
    if (ctx_)
        store_->retireContext(std::move(ctx_));
}

void
KvStore::retireContext(std::unique_ptr<CommitContext> ctx) noexcept
{
    std::lock_guard<std::mutex> lk(ctxMutex_);
    ctx->next = std::move(ctxPool_);
    ctxPool_ = std::move(ctx);
}

KvStore::Session
KvStore::openSession()
{
    Session session;
    session.store_ = this;
    session.tokens_.reserve(shards_.size());
    {
        // Recycle a cleanly retired commit context (every intent
        // cleared before its previous owner closed); the epoch in its
        // record keeps any stale readers of the old generation safe.
        std::lock_guard<std::mutex> lk(ctxMutex_);
        if (ctxPool_) {
            session.ctx_ = std::move(ctxPool_);
            ctxPool_ = std::move(session.ctx_->next);
        }
    }
    // Thread-slot exhaustion mid-loop is safe: ~Session gives back
    // the prefix of slots we took and parks the pooled commit
    // context (freeing it would break the never-free invariant).
    for (auto &shard : shards_)
        session.tokens_.push_back(shard->registerWorker());
    session.walBatchEnds_.assign(wals_.size(), 0);
    return session;
}

void
KvStore::closeSession(Session &session)
{
    for (std::size_t s = 0; s < session.tokens_.size(); ++s)
        shards_[s]->deregisterWorker(session.tokens_[s]);
    session.tokens_.clear();
    if (session.ctx_) {
        // Park for reuse, don't free: a reader transaction that
        // loaded one of this session's intent pointers may still
        // dereference it (and then fail validation on the changed,
        // epoch-tagged word); the memory must outlive it. Every
        // intent was cleared before the owning multiOp returned, so
        // the context is clean — exception-poisoned contexts never
        // get here (multiOpTwoPhaseWrite graveyards them directly).
        retireContext(std::move(session.ctx_));
    }
}

bool
KvStore::get(Session &session, std::uint64_t key, std::uint64_t *value)
{
    const std::size_t s = shardOf(key);
    return shards_[s]->get(session.tokens_[s], key, value);
}

bool
KvStore::getBytes(Session &session, std::uint64_t key, std::string *out)
{
    const std::size_t s = shardOf(key);
    return shards_[s]->getBytes(session.tokens_[s], key, out);
}

KvResult
KvStore::put(Session &session, std::uint64_t key, std::uint64_t value,
             std::uint64_t ttl_nanos)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    const std::size_t s = shardOf(key);
    const std::uint64_t expiry =
        expiryFor(ttl_nanos, options_.defaultTtlNanos);
    std::uint64_t lsn = 0;
    if (!shards_[s]->put(session.tokens_[s], key, value, expiry,
                         durable() ? &lsn : nullptr))
        return KvStatus::kNoSpace;
    if (!durable())
        return KvStatus::kOk;
    return logSingleOp(s, lsn,
                       {wal::WalOp::Kind::kPut, key, value, expiry, {}});
}

KvResult
KvStore::putBytes(Session &session, std::uint64_t key, const void *data,
                  std::size_t len, std::uint64_t ttl_nanos)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    const std::size_t s = shardOf(key);
    const std::uint64_t expiry =
        expiryFor(ttl_nanos, options_.defaultTtlNanos);
    ValueRef staged = 0;
    try {
        staged = shards_[s]->stageValue(session.tokens_[s], data, len);
    } catch (const std::bad_alloc &) {
        return KvStatus::kNoMemory; // nothing staged, nothing written
    }
    std::uint64_t lsn = 0;
    if (!shards_[s]->putRef(session.tokens_[s], key, staged, expiry,
                            durable() ? &lsn : nullptr))
        return KvStatus::kNoSpace;
    if (!durable())
        return KvStatus::kOk;
    wal::WalOp op{wal::WalOp::Kind::kPutBytes, key, 0, expiry, {}};
    op.bytes.assign(static_cast<const char *>(data), len);
    return logSingleOp(s, lsn, std::move(op));
}

KvResult
KvStore::del(Session &session, std::uint64_t key)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    const std::size_t s = shardOf(key);
    std::uint64_t lsn = 0;
    const bool found = shards_[s]->del(session.tokens_[s], key,
                                       durable() ? &lsn : nullptr);
    if (durable()) {
        const KvStatus wal_status = logSingleOp(
            s, lsn, {wal::WalOp::Kind::kDel, key, 0, 0, {}});
        if (wal_status != KvStatus::kOk)
            return wal_status;
    }
    return found ? KvStatus::kOk : KvStatus::kNotFound;
}

template <typename Body>
void
KvStore::snapshotRounds(Session &session,
                        std::span<const Session::ShardSlice> slices,
                        Body &&body)
{
    // Snapshot-epoch read: sample every touched shard's sequence,
    // then the store-wide commit sequence (in that order — the proof
    // below leans on it), and run each slice's reads as one TM
    // transaction resolving in-flight intents against the sampled
    // timestamp. The round is trustworthy iff no touched shard's
    // sequence advanced inside it:
    //  - a commit whose per-shard bump the round *straddled* (bump
    //    before our sample) reserved and published its record
    //    sequence before that bump, so our snapshot G >= its C — the
    //    resolver includes it deterministically (waiting out the
    //    few-store flip window if it races the round);
    //  - a commit whose bump came after our samples is excluded by
    //    the resolver (its C is provably > G or unpublished), and if
    //    it flips mid-round — the only case a torn pre/post mix or a
    //    raw folded post-image could be observed — the trailing check
    //    fails and the round repeats.
    // A single-shard writing multiOp bumps its shard before its
    // transaction, so a round that saw it without a session's earlier
    // one fails the same check. Commits touching only other shards
    // never force a retry, and a write-free workload settles every
    // round first try. Single-key writers are not serialized against
    // (contract in kvstore.hpp).
    const std::uint32_t first = slices.front().shard;
    for (int round = 0;; ++round) {
        session.seqSnapshot_.clear();
        for (const auto &slice : slices) {
            session.seqSnapshot_.push_back(
                shardSeqs_[slice.shard].value.load(
                    std::memory_order_acquire));
        }
        const ReadView view{
            ReadView::Mode::kSnapshot,
            commitSeq_->load(std::memory_order_acquire)};
        for (const auto &slice : slices) {
            shards_[slice.shard]->poly().run(
                session.tokens_[slice.shard],
                [&](polytm::Tx &tx) { body(slice, tx, view); });
        }
        bool stable = true;
        for (std::size_t j = 0; stable && j < slices.size(); ++j) {
            stable = shardSeqs_[slices[j].shard].value.load(
                         std::memory_order_acquire) ==
                     session.seqSnapshot_[j];
        }
        // Striped by the session's tid on the round's first shard, so
        // sessions reading the same shards bump different lines.
        snapRounds_.add(1, counterStripe(session, first));
        if (stable)
            return;
        snapRetries_.add(1, counterStripe(session, first));
        recorder_.record(obs::TraceKind::kSnapshotRetry,
                         static_cast<std::int32_t>(first),
                         commitSequence(),
                         static_cast<std::uint64_t>(round),
                         slices.size());
        snapshotRetryPause(round);
    }
}

std::size_t
KvStore::scan(Session &session, std::uint64_t start_key,
              std::size_t limit,
              std::vector<std::pair<std::uint64_t, std::uint64_t>> *out)
{
    const Session::ShardSlice slice{
        static_cast<std::uint32_t>(shardOf(start_key)), 0, 0};
    Shard &shard = *shards_[slice.shard];
    std::size_t count = 0;
    snapshotRounds(session, {&slice, 1},
                   [&](const Session::ShardSlice &, polytm::Tx &tx,
                       const ReadView &view) {
                       count = shard.scanTx(tx, start_key, limit, out,
                                            view);
                   });
    return count;
}

std::size_t
KvStore::scanEntries(Session &session, std::uint64_t start_key,
                     std::size_t limit,
                     std::vector<Shard::ScanEntry> *out)
{
    const Session::ShardSlice slice{
        static_cast<std::uint32_t>(shardOf(start_key)), 0, 0};
    Shard &shard = *shards_[slice.shard];
    std::size_t count = 0;
    snapshotRounds(session, {&slice, 1},
                   [&](const Session::ShardSlice &, polytm::Tx &tx,
                       const ReadView &view) {
                       EpochPin pin(shard.readerEpochs(),
                                    *session.tokens_[slice.shard].epochSlot);
                       count = shard.scanEntriesTx(tx, start_key, limit,
                                                   out, view);
                   });
    return count;
}

namespace {

using TaggedOp = KvStore::Session::TaggedOp;

/** Append `op`'s post-image to `wal_ops` (nullptr → store not
 *  durable). kAdd logs its computed result as a plain put, so replay
 *  never re-adds. */
void
captureWalOp(std::vector<wal::WalOp> *wal_ops, const KvOp &op,
             std::uint64_t expiry, const SlotImage &post)
{
    if (wal_ops == nullptr)
        return;
    switch (op.kind) {
      case KvOp::Kind::kPut:
        if (op.ok)
            wal_ops->push_back({wal::WalOp::Kind::kPut, op.key,
                                op.value, expiry, {}});
        break;
      case KvOp::Kind::kPutBytes:
        if (op.ok)
            wal_ops->push_back({wal::WalOp::Kind::kPutBytes, op.key, 0,
                                expiry, op.bytes});
        break;
      case KvOp::Kind::kDel:
        // Always logged: a delete post-image is idempotent and a miss
        // may still have reclaimed an expired slot.
        wal_ops->push_back(
            {wal::WalOp::Kind::kDel, op.key, 0, 0, {}});
        break;
      case KvOp::Kind::kAdd:
        if (op.ok)
            wal_ops->push_back({wal::WalOp::Kind::kPut, op.key,
                                post.value, post.expiry, {}});
        break;
      default:
        break;
    }
}

/** Where one shard's composite transaction began appending to the
 *  session's WAL capture and to the commit's intents (IntentArena
 *  entries); every attempt rewinds them there. */
struct AppendMarks
{
    std::size_t walOps = 0;
    std::size_t intents = 0;
};

/**
 * The transaction body of one shard's part of a composite: a slice
 * (KvStore::applySlice, `prep` null: the writes land in the slot
 * words) or a 2PC prepare (`prep` the commit's context: they land as
 * its intents). The ops run in program order, all-or-nothing — a
 * put/putBytes/add that finds no slot throws TableFullError out of the
 * body, so PolyTm::run rolls the whole attempt back. `tally` counts a
 * slice's slot changes for the grow and compaction heuristics and
 * `reclaim` collects displaced blob handles; both restart with the
 * attempt, and the WAL post-images and intents it appends restart
 * from `from`.
 */
void
applyOpsInTx(Shard &shard, polytm::Tx &tx, std::span<const TaggedOp> ops,
             CommitContext *prep, const AppendMarks &from,
             Shard::WriteTally &tally, std::vector<std::uint64_t> &reclaim,
             std::vector<wal::WalOp> *wal_ops)
{
    tally = {};
    reclaim.clear();
    if (wal_ops != nullptr)
        wal_ops->resize(from.walOps);
    if (prep != nullptr)
        prep->arena.rewindTo(from.intents);
    for (const TaggedOp &tagged : ops) {
        KvOp *op = tagged.op;
        SlotImage post;
        switch (op->kind) {
          case KvOp::Kind::kGet:
            // prepareGetTx, not a kLatest point read: reads in a
            // writing composite resolve foreign intents the way the
            // write bodies do — a non-blocking pre-image could straddle
            // a commit flip against another read or be contradicted by
            // a fold under a later write of the same key, and the flip
            // is a plain store the TM does not track.
            op->ok = shard.prepareGetTx(tx, prep, op->key, &op->value);
            continue;
          case KvOp::Kind::kGetBytes:
            op->ok = shard.prepareGetBytesTx(tx, prep, op->key, &op->bytes);
            continue;
          case KvOp::Kind::kPut:
            op->ok = shard.putTx(tx, op->key, kFull, op->value,
                                 tagged.expiry, prep, &tally, &reclaim);
            break;
          case KvOp::Kind::kPutBytes:
            // op->value holds the ValueRef staged by stageWrites.
            op->ok = shard.putTx(tx, op->key, kFullRef, op->value,
                                 tagged.expiry, prep, &tally, &reclaim);
            break;
          case KvOp::Kind::kDel:
            op->ok = shard.delTx(tx, op->key, prep, &tally, &reclaim);
            break;
          case KvOp::Kind::kAdd:
            op->ok = shard.addTx(tx, op->key,
                                 static_cast<std::int64_t>(op->value), prep,
                                 &tally, &reclaim, &post);
            break;
        }
        // A put or add fails only for want of a slot.
        if (!op->ok && op->kind != KvOp::Kind::kDel)
            throw TableFullError{};
        captureWalOp(wal_ops, *op, tagged.expiry, post);
    }
}

/** A 2PC's outcome record: `txid` committed at `commit_seq`, or
 *  aborted. Every outcome the protocol logs comes from here. */
wal::Record
txnOutcome(std::uint64_t txid, bool committed, std::uint64_t commit_seq = 0)
{
    wal::Record outcome;
    outcome.type = wal::RecordType::kTxnOutcome;
    outcome.txid = txid;
    outcome.commitSeq = commit_seq;
    outcome.committed = committed;
    return outcome;
}

/**
 * Group `ops` by home shard into the session's reusable scratch:
 * each shard index is computed exactly once, a counting pass over the
 * shards (via `tagged`) preserves program order within one shard, the
 * absolute TTL deadline of every put is fixed once per multiOp (so
 * retries agree on it), and the contiguous slices are recorded so the
 * pin/prepare/finalize passes walk a precomputed list. Steady state
 * allocates nothing: every buffer is a session vector that keeps its
 * capacity.
 *
 * Grouping doubles as a read-ahead (hints only; see
 * Shard::prefetchSlot): the first wave starts every op's home-record
 * miss while the ops are still being tagged, the second peeks at the
 * now-arriving records of byte reads and starts their blob misses, so
 * the transactions that follow find one op's chain of dependent
 * misses overlapped with every other op's.
 */
void
groupByShard(const KvStore &store, std::uint64_t default_ttl,
             std::vector<KvOp> &ops, std::vector<TaggedOp> &tagged,
             std::vector<TaggedOp> &grouped,
             std::vector<KvStore::Session::ShardSlice> &slices)
{
    tagged.clear();
    // slices[s].end counts shard s's ops until the prefix pass.
    slices.assign(static_cast<std::size_t>(store.numShards()), {0, 0, 0});
    for (KvOp &op : ops) {
        const std::uint64_t expiry =
            op.kind == KvOp::Kind::kPut || op.kind == KvOp::Kind::kPutBytes
                ? expiryFor(op.ttlNanos, default_ttl)
                : 0;
        const auto shard = static_cast<std::uint32_t>(store.shardOf(op.key));
        store.shard(shard).prefetchSlot(op.key);
        tagged.push_back({shard, &op, expiry});
        ++slices[shard].end;
    }
    std::uint32_t at = 0;
    for (std::uint32_t s = 0; s < slices.size(); ++s) {
        const std::uint32_t count = slices[s].end;
        slices[s] = {s, at, at};
        at += count;
    }
    grouped.resize(tagged.size());
    for (const TaggedOp &t : tagged)
        grouped[slices[t.shard].end++] = t;
    std::erase_if(slices, [](const KvStore::Session::ShardSlice &slice) {
        return slice.begin == slice.end;
    });
    for (const TaggedOp &t : grouped) {
        if (t.op->kind == KvOp::Kind::kGetBytes)
            store.shard(t.shard).prefetchValue(t.op->key);
    }
}

/**
 * Pin the session's tokens on every touched shard for a 2PC's
 * critical span (the prepare-to-finalize window): a parked thread
 * must not strand a PENDING intent, and pinning bounds gate pauses to
 * in-flight algorithm switches (paper §4.2).
 */
class PinSpan
{
  public:
    PinSpan(std::vector<std::unique_ptr<Shard>> &shards,
            std::vector<polytm::ThreadToken> &tokens,
            const std::vector<KvStore::Session::ShardSlice> &slices)
        : shards_(shards), tokens_(tokens), slices_(slices)
    {
        for (const auto &slice : slices_)
            shards_[slice.shard]->poly().setPinned(
                tokens_[slice.shard].tid, true);
    }

    ~PinSpan()
    {
        for (const auto &slice : slices_)
            shards_[slice.shard]->poly().setPinned(
                tokens_[slice.shard].tid, false);
    }

  private:
    std::vector<std::unique_ptr<Shard>> &shards_;
    std::vector<polytm::ThreadToken> &tokens_;
    const std::vector<KvStore::Session::ShardSlice> &slices_;
};

} // namespace

KvResult
KvStore::multiOp(Session &session, std::vector<KvOp> &ops)
{
    bool writes = false;
    for (const KvOp &op : ops) {
        writes |= op.kind != KvOp::Kind::kGet &&
                  op.kind != KvOp::Kind::kGetBytes;
    }
    if (writes) {
        if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
            return gate;
    }
    groupByShard(*this, options_.defaultTtlNanos, ops, session.tagged_,
                 session.scratch_, session.slices_);
    if (session.slices_.empty())
        return KvStatus::kOk;

    if (!writes) {
        const auto &grouped = session.scratch_;
        snapshotRounds(
            session, session.slices_,
            [&](const Session::ShardSlice &slice, polytm::Tx &tx,
                const ReadView &view) {
                Shard &shard = *shards_[slice.shard];
                EpochPin pin(shard.readerEpochs(),
                             *session.tokens_[slice.shard].epochSlot);
                for (std::uint32_t i = slice.begin; i < slice.end; ++i) {
                    KvOp *op = grouped[i].op;
                    if (op->kind == KvOp::Kind::kGetBytes) {
                        op->ok = shard.snapshotGetBytesTx(
                            tx, op->key, &op->bytes, view);
                    } else {
                        op->ok = shard.snapshotGetTx(tx, op->key,
                                                     &op->value, view);
                    }
                }
            });
        return KvStatus::kOk;
    }

    session.walStatus_ = KvStatus::kOk;
    if (const KvStatus staged = stageWrites(session);
        staged != KvStatus::kOk)
        return staged;
    bool ok = false;
    if (session.slices_.size() == 1) {
        // All ops on one shard: the slice's one TM transaction is
        // already atomic, so the cross-shard protocol is skipped. The
        // shard sequence is bumped BEFORE the transaction so a
        // snapshot round can never pair this commit's post-image with
        // another shard's pre-image and still validate — nor see a
        // session's later writing multiOp without its earlier one
        // (bumping after the commit would reopen the straddle window;
        // a bump for a grown or capped attempt only costs readers a
        // spurious retry).
        const Session::ShardSlice &slice = session.slices_[0];
        shardSeqs_[slice.shard].value.fetch_add(1,
                                                std::memory_order_acq_rel);
        ok = applySlice(session, slice);
        barrierSlices(session);
    } else {
        OpStatus status = OpStatus::kDone;
        do {
            status = multiOpTwoPhaseWrite(session);
        } while (status == OpStatus::kRetryAfterGrow);
        ok = status == OpStatus::kDone;
        if (!ok)
            unstageOps(session, session.scratch_);
    }
    if (!ok) {
        // A WAL failure aborts a 2PC before it becomes visible (the
        // prepare round); otherwise the failure was capacity.
        return session.walStatus_ != KvStatus::kOk ? session.walStatus_
                                                   : KvStatus::kNoSpace;
    }
    // Committed in memory; a non-kOk walStatus_ means the commit is
    // NOT acknowledged durable (see KvStatus::kWalError).
    return session.walStatus_;
}

KvStatus
KvStore::stageWrites(Session &session)
{
    const auto &grouped = session.scratch_;
    for (std::size_t i = 0; i < grouped.size(); ++i) {
        Shard &shard = *shards_[grouped[i].shard];
        // Any TTL-carrying write (numeric or bytes) must enable the
        // home shard's sweep.
        if (grouped[i].expiry != 0)
            shard.noteTtlUsed();
        KvOp *op = grouped[i].op;
        if (op->kind != KvOp::Kind::kPutBytes)
            continue;
        // Nothing ran yet: on any failure, give back what was staged
        // so far.
        try {
            op->value = shard.stageValue(session.tokens_[grouped[i].shard],
                                         op->bytes.data(),
                                         op->bytes.size());
        } catch (const std::bad_alloc &) {
            unstageOps(session, {grouped.data(), i});
            return KvStatus::kNoMemory;
        } catch (...) {
            unstageOps(session, {grouped.data(), i});
            throw; // std::length_error: a value above kMaxBlobBytes
        }
    }
    return KvStatus::kOk;
}

void
KvStore::unstageOps(Session &session, std::span<const TaggedOp> ops)
{
    // Never reachable through a committed slot word (the slice rolled
    // back, or the record aborted before anything became visible, and
    // resolvers only dereference a post-image handle under a COMMITTED
    // verdict): immediate recycle into the writer's magazine is safe.
    for (const TaggedOp &tagged : ops) {
        if (tagged.op->kind == KvOp::Kind::kPutBytes)
            shards_[tagged.shard]->unstageValue(
                session.tokens_[tagged.shard], tagged.op->value);
    }
}

bool
KvStore::applySlice(Session &session, const Session::ShardSlice &slice)
{
    Shard &shard = *shards_[slice.shard];
    polytm::ThreadToken &token = session.tokens_[slice.shard];
    const std::span<const TaggedOp> ops(
        session.scratch_.data() + slice.begin, slice.end - slice.begin);
    Shard::WriteTally tally;
    std::uint64_t lsn = 0;
    for (;;) {
        // Capacity snapshot BEFORE the attempt, as in Shard::put's
        // loop: a grow that lands mid-attempt lets the retry run.
        const std::size_t cap = shard.capacity();
        try {
            shard.poly().run(token, [&](polytm::Tx &tx) {
                applyOpsInTx(shard, tx, ops, nullptr, {}, tally,
                             session.displaced_,
                             durable() ? &session.walOps_ : nullptr);
                if (durable())
                    lsn = shard.walTicketTx(tx);
            });
            break;
        } catch (const TableFullError &) {
            if (!shard.tryGrow(token, cap)) {
                // Growth is capped: the slice had no effect, but the
                // rolled-back attempt may have set ok on the ops
                // before the full one, and no slot word names their
                // staged values.
                for (const TaggedOp &tagged : ops)
                    tagged.op->ok = false;
                unstageOps(session, ops);
                shard.maintainTick(token);
                return false;
            }
        }
    }
    if (durable() && !session.walOps_.empty()) {
        wal::Record rec;
        rec.type = wal::RecordType::kBatch;
        rec.lsn = lsn;
        rec.ops = std::move(session.walOps_);
        const wal::AppendResult res = wals_[slice.shard]->append(rec);
        session.walBatchEnds_[slice.shard] = res.end;
        session.walOps_.clear();
        // Memory already committed: the op completes un-acked; the
        // ladder decides store health.
        if (res.err != wal::WalError::kOk) {
            const KvStatus wal_status =
                committedBatchWalError(slice.shard, rec, res);
            if (session.walStatus_ == KvStatus::kOk)
                session.walStatus_ = wal_status;
        }
    }
    // The slice committed: its displaced values retire (a pinned
    // reader may still be copying them), its tally feeds the grow and
    // compaction heuristics, and the shard ticks — composites double
    // as the maintenance driver.
    for (const std::uint64_t ref : session.displaced_)
        shard.retireValue(token, ref);
    shard.noteWrites(token, tally);
    shard.maintainTick(token);
    return true;
}

void
KvStore::barrierSlices(Session &session)
{
    if (!durable())
        return;
    // Group commit: every slice appended first, then ONE barrier per
    // touched shard (groupByShard emits one slice per shard — the
    // wal_test fsync-coalescing case pins the count), so no shard's
    // log writes wait behind another shard's fsync stall. Runs
    // whether or not every slice applied: the others stay applied.
    for (const auto &slice : session.slices_) {
        std::uint64_t &end = session.walBatchEnds_[slice.shard];
        if (end == 0)
            continue;
        const wal::WalError e = wals_[slice.shard]->barrier(end);
        end = 0;
        if (e != wal::WalError::kOk && session.walStatus_ == KvStatus::kOk)
            session.walStatus_ = onWalError(slice.shard, e);
    }
}

void
KvStore::snapshotRetryPause(int round)
{
    if (round < kSnapshotBackoffRounds) {
        std::this_thread::yield();
        return;
    }
    // A commit storm is landing on exactly the touched shards faster
    // than rounds complete. Back off exponentially (capped) so the
    // reader stops burning the very cycles the storm needs to drain;
    // each doubling makes a repeat collision geometrically unlikely.
    if (round == kSnapshotBackoffRounds) {
        snapEscalations_.add(1);
        recorder_.record(obs::TraceKind::kSnapshotEscalate, -1,
                         commitSequence(),
                         static_cast<std::uint64_t>(round));
    }
    const int shift = round - kSnapshotBackoffRounds;
    const std::int64_t micros = std::int64_t{1}
                                << (shift < 10 ? shift : 10);
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

KvStore::OpStatus
KvStore::multiOpTwoPhaseWrite(Session &session)
{
    const auto &grouped = session.scratch_;
    const auto &slices = session.slices_;
    if (!session.ctx_)
        session.ctx_ = std::make_unique<CommitContext>();
    CommitContext &ctx = *session.ctx_;

    PinSpan pin(shards_, session.tokens_, slices);

    // Re-arm the session's commit record under the next epoch. Legal:
    // every intent of the previous multiOp was cleared before it
    // returned, so no live intent word reaches this record any more —
    // and a stale resolver that still holds one sees an epoch-tagged
    // word that no longer matches the status, so it can never apply
    // this generation's verdict to the old generation's payload.
    const std::uint64_t armed =
        ((CommitRecord::epochOf(ctx.record.status.load(
              std::memory_order_relaxed)) +
          1)
         << 2) |
        CommitRecord::kPending;
    ctx.record.status.store(armed, std::memory_order_release);
    ctx.arena.reset();
    session.intentRanges_.clear();
    session.reclaim_.clear();
    session.walOps_.clear();
    session.walOpRanges_.clear();
    session.walLsns_.clear();
    std::uint64_t wal_txid = 0;

    // Settle every prepared shard's intents under the record's verdict
    // (phase 3 on commit; on abort the pre-images stay live and
    // pending inserts turn tombstones), then feed the folds' tallies.
    const auto settle = [&](std::size_t prepared, bool committed) {
        for (std::size_t j = 0; j < prepared; ++j) {
            Shard &shard = *shards_[slices[j].shard];
            polytm::ThreadToken &token = session.tokens_[slices[j].shard];
            const auto range = session.intentRanges_[j];
            Shard::WriteTally tally;
            shard.poly().run(token, [&](polytm::Tx &tx) {
                tally = {}; // retried attempts restart
                for (std::uint32_t k = range.first; k < range.second; ++k)
                    shard.settleIntentTx(tx, &ctx.arena[k], committed,
                                         tally);
            });
            shard.noteWrites(token, tally);
        }
    };

    try {
        bool full = false;
        bool wal_abort = false;
        std::uint32_t full_shard = 0;
        std::size_t full_capacity = 0;
        std::size_t prepared = 0;
        std::uint64_t reserved_seq = 0;
        {
            // Phase 1: prepare, in ascending shard order — each shard's
            // slice runs the slice's op loop with the commit's context,
            // so every post-image lands as an intent. A conflicting
            // preparer only ever waits on lower-numbered shards'
            // pending intents it meets while preparing a higher one —
            // wait chains strictly ascend, so they cannot cycle.
            // Snapshot readers order themselves against this window
            // through the record's commit sequence alone.
            for (const auto &slice : slices) {
                Shard &shard = *shards_[slice.shard];
                const std::size_t cap = shard.capacity();
                const AppendMarks from{session.walOps_.size(),
                                       ctx.arena.mark()};
                const std::span<const TaggedOp> ops(
                    grouped.data() + slice.begin, slice.end - slice.begin);
                Shard::WriteTally tally; // intents: the settle tallies
                std::uint64_t slice_lsn = 0;
                try {
                    shard.poly().run(
                        session.tokens_[slice.shard],
                        [&](polytm::Tx &tx) {
                            applyOpsInTx(shard, tx, ops, &ctx, from, tally,
                                         session.displaced_,
                                         durable() ? &session.walOps_
                                                   : nullptr);
                            if (durable())
                                slice_lsn = shard.walTicketTx(tx);
                        });
                } catch (const TableFullError &) {
                    full = true;
                    full_shard = slice.shard;
                    full_capacity = cap;
                    break;
                }
                session.intentRanges_.emplace_back(
                    static_cast<std::uint32_t>(from.intents),
                    static_cast<std::uint32_t>(ctx.arena.mark()));
                session.walOpRanges_.emplace_back(
                    static_cast<std::uint32_t>(from.walOps),
                    static_cast<std::uint32_t>(session.walOps_.size()));
                session.walLsns_.push_back(slice_lsn);
                for (const std::uint64_t ref : session.displaced_)
                    session.reclaim_.emplace_back(slice.shard, ref);
                ++prepared;
            }

            // Durable-before-visible, round (a): every participant's
            // prepare record (its post-images) must be durable on its
            // own log BEFORE any outcome is appended anywhere —
            // without this, a buffer spill could leak a commit
            // outcome to disk while a peer's prepare was still
            // buffered, and a kill-9 would recover half the
            // transaction. A failed append or barrier here aborts the
            // whole composite: no outcome record exists on any shard
            // yet, so recovery resolves the orphaned prepares as
            // ABORT — unwinding the in-memory intents keeps the live
            // store and the recovered store identical.
            std::uint32_t werr_shard = 0;
            wal::WalError werr = wal::WalError::kOk;
            if (!full && durable()) {
                wal_txid = walTxnId_.fetch_add(
                               1, std::memory_order_relaxed) +
                           1;
                session.walEnds_.resize(slices.size());
                for (std::size_t j = 0; j < slices.size(); ++j) {
                    wal::Record prep;
                    prep.type = wal::RecordType::kTxnPrepare;
                    prep.txid = wal_txid;
                    prep.lsn = session.walLsns_[j];
                    const auto range = session.walOpRanges_[j];
                    prep.ops.assign(
                        session.walOps_.begin() + range.first,
                        session.walOps_.begin() + range.second);
                    const wal::AppendResult res =
                        wals_[slices[j].shard]->append(prep);
                    session.walEnds_[j] = res.end;
                    if (res.err != wal::WalError::kOk) {
                        werr = res.err;
                        werr_shard = slices[j].shard;
                        break;
                    }
                }
                for (std::size_t j = 0;
                     werr == wal::WalError::kOk && j < slices.size();
                     ++j) {
                    const wal::WalError e =
                        wals_[slices[j].shard]->barrier(session.walEnds_[j]);
                    if (e != wal::WalError::kOk) {
                        werr = e;
                        werr_shard = slices[j].shard;
                    }
                }
                wal_abort = werr != wal::WalError::kOk;
            }

            if (full || wal_abort) {
                // All-or-nothing: nothing committed on the failing
                // shard (its transaction rolled back), and the
                // already-prepared shards only hold invisible intents
                // — mark the record aborted and discard them.
                ctx.record.status.store((armed & ~std::uint64_t{3}) |
                                            CommitRecord::kAborted,
                                        std::memory_order_release);
                const std::uint32_t abort_shard =
                    full ? full_shard : werr_shard;
                twoPhaseAborts_.add(1, abort_shard);
                recorder_.record(obs::TraceKind::kTwoPhaseAbort,
                                 static_cast<std::int32_t>(abort_shard),
                                 commitSequence(), full_capacity,
                                 prepared);
                settle(prepared, false);
                if (wal_abort) {
                    // Best-effort abort outcome on every participant
                    // (recovery would abort the in-doubt prepares
                    // anyway; this just spares it the doubt). Only
                    // then consult the ladder — the record is already
                    // resolved, so the rescue rotation can never
                    // deadlock against a checkpoint walking over this
                    // transaction's intents.
                    logAbortOutcome(session, wal_txid);
                    session.walStatus_ = onWalError(werr_shard, werr);
                }
            } else {
                // Phase 2: the commit point, in snapshot-epoch order:
                //  (1) reserve the store-wide sequence C and stamp it
                //      (epoch-tagged) into the record — from here on
                //      any reader whose snapshot G >= C can see that
                //      this commit belongs inside its snapshot and
                //      waits out the flip below;
                //  (2) bump every touched shard's sequence — a
                //      snapshot round sampling a bump therefore
                //      *also* sees the published C (store order), so
                //      straddling rounds classify this commit
                //      deterministically instead of retrying;
                //  (3) flip the record: one store makes every
                //      intent's post-image the live value on all
                //      shards at once. Bumps before flip: a round
                //      that could observe any post-image without
                //      having seen C fails its trailing check.
                recorder_.record(
                    obs::TraceKind::kTwoPhasePrepare, -1,
                    commitSequence(), slices.size(), ctx.arena.mark());
                // Durable-before-visible, round (b): the commit
                // outcome reaches EVERY participant's log and its
                // barrier before the record is stamped or flipped, so
                // no reader observes a commit recovery could lose.
                // Recovery may therefore trust any single durable
                // outcome: round (a) above guaranteed all prepares
                // are on disk. An outcome append/barrier failure does
                // NOT abort: the outcome may already be durable on a
                // sibling shard, and aborting in memory while
                // recovery would commit diverges with data loss —
                // instead the commit flips as usual and the composite
                // returns un-acked (kWalError: the effect may or may
                // not survive recovery, which the ack contract
                // permits for un-acknowledged operations).
                const std::uint64_t commit_seq =
                    commitSeq_->fetch_add(1, std::memory_order_acq_rel) +
                    1;
                recorder_.record(obs::TraceKind::kTwoPhaseReserve, -1,
                                 commit_seq, slices.size());
                const wal::Record outcome =
                    txnOutcome(wal_txid, true, commit_seq);
                if (durable()) {
                    for (std::size_t j = 0; j < slices.size(); ++j) {
                        const wal::AppendResult res =
                            wals_[slices[j].shard]->append(outcome);
                        session.walEnds_[j] = res.end;
                        if (res.err != wal::WalError::kOk &&
                            werr == wal::WalError::kOk) {
                            werr = res.err;
                            werr_shard = slices[j].shard;
                        }
                    }
                    for (std::size_t j = 0; j < slices.size(); ++j) {
                        const wal::WalError e =
                            wals_[slices[j].shard]->barrier(
                                session.walEnds_[j]);
                        if (e != wal::WalError::kOk &&
                            werr == wal::WalError::kOk) {
                            werr = e;
                            werr_shard = slices[j].shard;
                        }
                    }
                }
                ctx.record.commitSeq.store(
                    CommitRecord::packSeq(commit_seq,
                                          CommitRecord::epochOf(armed)),
                    std::memory_order_release);
                for (const auto &slice : slices)
                    shardSeqs_[slice.shard].value.fetch_add(
                        1, std::memory_order_acq_rel);
                ctx.record.status.store((armed & ~std::uint64_t{3}) |
                                            CommitRecord::kCommitted,
                                        std::memory_order_release);
                recorder_.record(obs::TraceKind::kTwoPhaseFlip, -1,
                                 commit_seq, slices.size(),
                                 ctx.arena.mark());
                // Ladder only after the flip: the record is resolved,
                // so a rescue rotation cannot deadlock against a
                // checkpoint waiting on this transaction's intents.
                if (werr != wal::WalError::kOk) {
                    session.walStatus_ = onWalError(werr_shard, werr);
                    // A rescued shard restarts on a fresh generation
                    // with no copy of this verdict, and the abandoned
                    // segment's copy is of indeterminate durability.
                    // Re-append it wherever the log still accepts
                    // writes (duplicates are harmless — recovery
                    // resolves outcomes by txid) so losing the
                    // poisoned bytes cannot orphan a sibling shard's
                    // durable prepare into an in-doubt abort.
                    for (const auto &slice : slices)
                        if (wals_[slice.shard]->status() ==
                            wal::WalError::kOk)
                            (void)wals_[slice.shard]->append(outcome);
                }
                reserved_seq = commit_seq;
            }
        } // the PENDING window is over

        // On either failure the pre-images stayed live: reclaim_ is
        // dropped, never retired.
        if (full) {
            Shard &shard = *shards_[full_shard];
            return shard.tryGrow(session.tokens_[full_shard],
                                 full_capacity)
                       ? OpStatus::kRetryAfterGrow
                       : OpStatus::kFailed;
        }
        if (wal_abort) {
            // Aborted before visibility; the caller reports the
            // session's walStatus_ (never retried — the log, not the
            // table, refused).
            return OpStatus::kFailed;
        }

        // Phase 3: finalize — fold intents into the slot words so the
        // record can be re-armed. Observers that get there first help,
        // so each fold is conditional on the intent still standing.
        settle(slices.size(), true);
        twoPhaseCommits_.add(1, counterStripe(session, slices[0].shard));
        recorder_.record(obs::TraceKind::kTwoPhaseFinalize, -1,
                         reserved_seq, ctx.arena.mark());
        // Displaced pre-images WERE committed-visible: a pinned reader
        // may still be copying them, so they retire through the reader
        // epochs instead of recycling immediately.
        for (const auto &[shard, ref] : session.reclaim_)
            shards_[shard]->retireValue(session.tokens_[shard], ref);
        for (const auto &slice : slices)
            shards_[slice.shard]->maintainTick(session.tokens_[slice.shard]);
        return OpStatus::kDone;
    } catch (...) {
        // Foreign exception (e.g. bad_alloc) mid-protocol. Make the
        // record's fate terminal — kAborted unless the commit point
        // already passed — and retire the context: leftover intents
        // stay resolvable (writers fold/discard them on contact,
        // readers read through) and the memory stays valid.
        std::uint64_t expected = armed;
        ctx.record.status.compare_exchange_strong(
            expected,
            (armed & ~std::uint64_t{3}) | CommitRecord::kAborted,
            std::memory_order_acq_rel);
        // Staged values are unstaged only if the commit point was
        // never reached (they are live table values otherwise).
        const bool committed =
            CommitRecord::stateOf(ctx.record.status.load(
                std::memory_order_acquire)) == CommitRecord::kCommitted;
        if (durable() && !committed && wal_txid != 0) {
            // The prepares (and possibly some commit outcomes) are in
            // the logs but the live store aborted: log an abort
            // outcome everywhere — aborts win during recovery — so a
            // later crash cannot resurrect this transaction.
            // Best-effort: this path already handles bad_alloc.
            try {
                logAbortOutcome(session, wal_txid);
            } catch (...) {
            }
        }
        if (!committed)
            unstageOps(session, grouped);
        {
            // Intrusive push: must not allocate — this very path
            // handles bad_alloc.
            std::lock_guard<std::mutex> lk(ctxMutex_);
            session.ctx_->next = std::move(graveyard_);
            graveyard_ = std::move(session.ctx_);
        }
        throw;
    }
}

void
KvStore::logAbortOutcome(Session &session, std::uint64_t txid)
{
    const wal::Record outcome = txnOutcome(txid, false);
    for (const auto &slice : session.slices_)
        wals_[slice.shard]->appendAndBarrier(outcome);
}

KvResult
KvStore::applyBatch(Session &session, Batch &batch)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    groupByShard(*this, options_.defaultTtlNanos, batch.ops_,
                 session.tagged_, session.scratch_, session.slices_);
    if (const KvStatus staged = stageWrites(session);
        staged != KvStatus::kOk)
        return staged;
    session.walStatus_ = KvStatus::kOk;
    bool ok = true;
    for (const auto &slice : session.slices_) {
        if (!applySlice(session, slice))
            ok = false; // the other shards' slices stay applied
    }
    barrierSlices(session);
    // The applied slices are in memory; a WAL failure along the way
    // means the batch is NOT acknowledged durable.
    return ok ? session.walStatus_ : KvStatus::kNoSpace;
}

KvStatus
KvStore::logSingleOp(std::size_t s, std::uint64_t lsn, wal::WalOp op)
{
    wal::Record rec;
    rec.type = wal::RecordType::kBatch;
    rec.lsn = lsn;
    rec.ops.push_back(std::move(op));
    const wal::AppendResult res = wals_[s]->appendAndBarrier(rec);
    if (res.err == wal::WalError::kOk)
        return KvStatus::kOk;
    return committedBatchWalError(s, rec, res);
}

void
KvStore::raiseHealth(Health target, int shard)
{
    const auto want = static_cast<std::uint8_t>(target);
    std::uint8_t cur = health_.load(std::memory_order_acquire);
    while (cur < want) {
        if (health_.compare_exchange_weak(cur, want,
                                          std::memory_order_acq_rel)) {
            healthTransitions_.add(
                1, shard < 0 ? 0 : static_cast<std::size_t>(shard));
            recorder_.record(obs::TraceKind::kHealthTransition, shard,
                             commitSequence(), cur, want);
            std::fprintf(stderr,
                         "kvstore: health %s -> %s (shard %d)\n",
                         healthName(static_cast<Health>(cur)),
                         healthName(target), shard);
            return;
        }
        // cur reloaded by the failed CAS; stop if someone raised past
        // us (transitions are monotonic).
    }
}

KvStatus
KvStore::onWalError(std::size_t s, wal::WalError err)
{
    // The lock only matters for the kSyncLoss rescue (walGen_ and the
    // rotation race with checkpoints), but the path is cold and
    // taking it uniformly keeps one code shape.
    std::lock_guard<std::mutex> lk(walCkptMutex_);
    return onWalErrorLocked(s, err);
}

KvStatus
KvStore::onWalErrorLocked(std::size_t s, wal::WalError err)
{
    if (err == wal::WalError::kOk)
        return KvStatus::kOk;
    walErrors_.add(1, s);
    switch (err) {
      case wal::WalError::kNoSpace:
        // Space exhaustion loses nothing already acked: stop taking
        // writes, keep serving reads, let the operator free space and
        // restart.
        raiseHealth(Health::kDegradedReadOnly, static_cast<int>(s));
        return KvStatus::kReadOnly;
      case wal::WalError::kSyncLoss: {
        // fsyncgate: the kernel may have dropped the dirty pages, so
        // the failed range is permanently un-ackable. ONE rescue is
        // allowed: abandon the poisoned segment and continue on a
        // fresh generation (buffered-but-unwritten records carry
        // over). A second sync loss, or a failed rescue, degrades.
        if (wals_[s]->status() == wal::WalError::kOk)
            return KvStatus::kWalError; // racer already rescued
        if (wals_[s]->canRescue()) {
            const std::uint64_t gen = ++walGen_[s];
            const wal::WalError rescue = wals_[s]->rotateFresh(
                options_.walDir + "/" +
                wal::segmentFileName(static_cast<int>(s), gen));
            if (rescue == wal::WalError::kOk) {
                walRescues_.add(1, s);
                // The store stays healthy for FUTURE writes; the op
                // that hit the failure is still not acknowledged.
                return KvStatus::kWalError;
            }
        }
        raiseHealth(Health::kDegradedReadOnly, static_cast<int>(s));
        return KvStatus::kWalError;
      }
      case wal::WalError::kIo:
      default:
        // Hard I/O failure: this shard's log is gone and with it any
        // durability claim. Reads still serve from memory.
        raiseHealth(Health::kFailed, static_cast<int>(s));
        return KvStatus::kWalError;
    }
}

KvStatus
KvStore::committedBatchWalError(std::size_t s, wal::Record &rec,
                                const wal::AppendResult &res)
{
    const KvStatus status = onWalError(s, res.err);
    // res.end == 0 means the append failed fast against a sticky
    // error and the record never reached the log (a record that DID
    // enter either sits on the old fd or rides rotateFresh's buffer
    // carry-over). Its memory effects are visible regardless, so if
    // the rescue put this shard's log back in business, the batch
    // must follow it onto the fresh generation: replay sorts by LSN,
    // so a late re-append lands in its serialization slot.
    if (res.end == 0 && wals_[s]->status() == wal::WalError::kOk) {
        const wal::AppendResult retry =
            wals_[s]->appendAndBarrier(rec);
        if (retry.err != wal::WalError::kOk)
            return onWalError(s, retry.err);
    }
    return status;
}

void
KvStore::flushWal()
{
    for (auto &shard_wal : wals_)
        shard_wal->flushAll(options_.durability ==
                            Durability::kFsyncGroup);
}

bool
KvStore::checkpoint(Session &session)
{
    if (!durable())
        return true;
    // Concurrent checkpoints serialize; writers never wait on this
    // lock (the chunk walk shares the table only through the TM).
    std::lock_guard<std::mutex> lk(walCkptMutex_);
    bool ok = true;
    for (std::size_t s = 0; s < shards_.size(); ++s)
        ok &= checkpointShard(session, s);
    return ok;
}

bool
KvStore::checkpointShard(Session &session, std::size_t s)
{
    Shard &shard = *shards_[s];

    // A sticky-failed log cannot rotate; run it through the ladder
    // (which may rescue a sync loss onto a fresh generation) and skip
    // this round — the old checkpoints stay authoritative.
    if (wals_[s]->status() != wal::WalError::kOk) {
        walCkptFailures_.add(1, s);
        onWalErrorLocked(s, wals_[s]->status());
        return false;
    }

    // Retention floor: keep everything from the newest EXISTING
    // checkpoint's generation forward, so recovery can fall back to
    // the previous image (plus the segments written since it) if the
    // image written below turns out corrupt on disk.
    const std::vector<std::uint64_t> prev_ckpts =
        wal::listCheckpoints(options_.walDir, static_cast<int>(s));
    const std::uint64_t keep_gen =
        prev_ckpts.empty() ? 0 : prev_ckpts.back();
    const std::uint64_t gen = ++walGen_[s];

    // Rotate FIRST, then capture the barrier: every record in the old
    // segments then provably has lsn <= B (its ticket was drawn before
    // B's), so deleting them after the image lands loses nothing.
    // Writers racing the walk land with lsn > B — in the new segment
    // or double-captured by the image — and replay over it
    // idempotently (post-images).
    const wal::WalError rot =
        wals_[s]->rotate(options_.walDir + "/" +
                         wal::segmentFileName(static_cast<int>(s), gen));
    if (rot != wal::WalError::kOk) {
        walCkptFailures_.add(1, s);
        if (wals_[s]->status() != wal::WalError::kOk) {
            // The rotation flush poisoned the log (write/sync
            // failure): escalate through the ladder.
            onWalErrorLocked(s, wals_[s]->status());
        } else if (rot == wal::WalError::kNoSpace) {
            // New segment could not be opened for lack of space; the
            // log continues healthily on the old segment, but the
            // next append would hit the same wall.
            raiseHealth(Health::kDegradedReadOnly,
                        static_cast<int>(s));
        }
        return false;
    }
    std::uint64_t barrier = 0;
    shard.poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
        barrier = shard.walTicketTx(tx);
    });
    recorder_.record(obs::TraceKind::kCkptBegin,
                     static_cast<std::int32_t>(s), commitSequence(),
                     barrier, gen);

    // Bounded transactional chunks; a table epoch change (grow /
    // compact) or an in-flight migration restarts the walk — the walk
    // needs one migration-free epoch, because migration relocates
    // keys across regions it already visited.
    std::vector<Shard::CheckpointEntry> entries;
    std::uint64_t chunks = 0;
    shard.drainMigration(session.tokens_[s]);
    Shard::CheckpointCursor cursor;
    for (;;) {
        const Shard::CkptStep step = shard.checkpointChunk(
            session.tokens_[s], &cursor, &entries,
            options_.checkpointChunkSlots);
        ++chunks;
        walCkptChunks_.add(1, s);
        if (step == Shard::CkptStep::kDone)
            break;
        if (step == Shard::CkptStep::kRestart) {
            entries.clear();
            cursor = Shard::CheckpointCursor{};
            shard.drainMigration(session.tokens_[s]);
        }
    }

    wal::CheckpointImage image;
    image.barrierLsn = barrier;
    image.entries.reserve(entries.size());
    for (Shard::CheckpointEntry &entry : entries) {
        wal::WalOp op;
        op.key = entry.key;
        op.expiry = entry.expiry;
        if (entry.isBytes) {
            op.kind = wal::WalOp::Kind::kPutBytes;
            op.bytes = std::move(entry.bytes);
        } else {
            op.kind = wal::WalOp::Kind::kPut;
            op.value = entry.value;
        }
        image.entries.push_back(std::move(op));
    }
    const wal::WalError werr = wal::writeCheckpoint(
        options_.walDir + "/" +
            wal::checkpointFileName(static_cast<int>(s), gen),
        image);
    if (werr != wal::WalError::kOk) {
        // Non-fatal: the tmp file was discarded, the previous
        // checkpoint and every segment since it still recover the
        // shard — just skip truncation. Only space exhaustion
        // escalates (the next one would fail the same way).
        walCkptFailures_.add(1, s);
        if (werr == wal::WalError::kNoSpace)
            raiseHealth(Health::kDegradedReadOnly,
                        static_cast<int>(s));
        return false;
    }
    // A sticky-failed sibling log may hold durable prepares whose
    // only surviving outcome copies live in OTHER shards' segments;
    // truncating those would orphan the prepares into in-doubt
    // aborts while the flipped effects sit in checkpoint images. A
    // shard goes sticky before any such flip can reach an image, so
    // checking here (after the scan, before deletion) is sufficient.
    bool all_logs_ok = true;
    for (const auto &shard_wal : wals_)
        if (shard_wal->status() != wal::WalError::kOk)
            all_logs_ok = false;
    if (all_logs_ok)
        wal::deleteObsolete(options_.walDir, static_cast<int>(s),
                            keep_gen);
    recorder_.record(obs::TraceKind::kCkptEnd,
                     static_cast<std::int32_t>(s), commitSequence(),
                     image.entries.size(), chunks);
    return true;
}

obs::TelemetrySnapshot
KvStore::telemetry() const
{
    obs::TelemetrySnapshot snap = metrics_.snapshot();
    snap.commitSeq = commitSequence();
    return snap;
}

void
KvStore::noteRetune(int shard, std::uint64_t packedConfigs,
                    std::uint64_t kpiBits)
{
    retunes_.add(1, static_cast<std::size_t>(shard));
    recorder_.record(obs::TraceKind::kRetune, shard, commitSequence(),
                     packedConfigs, kpiBits);
}

polytm::PolyStats
KvStore::totalStats() const
{
    polytm::PolyStats total;
    for (const auto &shard : shards_) {
        const polytm::PolyStats stats = shard->poly().snapshotStats();
        total.commits += stats.commits;
        total.aborts += stats.aborts;
        for (std::size_t c = 0; c < total.abortsByCause.size(); ++c)
            total.abortsByCause[c] += stats.abortsByCause[c];
    }
    return total;
}

void
KvStore::resumeAllForShutdown()
{
    for (auto &shard : shards_)
        shard->poly().resumeAllForShutdown();
}

} // namespace proteus::kvstore
