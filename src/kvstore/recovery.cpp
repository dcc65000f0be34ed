#include "kvstore/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "kvstore/wal.hpp"

namespace proteus::kvstore::recovery {

namespace {

struct Outcome {
    bool anyCommit = false;
    bool anyAbort = false;
    std::uint64_t commitSeq = 0;
};

/** One shard's surviving log, parsed. */
struct ParsedShard {
    wal::CheckpointImage image; // barrierLsn 0 + empty when none
    std::vector<wal::Record> records;
};

/**
 * Parse every surviving segment of `shard` in generation order,
 * stopping each segment at its first torn/corrupt frame, and fold
 * outcome records into the store-wide map.
 */
void
parseShardLog(const std::string &dir, int shard, ParsedShard *out,
              std::unordered_map<std::uint64_t, Outcome> *outcomes,
              RecoveryStats *stats)
{
    // Latest valid checkpoint wins; an invalid/incomplete one falls
    // back to the previous (replay covers the gap — post-images make
    // over-replay harmless).
    const auto ckpts = wal::listCheckpoints(dir, shard);
    for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
        if (wal::readCheckpoint(
                dir + "/" + wal::checkpointFileName(shard, *it),
                &out->image))
            break;
        out->image = wal::CheckpointImage{};
    }

    for (const std::uint64_t gen : wal::listSegments(dir, shard)) {
        std::string body;
        if (!wal::readFile(
                dir + "/" + wal::segmentFileName(shard, gen), &body))
            continue;
        std::size_t off = 0;
        while (off < body.size()) {
            wal::Record rec;
            const std::size_t n = wal::decodeRecord(
                body.data() + off, body.size() - off, &rec);
            if (n == 0) {
                // Torn tail: everything from here was never
                // acknowledged (acks wait for the barrier) — drop it.
                stats->tornBytes += body.size() - off;
                break;
            }
            off += n;
            switch (rec.type) {
                case wal::RecordType::kTxnOutcome: {
                    Outcome &o = (*outcomes)[rec.txid];
                    if (rec.committed) {
                        o.anyCommit = true;
                        o.commitSeq =
                            std::max(o.commitSeq, rec.commitSeq);
                    } else {
                        o.anyAbort = true;
                    }
                    stats->maxTxnId =
                        std::max(stats->maxTxnId, rec.txid);
                    break;
                }
                case wal::RecordType::kTxnPrepare:
                    stats->maxTxnId =
                        std::max(stats->maxTxnId, rec.txid);
                    [[fallthrough]];
                case wal::RecordType::kBatch:
                    out->records.push_back(std::move(rec));
                    break;
                default:
                    break; // checkpoint frames never appear in logs
            }
        }
    }
}

/**
 * Apply one post-image op through the shard's single-key write path,
 * the one live writes take: it grows the table on demand and runs the
 * same maintenance ticks, so a grow's migration moves while replay
 * writes.
 */
void
applyOp(Shard &shard, polytm::ThreadToken &token, const wal::WalOp &op)
{
    bool fits = true;
    switch (op.kind) {
        case wal::WalOp::Kind::kPut:
            fits = shard.put(token, op.key, op.value, op.expiry);
            break;
        case wal::WalOp::Kind::kPutBytes:
            fits = shard.putBytes(token, op.key, op.bytes.data(),
                                  op.bytes.size(), op.expiry);
            break;
        case wal::WalOp::Kind::kDel:
            shard.del(token, op.key);
            break;
    }
    if (!fits)
        throw std::runtime_error(
            "recovery: shard cannot absorb its own log "
            "(capacity cap below logged data)");
}

} // namespace

RecoveryStats
recover(const std::string &dir,
        std::vector<std::unique_ptr<Shard>> &shards,
        obs::FlightRecorder *recorder)
{
    RecoveryStats stats;
    stats.maxLsn.assign(shards.size(), 0);

    // Pass 1: parse every shard's files; outcomes are store-wide (an
    // outcome on ANY participant decides the transaction — it is only
    // written after every participant's prepare is buffered, and acks
    // wait for it to be durable everywhere).
    std::vector<ParsedShard> parsed(shards.size());
    std::unordered_map<std::uint64_t, Outcome> outcomes;
    for (std::size_t s = 0; s < shards.size(); ++s)
        parseShardLog(dir, static_cast<int>(s), &parsed[s], &outcomes,
                      &stats);
    for (const auto &[txid, o] : outcomes) {
        (void)txid;
        if (o.anyCommit && !o.anyAbort)
            stats.maxCommitSeq = std::max(stats.maxCommitSeq, o.commitSeq);
    }

    // Pass 2: per shard — checkpoint image, then surviving records
    // past the barrier in LSN (= serialization) order.
    for (std::size_t s = 0; s < shards.size(); ++s) {
        Shard &shard = *shards[s];
        ParsedShard &p = parsed[s];
        const std::uint64_t barrier = p.image.barrierLsn;
        stats.maxLsn[s] = barrier;

        polytm::ThreadToken token = shard.registerWorker();
        for (const wal::WalOp &op : p.image.entries)
            applyOp(shard, token, op);
        stats.checkpointEntries += p.image.entries.size();

        std::vector<const wal::Record *> replay;
        replay.reserve(p.records.size());
        std::uint64_t shardRecords = 0;
        std::uint64_t shardOps = 0;
        for (const wal::Record &rec : p.records) {
            stats.maxLsn[s] = std::max(stats.maxLsn[s], rec.lsn);
            if (rec.lsn <= barrier)
                continue; // already inside the checkpoint image
            if (rec.type == wal::RecordType::kTxnPrepare) {
                const auto it = outcomes.find(rec.txid);
                const bool committed = it != outcomes.end() &&
                                       it->second.anyCommit &&
                                       !it->second.anyAbort;
                if (!committed) {
                    // Aborted, or in-doubt (no outcome logged
                    // anywhere): such a commit was never acked.
                    ++stats.inDoubtAborted;
                    continue;
                }
            }
            replay.push_back(&rec);
        }
        std::sort(replay.begin(), replay.end(),
                  [](const wal::Record *a, const wal::Record *b) {
                      return a->lsn < b->lsn;
                  });
        for (const wal::Record *rec : replay) {
            for (const wal::WalOp &op : rec->ops)
                applyOp(shard, token, op);
            ++shardRecords;
            shardOps += rec->ops.size();
        }
        shard.deregisterWorker(token);
        shard.setWalTicketQuiesced(stats.maxLsn[s]);

        stats.replayedRecords += shardRecords;
        stats.replayedOps += shardOps;
        if (recorder != nullptr)
            recorder->record(obs::TraceKind::kRecoverReplay,
                             static_cast<int>(s), 0, shardRecords,
                             shardOps);
    }
    return stats;
}

} // namespace proteus::kvstore::recovery
