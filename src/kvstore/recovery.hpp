/**
 * @file
 * Crash recovery: rebuild freshly constructed (empty) shards from a
 * WAL directory — checkpoint images first, then surviving log
 * records in per-shard LSN order.
 *
 * Contract (see wal.hpp for the formats):
 *  - each shard's latest *valid* checkpoint is applied, then every
 *    record with lsn > the checkpoint's barrier LSN, sorted by LSN
 *    (records are post-images, so re-applying ones the image already
 *    covers is harmless), each op through the shard's single-key
 *    write calls (Shard::put/putBytes/del), which grow and maintain
 *    the table exactly as live writes do;
 *  - a torn segment tail (first bad CRC / bounds) ends that segment's
 *    replay — the store recovers to a consistent prefix;
 *  - 2PC prepares are resolved by the outcome records collected from
 *    ALL shards' logs: committed → applied, aborted → dropped, no
 *    outcome anywhere → in-doubt → aborted (such a transaction was
 *    never acknowledged, since acks happen only after the outcome is
 *    durable on every participant).
 */

#ifndef PROTEUS_KVSTORE_RECOVERY_HPP
#define PROTEUS_KVSTORE_RECOVERY_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/shard.hpp"
#include "obs/flight_recorder.hpp"

namespace proteus::kvstore::recovery {

struct RecoveryStats {
    std::uint64_t checkpointEntries = 0;
    std::uint64_t replayedRecords = 0;
    std::uint64_t replayedOps = 0;
    /** Prepare records dropped because no outcome was ever logged. */
    std::uint64_t inDoubtAborted = 0;
    /** Bytes discarded at torn segment tails. */
    std::uint64_t tornBytes = 0;
    /** Highest commitSeq seen in any outcome record (the store seeds
     *  its commit sequence past this). */
    std::uint64_t maxCommitSeq = 0;
    /** Highest 2PC txid seen (the store seeds its txid counter). */
    std::uint64_t maxTxnId = 0;
    /** Per-shard max LSN (each shard's ticket is seeded to this). */
    std::vector<std::uint64_t> maxLsn;
};

/**
 * Replay `dir` into `shards` (which must be freshly constructed and
 * quiesced — recovery registers its own worker tokens). Also seeds
 * each shard's WAL ticket. Throws std::runtime_error if a shard
 * cannot absorb its own replayed data (capacity cap).
 */
RecoveryStats recover(const std::string &dir,
                      std::vector<std::unique_ptr<Shard>> &shards,
                      obs::FlightRecorder *recorder);

} // namespace proteus::kvstore::recovery

#endif // PROTEUS_KVSTORE_RECOVERY_HPP
