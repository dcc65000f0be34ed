/**
 * @file
 * Isolated layer probes: the layers KvStore hides, timed from outside
 * with the workload's key set, value sizes and thread count, so each
 * layer's cost alone sits next to its cost in place.
 */

#ifndef KVBENCH_PROBES_HPP
#define KVBENCH_PROBES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace kvbench {

struct ProbeSetup
{
    /** Keys the store routed to one shard. */
    std::vector<std::uint64_t> keys;
    unsigned log2Slots = 14;
    /** Wide values of [valueMin, valueMax] bytes; 0 = one-word values. */
    std::size_t valueMin = 0;
    std::size_t valueMax = 0;
    int threads = 1;
    /** Measured time per probe. */
    double seconds = 0.3;
    std::uint64_t seed = 1;
    /** Directory for the WAL probe's scratch log. */
    std::string scratchDir;
    Tracer *tracer = nullptr;
};

/** Median latency of each probe, in ns. */
struct ProbeResults
{
    double shardGetNs = 0;
    double shardGetBytesNs = 0;
    double shardPutNs = 0;
    double shardPutBytesNs = 0;
    /** TL2 begin, 3 reads, 1 write, commit (retries included). */
    double tmTxnNs = 0;
    /** The same body through PolyTm::run. */
    double polyRunNs = 0;
    /** encodeRecord (CRC32C framing included) of one mean-size op. */
    double walEncodeNs = 0;
    /** Buffered ShardWal::append / barrier on `threads` threads, and
     *  append on one thread. */
    double walAppendNs = 0;
    double walBarrierNs = 0;
    double walAppend1tNs = 0;
};

ProbeResults runProbes(const ProbeSetup &setup);

} // namespace kvbench

#endif // KVBENCH_PROBES_HPP
