/**
 * @file
 * The benchmark's workloads and its closed-loop load generator.
 *
 * Every workload runs `clients` threads, each with its own
 * KvStore::Session; a client issues its next operation only after the
 * previous one returned. Inputs come from per-client generators seeded
 * from the run's seed, values encode their key so every read can be
 * checked, and only the store call itself is timed.
 */

#ifndef KVBENCH_WORKLOADS_HPP
#define KVBENCH_WORKLOADS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/kv_tunable.hpp"
#include "kvstore/kvstore.hpp"
#include "recorder.hpp"
#include "trace.hpp"

namespace kvbench {

namespace kvstore = proteus::kvstore;

enum class WorkloadId
{
    kReadMostly,
    kDurableMixed,
    kTunedPhaseShift,
};

/** What one workload runs; see README.md for why each exists. */
struct Spec
{
    WorkloadId id;
    const char *name;
    int shards;
    /** Key space [0, keys). */
    std::uint64_t keys;
    unsigned log2SlotsPerShard;
    /** Wide values of [valueMin, valueMax] bytes; 0 = one-word values. */
    std::size_t valueMin;
    std::size_t valueMax;
    bool durable;
    bool tuned;
    /** durable_mixed: keys [0, accounts) are transfer accounts. */
    std::uint64_t accounts;
    /** Time slice; end-to-end figures are what the best tenth of slices
     *  reach (per traffic phase, see main.cpp). */
    double sliceSeconds;
};

/** nullptr when `name` names no workload. */
const Spec *findSpec(const std::string &name);
std::vector<std::string> specNames();

/** Op kinds a client issues; each has its own latency recorders. */
enum OpKind : int
{
    kGet = 0,  //!< get / getBytes
    kPut = 1,  //!< put / putBytes
    kMulti = 2, //!< multiOp
    kNumKinds = 3,
};

/** tuned_phase_shift phases. */
inline constexpr int kPhaseUniform = 0;
inline constexpr int kPhaseHotspot = 1;
/** Tuner periods per phase before traffic flips. */
inline constexpr int kPhasePeriods = 40;
inline constexpr double kTunerPeriodSeconds = 0.05;

/**
 * Store-lifetime state of a run: the store, the client generators (kept
 * across passes, so the durable ledger covers every acked put) and the
 * current tuned-workload phase.
 */
class Workload
{
  public:
    Workload(const Spec &spec, int clients, std::uint64_t seed,
             std::string wal_dir);
    ~Workload();

    kvstore::KvStore &store() { return *store_; }
    kvstore::KvStoreOptions storeOptions(bool durable) const;

    /** Builds the store (wiping the WAL dir) and preloads every key;
     *  `durable` = false forces the WAL off (wal.overhead_pct rerun). */
    void setup(bool durable);
    /** Drops the store (sessions must be closed). */
    void teardown();

    /**
     * Post-run checks on a quiesced store: every key decodes to itself,
     * transfer accounts conserve their sum, and each client's last-acked
     * puts are present. With `reopen` (durable only) the store is first
     * flushed, closed and reopened from its WAL dir. Returns the number
     * of violations; `live_bytes` receives the sum of live value bytes.
     */
    std::uint64_t verify(bool reopen, std::uint64_t *live_bytes);

    /** Sets the traffic phase (tuned_phase_shift only). */
    void setPhase(int phase)
    {
        phase_.store(phase, std::memory_order_relaxed);
    }
    int phase() const { return phase_.load(std::memory_order_relaxed); }

    /** Restores every shard to the initial TM configuration. */
    void restoreInitialConfig();

    /** Keys the store routes to shard 0 (the isolated probes' key set). */
    std::vector<std::uint64_t> shardZeroKeys() const;

    class Generator;

  private:
    friend struct PassRunner;
    const Spec &spec_;
    int clients_;
    std::uint64_t seed_;
    std::string walDir_;
    std::atomic<int> phase_{kPhaseUniform};
    std::unique_ptr<kvstore::KvStore> store_;
    std::vector<std::unique_ptr<Generator>> gens_;
    /** durable_mixed: account keys per shard (transfer endpoints). */
    std::vector<std::vector<std::uint64_t>> accountsByShard_;
};

/** Results of one measured window. */
struct PassResult
{
    double seconds = 0;
    std::uint64_t ops = 0;
    /** Failed ops, warm-up included. */
    std::uint64_t failed = 0;
    std::uint64_t multiOps = 0;
    /** Acked writes in the window and their key + value bytes. */
    std::uint64_t writeOps = 0;
    std::uint64_t userBytes = 0;
    /** Whole-window latency per op kind. */
    std::array<LatencyRecorder, kNumKinds> lat;
    /** Per full slice: ops/s, latency per kind, and the traffic phase
     *  most of its ops were drawn from. */
    std::vector<double> sliceOpsPerSec;
    std::vector<std::array<LatencyRecorder, kNumKinds>> sliceLat;
    std::vector<int> slicePhase;
};

/** Per-pass knobs. */
struct PassOptions
{
    double warmupSeconds = 0.5;
    double seconds = 1.0;
    /** Null = untraced; else client spans (sampled) land here. */
    Tracer *tracer = nullptr;
    /**
     * Runs on the calling thread for the measured window; the default
     * sleeps `seconds`. The window is however long `drive` takes.
     */
    std::function<void()> drive;
};

PassResult runPass(Workload &w, const PassOptions &options);

} // namespace kvbench

#endif // KVBENCH_WORKLOADS_HPP
