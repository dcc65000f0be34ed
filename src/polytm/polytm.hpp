/**
 * @file
 * PolyTM: the polymorphic TM runtime (paper §4).
 *
 * PolyTM hides every TM backend behind one dispatch point, profiles
 * commits/aborts, and supports run-time reconfiguration of
 *  (i) the TM algorithm (quiesced switch via ThreadGate),
 *  (ii) the parallelism degree (selective thread disabling),
 *  (iii) the HTM contention-management knobs (no quiescence needed).
 *
 * Public API sketch:
 * @code
 *   PolyTm poly;
 *   auto token = poly.registerThread();
 *   TxField<int> x;
 *   poly.run(token, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });
 *   poly.reconfigure({tm::BackendKind::kNorec, 4, {}});
 * @endcode
 */

#ifndef PROTEUS_POLYTM_POLYTM_HPP
#define PROTEUS_POLYTM_POLYTM_HPP

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/cacheline.hpp"
#include "common/epoch.hpp"
#include "polytm/config.hpp"
#include "polytm/thread_gate.hpp"
#include "tm/backend.hpp"
#include "tm/sim_htm.hpp"

namespace proteus::polytm {

class PolyTm;

/**
 * A transactional cell holding any trivially-copyable T of at most
 * 8 bytes (word-based TM). Fields must only be accessed through a Tx
 * inside a transaction, or through raw accessors while no transaction
 * can run (setup/teardown).
 */
template <typename T>
class TxField
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "TxField requires trivially copyable payloads");
    static_assert(sizeof(T) <= 8, "TxField payloads are word-sized");

  public:
    TxField() = default;
    explicit TxField(T v) { rawSet(v); }

    /** Non-transactional accessors: only while quiesced. */
    T
    rawGet() const
    {
        T out;
        std::memcpy(&out, &storage_, sizeof(T));
        return out;
    }

    void
    rawSet(T v)
    {
        storage_ = 0;
        std::memcpy(&storage_, &v, sizeof(T));
    }

  private:
    friend class Tx;
    alignas(8) std::uint64_t storage_ = 0;
};

/** Handle passed to the transaction body; wraps backend + descriptor. */
class Tx
{
  public:
    template <typename T>
    T
    read(const TxField<T> &field)
    {
        const std::uint64_t word = backend_->txRead(*desc_, &field.storage_);
        T out;
        std::memcpy(&out, &word, sizeof(T));
        return out;
    }

    template <typename T>
    void
    write(TxField<T> &field, T value)
    {
        std::uint64_t word = 0;
        std::memcpy(&word, &value, sizeof(T));
        backend_->txWrite(*desc_, &field.storage_, word);
    }

    /** Raw word access (data structures managing their own layout). */
    std::uint64_t
    readWord(const std::uint64_t *addr)
    {
        return backend_->txRead(*desc_, addr);
    }

    void
    writeWord(std::uint64_t *addr, std::uint64_t value)
    {
        backend_->txWrite(*desc_, addr, value);
    }

    /** Explicit user abort + retry: every backend rolls the attempt
     *  back, in-place writers from their undo logs. */
    [[noreturn]] void
    retry()
    {
        backend_->abortTx(*desc_, tm::AbortCause::kExplicit);
    }

    tm::TxDesc &desc() { return *desc_; }

  private:
    friend class PolyTm;
    Tx(tm::TmBackend &backend, tm::TxDesc &desc)
        : backend_(&backend), desc_(&desc)
    {}

    tm::TmBackend *backend_;
    tm::TxDesc *desc_;
};

/** Per-thread registration handle. */
struct ThreadToken
{
    int tid = -1;
    tm::TxDesc *desc = nullptr;
    /**
     * Reader-epoch slot for quiescent-state-based reclamation
     * (common/epoch.hpp). PolyTM itself never touches it; the layer
     * that owns both the PolyTM instance and an EpochDomain (the KV
     * shard) assigns the thread's slot here at registration so read
     * paths can pin resources through the token they already carry.
     */
    EpochSlot *epochSlot = nullptr;
};

/** Aggregated profiling counters. */
struct PolyStats
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::array<std::uint64_t, 6> abortsByCause{};
};

class PolyTm
{
  public:
    /**
     * @param initial      configuration active at construction
     * @param htm_config   emulated-HTM capacity parameters
     * @param log2_orecs   stripe-table size used by all backends
     */
    explicit PolyTm(TmConfig initial = {},
                    tm::SimHtmConfig htm_config = {},
                    unsigned log2_orecs = 18);
    ~PolyTm();

    PolyTm(const PolyTm &) = delete;
    PolyTm &operator=(const PolyTm &) = delete;

    /** Register the calling thread; assigns the next dense tid. */
    ThreadToken registerThread();

    /** Deregister; the token becomes invalid. */
    void deregisterThread(ThreadToken &token);

    /**
     * Execute `body` as one atomic transaction, retrying on aborts
     * with bounded randomized backoff. The body may run many times;
     * it must be side-effect free apart from transactional accesses.
     * Every attempt enters through the ThreadGate, so a thread the
     * parallelism degree disables parks here (at entry or between
     * retries) until a reconfigure re-enables it. A caller that must
     * not park while it holds something other threads wait on pins
     * itself first (setPinned).
     */
    template <typename F>
    void
    run(ThreadToken &token, F &&body)
    {
        tm::TxDesc &desc = *token.desc;
        desc.consecutiveAborts = 0;
        for (;;) {
            gate_.enter(token.tid);
            tm::TmBackend *backend =
                dispatch_->backend.load(std::memory_order_acquire);
            if (desc.consecutiveAborts == 0) {
                desc.htmBudgetLeft =
                    dispatch_->cmBudget.load(std::memory_order_relaxed);
            }
            try {
                backend->txBegin(desc);
                Tx tx(*backend, desc);
                body(tx);
                backend->txCommit(desc);
                bumpOwned(counters_[token.tid]->commits);
                desc.consecutiveAborts = 0;
                gate_.exit(token.tid);
                return;
            } catch (const tm::TxAbort &abort) {
                onAbort(token, desc, *backend, abort);
                gate_.exit(token.tid);
                tm::backoffOnAbort(desc);
            } catch (...) {
                // Foreign exception out of the body (e.g. bad_alloc):
                // roll the open transaction back so its writes undo
                // and its locks release, drop the RUN bit — a leaked
                // RUN would make the next reconfigure() spin forever —
                // and let it propagate.
                try {
                    backend->abortTx(desc, tm::AbortCause::kExplicit);
                } catch (const tm::TxAbort &) {
                }
                gate_.exit(token.tid);
                throw;
            }
        }
    }

    /**
     * Apply a new configuration (adapter-thread side). CM-only changes
     * are applied without quiescence; backend/thread changes run the
     * paper's 3-step protocol (parallelism to 0, switch, restore).
     */
    void reconfigure(const TmConfig &config);

    TmConfig currentConfig() const;

    /**
     * Forbid PolyTM from disabling this thread when shrinking the
     * parallelism degree (paper §4.2's programmer escape hatch); it
     * may still be paused briefly while switching algorithms. A pin
     * admits a thread the degree had disabled; unpinning puts such a
     * thread back behind the gate, so a transient pin never defeats
     * the configured degree.
     *
     * Only the thread holding `tid` pins or unpins it. The pin is the
     * PIN bit on the tid's own gate word, so an enabled thread pins
     * and unpins with one RMW each; adminMutex_ is taken only when
     * the pin changes admission (pinning a tid that has a BLOCK
     * pending, unpinning a tid at or beyond the degree).
     */
    void setPinned(int tid, bool pinned);

    /**
     * Re-enable every registered thread, regardless of the configured
     * parallelism degree. Called by workloads after raising their stop
     * flag so that disabled threads can observe it and exit.
     */
    void resumeAllForShutdown();

    /** Aggregate counters across all threads since construction. */
    PolyStats snapshotStats() const;

    /** Wall time of the most recent quiesced reconfiguration. */
    std::uint64_t lastReconfigureNanos() const
    {
        return lastReconfigureNanos_.load(std::memory_order_relaxed);
    }

    /** Number of currently registered threads. */
    int registeredThreads() const;

    /** Whether `tid` has a BLOCK pending at the gate: its next run()
     *  parks. */
    bool blocked(int tid) const { return gate_.blocked(tid); }

    /** Direct backend access (tests and micro-benchmarks only). */
    tm::TmBackend &backendFor(tm::BackendKind kind);

  private:
    struct ThreadCounters
    {
        std::atomic<std::uint64_t> commits{0};
        std::atomic<std::uint64_t> aborts{0};
        std::array<std::atomic<std::uint64_t>, 6> abortsByCause{};
    };

    /**
     * Increment one of a tid's own counters. Only the thread holding
     * the tid writes them, and adminMutex_ orders a tid's hand-over to
     * its next holder, so a relaxed load and store suffice: no locked
     * instruction per transaction. Atomic so snapshotStats() may read
     * concurrently.
     */
    static void
    bumpOwned(std::atomic<std::uint64_t> &counter)
    {
        counter.store(counter.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }

    void onAbort(ThreadToken &token, tm::TxDesc &desc,
                 tm::TmBackend &backend, const tm::TxAbort &abort);

    /** True if `tid` should be runnable under `config`. */
    bool enabledUnder(const TmConfig &config, int tid) const;

    ThreadGate gate_;

    /**
     * The words every run() attempt reads, and the degree every unpin
     * reads. Layout rule: they share a cache line with nothing else,
     * and only reconfigure() writes them. Writers that take
     * adminMutex_ (registration, admission-changing pins) would
     * otherwise evict the line from every thread dispatching on this
     * instance.
     */
    struct DispatchWords
    {
        std::atomic<tm::TmBackend *> backend{nullptr};
        std::atomic<int> cmBudget{5};
        std::atomic<int> cmPolicy{
            static_cast<int>(tm::CapacityPolicy::kDecrease)};
        /** config_.threads, stored (seq_cst) before a reconfigure
         *  re-enables threads; see setPinned. */
        std::atomic<int> threads{0};
    };
    static_assert(sizeof(Padded<DispatchWords>) == kCacheLineSize);
    Padded<DispatchWords> dispatch_;

    mutable std::mutex adminMutex_;
    TmConfig config_;
    std::array<std::unique_ptr<tm::TmBackend>,
               static_cast<std::size_t>(tm::BackendKind::kNumBackends)>
        backends_;
    /**
     * Descriptors are created on first registration of a tid and then
     * live until the PolyTm dies; `registered_` tracks occupancy. A
     * departed thread's descriptor stays mapped because the emulated
     * HTM's doomAllActive may race a deregistration through a slot
     * pointer it loaded moments earlier — a doomed-flag write into a
     * parked descriptor is harmless, one into freed memory is not.
     */
    std::array<std::unique_ptr<tm::TxDesc>, tm::kMaxThreads> descs_;
    std::array<bool, tm::kMaxThreads> registered_{};
    std::array<bool, tm::kMaxThreads> enabled_{};
    std::array<std::unique_ptr<ThreadCounters>, tm::kMaxThreads> counters_;
    int numRegistered_ = 0;

    std::atomic<std::uint64_t> lastReconfigureNanos_{0};
};

} // namespace proteus::polytm

#endif // PROTEUS_POLYTM_POLYTM_HPP
