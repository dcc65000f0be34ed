#include "polytm/polytm.hpp"

#include <cassert>
#include <stdexcept>

#include "common/timing.hpp"
#include "tm/global_lock.hpp"
#include "tm/hybrid_norec.hpp"
#include "tm/norec.hpp"
#include "tm/swisstm.hpp"
#include "tm/tinystm.hpp"
#include "tm/tl2.hpp"

namespace proteus::polytm {

using tm::BackendKind;

PolyTm::PolyTm(TmConfig initial, tm::SimHtmConfig htm_config,
               unsigned log2_orecs)
{
    auto idx = [](BackendKind k) { return static_cast<std::size_t>(k); };
    backends_[idx(BackendKind::kGlobalLock)] =
        std::make_unique<tm::GlobalLockTm>();
    backends_[idx(BackendKind::kTl2)] =
        std::make_unique<tm::Tl2Tm>(log2_orecs);
    backends_[idx(BackendKind::kTinyStm)] =
        std::make_unique<tm::TinyStmTm>(log2_orecs);
    backends_[idx(BackendKind::kNorec)] = std::make_unique<tm::NorecTm>();
    backends_[idx(BackendKind::kSwissTm)] =
        std::make_unique<tm::SwissTm>(log2_orecs);
    backends_[idx(BackendKind::kSimHtm)] =
        std::make_unique<tm::SimHtm>(htm_config, log2_orecs);
    backends_[idx(BackendKind::kHybridNorec)] =
        std::make_unique<tm::HybridNorecTm>(htm_config, log2_orecs);

    config_ = initial;
    dispatch_->backend.store(backends_[idx(initial.backend)].get(),
                             std::memory_order_release);
    dispatch_->cmBudget.store(initial.cm.htmBudget,
                              std::memory_order_relaxed);
    dispatch_->cmPolicy.store(static_cast<int>(initial.cm.capacityPolicy),
                              std::memory_order_relaxed);
    dispatch_->threads.store(initial.threads, std::memory_order_relaxed);
}

PolyTm::~PolyTm() = default;

ThreadToken
PolyTm::registerThread()
{
    std::lock_guard<std::mutex> lk(adminMutex_);
    int tid = -1;
    for (int t = 0; t < tm::kMaxThreads; ++t) {
        if (!registered_[t]) {
            tid = t;
            break;
        }
    }
    if (tid < 0)
        throw std::runtime_error("PolyTm: too many registered threads");

    // Descriptors are never freed before the PolyTm itself dies (see
    // deregisterThread); a departed tid's descriptor is recycled for
    // its next owner with the per-attempt state wiped.
    if (!descs_[tid]) {
        descs_[tid] = std::make_unique<tm::TxDesc>(
            tid, 0x5eed0000ull + static_cast<std::uint64_t>(tid));
    } else {
        descs_[tid]->beginAttempt();
        descs_[tid]->consecutiveAborts = 0;
        descs_[tid]->htmBudgetLeft = 0;
        descs_[tid]->lastAbortCause = tm::AbortCause::kNone;
    }
    registered_[tid] = true;
    // Counters survive tid reuse so snapshotStats() stays cumulative
    // across departed threads.
    if (!counters_[tid])
        counters_[tid] = std::make_unique<ThreadCounters>();
    for (auto &backend : backends_)
        backend->registerThread(*descs_[tid]);
    ++numRegistered_;

    // Threads beyond the configured parallelism degree start disabled.
    enabled_[tid] = enabledUnder(config_, tid);
    if (!enabled_[tid])
        gate_.block(tid);

    return ThreadToken{tid, descs_[tid].get()};
}

void
PolyTm::deregisterThread(ThreadToken &token)
{
    std::lock_guard<std::mutex> lk(adminMutex_);
    assert(token.tid >= 0 && registered_[token.tid]);
    if (!enabled_[token.tid])
        gate_.unblock(token.tid);
    enabled_[token.tid] = false;
    // A pin is per-thread state, not per-slot: it must not leak to an
    // unrelated thread that later reuses this tid.
    gate_.unpin(token.tid);
    for (auto &backend : backends_)
        backend->deregisterThread(*descs_[token.tid]);
    // counters_[tid] intentionally survives: snapshotStats() keeps
    // aggregating work done by departed threads. The descriptor
    // survives too: a racing SimHtm fallback begin may still doom
    // "all active" threads through a slot pointer it loaded just
    // before this deregistration — a write into a parked (or
    // recycled) descriptor's doomed flag is harmless, a write into a
    // freed one is a use-after-free.
    registered_[token.tid] = false;
    --numRegistered_;
    token.tid = -1;
    token.desc = nullptr;
}

bool
PolyTm::enabledUnder(const TmConfig &config, int tid) const
{
    return gate_.pinned(tid) || tid < config.threads;
}

void
PolyTm::onAbort(ThreadToken &token, tm::TxDesc &desc,
                tm::TmBackend &backend, const tm::TxAbort &abort)
{
    desc.lastAbortCause = abort.cause;
    ++desc.consecutiveAborts;
    bumpOwned(counters_[token.tid]->aborts);
    bumpOwned(counters_[token.tid]
                  ->abortsByCause[static_cast<std::size_t>(abort.cause)]);

    // HTM retry-budget policy (paper §4.3): consumed per abort; the
    // capacity policy decides how harshly capacity aborts count.
    const BackendKind kind = backend.kind();
    if (kind == BackendKind::kSimHtm || kind == BackendKind::kHybridNorec) {
        if (abort.cause == tm::AbortCause::kCapacity) {
            switch (static_cast<tm::CapacityPolicy>(
                dispatch_->cmPolicy.load(std::memory_order_relaxed))) {
              case tm::CapacityPolicy::kGiveUp:
                desc.htmBudgetLeft = 0;
                break;
              case tm::CapacityPolicy::kDecrease:
                --desc.htmBudgetLeft;
                break;
              case tm::CapacityPolicy::kHalve:
                desc.htmBudgetLeft /= 2;
                break;
              default:
                break;
            }
        } else {
            --desc.htmBudgetLeft;
        }
        if (desc.htmBudgetLeft < 0)
            desc.htmBudgetLeft = 0;
    }
}

void
PolyTm::reconfigure(const TmConfig &config)
{
    std::lock_guard<std::mutex> lk(adminMutex_);

    // CM knobs first: these never need quiescence.
    dispatch_->cmBudget.store(config.cm.htmBudget,
                              std::memory_order_relaxed);
    dispatch_->cmPolicy.store(static_cast<int>(config.cm.capacityPolicy),
                              std::memory_order_relaxed);

    const bool same_backend = config.backend == config_.backend;
    const bool same_threads = config.threads == config_.threads;
    if (same_backend && same_threads) {
        config_ = config;
        return;
    }

    Stopwatch sw;

    // Step (i): parallelism degree -> 0 (block every enabled thread;
    // block() returns once the thread is outside any transaction).
    for (int t = 0; t < tm::kMaxThreads; ++t) {
        if (registered_[t] && enabled_[t]) {
            gate_.block(t);
            enabled_[t] = false;
        }
    }

    // Step (ii): switch the TM algorithm.
    if (!same_backend) {
        tm::TmBackend *next =
            backends_[static_cast<std::size_t>(config.backend)].get();
        next->reset();
        dispatch_->backend.store(next, std::memory_order_release);
    }

    // Step (iii): parallelism degree -> P. The degree is published
    // before the pin bits are read (see setPinned).
    dispatch_->threads.store(config.threads, std::memory_order_seq_cst);
    for (int t = 0; t < tm::kMaxThreads; ++t) {
        if (registered_[t] && enabledUnder(config, t)) {
            gate_.unblock(t);
            enabled_[t] = true;
        }
    }

    config_ = config;
    lastReconfigureNanos_.store(sw.elapsedNanos(),
                                std::memory_order_relaxed);
}

TmConfig
PolyTm::currentConfig() const
{
    std::lock_guard<std::mutex> lk(adminMutex_);
    return config_;
}

void
PolyTm::setPinned(int tid, bool pinned)
{
    if (tid < 0 || tid >= tm::kMaxThreads) {
        throw std::out_of_range(
            "PolyTm::setPinned: tid outside [0, kMaxThreads) - "
            "stale token after deregisterThread?");
    }
    if (pinned) {
        // No BLOCK pending: the tid is enabled, and a reconfigure that
        // blocks it later sees the bit in its step (iii). A pending
        // BLOCK is the degree's or a reconfigure's in flight; under the
        // mutex the reconfigure is over and enabled_ says which.
        if (!gate_.pin(tid))
            return;
        std::lock_guard<std::mutex> lk(adminMutex_);
        if (registered_[tid] && !enabled_[tid]) {
            gate_.unblock(tid);
            enabled_[tid] = true;
        }
        return;
    }
    // Unpin must be symmetric: a thread enabled only by its pin goes
    // back behind the gate, or a transient pin (KvStore::multiOp)
    // would permanently defeat the configured parallelism degree.
    // Clear the bit, then read the degree; reconfigure stores the
    // degree, then reads the bit (all seq_cst). So either this read
    // sees the new degree, or that reconfigure sees the bit clear and
    // leaves a tid beyond its degree blocked.
    gate_.unpin(tid);
    if (tid < dispatch_->threads.load(std::memory_order_seq_cst))
        return;
    std::lock_guard<std::mutex> lk(adminMutex_);
    if (registered_[tid] && enabled_[tid] && !enabledUnder(config_, tid)) {
        gate_.block(tid);
        enabled_[tid] = false;
    }
}

void
PolyTm::resumeAllForShutdown()
{
    std::lock_guard<std::mutex> lk(adminMutex_);
    for (int t = 0; t < tm::kMaxThreads; ++t) {
        if (registered_[t] && !enabled_[t]) {
            gate_.unblock(t);
            enabled_[t] = true;
        }
    }
}

PolyStats
PolyTm::snapshotStats() const
{
    // adminMutex_ orders this against registerThread() publishing new
    // counters_ slots (the counter words themselves are atomics).
    std::lock_guard<std::mutex> lk(adminMutex_);
    PolyStats out;
    for (int t = 0; t < tm::kMaxThreads; ++t) {
        if (!counters_[t])
            continue;
        out.commits +=
            counters_[t]->commits.load(std::memory_order_relaxed);
        out.aborts += counters_[t]->aborts.load(std::memory_order_relaxed);
        for (std::size_t c = 0; c < out.abortsByCause.size(); ++c) {
            out.abortsByCause[c] +=
                counters_[t]->abortsByCause[c].load(
                    std::memory_order_relaxed);
        }
    }
    return out;
}

int
PolyTm::registeredThreads() const
{
    std::lock_guard<std::mutex> lk(adminMutex_);
    return numRegistered_;
}

tm::TmBackend &
PolyTm::backendFor(BackendKind kind)
{
    return *backends_[static_cast<std::size_t>(kind)];
}

} // namespace proteus::polytm
