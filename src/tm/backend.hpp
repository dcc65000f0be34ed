/**
 * @file
 * Abstract TM backend interface.
 *
 * PolyTM dispatches every transactional operation through a per-thread
 * backend pointer (the moral equivalent of the function-pointer table
 * in the paper's §4.1). Backends own all their metadata; switching is
 * only legal while every thread is quiesced, after which reset() puts
 * the incoming backend into a pristine state.
 */

#ifndef PROTEUS_TM_BACKEND_HPP
#define PROTEUS_TM_BACKEND_HPP

#include <cstdint>

#include "tm/tm_api.hpp"
#include "tm/txdesc.hpp"

namespace proteus::tm {

/**
 * Interface implemented by every TM algorithm in PolyTM.
 *
 * Contract:
 *  - txBegin/txRead/txWrite/txCommit may throw TxAbort; when they do,
 *    the descriptor has already been rolled back (all locks released)
 *    and txBegin may be called again immediately.
 *  - rollback() restores every word the attempt wrote, on every
 *    backend: redo-logging backends never wrote memory, and in-place
 *    writers (the global lock, the emulated HTM's fallback) undo-log
 *    each word's pre-image. So any attempt can abort, through
 *    abortTx() (tx.retry() in the public API) or a foreign exception
 *    unwinding through PolyTm::run, and leave no trace.
 *  - reset() is called only while the system is quiesced.
 */
class TmBackend
{
  public:
    virtual ~TmBackend() = default;

    /** Which algorithm this is. */
    virtual BackendKind kind() const = 0;

    /**
     * Called once when a thread (descriptor) joins / leaves the
     * system. Backends with per-thread visibility structures (the
     * emulated HTM's read signatures) hook these.
     */
    virtual void registerThread(TxDesc &) {}
    virtual void deregisterThread(TxDesc &) {}

    /** Begin a new transaction attempt for this thread. */
    virtual void txBegin(TxDesc &tx) = 0;

    /** Transactional 64-bit load. */
    virtual std::uint64_t txRead(TxDesc &tx, const std::uint64_t *addr) = 0;

    /** Transactional 64-bit store. */
    virtual void
    txWrite(TxDesc &tx, std::uint64_t *addr, std::uint64_t value) = 0;

    /** Attempt to commit; throws TxAbort on validation failure. */
    virtual void txCommit(TxDesc &tx) = 0;

    /**
     * Undo the in-flight attempt of `tx`: restore every word it wrote
     * and release every resource it holds (stripe locks, fallback
     * lock, visibility entries). Must be idempotent. Called on every
     * abort path.
     */
    virtual void rollback(TxDesc &tx) = 0;

    /** Reset all global metadata; only called while quiesced. */
    virtual void reset() = 0;

    /** Roll back and raise TxAbort with the given cause. */
    [[noreturn]] void
    abortTx(TxDesc &tx, AbortCause cause)
    {
        rollback(tx);
        throw TxAbort{cause};
    }
};

/**
 * Bounded exponential backoff between attempts; jitter from the
 * descriptor's RNG. Used by the PolyTM retry loop, shared by tests.
 */
void backoffOnAbort(TxDesc &tx);

} // namespace proteus::tm

#endif // PROTEUS_TM_BACKEND_HPP
