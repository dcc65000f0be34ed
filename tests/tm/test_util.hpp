/**
 * @file
 * Helpers for driving raw TM backends (no PolyTM) in tests.
 */

#ifndef PROTEUS_TESTS_TM_TEST_UTIL_HPP
#define PROTEUS_TESTS_TM_TEST_UTIL_HPP

#include <memory>

#include "tm/backend.hpp"
#include "tm/global_lock.hpp"
#include "tm/hybrid_norec.hpp"
#include "tm/norec.hpp"
#include "tm/sim_htm.hpp"
#include "tm/swisstm.hpp"
#include "tm/tinystm.hpp"
#include "tm/tl2.hpp"

namespace proteus::tm::testing {

/** Build a backend by kind with small tables (tests are small). */
inline std::unique_ptr<TmBackend>
makeBackend(BackendKind kind, SimHtmConfig htm = {})
{
    switch (kind) {
      case BackendKind::kGlobalLock:
        return std::make_unique<GlobalLockTm>();
      case BackendKind::kTl2:
        return std::make_unique<Tl2Tm>(14);
      case BackendKind::kTinyStm:
        return std::make_unique<TinyStmTm>(14);
      case BackendKind::kNorec:
        return std::make_unique<NorecTm>();
      case BackendKind::kSwissTm:
        return std::make_unique<SwissTm>(14);
      case BackendKind::kSimHtm:
        return std::make_unique<SimHtm>(htm, 14);
      case BackendKind::kHybridNorec:
        return std::make_unique<HybridNorecTm>(htm, 14);
      default:
        return nullptr;
    }
}

/** All kinds, for TEST_P instantiation. */
inline std::vector<BackendKind>
allBackendKinds()
{
    return {BackendKind::kGlobalLock, BackendKind::kTl2,
            BackendKind::kTinyStm,    BackendKind::kNorec,
            BackendKind::kSwissTm,    BackendKind::kSimHtm,
            BackendKind::kHybridNorec};
}

/**
 * Retry loop mirroring PolyTm::run for raw-backend tests, including a
 * simple HTM budget so emulated-HTM tests reach the fallback path (a
 * budget of 0 runs every attempt there).
 */
template <typename F>
void
runTx(TmBackend &backend, TxDesc &desc, F &&body, int htm_budget = 5)
{
    desc.consecutiveAborts = 0;
    desc.htmBudgetLeft = htm_budget;
    for (;;) {
        backend.txBegin(desc);
        try {
            body(desc);
            backend.txCommit(desc);
            desc.consecutiveAborts = 0;
            return;
        } catch (const TxAbort &) {
            ++desc.consecutiveAborts;
            if (desc.htmBudgetLeft > 0)
                --desc.htmBudgetLeft;
            backoffOnAbort(desc);
        }
    }
}

} // namespace proteus::tm::testing

#endif // PROTEUS_TESTS_TM_TEST_UTIL_HPP
