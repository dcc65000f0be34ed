/**
 * @file
 * Hybrid NOrec (Dalessandro et al., ASPLOS'11): best-effort hardware
 * transactions with a NOrec STM fallback, coordinated through NOrec's
 * global sequence lock.
 *
 * Mapping of the original's coordination onto the emulation:
 *  - hardware txs "subscribe" to the seqlock: they begin only when it
 *    is even, snapshot it, and abort if it moved by commit time;
 *  - a software (NOrec) commit dooms all in-flight hardware txs —
 *    the emulated analogue of the seqlock write invalidating their
 *    read sets via cache coherence;
 *  - a hardware commit acquires the seqlock (CAS even -> odd), writes
 *    back, and releases at +2, so software readers revalidate.
 *
 * Budget exhaustion falls back to the *software path*, not a global
 * lock, which is the defining feature of Hybrid TM.
 */

#ifndef PROTEUS_TM_HYBRID_NOREC_HPP
#define PROTEUS_TM_HYBRID_NOREC_HPP

#include "tm/norec.hpp"
#include "tm/sim_htm.hpp"

namespace proteus::tm {

class HybridNorecTm : public SimHtm
{
  public:
    explicit HybridNorecTm(SimHtmConfig config = {},
                           unsigned log2_stripes = 18);

    BackendKind kind() const override { return BackendKind::kHybridNorec; }

    void txBegin(TxDesc &tx) override;
    std::uint64_t txRead(TxDesc &tx, const std::uint64_t *addr) override;
    void txWrite(TxDesc &tx, std::uint64_t *addr,
                 std::uint64_t value) override;
    void txCommit(TxDesc &tx) override;
    void rollback(TxDesc &tx) override;
    void reset() override;

  private:
    NorecTm norec_;
};

} // namespace proteus::tm

#endif // PROTEUS_TM_HYBRID_NOREC_HPP
