/**
 * @file
 * Atomic Queue (AQ): the Free Atomics structure tracking in-flight atomic
 * RMWs (§II-B), augmented with RoW's per-entry contention-detection fields
 * (§IV): the contended bit, the only-calculate-address bit, and the 14-bit
 * request-issued-cycle timestamp.
 *
 * The AQ is a FIFO: entries allocate at dispatch and free at unlock, and
 * because stores write in order under TSO, the unlocking atomic is always
 * the head entry.
 */

#ifndef ROWSIM_CPU_ATOMIC_QUEUE_HH
#define ROWSIM_CPU_ATOMIC_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/coherence.hh"

namespace rowsim
{

/** One in-flight atomic RMW. */
struct AqEntry
{
    bool valid = false;
    SeqNum seq = 0;
    Addr pc = 0;

    /** Effective address; invalidAddr until the address-calculation issue
     *  (eager issue, or the only-calculate-address issue under RoW). */
    Addr addr = invalidAddr;

    /** The cacheline is held locked in the L1D (set/way pinned). */
    bool locked = false;
    /** Detector outcome used to train the predictor (§IV-A..C). */
    bool contended = false;
    /** Ground-truth contention from the directory oracle (Fig. 5). */
    bool oracleContended = false;
    /** RoW: predicted lazy, but issued once to compute the address and
     *  extend the contention-tracking window (§IV-B). */
    bool onlyCalcAddr = false;
    /** The prediction this atomic was dispatched with (lazy == true). */
    bool predictedContended = false;

    /** 14 LSBs of the cycle the GetX entered the network (§IV-C). */
    std::uint16_t issuedCycle14 = 0;
    bool timestampValid = false;

    /** Where the locked line came from (latency classification). */
    FillSource lockSource = FillSource::L1Hit;

    /** Post-commit unlock payload: the STU's value and SQ slot. The ROB
     *  entry may be reused before the unlock fires, so the AQ carries
     *  everything the unlock needs. */
    std::uint64_t newValue = 0;
    int sqIdx = -1;

    // Full-width timestamps for the Fig. 6 latency breakdown (statistics
    // only; not part of the hardware budget).
    Cycle dispatchCycle = invalidCycle;
    Cycle readyCycle = invalidCycle;
    Cycle issueCycle = invalidCycle;
    Cycle lockCycle = invalidCycle;

    /** Lifetime span of this atomic (0 = untraced; src/sim/span.hh).
     *  Observability-only: not serialized, 0 after a restore. */
    std::uint64_t spanId = 0;

    Addr line() const { return addr == invalidAddr ? invalidAddr
                                                   : lineAlign(addr); }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.b(valid);
        ar.u64(seq);
        ar.u64(pc);
        ar.u64(addr);
        ar.b(locked);
        ar.b(contended);
        ar.b(oracleContended);
        ar.b(onlyCalcAddr);
        ar.b(predictedContended);
        ar.u16(issuedCycle14);
        ar.b(timestampValid);
        ar.enumByte(lockSource, FillSource::Forwarded, "AQ lock source");
        ar.u64(newValue);
        ar.u64(sqIdx);
        ar.u64(dispatchCycle);
        ar.u64(readyCycle);
        ar.u64(issueCycle);
        ar.u64(lockCycle);
        // Span IDs are observability state, never serialized: a
        // restored in-flight atomic is untraced (counted as
        // spansTruncated).
        if constexpr (Ar::loading)
            spanId = 0;
    }
};

/** The queue itself: a circular FIFO of AqEntry. */
class AtomicQueue
{
  public:
    explicit AtomicQueue(unsigned entries);

    bool full() const { return count == capacity; }
    bool empty() const { return count == 0; }
    unsigned size() const { return count; }
    unsigned entries() const { return capacity; }

    /** Allocate the tail entry at dispatch. @return entry index. */
    unsigned allocate(SeqNum seq, Addr pc, Cycle now);

    /** Free the head entry at unlock. @pre head().seq == seq. */
    void freeHead(SeqNum seq);

    AqEntry &entry(unsigned idx) { return slots[idx]; }
    const AqEntry &entry(unsigned idx) const { return slots[idx]; }
    AqEntry &head();
    /** Sequence number of the head entry; 0 when empty. */
    SeqNum oldestSeq() const { return count == 0 ? 0 : slots[headIdx].seq; }

    /** Is @p line locked by any entry (cache-locking snoop)? */
    bool lineLocked(Addr line) const;

    /**
     * True when every valid entry older than @p seq holds its lock.
     * Locks engage in AQ order: a younger atomic holding a lock while an
     * older one still waits for a contended line would keep other cores
     * stalled for the older atomic's whole acquisition time (and can
     * deadlock across cores), so fills for out-of-order atomics wait.
     */
    bool olderAllLocked(SeqNum seq) const;

    /**
     * Apply @p fn to every valid entry whose computed address matches
     * @p line (contention marking on external requests).
     */
    template <typename Fn>
    void
    forEachMatching(Addr line, Fn &&fn)
    {
        for (unsigned i = 0; i < capacity; i++) {
            AqEntry &e = slots[i];
            if (e.valid && e.addr != invalidAddr && e.line() == line)
                fn(e);
        }
    }

    /** Apply @p fn to every valid entry. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (unsigned i = 0; i < capacity; i++) {
            if (slots[i].valid)
                fn(slots[i]);
        }
    }

    /** Const overload (invariant checkers, diagnostics). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned i = 0; i < capacity; i++) {
            if (slots[i].valid)
                fn(slots[i]);
        }
    }

    /** Entry index holding @p seq, or -1. */
    int find(SeqNum seq) const;

    /** RoW storage overhead of the AQ augmentation in bits (§IV-F):
     *  contended + only-calculate-address + 14-bit timestamp per entry. */
    unsigned rowStorageBits() const { return capacity * (1 + 1 + 14); }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar> void visit(Ar &ar);

  private:
    unsigned capacity;
    unsigned headIdx = 0;
    unsigned tailIdx = 0;
    unsigned count = 0;
    std::vector<AqEntry> slots;
};

} // namespace rowsim

#endif // ROWSIM_CPU_ATOMIC_QUEUE_HH
