/**
 * @file
 * Load queue and unified store queue / store buffer.
 *
 * The store queue holds stores from dispatch until their write completes;
 * the suffix of committed-but-unwritten entries is the architectural store
 * buffer (SB). TSO: stores write strictly in order from the head.
 */

#ifndef ROWSIM_CPU_LSQ_HH
#define ROWSIM_CPU_LSQ_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rowsim
{

/** Word-granular address (all simulated accesses are 8-byte words). */
constexpr Addr
wordAlign(Addr a)
{
    return a & ~7ULL;
}

struct LqEntry
{
    bool valid = false;
    SeqNum seq = 0;
    Addr addr = invalidAddr; ///< known once the load issues
    bool issued = false;
    bool completed = false;
    bool isAtomic = false;
    /** Store this load forwarded from (0: value came from the cache).
     *  Used to filter memory-order-violation scans. */
    SeqNum fwdFrom = 0;

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.b(valid);
        ar.u64(seq);
        ar.u64(addr);
        ar.b(issued);
        ar.b(completed);
        ar.b(isAtomic);
        ar.u64(fwdFrom);
    }
};

struct SqEntry
{
    bool valid = false;
    SeqNum seq = 0;
    Addr addr = invalidAddr; ///< known once the store executes
    std::uint64_t value = 0;
    bool addressReady = false;
    /** The value is valid for forwarding. Regular stores: with the
     *  address. Atomic STUs: the address resolves at address
     *  calculation but the value only once the modify completes. */
    bool valueReady = false;
    bool committed = false;
    bool writeInFlight = false;
    bool written = false;
    bool isAtomic = false; ///< the STU micro-op of an atomic RMW

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.b(valid);
        ar.u64(seq);
        ar.u64(addr);
        ar.u64(value);
        ar.b(addressReady);
        ar.b(valueReady);
        ar.b(committed);
        ar.b(writeInFlight);
        ar.b(written);
        ar.b(isAtomic);
    }
};

/** Circular FIFO load queue. */
class LoadQueue
{
  public:
    explicit LoadQueue(unsigned entries);

    bool full() const { return count == capacity; }
    bool empty() const { return count == 0; }
    unsigned size() const { return count; }

    unsigned allocate(SeqNum seq, bool is_atomic);
    /** Deallocate the head at commit. @pre head seq == @p seq. */
    void freeHead(SeqNum seq);

    LqEntry &entry(unsigned idx) { return slots[idx]; }
    const LqEntry &entry(unsigned idx) const { return slots[idx]; }

    /** Sequence number of the oldest entry; 0 when empty. */
    SeqNum oldestSeq() const;
    /** True when @p seq is the oldest entry (lazy-issue condition). */
    bool isOldest(SeqNum seq) const;

    /** Apply @p fn to every valid entry (violation scans). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (unsigned i = 0, idx = headIdx; i < count;
             i++, idx = (idx + 1) % capacity) {
            fn(slots[idx]);
        }
    }

    /** Const overload (invariant checkers, diagnostics). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned i = 0, idx = headIdx; i < count;
             i++, idx = (idx + 1) % capacity) {
            fn(slots[idx]);
        }
    }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar> void visit(Ar &ar);

  private:
    unsigned capacity;
    unsigned headIdx = 0;
    unsigned tailIdx = 0;
    unsigned count = 0;
    std::vector<LqEntry> slots;
};

/** Circular FIFO unified store queue + store buffer. */
class StoreQueue
{
  public:
    explicit StoreQueue(unsigned entries);

    bool full() const { return count == capacity; }
    bool empty() const { return count == 0; }
    unsigned size() const { return count; }

    unsigned allocate(SeqNum seq, bool is_atomic);
    /** Deallocate the head once written. */
    void freeHead(SeqNum seq);

    SqEntry &entry(unsigned idx) { return slots[idx]; }
    const SqEntry &entry(unsigned idx) const { return slots[idx]; }
    /** Head entry (next to write); nullptr when empty. */
    SqEntry *headEntry();
    const SqEntry *
    headEntry() const
    {
        return count ? &slots[headIdx] : nullptr;
    }

    /** Slot index of an entry obtained from this queue. */
    unsigned
    indexOf(const SqEntry *e) const
    {
        return static_cast<unsigned>(e - slots.data());
    }

    /**
     * Youngest entry older than @p seq whose address matches the word of
     * @p addr (store-to-load forwarding source). nullptr when none.
     * Sets @p unknown_older when an older entry has an unresolved address
     * (the load may not safely bypass without a StoreSet prediction).
     */
    SqEntry *forwardSource(SeqNum seq, Addr addr, bool &unknown_older);

    /** Youngest entry older than @p seq to the same *line* that has not
     *  written yet (atomic same-line ordering / locality promotion). */
    SqEntry *olderSameLineUnwritten(SeqNum seq, Addr line);

    /** True when no valid entry is older than @p seq. */
    bool noneOlderThan(SeqNum seq) const;

    /** Store buffer empty: no committed-but-unwritten entries. */
    bool sbEmpty() const;

    /** Apply @p fn to every valid entry, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (unsigned i = 0, idx = headIdx; i < count;
             i++, idx = (idx + 1) % capacity) {
            fn(slots[idx]);
        }
    }

    /** Const overload (invariant checkers, diagnostics). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned i = 0, idx = headIdx; i < count;
             i++, idx = (idx + 1) % capacity) {
            fn(slots[idx]);
        }
    }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar> void visit(Ar &ar);

  private:
    unsigned capacity;
    unsigned headIdx = 0;
    unsigned tailIdx = 0;
    unsigned count = 0;
    std::vector<SqEntry> slots;
};

} // namespace rowsim

#endif // ROWSIM_CPU_LSQ_HH
