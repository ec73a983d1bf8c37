/**
 * @file
 * StoreSet memory-dependence predictor (Chrysos & Emer, ISCA'98).
 *
 * Loads that were previously squashed by an older store are placed in the
 * same store set as that store; a load predicted dependent waits for the
 * last fetched store of its set instead of issuing speculatively.
 */

#ifndef ROWSIM_CPU_STORESET_HH
#define ROWSIM_CPU_STORESET_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rowsim
{

class StoreSet
{
  public:
    static constexpr std::uint32_t invalidSet = 0xffffffffu;

    StoreSet(unsigned ssit_bits = 10, unsigned lfst_entries = 1024);

    /** Store-set id assigned to @p pc, or invalidSet. */
    std::uint32_t setOf(Addr pc) const;

    /** A store of set @p set was fetched with sequence number @p seq. */
    void storeFetched(std::uint32_t set, SeqNum seq);

    /** The store with @p seq of @p set executed (clears the LFST slot). */
    void storeExecuted(std::uint32_t set, SeqNum seq);

    /**
     * Sequence number of the in-flight store this load must wait for, or
     * 0 when it may issue speculatively.
     */
    SeqNum dependence(Addr load_pc) const;

    /** A memory-order violation between @p load_pc and @p store_pc was
     *  detected: merge both into one store set. */
    void violation(Addr load_pc, Addr store_pc);

    /** Periodic clearing keeps stale sets from serialising forever. */
    void clear();

    StatGroup &stats() { return stats_; }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar> void visit(Ar &ar);

  private:
    unsigned index(Addr pc) const;

    unsigned ssitBits;
    std::vector<std::uint32_t> ssit; ///< pc -> store-set id
    std::vector<SeqNum> lfst;        ///< set id -> last fetched store seq
    std::uint32_t nextSetId = 0;

    StatGroup stats_;
    CounterStat violations_{stats_, "violations"};
};

} // namespace rowsim

#endif // ROWSIM_CPU_STORESET_HH
