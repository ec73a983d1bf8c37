/**
 * @file
 * Branch direction predictor. A gshare predictor with a bimodal fallback
 * chooser stands in for the paper's TAGE-SC-L: synthetic traces carry the
 * resolved direction, so the predictor's only architectural effect is the
 * mispredict redirect bubble, for which gshare-class accuracy suffices.
 */

#ifndef ROWSIM_CPU_BRANCH_HH
#define ROWSIM_CPU_BRANCH_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rowsim
{

/** Tournament (bimodal + gshare) direction predictor. */
class BranchPredictor
{
  public:
    BranchPredictor(unsigned table_bits = 12, unsigned history_bits = 12);

    /** Predict the direction for @p pc (does not update state). */
    bool predict(Addr pc) const;

    /** Update tables and history with the resolved direction.
     *  @return true when the earlier prediction was correct. */
    bool update(Addr pc, bool taken);

    StatGroup &stats() { return stats_; }

    /** Snapshot field list (sim/snapshot.hh): history and tables;
     *  stats travel in the System's stats pass. */
    template <class Ar> void visit(Ar &ar);

  private:
    unsigned bimodalIndex(Addr pc) const;
    unsigned gshareIndex(Addr pc) const;

    unsigned tableBits;
    unsigned historyBits;
    std::uint64_t history = 0;

    std::vector<std::uint8_t> bimodal; ///< 2-bit counters
    std::vector<std::uint8_t> gshare;  ///< 2-bit counters
    std::vector<std::uint8_t> chooser; ///< 2-bit: >=2 selects gshare

    StatGroup stats_;
    CounterStat lookups_{stats_, "lookups"};
    CounterStat mispredicts_{stats_, "mispredicts"};
};

} // namespace rowsim

#endif // ROWSIM_CPU_BRANCH_HH
