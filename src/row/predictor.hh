/**
 * @file
 * RoW contention predictor (§IV-D): a small PC-indexed table of N-bit
 * saturating counters that estimates whether an atomic RMW will access a
 * contended cacheline. 64 entries x 4 bits = 32 bytes by default.
 */

#ifndef ROWSIM_ROW_PREDICTOR_HH
#define ROWSIM_ROW_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rowsim
{

class ContentionPredictor
{
  public:
    explicit ContentionPredictor(const RowConfig &cfg);

    /** True when the atomic at @p pc is predicted to face contention
     *  (and therefore should execute lazy). */
    bool predictContended(Addr pc) const;

    /** Train with the observed outcome when the atomic unlocks its line.
     *  Also records prediction-accuracy statistics (Fig. 12). @p now is
     *  the training cycle, used only for trace timestamps. */
    void update(Addr pc, bool contended, Cycle now = 0);

    /** Owning core's id — only used to label trace events. */
    void setCoreId(CoreId id) { coreId_ = id; }

    /** Storage cost in bits (64 bytes total for RoW per §IV-F, of which
     *  this table is 256 bits). */
    unsigned storageBits() const;

    /** Table index: 6 LSBs of the PC XORed with the next 6 bits
     *  (XOR-mapping, [13]). Exposed for tests. */
    unsigned index(Addr pc) const;

    /** Raw counter value (tests). */
    unsigned counter(unsigned idx) const { return table[idx]; }

    StatGroup &stats() { return stats_; }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar> void visit(Ar &ar);

  private:
    RowConfig cfg;
    unsigned maxCounter;
    unsigned threshold;
    CoreId coreId_ = 0;
    std::vector<std::uint8_t> table;

    StatGroup stats_;
    CounterStat updates_{stats_, "updates"};
    CounterStat correct_{stats_, "correct"};
    CounterStat contendedOutcomes_{stats_, "contendedOutcomes"};
};

} // namespace rowsim

#endif // ROWSIM_ROW_PREDICTOR_HH
