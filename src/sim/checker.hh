/**
 * @file
 * Runtime-gated protocol invariant checker.
 *
 * Modelled on the trace layer (src/common/trace.hh): every check point
 * compiles to a single branch on a static category bitmask, so leaving
 * checking off costs one predictable branch per tick. With categories
 * enabled (ROWSIM_CHECK env var or SystemParams::checkCategories) the
 * checker sweeps the whole system every N cycles and validates the
 * protocol invariants DESIGN.md promises:
 *
 *  - swmr:      at most one Modified copy of any line; the directory's
 *               sharer/owner records agree with actual L1/L2 contents.
 *  - locks:     every locked line maps to a live in-flight atomic and is
 *               held in M; no lock is held past the deadlock bound.
 *  - leaks:     MSHRs, writeback-buffer entries and directory Blocked
 *               entries do not outlive the deadlock bound; queue depths
 *               stay sane.
 *  - messages:  mesh message conservation (injected == delivered +
 *               in flight), no overdue deliveries, InvAck counts within
 *               range — every request eventually produces a response.
 *  - occupancy: ROB / LQ / SQ / AQ / IQ occupancy within configured
 *               capacity.
 *
 * A violation panics with a message naming the offending core / cache /
 * bank / line; the System's panic hook then emits a crash-diagnostics
 * dump (see System::dumpCrashDiagnostics) before the panic propagates.
 */

#ifndef ROWSIM_SIM_CHECKER_HH
#define ROWSIM_SIM_CHECKER_HH

#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/types.hh"

namespace rowsim
{

class System;

/** One bit per invariant family; combined into the runtime check mask. */
enum class CheckCategory : std::uint32_t
{
    Swmr      = 1u << 0, ///< single-writer / directory agreement
    Locks     = 1u << 1, ///< locked-line accounting
    Leaks     = 1u << 2, ///< MSHR / Blocked-entry / writeback leaks
    Messages  = 1u << 3, ///< mesh message conservation + request TTL
    Occupancy = 1u << 4, ///< ROB / LQ / SQ / AQ / IQ bounds
};

constexpr std::uint32_t checkCategoryAll = (1u << 5) - 1;

const char *checkCategoryName(CheckCategory c);

/**
 * Parse a comma-separated category list ("swmr,locks", "all", "none")
 * into a bitmask. Unknown names are a user error (fatal). An empty
 * string yields 0 (checking off).
 */
std::uint32_t parseCheckCategories(const std::string &spec);

/**
 * The whole-system checker. One per System; the category mask is static
 * (like the trace mask) so the per-tick and per-event gates are one
 * branch with no instance lookup.
 */
class Checker
{
  public:
    Checker(System *sys, Cycle interval);

    /** Fast inline gates. */
    static bool anyEnabled() { return mask_ != 0; }
    static bool
    enabled(CheckCategory c)
    {
        return (mask_ & static_cast<std::uint32_t>(c)) != 0;
    }

    /** Mask control (each System applies its run options; tests). */
    static void configure(std::uint32_t mask) { mask_ = mask; }
    static std::uint32_t mask() { return mask_; }

    /** Called every tick when any category is enabled; runs a sweep
     *  every `interval` cycles. */
    void
    tick(Cycle now)
    {
        if (now - lastSweep_ >= interval_)
            sweep(now);
    }

    /** Run every enabled invariant sweep immediately (tests call this
     *  directly; panics on the first violation found). */
    void sweep(Cycle now);

    std::uint64_t sweepsRun() const { return sweeps_; }
    Cycle interval() const { return interval_; }
    /** First cycle at which tick() would sweep again (service hoist). */
    Cycle nextSweepAt() const { return lastSweep_ + interval_; }

    /** Snapshot support: sweep schedule position (System aux pass). */
    Cycle lastSweepAt() const { return lastSweep_; }
    void
    restoreSweepState(Cycle last_sweep, std::uint64_t sweeps)
    {
        lastSweep_ = last_sweep;
        sweeps_ = sweeps;
    }

  private:
    void checkSwmr(Cycle now);
    void checkLocks(Cycle now);
    void checkLeaks(Cycle now);
    void checkMessages(Cycle now);
    void checkOccupancy(Cycle now);

    System *sys;
    Cycle interval_;
    Cycle lastSweep_ = 0;
    std::uint64_t sweeps_ = 0;

    // Thread-local like the trace mask: each sweep worker carries its
    // own check mask, so concurrent Systems gate independently.
    static inline thread_local std::uint32_t mask_ = 0;
};

/**
 * Event-level check point for protocol components (one branch when the
 * category is off; the condition and message arguments are only
 * evaluated when it is on). Panics — and thus triggers the crash dump —
 * when @p cond is false.
 */
#define ROWSIM_CHECK_EVENT(cat, cond, ...)                                 \
    do {                                                                   \
        if (::rowsim::Checker::enabled(cat) && !(cond)) {                  \
            ::rowsim::panicImpl(                                           \
                __FILE__, __LINE__,                                        \
                ::rowsim::strprintf("[check:%s] violated: %s — ",          \
                                    ::rowsim::checkCategoryName(cat),      \
                                    #cond) +                               \
                    ::rowsim::strprintf(__VA_ARGS__));                     \
        }                                                                  \
    } while (0)

} // namespace rowsim

#endif // ROWSIM_SIM_CHECKER_HH
