/**
 * @file
 * Deterministic fault injector: a chaos layer that perturbs timing while
 * preserving functional correctness, so the torture tests can hammer the
 * protocol's rare windows (PutM crossings, the Fig. 8 Unblock race, lock
 * steals) on demand instead of waiting for them to line up naturally.
 *
 * All faults are *legal* timings — extra network delay, a backed-up
 * directory bank, an unlucky replacement victim — so any invariant or
 * atomicity violation they expose is a real protocol bug. The injector
 * draws from its own seeded xoshiro256** stream, making every fault
 * schedule replayable: same (seed, rate, mask, workload) → the same
 * faults on the same cycles, cycle for cycle.
 */

#ifndef ROWSIM_SIM_FAULTS_HH
#define ROWSIM_SIM_FAULTS_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "net/message.hh"

namespace rowsim
{

class System;

/** One bit per fault family; combined into the injection mask. */
enum class FaultCategory : std::uint32_t
{
    NetDelay     = 1u << 0, ///< random extra hops on any message
    DirStall     = 1u << 1, ///< temporarily backed-up directory banks
    Evict        = 1u << 2, ///< forced evictions near locked lines
    UnblockDelay = 1u << 3, ///< delayed Unblocks (widens the Fig. 8 race)
};

constexpr std::uint32_t faultCategoryAll = (1u << 4) - 1;

const char *faultCategoryName(FaultCategory c);

/**
 * Parse a comma-separated category list ("netdelay,evict", "all",
 * "none") into a bitmask. Unknown names are a user error (fatal).
 */
std::uint32_t parseFaultCategories(const std::string &spec);

/** The resolved fault-injection setup of a run (sim/options.hh):
 *  mask == 0 means no injector. */
struct FaultSetup
{
    std::uint32_t mask = 0;
    std::uint64_t seed = 0;
    unsigned rate = 0;
};

/**
 * The injector. One per System; wired into Network::setDelayHook for the
 * message-delay faults and ticked once per cycle for the bank/eviction
 * faults. @p rate is in events per 10k opportunities.
 */
class FaultInjector
{
  public:
    FaultInjector(System *sys, std::uint32_t mask, std::uint64_t seed,
                  unsigned rate);

    bool enabled(FaultCategory c) const
    {
        return (mask_ & static_cast<std::uint32_t>(c)) != 0;
    }
    std::uint32_t mask() const { return mask_; }
    std::uint64_t seed() const { return seed_; }
    unsigned rate() const { return rate_; }

    /** Network delay hook: extra cycles to add to @p msg's delivery. */
    Cycle extraDelay(const Msg &msg, Cycle now);

    /** Once per cycle: maybe stall a bank or force an eviction. */
    void tick(Cycle now);

    StatGroup &stats() { return stats_; }

    /** Snapshot field list: the RNG stream is the injector's only
     *  evolving state (mask/seed/rate are config), and its position
     *  decides every future fault, so it is part of the architectural
     *  image. */
    template <class Ar> void visit(Ar &ar);

  private:
    /** Pick a line near the locked set (or any cached line) and try to
     *  force-evict a copy of it. */
    void attemptEviction(Cycle now);

    System *sys;
    std::uint32_t mask_;
    std::uint64_t seed_;
    unsigned rate_;
    Rng rng;

    StatGroup stats_;
};

} // namespace rowsim

#endif // ROWSIM_SIM_FAULTS_HH
