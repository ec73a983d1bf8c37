/**
 * @file
 * Miss Status Holding Register bookkeeping for the private cache unit.
 */

#ifndef ROWSIM_MEM_MSHR_HH
#define ROWSIM_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rowsim
{

/** One outstanding demand/prefetch access registered with an MSHR. */
struct MshrWaiter
{
    std::uint64_t token = 0;   ///< core-side identifier, echoed back
    Cycle requestCycle = 0;    ///< when the core issued the access
    bool needExclusive = false;
    bool isAtomic = false;
    bool isWrite = false;
    std::uint64_t writeValue = 0;
    Addr addr = invalidAddr;   ///< full (not line-aligned) address
    /** Atomic lifetime span of the waiting access (0 = untraced;
     *  observability-only, not serialized). */
    std::uint64_t spanId = 0;

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.u64(token);
        ar.u64(requestCycle);
        ar.b(needExclusive);
        ar.b(isAtomic);
        ar.b(isWrite);
        ar.u64(writeValue);
        ar.u64(addr);
        if constexpr (Ar::loading)
            spanId = 0; // spans never survive a restore
    }
};

/** An outstanding miss: one per line with a request in the network. */
struct Mshr
{
    Addr line = invalidAddr;
    /** Did the request in flight ask for exclusive permission? */
    bool exclusiveRequested = false;
    bool prefetchOnly = false;
    /** Cycle the GetS/GetX actually entered the network. */
    Cycle netIssueCycle = 0;
    std::vector<MshrWaiter> waiters;

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.u64(line);
        ar.b(exclusiveRequested);
        ar.b(prefetchOnly);
        ar.u64(netIssueCycle);
        ar.list(waiters, "MSHR waiters", [&](auto &w) { ar.io(w); });
    }
};

} // namespace rowsim

#endif // ROWSIM_MEM_MSHR_HH
