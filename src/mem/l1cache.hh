/**
 * @file
 * Per-core private cache unit: an L1D latency filter in front of an
 * L2-sized coherence array, with MSHRs, a writeback (evicting) buffer,
 * external-request stalling against AQ-locked lines, and the snoop hooks
 * RoW's contention detectors need.
 *
 * The L1D and private L2 form a single coherence unit (see DESIGN.md §5):
 * the directory tracks per-core ownership; the L1 array only decides
 * whether a present line costs the L1 or the L2 hit latency.
 */

#ifndef ROWSIM_MEM_L1CACHE_HH
#define ROWSIM_MEM_L1CACHE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_table.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "net/message.hh"
#include "net/network.hh"

namespace rowsim
{

class FunctionalMemory;
class SpanTracker;

/** A memory access issued by the core to its private cache unit. */
struct MemAccess
{
    Addr addr = invalidAddr;
    std::uint64_t token = 0;     ///< echoed back in the completion
    bool needExclusive = false;  ///< store write or atomic
    bool isAtomic = false;       ///< lock the line on arrival
    bool isWrite = false;        ///< store write (performed functionally)
    std::uint64_t writeValue = 0;
    /** Atomic lifetime span (0 = untraced; src/sim/span.hh). */
    std::uint64_t spanId = 0;

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.u64(addr);
        ar.u64(token);
        ar.b(needExclusive);
        ar.b(isAtomic);
        ar.b(isWrite);
        ar.u64(writeValue);
        if constexpr (Ar::loading)
            spanId = 0;
    }
};

/** Completion record for loads and store writes. */
struct MemResult
{
    std::uint64_t token = 0;
    Addr addr = invalidAddr;
    FillSource source = FillSource::L1Hit;
    Cycle requestCycle = 0;  ///< when the core called access()
    Cycle doneCycle = 0;
    std::uint64_t value = 0; ///< loaded value (loads only)

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.u64(token);
        ar.u64(addr);
        ar.enumByte(source, FillSource::Forwarded, "fill source");
        ar.u64(requestCycle);
        ar.u64(doneCycle);
        ar.u64(value);
    }
};

/**
 * Interface the core exposes to its private cache unit: completions,
 * AQ lock queries, atomic lock notification, and the RoW snoop hooks.
 */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** A load or store write finished. */
    virtual void accessDone(const MemResult &r) = 0;

    /**
     * The line an atomic requested is now present in M state; the core
     * must set the AQ locked bit *now* (atomicity window starts here).
     *
     * @param token core-side id of the atomic access
     * @param line line-aligned address
     * @param source where the data came from
     * @param netIssueCycle when the GetX entered the network (14-bit
     *        timestamp base for the Dir detector)
     * @param contentionHint the directory flagged concurrent interest in
     *        the transaction (RWDirNotify extension)
     */
    virtual void atomicLineReady(std::uint64_t token, Addr line,
                                 FillSource source, Cycle netIssueCycle,
                                 bool contentionHint, Cycle now) = 0;

    /** Is this line currently locked by an in-flight atomic (AQ snoop)? */
    virtual bool lineLocked(Addr line) const = 0;

    /**
     * An external request (Inv/FwdGetS/FwdGetX) for @p line reached this
     * core. RoW marks matching AQ entries contended here (EW: only if
     * locked; RW: any in-flight atomic with a matching address).
     */
    virtual void externalRequestSnoop(Addr line, Cycle now) = 0;

    /**
     * Deadlock avoidance: an external request has been stalled on a
     * locked line for too long. If the locking atomic has not committed
     * yet, the core must squash and replay it, releasing the lock.
     * @return true when the lock was released.
     */
    virtual bool tryForceUnlock(Addr line, Cycle now) = 0;
};

/**
 * The private cache unit. One per core; network endpoint NodeId == CoreId.
 */
class PrivateCache : public MsgHandler
{
  public:
    PrivateCache(CoreId core, const MemParams &params, Network *net,
                 FunctionalMemory *fmem);

    void setClient(MemClient *c) { client = c; }
    /** Attach the span tracker (System::setupSpans). */
    void setSpans(SpanTracker *s) { spans_ = s; }

    /** Issue an access. Hits complete after the L1/L2 latency; misses
     *  allocate an MSHR and go to the directory. */
    void access(const MemAccess &a, Cycle now);

    /** The core wrote the STU and released the AQ lock for @p line:
     *  process any stalled external requests. */
    void unlockNotify(Addr line, Cycle now);

    /** Advance internal events (scheduled completions, stall timeouts). */
    void tick(Cycle now);

    /**
     * Earliest future cycle tick() would do anything absent new messages
     * or accesses: the next due completion, a deferred-fill retry, or a
     * stalled external crossing the lock-steal threshold (from which
     * point the steal-attempt counter advances every tick). invalidCycle
     * when fully quiescent. Conservative lower bound for fast-forward.
     */
    Cycle nextEventCycle(Cycle now) const;

    void deliver(const Msg &msg, Cycle now) override;

    /** True when nothing is outstanding (quiesced; used by tests). */
    bool idle() const;

    /** Presence/state probe for tests. */
    CacheState lineState(Addr line) const;
    /** True when the line hits in the (smaller) L1 array. */
    bool inL1(Addr line) const;

    // ---- invariant-checker / diagnostics probes (read-only) ----

    /** True when a miss for @p line is outstanding. */
    bool
    hasMshr(Addr line) const
    {
        return mshrs.contains(lineAlign(line));
    }
    /** True when a PutM for @p line is in flight (writeback buffer). */
    bool
    isEvicting(Addr line) const
    {
        return evicting.contains(lineAlign(line));
    }
    std::size_t mshrCount() const { return mshrs.size(); }

    /** Apply @p fn(line, putmSentCycle) to every in-flight writeback,
     *  in ascending line order. */
    template <typename Fn>
    void
    forEachEvicting(Fn &&fn) const
    {
        evicting.forEachSorted(fn);
    }

    /** Apply @p fn(line, mshr) to every outstanding MSHR, in ascending
     *  line order. */
    template <typename Fn>
    void
    forEachMshr(Fn &&fn) const
    {
        mshrs.forEachSorted(fn);
    }

    /** Apply @p fn(line, state) to every valid coherence (L2) line. */
    template <typename Fn>
    void
    forEachL2Line(Fn &&fn) const
    {
        l2Array.forEachLine(fn);
    }

    /** Apply @p fn(line, state) to every valid L1 line. */
    template <typename Fn>
    void
    forEachL1Line(Fn &&fn) const
    {
        l1Array.forEachLine(fn);
    }

    /** L1 plus L2 sets with storage (host-only footprint). */
    std::size_t
    allocatedSets() const
    {
        return l1Array.allocatedSets() + l2Array.allocatedSets();
    }

    /**
     * Fault injection: forcibly evict @p line from the unit as if chosen
     * as a victim (PutM if Modified — exercising the crossing races).
     * Refused (returns false) when the line is absent, AQ-locked, or has
     * an outstanding miss/writeback, mirroring what the replacement
     * policy could legally pick.
     */
    bool forceEvict(Addr line, Cycle now);

    /** Crash diagnostics: one JSON object describing outstanding state. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** Test-only: corrupt the coherence array by force-installing @p line
     *  in @p state, bypassing the protocol (checker death tests). */
    void testSetLineState(Addr line, CacheState state, Cycle now);

    // ---- functional fast-mode hooks (src/sim/funcmode.cc) ----
    //
    // Message-free variants of install/evict for the functional
    // interpreter: replacement decisions go through the same LRU arrays
    // (so func-warmed contents match what a detail run would favour),
    // but dirty victims are returned to the caller instead of emitting
    // a PutM — MemSystem::funcAccess applies the writeback end state at
    // the home bank synchronously, leaving nothing in flight.

    /** Install @p line in both arrays; no pin checks (the AQ is empty
     *  in func mode). Dirty (Modified) coherence-array victims are
     *  appended to @p evicted_dirty. */
    void funcInstall(Addr line, CacheState state, Cycle now,
                     std::vector<Addr> *evicted_dirty);
    /** Drop @p line from both arrays (FwdGetX / Inv end state).
     *  @return the coherence state it held, Invalid when absent. */
    CacheState funcDropLine(Addr line);
    /** Downgrade @p line Modified -> Shared (FwdGetS end state).
     *  @return true when the line was present. */
    bool funcDowngrade(Addr line, Cycle now);

    /** Snapshot field list (sim/snapshot.hh): arrays, MSHRs, buffers,
     *  due completions. Stats travel in the System's stats pass. */
    template <class Ar> void visit(Ar &ar);

    StatGroup &stats() { return stats_; }

    /** Stall age beyond which a pre-commit lock is forcibly released
     *  (cross-core deadlock avoidance; initialised from
     *  MemParams::lockStealThreshold, writable for tests). */
    Cycle lockStealThreshold;

  private:
    struct StalledExternal
    {
        Msg msg;
        Cycle arrival;
    };

    /** Handle a data reply (fill) of any flavour. */
    void handleFill(const Msg &msg, Cycle now);
    /** Apply an external request that is (no longer) blocked by a lock. */
    void applyExternal(const Msg &msg, Cycle now);
    /** Send a request to the home bank, allocating the MSHR. */
    void sendRequest(Addr line, bool exclusive, bool prefetch,
                     std::uint64_t span_id, Cycle now);
    /** Complete a hit / fill for one waiter. */
    void completeWaiter(const MshrWaiter &w, FillSource src,
                        Cycle fill_cycle, Cycle net_issue,
                        bool contention_hint, Cycle now);
    /** Insert @p line into L1+L2 arrays, evicting as needed.
     *  @return false when every way is pinned and the fill must retry. */
    bool installLine(Addr line, CacheState state, Cycle now);
    /** Evict from the L2 (coherence) array: PutM if dirty. */
    void evictLine(CacheArray::Way way, Cycle now);
    /** Issue a next-line prefetch after a demand miss. */
    void maybePrefetch(Addr line, Cycle now);
    /** Try to start pending accesses that were waiting for a free MSHR. */
    void drainPending(Cycle now);

    CoreId coreId;
    MemParams params;
    Network *net;
    FunctionalMemory *fmem;
    MemClient *client = nullptr;

    CacheArray l1Array;
    CacheArray l2Array; ///< the coherence array

    using MshrTable = AddrTable<Mshr, lineShift>;
    MshrTable mshrs;
    std::deque<std::pair<MemAccess, Cycle>> pendingAccesses;
    /** Dirty lines with a PutM in flight; they still answer forwards.
     *  Maps line -> cycle the PutM was sent (leak detection). */
    AddrTable<Cycle, lineShift> evicting;
    std::vector<StalledExternal> stalledExternals;
    /** Fills that could not find an unpinned victim, retried each tick. */
    std::vector<Msg> deferredFills;

    std::multimap<Cycle, MemResult> dueResults;

    SpanTracker *spans_ = nullptr;

    StatGroup stats_;
    CounterStat demandRequests_{stats_, "demandRequests"};
    CounterStat prefetchRequests_{stats_, "prefetchRequests"};
    CounterStat accesses_{stats_, "accesses"};
    CounterStat l1Hits_{stats_, "l1Hits"};
    CounterStat l1Misses_{stats_, "l1Misses"};
    AverageStat missLatency_{stats_, "missLatency"};
    CounterStat mshrCoalesced_{stats_, "mshrCoalesced"};
    CounterStat mshrFull_{stats_, "mshrFull"};
    CounterStat writebacks_{stats_, "writebacks"};
    CounterStat remoteFills_{stats_, "remoteFills"};
    CounterStat invalidations_{stats_, "invalidations"};
    CounterStat ownerForwards_{stats_, "ownerForwards"};
    CounterStat lockStalledExternals_{stats_, "lockStalledExternals"};
    AverageStat lockStallCycles_{stats_, "lockStallCycles"};
    CounterStat stealAttempts_{stats_, "stealAttempts"};
    CounterStat lockSteals_{stats_, "lockSteals"};
    CounterStat forcedEvictions_{stats_, "forcedEvictions"};
};

} // namespace rowsim

#endif // ROWSIM_MEM_L1CACHE_HH
