/**
 * @file
 * Out-of-order core with unfenced atomic RMWs (Free Atomics) and the
 * Rush-or-Wait execution-policy machinery.
 *
 * Pipeline model: dispatch (fetchWidth/cycle, in order, stalls on
 * mispredicted branches until resolution + redirect penalty) -> issue
 * (issueWidth/cycle, oldest-ready-first, wakeup via producer dependent
 * lists) -> execute (ALU latencies, loads via the private cache,
 * store-to-load forwarding, StoreSet speculation with replay on
 * violation) -> in-order commit (commitWidth/cycle; stores drain to the
 * L1D from the SB after commit, strictly in order).
 *
 * Atomics follow §II-B: one ROB entry holding an LQ, SQ and AQ slot.
 * Eager execution issues the load-lock once operands are ready; lazy
 * execution waits until the atomic is the oldest memory instruction and
 * the SB has drained. RoW picks per-atomic based on the contention
 * predictor, computes addresses early (only-calculate-address) to widen
 * the contention-tracking window, and promotes predicted-lazy atomics to
 * eager when a matching older store is found in the SB (§IV-E).
 */

#ifndef ROWSIM_CPU_CORE_HH
#define ROWSIM_CPU_CORE_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/atomic_queue.hh"
#include "cpu/branch.hh"
#include "cpu/lsq.hh"
#include "cpu/microop.hh"
#include "cpu/storeset.hh"
#include "cpu/stream.hh"
#include "mem/l1cache.hh"
#include "row/predictor.hh"
#include "sim/options.hh"
#include "sim/profile.hh"

namespace rowsim
{

class FunctionalMemory;
class SpanTracker;

class Core : public MemClient
{
  public:
    Core(CoreId id, const CoreParams &params, PrivateCache *cache,
         FunctionalMemory *fmem, InstStream *stream);

    /** Advance one cycle: complete, commit, drain stores, issue,
     *  dispatch. A no-op while the core sleeps (setSleepMode). */
    void tick(Cycle now);

    // MemClient interface (called by the private cache).
    void accessDone(const MemResult &r) override;
    void atomicLineReady(std::uint64_t token, Addr line, FillSource source,
                         Cycle netIssueCycle, bool contentionHint,
                         Cycle now) override;
    bool lineLocked(Addr line) const override;
    void externalRequestSnoop(Addr line, Cycle now) override;
    bool tryForceUnlock(Addr line, Cycle now) override;

    /** Directory-oracle notification: another core showed interest in
     *  @p line; mark matching in-flight atomics (Fig. 5 ground truth). */
    void oracleContentionHint(Addr line, Cycle now);

    /** Stop fetching new work (quota reached); in-flight ops drain. */
    void
    halt()
    {
        halted = true;
        interruptSleep();
    }
    bool isHalted() const { return halted; }
    /** True when the pipeline has fully drained. */
    bool drained() const;

    /**
     * Earliest future cycle at which this core can make progress with no
     * external event (cache completion, snoop, fill) arriving first:
     * the minimum over scheduled completions/unlocks, the wake cycles of
     * waiting ops (next tick when one is due, else its armed re-issue
     * stamp), and next-tick work (ready ops, drainable SB head,
     * committable ROB head, dispatchable fetch). A parked waiting op
     * adds nothing: its wake source fires only inside a tick some other
     * term already bounds. invalidCycle when the core is fully
     * quiescent. May be conservative (early), never late — System::run's
     * idle fast-forward uses it as a skip bound.
     */
    Cycle nextEventCycle(Cycle now) const;

    std::uint64_t committedInstructions() const { return committedInsts; }
    std::uint64_t committedIterations() const { return iterations; }
    std::uint64_t committedAtomics() const { return committedAtomicCount; }

    StatGroup &stats() { return stats_; }
    ContentionPredictor &predictor() { return rowPredictor; }
    /** Attach the attribution profiler (System::setupProfiling). */
    void setProfiler(Profiler *p) { prof_ = p; }
    /** Attach the span tracker (System::setupSpans). */
    void setSpans(SpanTracker *s) { spans_ = s; }
    /**
     * Idle sleep, handed over by the System under ROWSIM_FF (DESIGN §9).
     * Off ticks every cycle. On: after a tick that was itself predicted
     * idle, tick() returns at once until nextEventCycle; every call that
     * mutates the core from outside its tick wakes it. Check ticks
     * through each sleep and panics if a tick inside it changes the
     * core. Host-only: never in the image, so a restored or new core
     * starts awake.
     */
    void setSleepMode(FastForwardMode m) { sleepMode_ = m; }
    /** Ticks that fell inside a sleep: skipped under On, audited under
     *  Check (host telemetry; outside the stats and the image). */
    std::uint64_t sleptTicks() const { return sleptTicks_; }
    BranchPredictor &branchPredictor() { return branchPred; }
    StoreSet &storeSets() { return storeSet; }
    const AtomicQueue &atomicQueue() const { return aq; }

    // ---- invariant-checker / diagnostics probes (read-only) ----
    const LoadQueue &loadQueue() const { return lq; }
    const StoreQueue &storeQueue() const { return sq; }
    unsigned robOccupancy() const { return robCount(); }
    unsigned iqOcc() const { return iqOccupancy; }
    SeqNum lastCommittedSeq() const { return commitSeq; }
    SeqNum nextSeqNum() const { return nextSeq; }
    /** Is @p seq dispatched but not yet committed? */
    bool seqInFlight(SeqNum seq) const { return inFlight(seq); }
    /** Is a post-commit STU write / unlock scheduled for @p seq? */
    bool hasPendingUnlock(SeqNum seq) const;
    std::size_t memBarrierCount() const { return memBarriers.size(); }

    /** Crash diagnostics: one JSON object with pipeline heads, AQ locked
     *  lines, and occupancy — emitted by System::dumpCrashDiagnostics. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** Snapshot field list (sim/snapshot.hh): ROB, queues, predictors,
     *  scheduling events, the instruction stream position. Stats travel
     *  in the System's stats pass. */
    template <class Ar> void visit(Ar &ar);

    /**
     * Functional fast-mode step (src/sim/funcmode.cc): architecturally
     * retire up to @p max_ops micro-ops straight from the stream.
     * Loads/stores/atomics call @p access(addr, exclusive) — the
     * synchronous MemSystem::funcAccess path — whose return value
     * (remote cache-to-cache transfer) stands in for the Dir
     * detector's contention evidence when training the RoW predictor.
     * Branches train the branch predictor exactly as dispatch does.
     * Stops early once @p iter_limit iterations or @p inst_limit
     * committed instructions are reached (0 = unbounded), or when the
     * core is halted. @return micro-ops retired.
     */
    std::uint64_t funcRun(const std::function<bool(Addr, bool)> &access,
                          unsigned max_ops, std::uint64_t iter_limit,
                          std::uint64_t inst_limit, Cycle now);

  private:
    /** Per-atomic execution progress. */
    enum class AState : std::uint8_t
    {
        None,         ///< not an atomic
        WaitOperands, ///< waiting for register sources
        WaitLazy,     ///< predicted/forced lazy; waiting for LQ-head+SB-empty
        WaitStore,    ///< waiting for an older same-word store to write
        MemIssued,    ///< load-lock in the memory system
        WaitLock,     ///< line filled, but an older atomic must lock first
        Locked,       ///< line locked; modify op in flight
        ExecDoneFwd,  ///< forwarded value consumed; lock set at store write
        Done,         ///< modify complete (lock held until STU writes)
    };

    /** When a waiting op's next issue poll can change anything. Every
     *  failed poll sets it; the values from Barrier on park the op until
     *  that wake source fires (DESIGN §9 lists where each fires). */
    enum class WakeOn : std::uint8_t
    {
        Due,        ///< poll on the next issue pass
        Stamp,      ///< poll once now >= reissueReadyAt
        Barrier,    ///< an older mfence / fenced atomic retires
        LazyHead,   ///< the LQ or SQ head is freed (lazy condition)
        StoreWrite, ///< the awaited store (waitStoreSeq) writes
        OlderStore, ///< an older SQ entry resolves, readies or writes
        OlderMem,   ///< an older load completes or an older store writes
    };

    struct RobEntry
    {
        MicroOp op;
        SeqNum seq = 0;
        bool busy = false;
        bool issued = false;
        bool completed = false;
        bool wokeDependents = false;
        std::uint8_t depsPending = 0;
        std::uint16_t replayGen = 0;
        Cycle dispatchCycle = invalidCycle;
        Cycle readyCycle = invalidCycle;
        int lqIdx = -1;
        int sqIdx = -1;
        int aqIdx = -1;
        std::uint32_t ssSet = StoreSet::invalidSet;
        AState astate = AState::None;
        bool lazySelected = false;
        bool forwardedAtomic = false;
        /** Issue wakeup, host-side only: never serialized (restore
         *  marks every waiting op Due). */
        WakeOn wakeOn = WakeOn::Due;
        SeqNum waitStoreSeq = 0;
        /** Re-issue pipeline delay once a wait condition is satisfied. */
        Cycle reissueReadyAt = invalidCycle;
        /** Directory-notification hint carried by the fill (extension). */
        bool fillContentionHint = false;
        std::uint64_t result = 0;
        std::uint64_t atomicNewValue = 0;
        std::vector<SeqNum> dependents;

        /** Snapshot field list; wakeOn is restored by Core::visit. */
        template <class Ar>
        void
        visit(Ar &ar)
        {
            ar.io(op);
            ar.u64(seq);
            ar.b(busy);
            ar.b(issued);
            ar.b(completed);
            ar.b(wokeDependents);
            ar.u8(depsPending);
            ar.u16(replayGen);
            ar.u64(dispatchCycle);
            ar.u64(readyCycle);
            ar.u64(lqIdx);
            ar.u64(sqIdx);
            ar.u64(aqIdx);
            ar.u32(ssSet);
            ar.enumByte(astate, AState::Done, "atomic state");
            ar.b(lazySelected);
            ar.b(forwardedAtomic);
            ar.u64(waitStoreSeq);
            ar.u64(reissueReadyAt);
            ar.b(fillContentionHint);
            ar.u64(result);
            ar.u64(atomicNewValue);
            ar.list(dependents, "ROB dependents",
                    [&](auto &dep) { ar.u64(dep); });
        }
    };

    // --- pipeline stages ---
    /** One full cycle of every stage (tick() minus the sleep gate). */
    void tickStages(Cycle now);
    void processCompletions(Cycle now);
    void commitStage(Cycle now);
    void drainStores(Cycle now);
    void issueStage(Cycle now);
    void dispatchStage(Cycle now);

    /** Token bit marking a post-commit store-buffer write; the low bits
     *  then carry the SQ slot index instead of a sequence number. */
    static constexpr std::uint64_t sbWriteToken = 1ULL << 63;

    // --- helpers ---
    RobEntry &rob(SeqNum seq);
    const RobEntry &rob(SeqNum seq) const;
    bool inFlight(SeqNum seq) const;
    unsigned robCount() const;
    void pushReady(SeqNum seq, Cycle now);
    void completeOp(SeqNum seq, Cycle now);
    void scheduleCompletion(SeqNum seq, Cycle when);
    std::uint64_t token(const RobEntry &e) const;

    /** Attempt to issue one op; @return true when it made progress (a
     *  slot was consumed), false when it must wait (re-queued) — every
     *  false path sets the op's wakeOn for its next poll.
     *  @p first marks the op's first attempt of its replayGen (its
     *  ready-queue pop). */
    bool tryIssue(SeqNum seq, Cycle now, bool first);
    bool tryIssueLoad(RobEntry &e, Cycle now, bool first);
    bool tryIssueStore(RobEntry &e, Cycle now);
    bool tryIssueFence(RobEntry &e, Cycle now);
    bool tryIssueAtomic(RobEntry &e, Cycle now);
    /** Execute the atomic's memory phase (eager or lazy real issue). */
    bool atomicExecute(RobEntry &e, Cycle now);
    /** Decide eager/lazy for a dispatching atomic (policy + predictor). */
    bool atomicSelectLazy(const MicroOp &op);
    /** Lazy-issue condition: oldest mem instruction + SB drained. */
    bool lazyConditionMet(const RobEntry &e) const;
    /** Fence-issue condition: older loads done, older stores written. */
    bool fenceConditionMet(const RobEntry &e) const;
    /** Any active memory barrier older than @p seq (mfence / fenced
     *  atomic) that blocks this op's issue? */
    bool blockedByBarrier(SeqNum seq) const;
    /** All older loads in the LQ have completed. */
    bool olderLoadsComplete(SeqNum seq) const;
    /** All older stores in the SQ have written. */
    bool olderStoresWritten(SeqNum seq) const;
    /** Record when a failed poll of @p e can next act; @return false. */
    static bool retryOn(RobEntry &e, WakeOn why);
    /** Wake source @p why fired for memory op @p seq: waiting ops parked
     *  on it become due — StoreWrite waiters of store @p seq, the
     *  LazyHead waiter that is the LQ head @p seq, every Barrier waiter,
     *  other waiters younger than @p seq. */
    void wake(WakeOn why, SeqNum seq = 0);
    /** Compute the atomic's modify result from the loaded value. */
    std::uint64_t atomicModify(const MicroOp &op, std::uint64_t old) const;
    /** Commit one atomic: STU enters the (empty) SB and writes next
     *  cycle; unlock + predictor training happen at the write. */
    void commitAtomic(RobEntry &e, Cycle now);
    /** STU write: functional update, unlock, train, free AQ/SQ. */
    void atomicUnlock(SeqNum seq, Cycle now);
    /** A store wrote: wake forwarded atomics waiting to lock. */
    void storeWritten(SeqNum seq, Addr addr, Cycle now);
    /** Engage the lock for an atomic whose line is present in M. */
    void acquireLock(RobEntry &e, FillSource source, Cycle now);
    /** Re-check WaitLock atomics after any lock/unlock event. */
    void pokeWaitingLocks(Cycle now);
    /** Memory-order violation: replay the load. */
    void replayLoad(RobEntry &load, Addr store_pc, Cycle now);
    /** Fig. 4 instrumentation at the atomic's real memory issue. */
    void sampleIndependentInsts(const RobEntry &e);
    /** CPI stack: why could the commit head not retire this cycle? */
    CpiBucket classifyCommitStall() const;
    /** CPI stack: charge this cycle's commitWidth slots (called once
     *  per tick when the cpi profile category is on). */
    void profileCommitSlots(unsigned retired);

    /** Something outside the tick changed the core: no sleep and no
     *  idle prediction survives it. */
    void
    interruptSleep()
    {
        sleepUntil_ = 0;
        idleUntil_ = 0;
    }
    /** ROWSIM_FF=check: the fields a tick can change, hashed. */
    std::uint64_t tickFingerprint() const;

    CoreId coreId;
    CoreParams params;
    PrivateCache *cache;
    FunctionalMemory *fmem;
    InstStream *stream;

    std::vector<RobEntry> robSlots;
    LoadQueue lq;
    StoreQueue sq;
    AtomicQueue aq;
    BranchPredictor branchPred;
    StoreSet storeSet;
    ContentionPredictor rowPredictor;

    SeqNum nextSeq = 1;   ///< next sequence number to dispatch
    SeqNum commitSeq = 0; ///< last committed sequence number

    /** Ready-to-issue ops, oldest first. */
    std::priority_queue<SeqNum, std::vector<SeqNum>,
                        std::greater<SeqNum>> readyQueue;
    /** Ops that attempted issue and must re-try (lazy waits, fence waits,
     *  same-word store waits, barrier blocks). issueStage sorts it, polls
     *  the due ones and keeps the survivors in order, then appends this
     *  cycle's ready-queue failures. Architectural state (snapshots and
     *  digests carry it); the per-op wake state is not. */
    std::vector<SeqNum> waiting;
    /** Scheduled completion events. */
    std::multimap<Cycle, std::pair<SeqNum, std::uint16_t>> completions;
    /** Pending STU writes (cycle -> atomic seq). */
    std::multimap<Cycle, SeqNum> pendingUnlocks;
    /** Active mfences / fenced atomics gating younger memory issue. */
    std::set<SeqNum> memBarriers;
    /** Forwarded atomics waiting for their store's write to take the
     *  lock (store seq -> atomic seq). */
    std::multimap<SeqNum, SeqNum> fwdLockWaiters;

    std::deque<MicroOp> fetchBuffer;
    SeqNum fetchBlockedBy = 0;
    Cycle fetchBlockedUntil = 0;
    unsigned iqOccupancy = 0;
    bool halted = false;
    /** issueStage ran out of slots before reaching every waiting op.
     *  The ops it did not reach keep their wake state, so the next tick
     *  polls the due ones; nextEventCycle still treats the flag as
     *  next-tick work. Architectural state (snapshots and digests carry
     *  it). */
    bool issueTruncated_ = false;

    std::uint64_t committedInsts = 0;
    std::uint64_t committedAtomicCount = 0;
    std::uint64_t iterations = 0;

    Profiler *prof_ = nullptr;
    SpanTracker *spans_ = nullptr;

    // Idle sleep (setSleepMode); host-only, never in the image.
    FastForwardMode sleepMode_ = FastForwardMode::Off;
    /** tick() is a no-op before this cycle. */
    Cycle sleepUntil_ = 0;
    /** nextEventCycle at the last tick that ran: ticks before it are
     *  predicted idle unless an outside call interrupts. */
    Cycle idleUntil_ = 0;
    std::uint64_t sleptTicks_ = 0;

    StatGroup stats_;
    // Dispatch and issue.
    CounterStat dispatched_{stats_, "dispatched"};
    CounterStat branchMispredicts_{stats_, "branchMispredicts"};
    CounterStat loadsDispatchedWithDep_{stats_, "loadsDispatchedWithDep"};
    CounterStat loadsPredictedDependent_{stats_, "loadsPredictedDependent"};
    CounterStat loadsForwarded_{stats_, "loadsForwarded"};
    CounterStat loadsSpeculated_{stats_, "loadsSpeculated"};
    CounterStat loadReplays_{stats_, "loadReplays"};
    CounterStat loadL1Hits_{stats_, "loadL1Hits"};
    CounterStat loadL1Misses_{stats_, "loadL1Misses"};
    CounterStat storeWrites_{stats_, "storeWrites"};
    // Atomics (Fig. 5 / Fig. 6 / Fig. 12 inputs).
    CounterStat atomicsDispatched_{stats_, "atomicsDispatched"};
    CounterStat atomicsPredictedContended_{stats_,
                                           "atomicsPredictedContended"};
    CounterStat atomicsIssuedLazy_{stats_, "atomicsIssuedLazy"};
    CounterStat atomicsIssuedEager_{stats_, "atomicsIssuedEager"};
    CounterStat atomicsForwarded_{stats_, "atomicsForwarded"};
    CounterStat onlyCalcAddrIssues_{stats_, "onlyCalcAddrIssues"};
    CounterStat atomicsPromotedEager_{stats_, "atomicsPromotedEager"};
    CounterStat atomicsUnlocked_{stats_, "atomicsUnlocked"};
    CounterStat atomicsDetectedContended_{stats_, "atomicsDetectedContended"};
    CounterStat atomicsOracleContended_{stats_, "atomicsOracleContended"};
    CounterStat lockWaits_{stats_, "lockWaits"};
    CounterStat lockWaitRefetches_{stats_, "lockWaitRefetches"};
    CounterStat forcedUnlocks_{stats_, "forcedUnlocks"};
    AverageStat atomicRemoteFillLatency_{stats_, "atomicRemoteFillLatency"};
    AverageStat olderUnexecutedAtIssue_{stats_, "olderUnexecutedAtIssue"};
    AverageStat youngerStartedAtIssue_{stats_, "youngerStartedAtIssue"};
    // Fig. 6 phases: one distribution each, the source of both the
    // means and the tail percentiles. 32-cycle buckets up to 16384 hold
    // the contended eager tails without overflow.
    HistogramStat atomicDispatchToIssueHist_{
        stats_, "atomicDispatchToIssueHist", 0, 16384, 512};
    HistogramStat atomicIssueToLockHist_{
        stats_, "atomicIssueToLockHist", 0, 16384, 512};
    HistogramStat atomicLockToUnlockHist_{
        stats_, "atomicLockToUnlockHist", 0, 16384, 512};
};

} // namespace rowsim

#endif // ROWSIM_CPU_CORE_HH
