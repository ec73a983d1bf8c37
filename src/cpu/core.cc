#include "cpu/core.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"
#include "mem/memsystem.hh"
#include "sim/checker.hh"
#include "sim/snapshot.hh"
#include "sim/span.hh"

namespace rowsim
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::FpAlu: return "FpAlu";
      case OpClass::Load: return "Load";
      case OpClass::Store: return "Store";
      case OpClass::AtomicRMW: return "AtomicRMW";
      case OpClass::Branch: return "Branch";
      case OpClass::Fence: return "Fence";
      case OpClass::Nop: return "Nop";
    }
    return "?";
}

const char *
atomicOpName(AtomicOp a)
{
    switch (a) {
      case AtomicOp::FetchAdd: return "FetchAdd";
      case AtomicOp::CompareSwap: return "CompareSwap";
      case AtomicOp::Swap: return "Swap";
    }
    return "?";
}

Core::Core(CoreId id, const CoreParams &p, PrivateCache *c,
           FunctionalMemory *fm, InstStream *s)
    : coreId(id), params(p), cache(c), fmem(fm), stream(s),
      robSlots(p.robEntries), lq(p.lqEntries), sq(p.sbEntries),
      aq(p.aqEntries), storeSet(), rowPredictor(p.row),
      stats_(strprintf("core%u", id))
{
    cache->setClient(this);
    rowPredictor.setCoreId(id);
}

Core::RobEntry &
Core::rob(SeqNum seq)
{
    return robSlots[seq % robSlots.size()];
}

const Core::RobEntry &
Core::rob(SeqNum seq) const
{
    return robSlots[seq % robSlots.size()];
}

bool
Core::inFlight(SeqNum seq) const
{
    return seq > commitSeq && seq < nextSeq;
}

unsigned
Core::robCount() const
{
    return static_cast<unsigned>(nextSeq - 1 - commitSeq);
}

std::uint64_t
Core::token(const RobEntry &e) const
{
    return (static_cast<std::uint64_t>(e.replayGen) << 48) | e.seq;
}

void
Core::pushReady(SeqNum seq, Cycle now)
{
    RobEntry &e = rob(seq);
    if (e.readyCycle == invalidCycle)
        e.readyCycle = now;
    if (e.op.cls == OpClass::AtomicRMW && e.aqIdx >= 0) {
        AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
        if (a.readyCycle == invalidCycle)
            a.readyCycle = now;
    }
    readyQueue.push(seq);
}

void
Core::scheduleCompletion(SeqNum seq, Cycle when)
{
    completions.emplace(when, std::make_pair(seq, rob(seq).replayGen));
}

std::uint64_t
Core::atomicModify(const MicroOp &op, std::uint64_t old) const
{
    switch (op.aop) {
      case AtomicOp::FetchAdd:
        return old + op.value;
      case AtomicOp::Swap:
        return op.value;
      case AtomicOp::CompareSwap:
        // The expected value is the current content unless the workload
        // injects a deliberate mismatch; a failed CAS writes nothing
        // (modelled as rewriting the old value).
        return op.casExpectMismatch ? old : op.value;
    }
    return old;
}

// ---------------------------------------------------------------------
// MemClient interface
// ---------------------------------------------------------------------

bool
Core::lineLocked(Addr line) const
{
    return aq.lineLocked(line);
}

void
Core::externalRequestSnoop(Addr line, Cycle now)
{
    (void)now;
    interruptSleep();
    const ContentionDetector det = params.row.detector;
    aq.forEachMatching(line, [det](AqEntry &e) {
        if (det == ContentionDetector::EW) {
            if (e.locked)
                e.contended = true; // execution window only (§IV-A)
        } else {
            e.contended = true; // ready window (§IV-B)
        }
    });
}

void
Core::oracleContentionHint(Addr line, Cycle now)
{
    (void)now;
    interruptSleep();
    aq.forEachMatching(line, [](AqEntry &e) { e.oracleContended = true; });
}

void
Core::accessDone(const MemResult &r)
{
    interruptSleep();
    if (r.token & sbWriteToken) {
        // A store-buffer write completed. Post-commit, so it must not
        // touch the ROB (the slot may have been reused): the token
        // carries the SQ index directly.
        const auto idx = static_cast<unsigned>(r.token & ~sbWriteToken);
        SqEntry &s = sq.entry(idx);
        ROWSIM_ASSERT(s.valid && s.committed && s.writeInFlight,
                      "store write completion mismatch (sq idx %u)", idx);
        s.written = true;
        s.writeInFlight = false;
        storeWrites_++;
        storeWritten(s.seq, s.addr, r.doneCycle);
        return;
    }

    const SeqNum seq = r.token & 0xffffffffffffULL;
    const auto gen = static_cast<std::uint16_t>(r.token >> 48);
    if (!inFlight(seq))
        return; // long gone
    RobEntry &e = rob(seq);
    if (e.seq != seq || e.replayGen != gen)
        return; // stale completion from a replayed access

    ROWSIM_ASSERT(e.op.cls == OpClass::Load, "unexpected accessDone class");
    e.result = r.value;
    if (r.source == FillSource::L1Hit)
        loadL1Hits_++;
    else
        loadL1Misses_++;
    completeOp(seq, r.doneCycle);
}

void
Core::acquireLock(RobEntry &e, FillSource source, Cycle now)
{
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    ROWSIM_CHECK_EVENT(CheckCategory::Locks,
                       cache->lineState(a.line()) == CacheState::Modified,
                       "core%u seq %llu locking line %#llx not held in M",
                       coreId, static_cast<unsigned long long>(e.seq),
                       static_cast<unsigned long long>(a.line()));
    a.locked = true;
    a.lockCycle = now;
    a.lockSource = source;
    if (SpanTracker::enabled() && spans_ && a.spanId)
        spans_->transition(a.spanId, SpanSeg::LockHeld, now);
    ROWSIM_TRACE(TraceCategory::Atomic, now,
                 "core%u lock seq=%llu line=%#llx source=%d", coreId,
                 static_cast<unsigned long long>(e.seq),
                 static_cast<unsigned long long>(a.line()),
                 static_cast<int>(source));

    // Directory latency detector (§IV-C): a fill from a remote private
    // cache whose 14-bit-wrapped latency exceeds the threshold means the
    // line was contended.
    // Directory-notification extension: the directory saw concurrent
    // interest in this transaction.
    if (params.row.detector == ContentionDetector::RWDirNotify &&
        e.fillContentionHint) {
        a.contended = true;
    }
    if (params.row.detector == ContentionDetector::RWDir &&
        source == FillSource::RemoteCache && a.timestampValid) {
        const std::uint16_t mask =
            static_cast<std::uint16_t>((1u << params.row.timestampBits) - 1);
        const std::uint16_t lat =
            static_cast<std::uint16_t>((now - a.issuedCycle14) & mask);
        atomicRemoteFillLatency_.sample(lat);
        if (lat > params.row.latencyThreshold)
            a.contended = true;
    }

    // Read under the lock, compute the modify result.
    e.result = fmem->read64(a.addr);
    e.atomicNewValue = atomicModify(e.op, e.result);
    e.astate = AState::Locked;
    SqEntry &stu = sq.entry(static_cast<unsigned>(e.sqIdx));
    stu.value = e.atomicNewValue;
    stu.valueReady = true;
    wake(WakeOn::OlderStore, e.seq);

    Cycle read_latency;
    switch (source) {
      case FillSource::L1Hit:
        read_latency = 5;
        break;
      case FillSource::L2Hit:
        read_latency = 12;
        break;
      default:
        read_latency = 2; // fill-to-use after a miss
        break;
    }
    scheduleCompletion(e.seq, now + read_latency + 1);
    pokeWaitingLocks(now);
}

void
Core::pokeWaitingLocks(Cycle now)
{
    // Locks engage in AQ order; after every lock/unlock event, the next
    // WaitLock atomic may proceed (if its line survived unlocked).
    aq.forEach([this, now](AqEntry &a) {
        if (!a.valid || a.locked)
            return;
        if (!inFlight(a.seq))
            return;
        RobEntry &e = rob(a.seq);
        if (e.astate != AState::WaitLock || !aq.olderAllLocked(a.seq))
            return;
        if (cache->lineState(a.line()) == CacheState::Modified) {
            acquireLock(e, FillSource::L1Hit, now);
        } else {
            // The line was stolen while waiting its turn: refetch.
            e.astate = AState::MemIssued;
            if (SpanTracker::enabled() && spans_ && a.spanId)
                spans_->transition(a.spanId, SpanSeg::Execute, now);
            MemAccess m;
            m.addr = a.addr;
            m.token = token(e);
            m.needExclusive = true;
            m.isAtomic = true;
            m.spanId = a.spanId;
            lockWaitRefetches_++;
            cache->access(m, now);
        }
    });
}

void
Core::atomicLineReady(std::uint64_t tok, Addr line, FillSource source,
                      Cycle netIssueCycle, bool contentionHint, Cycle now)
{
    (void)netIssueCycle;
    interruptSleep();
    const SeqNum seq = tok & 0xffffffffffffULL;
    const auto gen = static_cast<std::uint16_t>(tok >> 48);
    RobEntry &e = rob(seq);
    ROWSIM_ASSERT(e.seq == seq && e.replayGen == gen,
                  "stale atomicLineReady (seq %llu)",
                  static_cast<unsigned long long>(seq));
    ROWSIM_ASSERT(e.astate == AState::MemIssued,
                  "atomicLineReady in state %d", static_cast<int>(e.astate));

    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    ROWSIM_ASSERT(a.seq == seq && a.line() == line, "AQ mismatch at lock");
    e.fillContentionHint = contentionHint;

    if (!aq.olderAllLocked(seq)) {
        // An older atomic has not engaged its lock yet. Locking now would
        // stall other cores for the older atomic's entire (possibly
        // contended) acquisition — and can deadlock across cores. The
        // line stays unlocked in M; we lock when our turn comes, or
        // refetch if it gets stolen meanwhile.
        e.astate = AState::WaitLock;
        if (SpanTracker::enabled() && spans_ && a.spanId)
            spans_->transition(a.spanId, SpanSeg::UnblockWait, now);
        lockWaits_++;
        return;
    }

    acquireLock(e, source, now);
}

bool
Core::tryForceUnlock(Addr line, Cycle now)
{
    SeqNum seq = 0; // sequence numbers start at 1
    aq.forEachMatching(line, [&seq](AqEntry &a) {
        if (a.locked)
            seq = a.seq;
    });
    // Nothing locked (seq 0), or the holder committed and its unlock is
    // imminent: keep waiting.
    if (seq <= commitSeq)
        return false;

    interruptSleep();
    RobEntry &e = rob(seq);
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    a.locked = false;
    a.contended = true; // someone waited long enough to steal: contended
    a.timestampValid = false;
    a.lockCycle = invalidCycle;

    e.replayGen++; // invalidate any in-flight completion events
    e.completed = false;
    e.issued = false;
    e.forwardedAtomic = false;
    e.lazySelected = true; // replay lazily: the line is contended
    if (SpanTracker::enabled() && spans_ && a.spanId)
        spans_->replay(a.spanId, now);
    e.astate = AState::WaitOperands;
    e.reissueReadyAt = invalidCycle;
    iqOccupancy++; // back into the issue queue for the replay
    LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
    l.issued = false;
    l.completed = false;
    e.wakeOn = WakeOn::Due;
    waiting.push_back(seq);
    forcedUnlocks_++;
    ROWSIM_TRACE(TraceCategory::Atomic, now,
                 "core%u forcedUnlock seq=%llu line=%#llx (replaying lazy)",
                 coreId, static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(lineAlign(line)));
    ROWSIM_TRACE_INSTANT(
        TraceCategory::Atomic, static_cast<int>(coreId), traceTidAtomics,
        "forcedUnlock", now,
        strprintf("{\"seq\":%llu,\"line\":\"%#llx\"}",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(lineAlign(line))));
    return true;
}

// ---------------------------------------------------------------------
// Completion / wakeup
// ---------------------------------------------------------------------

void
Core::completeOp(SeqNum seq, Cycle now)
{
    RobEntry &e = rob(seq);
    if (e.completed)
        return;
    e.completed = true;

    if (e.lqIdx >= 0) {
        LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
        if (l.seq == seq) {
            l.completed = true;
            wake(WakeOn::OlderMem, seq);
        }
    }
    if (e.astate == AState::Locked)
        e.astate = AState::Done;
    if (e.op.cls == OpClass::Fence) {
        memBarriers.erase(seq);
        wake(WakeOn::Barrier);
    }

    if (!e.wokeDependents) {
        e.wokeDependents = true;
        for (SeqNum d : e.dependents) {
            if (!inFlight(d))
                continue;
            RobEntry &dep = rob(d);
            ROWSIM_ASSERT(dep.depsPending > 0, "dependent underflow");
            if (--dep.depsPending == 0)
                pushReady(d, now);
        }
    }

    if (seq == fetchBlockedBy) {
        fetchBlockedBy = 0;
        fetchBlockedUntil = now + params.mispredictPenalty;
    }
}

void
Core::processCompletions(Cycle now)
{
    while (!completions.empty() && completions.begin()->first <= now) {
        auto [seq, gen] = completions.begin()->second;
        completions.erase(completions.begin());
        if (!inFlight(seq))
            continue;
        RobEntry &e = rob(seq);
        if (e.seq != seq || e.replayGen != gen)
            continue; // stale (replay)
        completeOp(seq, now);
    }
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
Core::commitAtomic(RobEntry &e, Cycle now)
{
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    ROWSIM_ASSERT(a.locked, "committing an unlocked atomic");
    SqEntry &s = sq.entry(static_cast<unsigned>(e.sqIdx));
    s.committed = true;
    s.addressReady = true;
    s.addr = a.addr;
    s.value = e.atomicNewValue;
    // The ROB slot may be reused before the unlock event fires; stash
    // everything atomicUnlock needs in the AQ entry.
    a.newValue = e.atomicNewValue;
    a.sqIdx = e.sqIdx;
    if (SpanTracker::enabled() && spans_ && a.spanId) {
        spans_->close(a.spanId, now);
        a.spanId = 0; // post-commit unlock traffic is outside the span
    }
    pendingUnlocks.emplace(now + 1, e.seq);
}

void
Core::atomicUnlock(SeqNum seq, Cycle now)
{
    AqEntry &a = aq.head();
    ROWSIM_ASSERT(a.seq == seq, "unlock out of AQ order");
    ROWSIM_CHECK_EVENT(CheckCategory::Locks,
                       cache->lineState(a.line()) == CacheState::Modified,
                       "core%u seq %llu unlocking line %#llx no longer in M "
                       "(lock lost while held)",
                       coreId, static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(a.line()));

    // STU write: the line is locked and Modified in the L1D, so the
    // write happens immediately and atomically releases the lock.
    fmem->write64(a.addr, a.newValue);
    SqEntry &s = sq.entry(static_cast<unsigned>(a.sqIdx));
    ROWSIM_ASSERT(s.seq == seq && s.isAtomic, "STU slot mismatch at unlock");
    s.written = true;

    const Addr line = a.line();
    const bool contended = a.contended;

    // Statistics: Fig. 5 / Fig. 6 / Fig. 12 inputs.
    atomicsUnlocked_++;
    if (contended)
        atomicsDetectedContended_++;
    if (a.oracleContended)
        atomicsOracleContended_++;
    if (a.issueCycle != invalidCycle && a.lockCycle != invalidCycle) {
        atomicDispatchToIssueHist_.sample(
            static_cast<double>(a.issueCycle - a.dispatchCycle));
        atomicIssueToLockHist_.sample(
            static_cast<double>(a.lockCycle - a.issueCycle));
        atomicLockToUnlockHist_.sample(
            static_cast<double>(now - a.lockCycle));
        // Chrome trace: the lock hold interval (sequential per core) and
        // the atomic's whole AQ residency (overlapping -> async span).
        ROWSIM_TRACE_COMPLETE(
            TraceCategory::Atomic, static_cast<int>(coreId),
            traceTidAtomics, "lock", a.lockCycle, now,
            strprintf("{\"seq\":%llu,\"line\":\"%#llx\",\"contended\":%d,"
                      "\"oracle\":%d}",
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(line),
                      contended ? 1 : 0, a.oracleContended ? 1 : 0));
        ROWSIM_TRACE_SPAN(
            TraceCategory::Atomic, static_cast<int>(coreId),
            traceTidAtomics, "aqResidency", seq, a.dispatchCycle, now,
            strprintf("{\"seq\":%llu,\"lazy\":%d}",
                      static_cast<unsigned long long>(seq),
                      a.predictedContended ? 1 : 0));
    }
    ROWSIM_TRACE(TraceCategory::Atomic, now,
                 "core%u unlock seq=%llu line=%#llx held=%llu "
                 "contended=%d oracle=%d",
                 coreId, static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(line),
                 static_cast<unsigned long long>(
                     a.lockCycle == invalidCycle ? 0 : now - a.lockCycle),
                 contended ? 1 : 0, a.oracleContended ? 1 : 0);

    const bool row = params.atomicPolicy == AtomicPolicy::RoW;
    if (SpanTracker::enabled() && spans_) {
        spans_->release(line, contended);
        if (row) {
            // Mispredict cost: a predicted-lazy atomic that saw no
            // contention wasted its ready->issue wait; a predicted-eager
            // atomic that hit contention paid a contended acquisition.
            std::uint64_t cost = 0;
            if (a.predictedContended && !contended &&
                a.readyCycle != invalidCycle &&
                a.issueCycle != invalidCycle) {
                cost = a.issueCycle - a.readyCycle;
            } else if (!a.predictedContended && contended &&
                       a.issueCycle != invalidCycle &&
                       a.lockCycle != invalidCycle) {
                cost = a.lockCycle - a.issueCycle;
            }
            spans_->rowOutcome(a.pc, a.predictedContended, contended,
                               cost);
        }
    }

    if (row)
        rowPredictor.update(a.pc, contended, now);
    if (params.atomicPolicy == AtomicPolicy::Fenced) {
        memBarriers.erase(seq);
        wake(WakeOn::Barrier);
    }

    a.locked = false;
    aq.freeHead(seq);
    storeWritten(seq, s.addr, now);
    cache->unlockNotify(line, now);
}

void
Core::commitStage(Cycle now)
{
    for (unsigned i = 0; i < params.commitWidth; i++) {
        const SeqNum seq = commitSeq + 1;
        if (!inFlight(seq))
            break;
        RobEntry &e = rob(seq);
        if (!e.completed)
            break;

        if (e.op.cls == OpClass::AtomicRMW) {
            const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
            // Free Atomics commit rule: SB drained, lock held.
            if (!a.locked || !sq.sbEmpty())
                break;
            commitAtomic(e, now);
            committedAtomicCount++;
        }

        if (e.lqIdx >= 0) {
            lq.freeHead(seq);
            wake(WakeOn::LazyHead, lq.oldestSeq());
        }
        if (e.op.cls == OpClass::Store) {
            SqEntry &s = sq.entry(static_cast<unsigned>(e.sqIdx));
            ROWSIM_ASSERT(s.addressReady, "committing unresolved store");
            s.committed = true;
        }

        commitSeq = seq;
        committedInsts++;
        if (e.op.endOfIteration)
            iterations++;
        e.busy = false;
    }
}

CpiBucket
Core::classifyCommitStall() const
{
    const SeqNum head_seq = commitSeq + 1;
    if (!inFlight(head_seq)) {
        // ROB empty: either the core is done (halted, draining) or the
        // front end could not supply instructions.
        return halted ? CpiBucket::Idle : CpiBucket::FrontendStall;
    }
    const RobEntry &e = rob(head_seq);

    if (e.op.cls == OpClass::AtomicRMW && e.aqIdx >= 0) {
        const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
        if (e.completed) {
            // Free Atomics commit rule: lock held AND SB drained. A
            // completed-but-blocked head is waiting for the SB (or, for
            // a forwarded atomic, for its store's write to engage the
            // lock — also an SB-drain dependency).
            if (!a.locked || !sq.sbEmpty())
                return CpiBucket::SqDrainWait;
            return CpiBucket::AtomicExecute;
        }
        switch (e.astate) {
          case AState::WaitOperands:
            return e.lazySelected ? CpiBucket::AtomicLazyWait
                                  : CpiBucket::AtomicExecute;
          case AState::WaitLazy:
            return CpiBucket::AtomicLazyWait;
          case AState::WaitStore:
            return CpiBucket::SqDrainWait;
          case AState::MemIssued:
            // A live MSHR for the target line means the acquisition is
            // out in the coherence fabric; otherwise the atomic is in
            // its local execute/lock path.
            return a.addr != invalidAddr &&
                           cache->hasMshr(lineAlign(a.addr))
                       ? CpiBucket::CoherenceMiss
                       : CpiBucket::AtomicExecute;
          default:
            return CpiBucket::AtomicExecute;
        }
    }

    if (!e.completed) {
        if (e.op.cls == OpClass::Load && e.issued &&
            cache->hasMshr(lineAlign(e.op.addr)))
            return CpiBucket::CoherenceMiss;
        return robCount() >= params.robEntries ? CpiBucket::RobFull
                                               : CpiBucket::Exec;
    }
    // Completed non-atomic heads always commit, so this is unreachable
    // for stall slots (only hit when retired == commitWidth).
    return CpiBucket::Exec;
}

void
Core::profileCommitSlots(unsigned retired)
{
    prof_->cpiSlots(coreId, CpiBucket::Retired, retired);
    if (retired < params.commitWidth) {
        prof_->cpiSlots(coreId, classifyCommitStall(),
                        params.commitWidth - retired);
    }
}

// ---------------------------------------------------------------------
// Store drain (SB -> L1D)
// ---------------------------------------------------------------------

void
Core::storeWritten(SeqNum store_seq, Addr addr, Cycle now)
{
    (void)addr;
    wake(WakeOn::StoreWrite, store_seq);
    wake(WakeOn::OlderStore, store_seq);
    wake(WakeOn::OlderMem, store_seq);
    // Forwarded atomics lock the line the instant their forwarding store
    // writes (§IV-E / Free Atomics forwarding guarantee).
    auto range = fwdLockWaiters.equal_range(store_seq);
    std::vector<SeqNum> to_lock;
    for (auto it = range.first; it != range.second; ++it)
        to_lock.push_back(it->second);
    fwdLockWaiters.erase(range.first, range.second);
    for (SeqNum aseq : to_lock) {
        if (!inFlight(aseq))
            continue;
        RobEntry &e = rob(aseq);
        if (e.seq != aseq || e.astate != AState::ExecDoneFwd)
            continue;
        // The forwarding store just wrote, so it (and everything older)
        // has committed: older atomics have unlocked and the lock can
        // engage immediately, preserving atomic locality.
        if (aq.olderAllLocked(aseq)) {
            acquireLock(e, FillSource::Forwarded, now);
        } else {
            e.astate = AState::WaitLock;
            if (SpanTracker::enabled() && spans_) {
                AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
                if (a.spanId)
                    spans_->transition(a.spanId, SpanSeg::UnblockWait,
                                       now);
            }
            lockWaits_++;
        }
    }
}

void
Core::drainStores(Cycle now)
{
    // Retire written heads.
    while (SqEntry *h = sq.headEntry()) {
        if (!h->written)
            break;
        sq.freeHead(h->seq);
        wake(WakeOn::LazyHead, lq.oldestSeq());
    }
    SqEntry *h = sq.headEntry();
    if (h && h->committed && !h->written && !h->writeInFlight &&
        !h->isAtomic) {
        h->writeInFlight = true;
        ROWSIM_TRACE(TraceCategory::Pipeline, now,
                     "core%u sb-drain seq=%llu addr=%#llx occ=%u",
                     coreId, static_cast<unsigned long long>(h->seq),
                     static_cast<unsigned long long>(h->addr),
                     sq.size());
        MemAccess a;
        a.addr = h->addr;
        a.token = sbWriteToken | sq.indexOf(h);
        a.needExclusive = true;
        a.isWrite = true;
        a.writeValue = h->value;
        cache->access(a, now);
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Core::retryOn(RobEntry &e, WakeOn why)
{
    e.wakeOn = why;
    return false;
}

void
Core::wake(WakeOn why, SeqNum seq)
{
    for (SeqNum w : waiting) {
        RobEntry &e = rob(w);
        if (e.wakeOn != why)
            continue;
        switch (why) {
          case WakeOn::StoreWrite:
            if (e.waitStoreSeq == seq)
                e.wakeOn = WakeOn::Due;
            break;
          case WakeOn::LazyHead:
            if (w == seq)
                e.wakeOn = WakeOn::Due;
            break;
          default:
            if (w > seq)
                e.wakeOn = WakeOn::Due;
            break;
        }
    }
}

bool
Core::blockedByBarrier(SeqNum seq) const
{
    return !memBarriers.empty() && *memBarriers.begin() < seq;
}

bool
Core::olderLoadsComplete(SeqNum seq) const
{
    bool ok = true;
    const_cast<LoadQueue &>(lq).forEach([&](LqEntry &l) {
        if (l.seq < seq && !l.completed)
            ok = false;
    });
    return ok;
}

bool
Core::olderStoresWritten(SeqNum seq) const
{
    bool ok = true;
    const_cast<StoreQueue &>(sq).forEach([&](SqEntry &s) {
        if (s.seq < seq && !s.written)
            ok = false;
    });
    return ok;
}

bool
Core::lazyConditionMet(const RobEntry &e) const
{
    return lq.isOldest(e.seq) && sq.noneOlderThan(e.seq);
}

bool
Core::fenceConditionMet(const RobEntry &e) const
{
    return olderLoadsComplete(e.seq) && olderStoresWritten(e.seq);
}

bool
Core::atomicSelectLazy(const MicroOp &op)
{
    switch (params.atomicPolicy) {
      case AtomicPolicy::Eager:
        return false;
      case AtomicPolicy::Lazy:
      case AtomicPolicy::Fenced:
        return true;
      case AtomicPolicy::RoW:
        return rowPredictor.predictContended(op.pc);
    }
    return false;
}

void
Core::sampleIndependentInsts(const RobEntry &e)
{
    // Fig. 4: how much independent work surrounds the atomic at issue?
    std::uint64_t older_unexecuted = 0;
    for (SeqNum s = commitSeq + 1; s < e.seq; s++) {
        if (!rob(s).completed)
            older_unexecuted++;
    }
    std::uint64_t younger_started = 0;
    for (SeqNum s = e.seq + 1; s < nextSeq; s++) {
        if (rob(s).issued)
            younger_started++;
    }
    olderUnexecutedAtIssue_.sample(static_cast<double>(older_unexecuted));
    youngerStartedAtIssue_.sample(static_cast<double>(younger_started));
}

bool
Core::atomicExecute(RobEntry &e, Cycle now)
{
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    if (a.addr == invalidAddr)
        a.addr = e.op.addr; // address calculation (lazy without RW)

    // The STU's address is known from here on: younger loads/atomics must
    // not treat it as an unresolved store (that would serialise every
    // atomic behind every older one).
    SqEntry &stu = sq.entry(static_cast<unsigned>(e.sqIdx));
    stu.addressReady = true;
    stu.addr = a.addr;
    wake(WakeOn::OlderStore, e.seq);

    // Atomics never speculate past unresolved older stores: wait for all
    // older store addresses (cheap in practice; store addresses resolve
    // at issue).
    bool unknown_older = false;
    SqEntry *src = sq.forwardSource(e.seq, a.addr, unknown_older);
    if (unknown_older) {
        // A store between the youngest match and the atomic is still
        // unresolved: it could target our word. Atomics never speculate
        // on memory dependences — wait for all older store addresses.
        e.astate = AState::WaitStore;
        e.waitStoreSeq = 0;
        e.reissueReadyAt = invalidCycle;
        if (SpanTracker::enabled() && spans_ && a.spanId)
            spans_->transition(a.spanId, SpanSeg::SbDrain, now);
        // The next poll stamps a fresh re-issue delay.
        return retryOn(e, WakeOn::Due);
    }
    if (src && !src->written) {
        // §IV-E: atomics may only be forwarded from older *regular*
        // stores; chains of atomic-to-atomic forwarding are disallowed
        // (they extend lock windows and can livelock).
        if (params.forwardToAtomics && !src->isAtomic) {
            // Forwarded execution (§IV-E): consume the store's value now;
            // the lock engages when the store writes.
            if (a.issueCycle == invalidCycle) {
                a.issueCycle = now;
                sampleIndependentInsts(e);
            }
            e.forwardedAtomic = true;
            e.waitStoreSeq = src->seq;
            e.result = src->value;
            e.atomicNewValue = atomicModify(e.op, e.result);
            stu.value = e.atomicNewValue;
            stu.valueReady = true;
            e.astate = AState::ExecDoneFwd;
            e.issued = true;
            if (SpanTracker::enabled() && spans_ && a.spanId) {
                // Value consumed now; the remaining wait until the
                // forwarding store writes is an SB-drain dependency.
                spans_->setLine(a.spanId, a.line());
                spans_->transition(a.spanId, SpanSeg::SbDrain, now);
            }
            fwdLockWaiters.emplace(src->seq, e.seq);
            LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
            l.issued = true;
            l.addr = a.addr;
            l.fwdFrom = src->seq;
            scheduleCompletion(e.seq, now + 2);
            atomicsForwarded_++;
            ROWSIM_TRACE(TraceCategory::Atomic, now,
                         "core%u forwarded seq=%llu line=%#llx from "
                         "store seq=%llu",
                         coreId, static_cast<unsigned long long>(e.seq),
                         static_cast<unsigned long long>(a.line()),
                         static_cast<unsigned long long>(src->seq));
            return true;
        }
        // Atomicity: must read the post-store value from the cache.
        e.astate = AState::WaitStore;
        e.waitStoreSeq = src->seq;
        e.reissueReadyAt = invalidCycle;
        if (SpanTracker::enabled() && spans_ && a.spanId)
            spans_->transition(a.spanId, SpanSeg::SbDrain, now);
        return retryOn(e, WakeOn::StoreWrite);
    }
    if (a.issueCycle == invalidCycle) {
        a.issueCycle = now;
        sampleIndependentInsts(e);
    }
    if (e.lazySelected)
        atomicsIssuedLazy_++;
    else
        atomicsIssuedEager_++;
    ROWSIM_TRACE(TraceCategory::Atomic, now,
                 "core%u issue seq=%llu line=%#llx mode=%s",
                 coreId, static_cast<unsigned long long>(e.seq),
                 static_cast<unsigned long long>(a.line()),
                 e.lazySelected ? "lazy" : "eager");

    a.issuedCycle14 = static_cast<std::uint16_t>(
        now & ((1u << params.row.timestampBits) - 1));
    a.timestampValid = true;
    e.astate = AState::MemIssued;
    e.issued = true;
    LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
    l.issued = true;
    l.addr = a.addr;

    if (SpanTracker::enabled() && spans_ && a.spanId) {
        spans_->setLine(a.spanId, a.line());
        spans_->transition(a.spanId, SpanSeg::Execute, now);
    }

    MemAccess m;
    m.addr = a.addr;
    m.token = token(e);
    m.needExclusive = true;
    m.isAtomic = true;
    m.spanId = a.spanId;
    cache->access(m, now);
    return true;
}

bool
Core::tryIssueAtomic(RobEntry &e, Cycle now)
{
    if (blockedByBarrier(e.seq))
        return retryOn(e, WakeOn::Barrier);

    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));

    if (e.astate == AState::WaitOperands) {
        if (!e.lazySelected) {
            e.astate = AState::WaitLazy; // transient; atomicExecute decides
            bool done = atomicExecute(e, now);
            if (done)
                iqOccupancy--;
            return done;
        }
        // Predicted/forced lazy. Under RoW with RW/RW+Dir detection the
        // atomic issues once now to compute its address (§IV-B),
        // extending the contention-tracking window; it stays in the IQ.
        const bool early_addr =
            params.atomicPolicy == AtomicPolicy::RoW &&
            params.row.detector != ContentionDetector::EW;
        if (early_addr && a.addr == invalidAddr) {
            a.addr = e.op.addr;
            a.onlyCalcAddr = true;
            SqEntry &stu = sq.entry(static_cast<unsigned>(e.sqIdx));
            stu.addressReady = true;
            stu.addr = a.addr;
            wake(WakeOn::OlderStore, e.seq);
            onlyCalcAddrIssues_++;
            // Atomic locality (§IV-E): a matching older store in the SB
            // promotes the atomic to eager execution.
            if (params.forwardToAtomics && params.row.localityPromotion &&
                sq.olderSameLineUnwritten(e.seq, a.line())) {
                a.onlyCalcAddr = false;
                e.lazySelected = false;
                atomicsPromotedEager_++;
                bool done = atomicExecute(e, now);
                if (done)
                    iqOccupancy--;
                return done;
            }
        }
        e.astate = AState::WaitLazy;
        if (SpanTracker::enabled() && spans_ && a.spanId)
            spans_->transition(a.spanId, SpanSeg::AqWait, now);
        // The first WaitLazy poll may already stamp or refine the span.
        return retryOn(e, WakeOn::Due);
    }

    if (e.astate == AState::WaitLazy) {
        if (!lazyConditionMet(e)) {
            // Refine the wait: once the atomic is the oldest memory op,
            // the remaining wait is purely the SB drain.
            if (SpanTracker::enabled() && spans_ && a.spanId &&
                lq.isOldest(e.seq)) {
                spans_->transition(a.spanId, SpanSeg::SbDrain, now);
            }
            e.reissueReadyAt = invalidCycle;
            // Both halves of the condition, and being oldest, change
            // only when the LQ or SQ head is freed.
            return retryOn(e, WakeOn::LazyHead);
        }
        // Condition newly met: pay the wakeup/select/issue pipeline
        // delay before the memory request goes out.
        if (e.reissueReadyAt == invalidCycle)
            e.reissueReadyAt = now + params.atomicReissueDelay;
        if (now < e.reissueReadyAt)
            return retryOn(e, WakeOn::Stamp);
        a.onlyCalcAddr = false;
        bool done = atomicExecute(e, now);
        if (done)
            iqOccupancy--;
        return done;
    }

    if (e.astate == AState::WaitStore) {
        if (e.waitStoreSeq != 0) {
            // Wait for that specific store to write.
            bool pending = false;
            sq.forEach([&](SqEntry &s) {
                if (s.seq == e.waitStoreSeq && !s.written)
                    pending = true;
            });
            if (pending) {
                e.reissueReadyAt = invalidCycle;
                return retryOn(e, WakeOn::StoreWrite);
            }
        }
        if (e.reissueReadyAt == invalidCycle)
            e.reissueReadyAt = now + params.atomicReissueDelay;
        if (now < e.reissueReadyAt)
            return retryOn(e, WakeOn::Stamp);
        bool done = atomicExecute(e, now);
        if (done)
            iqOccupancy--;
        return done;
    }

    ROWSIM_PANIC("atomic issue in unexpected state %d",
                 static_cast<int>(e.astate));
}

bool
Core::tryIssueLoad(RobEntry &e, Cycle now, bool first)
{
    if (blockedByBarrier(e.seq))
        return retryOn(e, WakeOn::Barrier);

    bool unknown_older = false;
    SqEntry *src = sq.forwardSource(e.seq, e.op.addr, unknown_older);
    LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));

    // unknown_older means a store BETWEEN the match (if any) and this
    // load has not resolved its address yet: whatever the load consumes
    // (forwarded value or cache data) is speculative, so the StoreSet
    // decision comes first.
    if (unknown_older) {
        // StoreSet prediction, captured at dispatch (the LFST may have
        // moved on to younger stores by now).
        const SeqNum dep = e.waitStoreSeq;
        if (dep != 0 && dep < e.seq && inFlight(dep)) {
            const RobEntry &st = rob(dep);
            if (st.op.cls == OpClass::Store && st.seq == dep &&
                !st.issued) {
                if (first)
                    loadsPredictedDependent_++;
                // Predicted dependent: wait until the store issues.
                return retryOn(e, WakeOn::OlderStore);
            }
        }
    }

    if (src && !src->written) {
        if (!params.storeToLoadForwarding || !src->valueReady) {
            // Wait for the store's value or write; an older store
            // resolving its address can also change the source.
            return retryOn(e, WakeOn::OlderStore);
        }
        e.result = src->value;
        l.issued = true;
        l.addr = e.op.addr;
        l.fwdFrom = src->seq;
        e.issued = true;
        scheduleCompletion(e.seq, now + 2);
        loadsForwarded_++;
    } else {
        l.issued = true;
        l.addr = e.op.addr;
        l.fwdFrom = 0;
        e.issued = true;
        MemAccess m;
        m.addr = e.op.addr;
        m.token = token(e);
        cache->access(m, now);
    }
    // Issued past unresolved store(s): the violation scan at store
    // resolution replays us if the speculation was wrong.
    if (unknown_older)
        loadsSpeculated_++;
    iqOccupancy--;
    return true;
}

void
Core::replayLoad(RobEntry &load, Addr store_pc, Cycle now)
{
    storeSet.violation(load.op.pc, store_pc);
    loadReplays_++;
    load.replayGen++;
    load.completed = false;
    load.issued = false;
    LqEntry &l = lq.entry(static_cast<unsigned>(load.lqIdx));
    l.issued = false;
    l.completed = false;
    l.fwdFrom = 0;
    iqOccupancy++; // back into the issue queue
    pushReady(load.seq, now);
}

bool
Core::tryIssueStore(RobEntry &e, Cycle now)
{
    if (blockedByBarrier(e.seq))
        return retryOn(e, WakeOn::Barrier);

    SqEntry &s = sq.entry(static_cast<unsigned>(e.sqIdx));
    s.addressReady = true;
    s.addr = e.op.addr;
    s.value = e.op.value;
    s.valueReady = true;
    e.issued = true;
    storeSet.storeExecuted(e.ssSet, e.seq);
    wake(WakeOn::OlderStore, e.seq);

    // Memory-order violation scan: younger loads to the same word that
    // issued before this store resolved its address must replay unless
    // they forwarded from an even younger store.
    const Addr word = wordAlign(e.op.addr);
    std::vector<SeqNum> to_replay;
    lq.forEach([&](LqEntry &l) {
        if (l.seq > e.seq && l.issued && !l.isAtomic &&
            l.addr != invalidAddr && wordAlign(l.addr) == word &&
            (l.fwdFrom == 0 || l.fwdFrom < e.seq)) {
            to_replay.push_back(l.seq);
        }
    });
    for (SeqNum ls : to_replay)
        replayLoad(rob(ls), e.op.pc, now);

    scheduleCompletion(e.seq, now + 1);
    iqOccupancy--;
    return true;
}

bool
Core::tryIssueFence(RobEntry &e, Cycle now)
{
    if (!fenceConditionMet(e))
        return retryOn(e, WakeOn::OlderMem);
    e.issued = true;
    scheduleCompletion(e.seq, now + 1);
    iqOccupancy--;
    return true;
}

bool
Core::tryIssue(SeqNum seq, Cycle now, bool first)
{
    RobEntry &e = rob(seq);
    ROWSIM_ASSERT(e.busy && !e.issued, "tryIssue on bad entry");

    switch (e.op.cls) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        e.issued = true;
        scheduleCompletion(seq, now + std::max<unsigned>(1,
                                                         e.op.execLatency));
        iqOccupancy--;
        return true;
      case OpClass::Load:
        return tryIssueLoad(e, now, first);
      case OpClass::Store:
        return tryIssueStore(e, now);
      case OpClass::Fence:
        return tryIssueFence(e, now);
      case OpClass::AtomicRMW:
        return tryIssueAtomic(e, now);
    }
    return false;
}

void
Core::issueStage(Cycle now)
{
    unsigned slots = params.issueWidth;
    issueTruncated_ = false;

    // Re-attempt ops waiting on conditions (lazy atomics, fences, store
    // waits, barrier blocks) oldest first, before the newly-ready ones.
    // Only due ops are polled: a parked op's poll would fail and change
    // nothing until its wake source fires. Survivors are compacted in
    // place, keeping their order.
    std::size_t kept = 0;
    std::sort(waiting.begin(), waiting.end());
    for (std::size_t i = 0; i < waiting.size(); i++) {
        const SeqNum seq = waiting[i];
        RobEntry &e = rob(seq);
        const bool due =
            e.wakeOn == WakeOn::Due ||
            (e.wakeOn == WakeOn::Stamp && now >= e.reissueReadyAt);
        if (slots == 0) {
            issueTruncated_ = true;
        } else if (due && tryIssue(seq, now, false)) {
            slots--;
            continue;
        }
        if (e.busy && !e.issued)
            waiting[kept++] = seq;
    }
    waiting.resize(kept);

    while (slots > 0 && !readyQueue.empty()) {
        SeqNum seq = readyQueue.top();
        readyQueue.pop();
        if (!inFlight(seq) || rob(seq).issued || !rob(seq).busy)
            continue;
        if (tryIssue(seq, now, true))
            slots--;
        else
            waiting.push_back(seq);
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void
Core::dispatchStage(Cycle now)
{
    if (fetchBlockedBy != 0 || now < fetchBlockedUntil)
        return;

    for (unsigned i = 0; i < params.fetchWidth; i++) {
        if (fetchBuffer.empty()) {
            if (halted)
                return;
            fetchBuffer.push_back(stream->next());
        }
        const MicroOp &op = fetchBuffer.front();

        if (robCount() >= params.robEntries ||
            iqOccupancy >= params.iqEntries)
            return;
        switch (op.cls) {
          case OpClass::Load:
            if (lq.full())
                return;
            break;
          case OpClass::Store:
            if (sq.full())
                return;
            break;
          case OpClass::AtomicRMW:
            if (lq.full() || sq.full() || aq.full())
                return;
            break;
          default:
            break;
        }

        const SeqNum seq = nextSeq++;
        RobEntry &e = rob(seq);
        ROWSIM_ASSERT(!e.busy, "ROB slot reuse while busy");
        e = RobEntry{};
        e.op = op;
        e.seq = seq;
        e.busy = true;
        e.dispatchCycle = now;
        fetchBuffer.pop_front();

        for (std::uint32_t dist : {e.op.src0, e.op.src1}) {
            if (dist == 0 || dist >= seq)
                continue;
            const SeqNum pseq = seq - dist;
            if (pseq <= commitSeq)
                continue;
            RobEntry &prod = rob(pseq);
            if (prod.busy && !prod.completed) {
                prod.dependents.push_back(seq);
                e.depsPending++;
            }
        }

        switch (e.op.cls) {
          case OpClass::Load:
            e.lqIdx = static_cast<int>(lq.allocate(seq, false));
            // Record the StoreSet-predicted dependence now; the LFST is
            // only meaningful at dispatch time.
            e.waitStoreSeq = storeSet.dependence(e.op.pc);
            if (e.waitStoreSeq != 0)
                loadsDispatchedWithDep_++;
            break;
          case OpClass::Store: {
            e.sqIdx = static_cast<int>(sq.allocate(seq, false));
            e.ssSet = storeSet.setOf(e.op.pc);
            storeSet.storeFetched(e.ssSet, seq);
            break;
          }
          case OpClass::AtomicRMW: {
            e.lqIdx = static_cast<int>(lq.allocate(seq, true));
            e.sqIdx = static_cast<int>(sq.allocate(seq, true));
            e.aqIdx = static_cast<int>(aq.allocate(seq, e.op.pc, now));
            e.astate = AState::WaitOperands;
            e.lazySelected = atomicSelectLazy(e.op);
            aq.entry(static_cast<unsigned>(e.aqIdx)).predictedContended =
                e.lazySelected;
            if (SpanTracker::enabled() && spans_) {
                aq.entry(static_cast<unsigned>(e.aqIdx)).spanId =
                    spans_->open(coreId, e.op.pc, e.lazySelected, now);
            }
            if (params.atomicPolicy == AtomicPolicy::Fenced)
                memBarriers.insert(seq);
            atomicsDispatched_++;
            if (e.lazySelected)
                atomicsPredictedContended_++;
            ROWSIM_TRACE(TraceCategory::Atomic, now,
                         "core%u dispatch seq=%llu pc=%#llx policy=%s",
                         coreId, static_cast<unsigned long long>(seq),
                         static_cast<unsigned long long>(e.op.pc),
                         e.lazySelected ? "lazy" : "eager");
            ROWSIM_TRACE_INSTANT(
                TraceCategory::Atomic, static_cast<int>(coreId),
                traceTidAtomics, "dispatch", now,
                strprintf("{\"seq\":%llu,\"policy\":\"%s\"}",
                          static_cast<unsigned long long>(seq),
                          e.lazySelected ? "lazy" : "eager"));
            break;
          }
          case OpClass::Fence:
            memBarriers.insert(seq);
            break;
          case OpClass::Branch: {
            const bool correct = branchPred.update(e.op.pc,
                                                   e.op.takenBranch);
            if (!correct) {
                fetchBlockedBy = seq;
                branchMispredicts_++;
            }
            break;
          }
          default:
            break;
        }

        iqOccupancy++;
        dispatched_++;
        if (e.depsPending == 0)
            pushReady(seq, now);

        if (fetchBlockedBy == seq)
            return; // stop fetching past a mispredicted branch
    }
}

// ---------------------------------------------------------------------
// Tick
// ---------------------------------------------------------------------

void
Core::tick(Cycle now)
{
    if (now < sleepUntil_) {
        sleptTicks_++;
        if (sleepMode_ != FastForwardMode::Check)
            return;
        const Cycle until = sleepUntil_;
        const std::uint64_t before = tickFingerprint();
        tickStages(now);
        if (tickFingerprint() != before) {
            ROWSIM_PANIC("[ff-check] core %u predicted idle until %llu "
                         "acted at cycle %llu",
                         coreId, static_cast<unsigned long long>(until),
                         static_cast<unsigned long long>(now));
        }
        return;
    }
    tickStages(now);
    if (sleepMode_ == FastForwardMode::Off)
        return;
    // The first predicted-idle tick still acts: issueStage sorts and
    // compacts `waiting` and clears issueTruncated_, and dispatch may
    // fetch one op into an empty fetch buffer. Once such a tick has run
    // with nothing interrupting, every tick up to the next event is a
    // no-op.
    const Cycle next = nextEventCycle(now);
    sleepUntil_ = now < idleUntil_ ? next : 0;
    idleUntil_ = next;
}

void
Core::tickStages(Cycle now)
{
    processCompletions(now);

    while (!pendingUnlocks.empty() && pendingUnlocks.begin()->first <= now) {
        SeqNum seq = pendingUnlocks.begin()->second;
        pendingUnlocks.erase(pendingUnlocks.begin());
        atomicUnlock(seq, now);
    }

    if (Profiler::enabled(ProfCategory::Cpi) && prof_) {
        const std::uint64_t before = committedInsts;
        commitStage(now);
        profileCommitSlots(
            static_cast<unsigned>(committedInsts - before));
    } else {
        commitStage(now);
    }
    drainStores(now);
    issueStage(now);
    dispatchStage(now);
}

bool
Core::drained() const
{
    return robCount() == 0 && sq.empty() && lq.empty() && aq.empty() &&
           completions.empty() && pendingUnlocks.empty();
}

std::uint64_t
Core::tickFingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
    };
    mix(nextSeq);
    mix(commitSeq);
    mix(committedInsts);
    mix(committedAtomicCount);
    mix(iterations);
    mix(robCount());
    mix(iqOccupancy);
    mix(lq.size());
    mix(lq.oldestSeq());
    mix(sq.size());
    mix(sq.headEntry() ? sq.headEntry()->seq : 0);
    mix(aq.size());
    mix(aq.oldestSeq());
    mix(readyQueue.size());
    mix(waiting.size());
    mix(completions.size());
    mix(pendingUnlocks.size());
    mix(memBarriers.size());
    mix(fwdLockWaiters.size());
    mix(fetchBuffer.size());
    mix(fetchBlockedBy);
    mix(fetchBlockedUntil);
    mix(issueTruncated_);
    for (const auto &kv : stats_.counters())
        mix(kv.second.value());
    for (const auto &kv : stats_.averages())
        mix(kv.second.count());
    for (const auto &kv : stats_.histograms())
        mix(kv.second.summary().count());
    return h;
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    // Asleep: the deadline was this very answer when the sleep began,
    // and nothing has changed the core since.
    if (now < sleepUntil_)
        return sleepUntil_;

    const Cycle next_tick = now + 1;

    // Work that would proceed on the very next tick: ready ops, a
    // truncated issue pass, a committable ROB head, a drainable or
    // freeable SB head.
    if (!readyQueue.empty() || issueTruncated_)
        return next_tick;

    const SeqNum head_seq = commitSeq + 1;
    if (inFlight(head_seq)) {
        const RobEntry &e = rob(head_seq);
        if (e.busy && e.seq == head_seq && e.completed) {
            if (e.op.cls != OpClass::AtomicRMW)
                return next_tick;
            // Free Atomics commit rule: both conditions change only via
            // events (fills, unlocks, SB writes), so a blocked atomic
            // head contributes nothing here.
            const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
            if (a.locked && sq.sbEmpty())
                return next_tick;
        }
    }

    if (const SqEntry *h = sq.headEntry()) {
        if (h->written ||
            (h->committed && !h->writeInFlight && !h->isAtomic))
            return next_tick;
    }

    Cycle next = invalidCycle;
    auto consider = [&](Cycle c) {
        if (c != invalidCycle)
            next = std::min(next, std::max(c, next_tick));
    };

    if (!completions.empty())
        consider(completions.begin()->first);
    if (!pendingUnlocks.empty())
        consider(pendingUnlocks.begin()->first);
    // Waiting ops: a due one polls next tick, a stamped one at its
    // re-issue stamp; a parked one adds nothing.
    for (SeqNum seq : waiting) {
        const RobEntry &e = rob(seq);
        if (e.wakeOn == WakeOn::Due)
            return next_tick;
        if (e.wakeOn == WakeOn::Stamp)
            consider(e.reissueReadyAt);
    }
    // Dispatch: when fetch is unblocked and resources are free, the core
    // fetches/dispatches next tick (or when the redirect penalty ends).
    // With resources full, dispatch resumes only after a commit (event).
    if (fetchBlockedBy == 0 && !(halted && fetchBuffer.empty())) {
        bool resources = robCount() < params.robEntries &&
                         iqOccupancy < params.iqEntries;
        if (resources && !fetchBuffer.empty()) {
            switch (fetchBuffer.front().cls) {
              case OpClass::Load:
                resources = !lq.full();
                break;
              case OpClass::Store:
                resources = !sq.full();
                break;
              case OpClass::AtomicRMW:
                resources = !lq.full() && !sq.full() && !aq.full();
                break;
              default:
                break;
            }
        }
        if (resources)
            consider(std::max(fetchBlockedUntil, next_tick));
    }
    return next;
}

bool
Core::hasPendingUnlock(SeqNum seq) const
{
    for (const auto &kv : pendingUnlocks) {
        if (kv.second == seq)
            return true;
    }
    return false;
}

void
Core::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out,
                 "{\"core\":%u,\"halted\":%d,\"drained\":%d,"
                 "\"commitSeq\":%llu,\"nextSeq\":%llu,\"rob\":%u,"
                 "\"iq\":%u,\"lq\":%u,\"sq\":%u,\"aq\":%u,"
                 "\"memBarriers\":%zu,\"pendingUnlocks\":%zu,"
                 "\"completions\":%zu,\"aqEntries\":[",
                 coreId, halted ? 1 : 0, drained() ? 1 : 0,
                 static_cast<unsigned long long>(commitSeq),
                 static_cast<unsigned long long>(nextSeq), robCount(),
                 iqOccupancy, lq.size(), sq.size(), aq.size(),
                 memBarriers.size(), pendingUnlocks.size(),
                 completions.size());
    bool first = true;
    aq.forEach([&](const AqEntry &a) {
        std::fprintf(out,
                     "%s{\"seq\":%llu,\"line\":\"%#llx\",\"locked\":%d,"
                     "\"contended\":%d,\"heldFor\":%llu}",
                     first ? "" : ",",
                     static_cast<unsigned long long>(a.seq),
                     static_cast<unsigned long long>(a.line()),
                     a.locked ? 1 : 0, a.contended ? 1 : 0,
                     static_cast<unsigned long long>(
                         a.locked && a.lockCycle != invalidCycle &&
                                 now >= a.lockCycle
                             ? now - a.lockCycle
                             : 0));
        first = false;
    });
    std::fprintf(out, "]}");
}

template <class Ar>
void
Core::visit(Ar &ar)
{
    ar.section("core");
    ar.expect(coreId, "core id");
    if constexpr (Ar::loading)
        interruptSleep();

    // Every ROB slot is serialized, stale entries included: restored slot
    // garbage then matches an uninterrupted run's, so any later image of
    // the two executions stays bit-identical.
    ar.expect(std::uint64_t{robSlots.size()}, "ROB entries");
    for (RobEntry &e : robSlots)
        ar.io(e);

    ar.io(lq);
    ar.io(sq);
    ar.io(aq);
    ar.io(branchPred);
    ar.io(storeSet);
    ar.io(rowPredictor);

    ar.u64(nextSeq);
    ar.u64(commitSeq);

    // priority_queue has no iterators: the image lists it in pop order
    // (ascending SeqNum), which is also the order restore re-pushes in.
    std::vector<SeqNum> ready;
    if constexpr (!Ar::loading) {
        for (auto q = readyQueue; !q.empty(); q.pop())
            ready.push_back(q.top());
    }
    ar.list(ready, "ready queue", [&](auto &seq) { ar.u64(seq); });
    if constexpr (Ar::loading) {
        readyQueue = {};
        for (SeqNum seq : ready)
            readyQueue.push(seq);
    }

    // Wake state is not in the image: every waiting op polls on the
    // next issue pass, as the saving run's would have.
    ar.list(waiting, "waiting ops", [&](auto &seq) {
        ar.u64(seq);
        if constexpr (Ar::loading)
            rob(seq).wakeOn = WakeOn::Due;
    });
    ar.list(completions, "completions", [&](auto &kv) {
        ar.u64(kv.first);
        ar.u64(kv.second.first);
        ar.u16(kv.second.second);
    });
    const auto seqPair = [&](auto &kv) {
        ar.u64(kv.first);
        ar.u64(kv.second);
    };
    ar.list(pendingUnlocks, "pending unlocks", seqPair);
    ar.list(memBarriers, "memory barriers", [&](auto &seq) { ar.u64(seq); });
    ar.list(fwdLockWaiters, "forwarded-lock waiters", seqPair);

    ar.list(fetchBuffer, "fetch buffer", [&](auto &op) { ar.io(op); });
    ar.u64(fetchBlockedBy);
    ar.u64(fetchBlockedUntil);
    ar.u32(iqOccupancy);
    ar.b(halted);
    ar.b(issueTruncated_);

    ar.u64(committedInsts);
    ar.u64(committedAtomicCount);
    ar.u64(iterations);

    ar.io(*stream);
}

template void Core::visit(Ser &);
template void Core::visit(Deser &);

} // namespace rowsim
