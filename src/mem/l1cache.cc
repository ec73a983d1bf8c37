#include "mem/l1cache.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"
#include "mem/memsystem.hh"
#include "sim/snapshot.hh"
#include "sim/span.hh"

namespace rowsim
{

PrivateCache::PrivateCache(CoreId core, const MemParams &p, Network *network,
                           FunctionalMemory *functional)
    : lockStealThreshold(p.lockStealThreshold), coreId(core), params(p),
      net(network), fmem(functional), l1Array(p.l1Sets, p.l1Ways),
      l2Array(p.l2Sets, p.l2Ways), stats_(strprintf("l1d%u", core))
{
}

void
PrivateCache::sendRequest(Addr line, bool exclusive, bool prefetch,
                          std::uint64_t span_id, Cycle now)
{
    Msg m;
    m.type = exclusive ? MsgType::GetX : MsgType::GetS;
    m.line = line;
    m.src = coreId;
    m.dst = net->homeBank(line);
    m.requester = coreId;
    m.spanId = span_id;
    net->send(m, now);
    if (prefetch)
        prefetchRequests_++;
    else
        demandRequests_++;
}

void
PrivateCache::completeWaiter(const MshrWaiter &w, FillSource src,
                             Cycle fill_cycle, Cycle net_issue,
                             bool contention_hint, Cycle now)
{
    if (w.isAtomic) {
        // The lock window starts the instant the exclusive line is in the
        // private cache; the core sets the AQ locked bit synchronously.
        client->atomicLineReady(w.token, lineAlign(w.addr), src, net_issue,
                                contention_hint, now);
        return;
    }
    MemResult r;
    r.token = w.token;
    r.addr = w.addr;
    r.source = src;
    r.requestCycle = w.requestCycle;
    if (w.isWrite) {
        // Permission is held right now: update the value store.
        fmem->write64(w.addr, w.writeValue);
        r.doneCycle = std::max(now + 1, fill_cycle + 1);
    } else {
        r.value = fmem->read64(w.addr);
        r.doneCycle = std::max(now, fill_cycle) + params.l1HitLatency;
    }
    dueResults.emplace(r.doneCycle, r);
}

void
PrivateCache::access(const MemAccess &a, Cycle now)
{
    const Addr line = lineAlign(a.addr);
    accesses_++;

    const CacheArray::Way l2line = l2Array.lookup(line, now);
    const bool have_perm =
        l2line && (l2line.state() == CacheState::Modified || !a.needExclusive);

    if (have_perm) {
        bool l1hit;
        const CacheArray::Way l1way = l1Array.lookupOrVictim(
            line, now, l1hit,
            [this](Addr t) { return client->lineLocked(t); });
        const FillSource src = l1hit ? FillSource::L1Hit : FillSource::L2Hit;
        const Cycle lat = l1hit ? params.l1HitLatency : params.l2HitLatency;
        if (!l1hit) {
            l1Misses_++;
            missLatency_.sample(static_cast<double>(lat));
            if (l1way)
                l1Array.fill(l1way, line, l2line.state(), now);
        } else {
            l1Hits_++;
        }

        if (a.isAtomic) {
            client->atomicLineReady(a.token, line, src, now, false, now);
        } else {
            MemResult r;
            r.token = a.token;
            r.addr = a.addr;
            r.source = src;
            r.requestCycle = now;
            if (a.isWrite) {
                fmem->write64(a.addr, a.writeValue);
                r.doneCycle = now + lat;
            } else {
                r.value = fmem->read64(a.addr);
                r.doneCycle = now + lat;
            }
            dueResults.emplace(r.doneCycle, r);
        }
        return;
    }

    // Miss (or S->M upgrade).
    l1Misses_++;
    ROWSIM_TRACE(TraceCategory::Coherence, now,
                 "l1d%u miss line=%#llx excl=%d atomic=%d", coreId,
                 static_cast<unsigned long long>(line),
                 a.needExclusive ? 1 : 0, a.isAtomic ? 1 : 0);
    // The atomic's span leaves execute here; whether the request goes
    // out now, coalesces, or waits for a free MSHR, it is in the memory
    // system either way (idempotent on drainPending re-entry).
    if (SpanTracker::enabled() && spans_ && a.spanId)
        spans_->transition(a.spanId, SpanSeg::L1Miss, now);
    MshrWaiter w;
    w.token = a.token;
    w.requestCycle = now;
    w.needExclusive = a.needExclusive;
    w.isAtomic = a.isAtomic;
    w.isWrite = a.isWrite;
    w.writeValue = a.writeValue;
    w.addr = a.addr;
    w.spanId = a.spanId;

    if (const std::size_t mi = mshrs.find(line); mi != MshrTable::npos) {
        Mshr &m = mshrs.value(mi);
        m.prefetchOnly = false;
        m.waiters.push_back(w);
        mshrCoalesced_++;
        return;
    }
    if (mshrs.size() >= params.mshrs) {
        pendingAccesses.emplace_back(a, now);
        mshrFull_++;
        return;
    }

    Mshr &m = mshrs[line];
    m.line = line;
    m.exclusiveRequested = a.needExclusive;
    m.netIssueCycle = now;
    m.waiters.push_back(w);
    sendRequest(line, a.needExclusive, false, a.spanId, now);

    if (params.prefetcher && !a.isWrite && !a.isAtomic)
        maybePrefetch(line, now);
}

void
PrivateCache::maybePrefetch(Addr line, Cycle now)
{
    const Addr next = line + lineBytes;
    if (l2Array.peek(next) != CacheState::Invalid || mshrs.contains(next) ||
        evicting.contains(next))
        return;
    if (mshrs.size() + 1 >= params.mshrs)
        return; // keep headroom for demand misses
    Mshr &m = mshrs[next];
    m.line = next;
    m.prefetchOnly = true;
    m.netIssueCycle = now;
    sendRequest(next, false, true, 0, now);
}

void
PrivateCache::evictLine(CacheArray::Way way, Cycle now)
{
    const Addr victim_line = way.tag();
    if (way.state() == CacheState::Modified) {
        evicting[victim_line] = now;
        Msg m;
        m.type = MsgType::PutM;
        m.line = victim_line;
        m.src = coreId;
        m.dst = net->homeBank(victim_line);
        m.requester = coreId;
        net->send(m, now);
        writebacks_++;
    }
    l1Array.invalidate(victim_line);
    way.clear();
}

bool
PrivateCache::installLine(Addr line, CacheState state, Cycle now)
{
    const std::function<bool(Addr)> pinned = [this](Addr t) {
        return client->lineLocked(t);
    };

    // Upgrade fills (S -> M) must update the existing entry in place;
    // installing a second copy would leave a stale Shared duplicate.
    bool hit;
    const CacheArray::Way way = l2Array.lookupOrVictim(line, now, hit, pinned);
    if (hit) {
        way.setState(state);
    } else {
        if (!way)
            return false;
        if (way.valid())
            evictLine(way, now);
        l2Array.fill(way, line, state, now);
    }

    const CacheArray::Way l1way =
        l1Array.lookupOrVictim(line, now, hit, pinned);
    if (hit)
        l1way.setState(state);
    else if (l1way)
        l1Array.fill(l1way, line, state, now);
    return true;
}

void
PrivateCache::handleFill(const Msg &msg, Cycle now)
{
    const Addr line = msg.line;
    const std::size_t mi = mshrs.find(line);
    ROWSIM_ASSERT(mi != MshrTable::npos,
                  "fill without MSHR, line %#lx core %u",
                  static_cast<unsigned long>(line), coreId);

    const CacheState state =
        msg.excl ? CacheState::Modified : CacheState::Shared;
    if (!installLine(line, state, now)) {
        deferredFills.push_back(msg);
        return;
    }

    Msg unb;
    unb.type = MsgType::Unblock;
    unb.line = line;
    unb.src = coreId;
    unb.dst = net->homeBank(line);
    unb.requester = coreId;
    unb.spanId = msg.spanId;
    net->send(unb, now);

    FillSource src = FillSource::LLCHit;
    if (msg.fromPrivateCache)
        src = FillSource::RemoteCache;
    else if (msg.fromMemory)
        src = FillSource::Memory;
    // Transfer provenance: a cache-to-cache fill means this line moved
    // between private caches (ping-pong ingredient).
    if (SpanTracker::enabled() && spans_ && msg.fromPrivateCache &&
        msg.spanId) {
        spans_->ownerSwap(msg.spanId);
    }
    ROWSIM_TRACE(TraceCategory::Coherence, now,
                 "l1d%u fill line=%#llx state=%s from=%s latency=%llu",
                 coreId, static_cast<unsigned long long>(line),
                 state == CacheState::Modified ? "M" : "S",
                 msg.fromPrivateCache ? "remote-cache"
                 : msg.fromMemory    ? "memory"
                                     : "llc",
                 static_cast<unsigned long long>(
                     now - mshrs.value(mi).netIssueCycle));

    // Taken out of the table: completeWaiter re-enters the core, whose
    // access() may insert an MSHR and move every slot.
    const Cycle netIssue = mshrs.value(mi).netIssueCycle;
    const std::vector<MshrWaiter> waiters =
        std::move(mshrs.value(mi).waiters);
    std::vector<MshrWaiter> still_waiting;
    for (const auto &w : waiters) {
        if (w.needExclusive && state == CacheState::Shared) {
            still_waiting.push_back(w);
            continue;
        }
        missLatency_.sample(static_cast<double>(now - w.requestCycle));
        if (msg.fromPrivateCache)
            remoteFills_++;
        completeWaiter(w, src, now, netIssue, msg.contentionHint, now);
    }

    if (!still_waiting.empty()) {
        // A GetS fill cannot satisfy exclusive waiters: upgrade.
        Mshr &m = mshrs.value(mshrs.find(line));
        m.waiters = std::move(still_waiting);
        m.exclusiveRequested = true;
        m.netIssueCycle = now;
        std::uint64_t sid = 0;
        for (const MshrWaiter &uw : m.waiters) {
            if (uw.spanId) {
                sid = uw.spanId;
                break;
            }
        }
        sendRequest(line, true, false, sid, now);
        return;
    }

    mshrs.erase(line);
    drainPending(now);
}

void
PrivateCache::applyExternal(const Msg &msg, Cycle now)
{
    const Addr line = msg.line;
    switch (msg.type) {
      case MsgType::Inv: {
        l1Array.invalidate(line);
        l2Array.invalidate(line);
        Msg ack;
        ack.type = MsgType::InvAck;
        ack.line = line;
        ack.src = coreId;
        ack.dst = msg.src;
        ack.requester = msg.requester;
        ack.spanId = msg.spanId;
        net->send(ack, now);
        invalidations_++;
        break;
      }
      case MsgType::FwdGetS:
      case MsgType::FwdGetX: {
        const bool excl = msg.type == MsgType::FwdGetX;
        const CacheArray::Way l2line = l2Array.lookup(line, now);
        if (l2line) {
            ROWSIM_ASSERT(l2line.state() == CacheState::Modified,
                          "forward %s to non-owner core %u, line %#lx "
                          "(state %d, mshr %d, evicting %d)",
                          msgTypeName(msg.type), coreId,
                          static_cast<unsigned long>(line),
                          static_cast<int>(l2line.state()),
                          static_cast<int>(mshrs.contains(line)),
                          static_cast<int>(evicting.contains(line)));
            if (excl) {
                l1Array.invalidate(line);
                l2Array.invalidate(line);
            } else {
                l2line.setState(CacheState::Shared);
                if (const CacheArray::Way l1line = l1Array.lookup(line, now))
                    l1line.setState(CacheState::Shared);
            }
        } else {
            // Our PutM crossed with this forward: answer from the
            // writeback buffer.
            ROWSIM_ASSERT(evicting.contains(line),
                          "forward for absent line %#lx at core %u",
                          static_cast<unsigned long>(line), coreId);
        }
        Msg data;
        data.type = MsgType::DataOwner;
        data.line = line;
        data.src = coreId;
        data.dst = msg.requester;
        data.requester = msg.requester;
        data.excl = excl;
        data.contentionHint = msg.contentionHint; // dir-notify extension
        data.fromPrivateCache = true;
        data.spanId = msg.spanId;
        net->send(data, now);
        ownerForwards_++;
        break;
      }
      default:
        ROWSIM_PANIC("applyExternal: unexpected %s", msgTypeName(msg.type));
    }
}

void
PrivateCache::deliver(const Msg &msg, Cycle now)
{
    switch (msg.type) {
      case MsgType::Data:
      case MsgType::DataExcl:
      case MsgType::DataOwner:
        handleFill(msg, now);
        break;

      case MsgType::Inv:
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
        // RoW snoop hook: EW/RW contention detection (§IV-A/B).
        client->externalRequestSnoop(msg.line, now);
        if (client->lineLocked(msg.line)) {
            stalledExternals.push_back({msg, now});
            lockStalledExternals_++;
            ROWSIM_TRACE(TraceCategory::Coherence, now,
                         "l1d%u external %s stalled on locked line=%#llx "
                         "from core%u",
                         coreId, msgTypeName(msg.type),
                         static_cast<unsigned long long>(msg.line),
                         msg.requester);
        } else {
            applyExternal(msg, now);
        }
        break;

      case MsgType::WBAck:
        evicting.erase(msg.line);
        break;

      default:
        ROWSIM_PANIC("private cache cannot handle %s",
                     msgTypeName(msg.type));
    }
}

void
PrivateCache::unlockNotify(Addr line, Cycle now)
{
    for (auto it = stalledExternals.begin(); it != stalledExternals.end();) {
        if (it->msg.line == line && !client->lineLocked(line)) {
            Msg m = it->msg;
            const Cycle arrival = it->arrival;
            it = stalledExternals.erase(it);
            lockStallCycles_.sample(static_cast<double>(now - m.sent));
            // The victim span (the remote requester this Fwd/Inv serves)
            // spent [arrival, now] against our AQ lock.
            if (SpanTracker::enabled() && spans_ && m.spanId)
                spans_->lockStall(m.spanId, arrival, now);
            ROWSIM_TRACE_COMPLETE(
                TraceCategory::Coherence, static_cast<int>(coreId),
                traceTidCache, "lockStall", arrival, now,
                strprintf("{\"line\":\"%#llx\",\"type\":\"%s\","
                          "\"requester\":%u}",
                          static_cast<unsigned long long>(m.line),
                          msgTypeName(m.type), m.requester));
            applyExternal(m, now);
        } else {
            ++it;
        }
    }
}

void
PrivateCache::drainPending(Cycle now)
{
    while (!pendingAccesses.empty() && mshrs.size() < params.mshrs) {
        auto [a, req_cycle] = pendingAccesses.front();
        pendingAccesses.pop_front();
        (void)req_cycle; // conservatively re-time from now
        access(a, now);
    }
}

void
PrivateCache::tick(Cycle now)
{
    while (!dueResults.empty() && dueResults.begin()->first <= now) {
        MemResult r = dueResults.begin()->second;
        dueResults.erase(dueResults.begin());
        client->accessDone(r);
    }

    if (!deferredFills.empty()) {
        std::vector<Msg> retry;
        retry.swap(deferredFills);
        for (const auto &msg : retry)
            handleFill(msg, now);
    }

    if (!stalledExternals.empty()) {
        for (auto it = stalledExternals.begin();
             it != stalledExternals.end();) {
            if (now - it->arrival > lockStealThreshold)
                stealAttempts_++;
            if (now - it->arrival > lockStealThreshold &&
                client->tryForceUnlock(it->msg.line, now)) {
                Msg m = it->msg;
                const Cycle arrival = it->arrival;
                it = stalledExternals.erase(it);
                lockSteals_++;
                if (SpanTracker::enabled() && spans_ && m.spanId)
                    spans_->lockStall(m.spanId, arrival, now);
                ROWSIM_TRACE(TraceCategory::Coherence, now,
                             "l1d%u lock steal line=%#llx after %llu "
                             "stalled cycles (requester core%u)",
                             coreId,
                             static_cast<unsigned long long>(m.line),
                             static_cast<unsigned long long>(now - arrival),
                             m.requester);
                ROWSIM_TRACE_INSTANT(
                    TraceCategory::Coherence, static_cast<int>(coreId),
                    traceTidCache, "lockSteal", now,
                    strprintf("{\"line\":\"%#llx\",\"requester\":%u}",
                              static_cast<unsigned long long>(m.line),
                              m.requester));
                applyExternal(m, now);
            } else {
                ++it;
            }
        }
    }
}

bool
PrivateCache::idle() const
{
    return mshrs.empty() && dueResults.empty() && pendingAccesses.empty() &&
           evicting.empty() && stalledExternals.empty() &&
           deferredFills.empty();
}

Cycle
PrivateCache::nextEventCycle(Cycle now) const
{
    // Deferred fills are retried every tick until a victim frees up.
    if (!deferredFills.empty())
        return now + 1;
    Cycle next = invalidCycle;
    auto consider = [&](Cycle c) {
        if (c < next)
            next = c;
    };
    if (!dueResults.empty())
        consider(std::max(dueResults.begin()->first, now + 1));
    // A stalled external becomes actionable the first tick strictly past
    // the steal threshold; from then on the steal-attempt counter ticks
    // every cycle, so the bound collapses to now+1 (no skipping while a
    // steal is being attempted — the per-tick stat must keep advancing).
    for (const auto &s : stalledExternals)
        consider(std::max(s.arrival + lockStealThreshold + 1, now + 1));
    return next;
}

bool
PrivateCache::forceEvict(Addr line, Cycle now)
{
    line = lineAlign(line);
    const CacheArray::Way way = l2Array.lookup(line, now);
    if (!way || client->lineLocked(line) || mshrs.contains(line) ||
        evicting.contains(line)) {
        return false;
    }
    evictLine(way, now);
    forcedEvictions_++;
    ROWSIM_TRACE(TraceCategory::Coherence, now,
                 "l1d%u fault-injected eviction line=%#llx", coreId,
                 static_cast<unsigned long long>(line));
    return true;
}

void
PrivateCache::testSetLineState(Addr line, CacheState state, Cycle now)
{
    line = lineAlign(line);
    bool hit;
    const CacheArray::Way way = l2Array.lookupOrVictim(line, now, hit);
    if (hit) {
        way.setState(state);
        return;
    }
    if (way.valid())
        evictLine(way, now);
    l2Array.fill(way, line, state, now);
}

void
PrivateCache::funcInstall(Addr line, CacheState state, Cycle now,
                          std::vector<Addr> *evicted_dirty)
{
    line = lineAlign(line);
    bool hit;
    const CacheArray::Way way = l2Array.lookupOrVictim(line, now, hit);
    if (hit) {
        way.setState(state);
    } else {
        if (way.valid()) {
            if (way.state() == CacheState::Modified && evicted_dirty)
                evicted_dirty->push_back(way.tag());
            l1Array.invalidate(way.tag());
        }
        l2Array.fill(way, line, state, now);
    }

    const CacheArray::Way l1way = l1Array.lookupOrVictim(line, now, hit);
    if (hit)
        l1way.setState(state);
    else
        l1Array.fill(l1way, line, state, now);
}

CacheState
PrivateCache::funcDropLine(Addr line)
{
    line = lineAlign(line);
    const CacheState was = l2Array.invalidate(line);
    if (was != CacheState::Invalid)
        l1Array.invalidate(line);
    return was;
}

bool
PrivateCache::funcDowngrade(Addr line, Cycle now)
{
    line = lineAlign(line);
    const CacheArray::Way present = l2Array.lookup(line, now);
    if (!present)
        return false;
    present.setState(CacheState::Shared);
    if (const CacheArray::Way l1present = l1Array.lookup(line, now))
        l1present.setState(CacheState::Shared);
    return true;
}

void
PrivateCache::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out,
                 "{\"cache\":\"l1d%u\",\"idle\":%s,\"mshrs\":[", coreId,
                 idle() ? "true" : "false");
    bool first = true;
    forEachMshr([&](Addr line, const Mshr &m) {
        std::fprintf(out,
                     "%s{\"line\":\"%#llx\",\"excl\":%d,\"prefetch\":%d,"
                     "\"waiters\":%zu,\"age\":%llu}",
                     first ? "" : ",", static_cast<unsigned long long>(line),
                     m.exclusiveRequested ? 1 : 0, m.prefetchOnly ? 1 : 0,
                     m.waiters.size(),
                     static_cast<unsigned long long>(now - m.netIssueCycle));
        first = false;
    });
    std::fprintf(out, "],\"evicting\":[");
    first = true;
    forEachEvicting([&](Addr line, Cycle since) {
        std::fprintf(out, "%s{\"line\":\"%#llx\",\"age\":%llu}",
                     first ? "" : ",", static_cast<unsigned long long>(line),
                     static_cast<unsigned long long>(now - since));
        first = false;
    });
    std::fprintf(out, "],\"stalledExternals\":[");
    first = true;
    for (const auto &s : stalledExternals) {
        std::fprintf(out,
                     "%s{\"type\":\"%s\",\"line\":\"%#llx\","
                     "\"requester\":%u,\"age\":%llu}",
                     first ? "" : ",", msgTypeName(s.msg.type),
                     static_cast<unsigned long long>(s.msg.line),
                     s.msg.requester,
                     static_cast<unsigned long long>(now - s.arrival));
        first = false;
    }
    std::fprintf(out,
                 "],\"pendingAccesses\":%zu,\"deferredFills\":%zu,"
                 "\"dueResults\":%zu}",
                 pendingAccesses.size(), deferredFills.size(),
                 dueResults.size());
}

CacheState
PrivateCache::lineState(Addr line) const
{
    return l2Array.peek(line);
}

bool
PrivateCache::inL1(Addr line) const
{
    return l1Array.peek(line) != CacheState::Invalid;
}

template <class Ar>
void
PrivateCache::visit(Ar &ar)
{
    ar.section("l1cache");
    ar.io(l1Array);
    ar.io(l2Array);

    ar.table(mshrs, "MSHRs", [&](auto &line, auto &m) {
        ar.u64(line);
        ar.io(m);
    });
    ar.list(pendingAccesses, "pending accesses", [&](auto &p) {
        ar.io(p.first);
        ar.u64(p.second);
    });
    ar.table(evicting, "evicting lines", [&](auto &line, auto &since) {
        ar.u64(line);
        ar.u64(since);
    });
    ar.list(stalledExternals, "stalled externals", [&](auto &e) {
        ar.io(e.msg);
        ar.u64(e.arrival);
    });
    ar.list(deferredFills, "deferred fills", [&](auto &m) { ar.io(m); });
    ar.list(dueResults, "due results", [&](auto &kv) {
        ar.u64(kv.first);
        ar.io(kv.second);
    });

    ar.u64(lockStealThreshold);
}

template void PrivateCache::visit(Ser &);
template void PrivateCache::visit(Deser &);

} // namespace rowsim
