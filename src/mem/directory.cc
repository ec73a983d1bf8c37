#include "mem/directory.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"
#include "sim/span.hh"

namespace rowsim
{

namespace
{
std::uint64_t
coreBit(CoreId c)
{
    return 1ULL << c;
}

/** 2^64 / golden ratio: multiplicative hash of a line number. Lines of
 *  one bank share their low line-number bits (homeBank is lineNum modulo
 *  the core count), so the table index comes from the product's top
 *  bits, which every line-number bit feeds. */
constexpr std::uint64_t fibonacciHash = 0x9E3779B97F4A7C15ULL;
/** Smallest non-empty line table. */
constexpr std::size_t minTableSlots = 16;
constexpr std::size_t npos = ~std::size_t{0};
} // namespace

Directory::Directory(unsigned bank_index, unsigned num_cores,
                     const MemParams &p, Network *network)
    : bankIndex(bank_index), numCores(num_cores),
      myNode(num_cores + bank_index), params(p), net(network),
      llcArray(p.l3SetsPerBank, p.l3Ways),
      stats_(strprintf("dir%u", bank_index))
{
    ROWSIM_ASSERT(num_cores <= 64, "sharer bitmask supports <= 64 cores");
}

void
Directory::sendToCore(MsgType t, Addr line, CoreId core, CoreId requester,
                      Cycle now, bool excl, bool from_memory,
                      bool contention_hint, std::uint64_t span_id)
{
    Msg m;
    m.type = t;
    m.line = line;
    m.src = myNode;
    m.dst = core;
    m.requester = requester;
    m.excl = excl;
    m.fromMemory = from_memory;
    m.contentionHint = contention_hint;
    m.fromPrivateCache = false;
    m.spanId = span_id;
    net->send(m, now);
}

Cycle
Directory::dataLatency(Addr line, Cycle now, bool &from_memory)
{
    if (touchLlc(line, now)) {
        from_memory = false;
        return params.l3HitLatency;
    }
    // Fetched from memory, presence installed.
    from_memory = true;
    llcMisses_++;
    return params.l3HitLatency + params.memoryLatency;
}

std::size_t
Directory::probe(Addr line) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = (lineNum(line) * fibonacciHash) >> hashShift;
    while (slots[i].line != line && slots[i].line != invalidAddr)
        i = (i + 1) & mask;
    return i;
}

std::size_t
Directory::find(Addr line) const
{
    if (slots.empty())
        return npos;
    const std::size_t si = probe(line);
    return slots[si].line == line ? si : npos;
}

std::size_t
Directory::findOrInsert(Addr line)
{
    if ((usedSlots + 1) * 4 > slots.size() * 3)
        resizeTable(std::max(minTableSlots, slots.size() * 2));
    const std::size_t si = probe(line);
    if (slots[si].line != line) {
        slots[si].line = line;
        usedSlots++;
    }
    return si;
}

void
Directory::resizeTable(std::size_t capacity)
{
    std::vector<Slot> old(capacity);
    old.swap(slots);
    hashShift = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot &sl : old) {
        if (sl.line != invalidAddr)
            slots[probe(sl.line)] = sl;
    }
}

std::uint32_t
Directory::recordFor(std::size_t si)
{
    if (slots[si].txn == noTxn) {
        ROWSIM_ASSERT(txns.size() < noTxn, "transaction records exhausted");
        slots[si].txn = static_cast<std::uint32_t>(txns.size());
        txns.emplace_back();
    }
    return slots[si].txn;
}

Msg
Directory::dataMsgOf(Addr line, const Txn &t) const
{
    Msg m;
    if (t.dataType == MsgType::GetS)
        return m;
    m.type = t.dataType;
    m.line = line;
    m.src = myNode;
    m.dst = t.dataDst;
    m.requester = t.dataDst;
    m.excl = t.dataType == MsgType::DataExcl;
    m.fromMemory = t.dataFromMemory;
    m.contentionHint = t.dataContentionHint;
    m.spanId = t.spanId;
    return m;
}

void
Directory::maybeSendData(std::size_t si, Cycle now)
{
    const Slot &sl = slots[si];
    Txn &t = txns[sl.txn];
    if (!t.dataPending || t.pendingAcks > 0)
        return;
    if (t.dataReady > now) {
        wake.emplace(t.dataReady, sl.line);
        return;
    }
    net->send(dataMsgOf(sl.line, t), now);
    t.dataPending = false;
}

void
Directory::processRequest(std::size_t si, const Msg &msg, Cycle now,
                          bool was_queued)
{
    Txn &t = txns[recordFor(si)];
    Slot &e = slots[si];
    ROWSIM_ASSERT(e.state != DirState::Blocked,
                  "processRequest on blocked entry");
    const Addr line = msg.line;
    const CoreId req = msg.requester;
    // Directory-notification extension: a request that had to queue, or
    // that leaves others queued behind it, observed contention.
    const bool hint = was_queued || !t.queued.empty();

    switch (msg.type) {
      case MsgType::GetS:
        getS_++;
        if (e.state == DirState::Invalid || e.state == DirState::Shared) {
            bool from_mem = false;
            Cycle lat = dataLatency(line, now, from_mem);
            t.nextState = DirState::Shared;
            t.nextSharers = e.sharers | coreBit(req);
            t.nextOwner = invalidCore;
            t.dataType = MsgType::Data;
            t.dataDst = req;
            t.dataFromMemory = from_mem;
            t.dataContentionHint = hint;
            t.dataPending = true;
            t.dataReady = now + lat;
            t.pendingAcks = 0;
        } else { // Modified: forward to owner
            if (oracle)
                oracle(line, req, e.owner, false, now);
            fwdGetS_++;
            sendToCore(MsgType::FwdGetS, line, e.owner, req, now, false,
                       false, hint, msg.spanId);
            t.nextState = DirState::Shared;
            t.nextSharers = coreBit(e.owner) | coreBit(req);
            t.nextOwner = invalidCore;
            t.dataPending = false;
        }
        break;

      case MsgType::GetX:
        getX_++;
        if (e.state == DirState::Modified) {
            ROWSIM_ASSERT(e.owner != req,
                          "GetX from current owner, line %#lx",
                          static_cast<unsigned long>(line));
            if (oracle)
                oracle(line, req, e.owner, false, now);
            fwdGetX_++;
            sendToCore(MsgType::FwdGetX, line, e.owner, req, now, false,
                       false, hint, msg.spanId);
            t.nextState = DirState::Modified;
            t.nextOwner = req;
            t.nextSharers = 0;
            t.dataPending = false;
        } else {
            bool from_mem = false;
            Cycle lat = dataLatency(line, now, from_mem);
            unsigned acks = 0;
            if (e.state == DirState::Shared) {
                for (CoreId c = 0; c < numCores; c++) {
                    if (c != req && (e.sharers & coreBit(c))) {
                        if (oracle)
                            oracle(line, req, c, false, now);
                        sendToCore(MsgType::Inv, line, c, req, now, false,
                                   false, false, msg.spanId);
                        acks++;
                    }
                }
            }
            t.nextState = DirState::Modified;
            t.nextOwner = req;
            t.nextSharers = 0;
            t.dataType = MsgType::DataExcl;
            t.dataDst = req;
            t.dataFromMemory = from_mem;
            t.dataContentionHint = hint || acks > 0;
            t.dataPending = true;
            t.dataReady = now + lat;
            t.pendingAcks = acks;
        }
        break;

      default:
        ROWSIM_PANIC("unexpected request %s at directory",
                     msgTypeName(msg.type));
    }

    e.state = DirState::Blocked;
    t.requester = req;
    t.spanId = msg.spanId;
    t.blockedSince = now;
    blockedLines++;
    ROWSIM_TRACE(TraceCategory::Directory, now,
                 "dir%u block line=%#llx %s from core%u queued=%zu",
                 bankIndex, static_cast<unsigned long long>(line),
                 msgTypeName(msg.type), req, t.queued.size());
    maybeSendData(si, now);
}

void
Directory::finishTxn(std::size_t si, Cycle now)
{
    const std::uint32_t ti = recordFor(si);
    Slot &e = slots[si];
    Txn &t = txns[ti];
    const Addr line = e.line;
    ROWSIM_ASSERT(e.state == DirState::Blocked,
                  "Unblock on unblocked line %#lx",
                  static_cast<unsigned long>(line));
    if (t.blockedSince != invalidCycle) {
        // The transaction's own Blocked residency, attributed causally
        // to the requesting atomic's span.
        if (SpanTracker::enabled() && spans_ && t.spanId)
            spans_->dirBlockedWindow(t.spanId, t.blockedSince, now);
        // Async span: several lines can be Blocked at one bank at once.
        ROWSIM_TRACE_SPAN(
            TraceCategory::Directory,
            tracePidDirBase + static_cast<int>(bankIndex), 0, "blocked",
            line, t.blockedSince, now,
            strprintf("{\"line\":\"%#llx\",\"requester\":%u,\"queued\":%zu}",
                      static_cast<unsigned long long>(line), t.requester,
                      t.queued.size()));
        ROWSIM_TRACE(TraceCategory::Directory, now,
                     "dir%u unblock line=%#llx blocked=%llu queued=%zu",
                     bankIndex, static_cast<unsigned long long>(line),
                     static_cast<unsigned long long>(now - t.blockedSince),
                     t.queued.size());
        t.blockedSince = invalidCycle;
    }
    e.state = t.nextState;
    e.owner = t.nextOwner;
    e.sharers = t.nextSharers;
    t.requester = invalidCore;
    t.spanId = 0;
    ROWSIM_ASSERT(blockedLines > 0, "blockedLines underflow");
    blockedLines--;

    // Each step may re-enter deliver(), so the slot and record are
    // looked up afresh every iteration instead of held by reference.
    while (!txns[ti].queued.empty() && slots[si].state != DirState::Blocked) {
        std::vector<Msg> &queued = txns[ti].queued;
        const Msg next = queued.front();
        queued.erase(queued.begin());
        if (SpanTracker::enabled() && spans_ && next.spanId)
            spans_->dirDequeued(next.spanId, now);
        if (next.type == MsgType::PutM) {
            // Crossed eviction: handle with the now-current state.
            deliver(next, now);
            si = find(line);
        } else {
            processRequest(si, next, now, true);
        }
    }
}

void
Directory::deliver(const Msg &msg, Cycle now)
{
    // Fault injection: a stalled bank buffers every delivery. The buffer
    // also intercepts new arrivals while a drain is in progress so that
    // arrival order (and thus point-to-point ordering) is preserved.
    if (now < stalledUntil || !stallBuffer.empty()) {
        stallBuffer.push_back(msg);
        return;
    }

    const std::size_t si = findOrInsert(msg.line);
    Slot &e = slots[si];

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
        if (e.state == DirState::Blocked) {
            Txn &t = txns[recordFor(si)];
            // Definite concurrent interest: oracle sees both the pending
            // requester/owner and the newcomer.
            if (oracle) {
                oracle(msg.line, msg.requester, t.requester, true, now);
                if (e.owner != invalidCore && e.owner != msg.requester)
                    oracle(msg.line, msg.requester, e.owner, true, now);
            }
            // Notify the in-flight transaction's requester (extension):
            // the newcomer proves concurrent interest.
            if (t.dataPending)
                t.dataContentionHint = true;
            t.queued.push_back(msg);
            if (SpanTracker::enabled() && spans_ && msg.spanId)
                spans_->dirQueued(msg.spanId, now, t.queued.size());
            queuedRequests_++;
            queueDepth_.sample(static_cast<double>(t.queued.size()));
            ROWSIM_TRACE(TraceCategory::Directory, now,
                         "dir%u queue line=%#llx %s from core%u depth=%zu",
                         bankIndex,
                         static_cast<unsigned long long>(msg.line),
                         msgTypeName(msg.type), msg.requester,
                         t.queued.size());
        } else {
            processRequest(si, msg, now);
        }
        break;

      case MsgType::PutM: {
        CoreId evictor = static_cast<CoreId>(msg.src);
        if (e.state == DirState::Modified && e.owner == evictor) {
            // Clean writeback: data now lives in the LLC.
            touchLlc(msg.line, now);
            e.state = DirState::Invalid;
            e.owner = invalidCore;
            e.sharers = 0;
            writebacks_++;
        } else {
            // Crossed with an in-flight transaction; ownership already
            // moved (or is moving). Ack without touching state.
            staleWritebacks_++;
        }
        sendToCore(MsgType::WBAck, msg.line, evictor, evictor, now);
        break;
      }

      case MsgType::InvAck: {
        Txn *t = e.txn == noTxn ? nullptr : &txns[e.txn];
        ROWSIM_ASSERT(e.state == DirState::Blocked && t &&
                          t->pendingAcks > 0,
                      "stray InvAck for line %#lx",
                      static_cast<unsigned long>(msg.line));
        t->pendingAcks--;
        maybeSendData(si, now);
        break;
      }

      case MsgType::Unblock:
        finishTxn(si, now);
        break;

      default:
        ROWSIM_PANIC("directory cannot handle %s", msgTypeName(msg.type));
    }
}

void
Directory::tick(Cycle now)
{
    if (stalledUntil != 0 && now >= stalledUntil) {
        // Swap to a local queue first: deliver() re-buffers while the
        // member buffer is non-empty (ordering), which would recurse.
        std::deque<Msg> drain;
        drain.swap(stallBuffer);
        stalledUntil = 0;
        for (const Msg &m : drain)
            deliver(m, now);
    }

    while (!wake.empty() && wake.begin()->first <= now) {
        Addr line = wake.begin()->second;
        wake.erase(wake.begin());
        const std::size_t si = find(line);
        if (si != npos && slots[si].state == DirState::Blocked &&
            slots[si].txn != noTxn)
            maybeSendData(si, now);
    }
}

bool
Directory::idle() const
{
    return blockedLines == 0 && wake.empty() && stallBuffer.empty();
}

Cycle
Directory::nextEventCycle(Cycle now) const
{
    Cycle next = invalidCycle;
    if (stalledUntil != 0)
        next = std::max(stalledUntil, now + 1);
    if (!wake.empty())
        next = std::min(next, std::max(wake.begin()->first, now + 1));
    return next;
}

void
Directory::injectStall(Cycle until)
{
    if (until > stalledUntil)
        stalledUntil = until;
    injectedStalls_++;
}

void
Directory::testSetLine(Addr line, DirState state, CoreId owner,
                       std::uint64_t sharers)
{
    Slot &e = slots[findOrInsert(lineAlign(line))];
    if (e.state == DirState::Blocked && state != DirState::Blocked) {
        ROWSIM_ASSERT(blockedLines > 0, "blockedLines underflow");
        blockedLines--;
    } else if (e.state != DirState::Blocked && state == DirState::Blocked) {
        blockedLines++;
    }
    e.state = state;
    e.owner = owner;
    e.sharers = sharers;
}

Directory::StableLine
Directory::stableLine(Addr line) const
{
    const std::size_t si = find(lineAlign(line));
    if (si == npos)
        return {};
    const Slot &e = slots[si];
    return {e.state, e.owner, e.sharers};
}

void
Directory::funcSetLine(Addr line, DirState state, CoreId owner,
                       std::uint64_t sharers)
{
    line = lineAlign(line);
    Slot &e = slots[findOrInsert(line)];
    ROWSIM_ASSERT(e.state != DirState::Blocked,
                  "funcSetLine on in-flight line %#lx",
                  static_cast<unsigned long>(line));
    e.state = state;
    e.owner = owner;
    e.sharers = sharers;
}

void
Directory::funcWriteback(Addr line, CoreId evictor, Cycle now)
{
    line = lineAlign(line);
    Slot &e = slots[findOrInsert(line)];
    ROWSIM_ASSERT(e.state != DirState::Blocked,
                  "funcWriteback on in-flight line %#lx",
                  static_cast<unsigned long>(line));
    if (e.state == DirState::Modified && e.owner == evictor) {
        touchLlc(line, now);
        e.state = DirState::Invalid;
        e.owner = invalidCore;
        e.sharers = 0;
    }
}

void
Directory::funcTouchLlc(Addr line, Cycle now)
{
    touchLlc(lineAlign(line), now);
}

bool
Directory::touchLlc(Addr line, Cycle now)
{
    bool hit;
    const CacheArray::Way way = llcArray.lookupOrVictim(line, now, hit);
    if (!hit)
        llcArray.fill(way, line, CacheState::Shared, now);
    return hit;
}

void
Directory::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out,
                 "{\"dir\":\"dir%u\",\"blocked\":%u,\"stallBuffer\":%zu,"
                 "\"blockedLines\":[",
                 bankIndex, blockedLines, stallBuffer.size());
    // Ascending line order: the listing must not depend on table layout.
    std::vector<std::pair<Addr, std::size_t>> blocked;
    for (std::size_t si = 0; si < slots.size(); si++) {
        if (slots[si].line != invalidAddr &&
            slots[si].state == DirState::Blocked)
            blocked.emplace_back(slots[si].line, si);
    }
    std::sort(blocked.begin(), blocked.end());
    const Txn idleTxn;
    bool first = true;
    for (const auto &[line, si] : blocked) {
        const std::uint32_t ti = slots[si].txn;
        const Txn &t = ti == noTxn ? idleTxn : txns[ti];
        std::fprintf(out,
                     "%s{\"line\":\"%#llx\",\"requester\":%u,"
                     "\"pendingAcks\":%u,\"dataPending\":%d,"
                     "\"queued\":%zu,\"blockedFor\":%llu}",
                     first ? "" : ",", static_cast<unsigned long long>(line),
                     t.requester, t.pendingAcks, t.dataPending ? 1 : 0,
                     t.queued.size(),
                     static_cast<unsigned long long>(
                         t.blockedSince == invalidCycle
                             ? 0
                             : now - t.blockedSince));
        first = false;
    }
    std::fprintf(out, "]}");
}

DirState
Directory::lineState(Addr line) const
{
    const std::size_t si = find(lineAlign(line));
    return si == npos ? DirState::Invalid : slots[si].state;
}

CoreId
Directory::lineOwner(Addr line) const
{
    const std::size_t si = find(lineAlign(line));
    return si == npos ? invalidCore : slots[si].owner;
}

void
Directory::save(Ser &s) const
{
    s.section("directory");
    s.u32(bankIndex);

    // A record with every transaction field at its default — in
    // practice a line that never had a record — serializes as a 1-byte
    // flag plus owner/sharers instead of the full ~100-byte transaction
    // record. Every line a functional run touches is quiescent. A
    // detail transaction is not, even after its Unblock: finishTxn
    // clears only the requester, span and Blocked stamp, so the
    // finished transaction's next-state and data-reply fields stay in
    // the record and in the image (every record of a drained detail
    // run). Dropping those leftovers would change the digested bytes.
    const auto quiescent = [](const Txn &t) {
        return t.requester == invalidCore &&
               t.nextState == DirState::Invalid &&
               t.nextOwner == invalidCore && t.nextSharers == 0 &&
               t.pendingAcks == 0 && t.dataReady == invalidCycle &&
               !t.dataPending && t.dataType == MsgType::GetS &&
               t.blockedSince == invalidCycle && t.queued.empty();
    };

    // Sorted line order: images must not depend on the table layout.
    std::vector<KeyedWord> sorted;
    sorted.reserve(usedSlots);
    for (std::size_t si = 0; si < slots.size(); si++) {
        if (slots[si].line != invalidAddr)
            sorted.emplace_back(slots[si].line, si);
    }
    sortByKey(sorted);
    s.u64(sorted.size());
    Addr prevLine = 0;
    for (const auto &[line, si] : sorted) {
        const Slot &e = slots[si];
        s.vu64(line - prevLine);
        prevLine = line;
        // Flag byte: stable-state number, top bit = quiescent (no
        // transaction record follows). Owner travels +1 so invalidCore
        // (u32 max) encodes as a single zero byte.
        const bool quiet = e.txn == noTxn || quiescent(txns[e.txn]);
        s.u8(static_cast<std::uint8_t>(e.state) | (quiet ? 0x80 : 0));
        s.vu64(e.sharers);
        s.vu64(e.owner == invalidCore ? 0 : e.owner + 1ULL);
        if (quiet)
            continue;
        const Txn &t = txns[e.txn];
        s.u32(t.requester);
        s.u8(static_cast<std::uint8_t>(t.nextState));
        s.u32(t.nextOwner);
        s.u64(t.nextSharers);
        s.u32(t.pendingAcks);
        s.u64(t.dataReady);
        s.b(t.dataPending);
        s.io(dataMsgOf(line, t));
        s.u64(t.blockedSince);
        s.list(t.queued, "queued requests", [&](auto &m) { s.io(m); });
    }

    s.list(wake, "wake-ups", [&](auto &kv) {
        s.u64(kv.first);
        s.u64(kv.second);
    });
    s.list(stallBuffer, "stall buffer", [&](auto &m) { s.io(m); });
    s.u64(stalledUntil);

    llcArray.save(s);
    s.u32(blockedLines);
}

void
Directory::restore(Deser &d)
{
    d.section("directory");
    const std::uint32_t bank = d.u32();
    if (bank != bankIndex) {
        throw SnapshotError(strprintf(
            "directory bank mismatch: image bank %u restored into bank "
            "%u",
            bank, bankIndex));
    }

    // An entry takes at least 4 bytes (gap, flag, sharers, owner).
    const std::uint64_t nEntries = d.u64();
    if (nEntries > d.remaining() / 4) {
        throw SnapshotError(strprintf(
            "directory bank %u: %llu entries cannot fit in %zu bytes",
            bankIndex, static_cast<unsigned long long>(nEntries),
            d.remaining()));
    }
    // Sized once for the whole image: the inserts below never grow it.
    slots.clear();
    usedSlots = 0;
    txns.clear();
    std::size_t capacity = minTableSlots;
    while (nEntries * 4 > capacity * 3)
        capacity *= 2;
    resizeTable(capacity);

    Addr prevLine = 0;
    for (std::uint64_t i = 0; i < nEntries; i++) {
        // Lines strictly ascend: a zero gap repeats a line, and a gap
        // that wraps past 2^64 lands on or before an earlier one (or on
        // invalidAddr, the empty-slot marker).
        const std::uint64_t gap = d.vu64();
        if (i > 0 && gap == 0) {
            throw SnapshotError(strprintf(
                "directory bank %u line %#llx repeated", bankIndex,
                static_cast<unsigned long long>(prevLine)));
        }
        if (gap >= invalidAddr - prevLine) {
            throw SnapshotError(strprintf(
                "directory bank %u line gap %#llx after line %#llx wraps",
                bankIndex, static_cast<unsigned long long>(gap),
                static_cast<unsigned long long>(prevLine)));
        }
        const Addr line = prevLine + gap;
        prevLine = line;
        // Flag byte from save(): low bits = stable state, top bit =
        // quiescent (no transaction record).
        const std::uint8_t flag = d.u8();
        if ((flag & 0x7f) > static_cast<std::uint8_t>(DirState::Blocked))
            throw SnapshotError("corrupted directory state byte");
        const std::uint64_t sharers = d.vu64();
        const std::uint64_t owner = d.vu64();
        const std::size_t si = findOrInsert(line);
        slots[si].state = static_cast<DirState>(flag & 0x7f);
        slots[si].sharers = sharers;
        slots[si].owner = owner == 0 ? invalidCore
                                     : static_cast<CoreId>(owner - 1);
        if (flag & 0x80)
            continue;
        Txn &t = txns[recordFor(si)];
        t.requester = d.u32();
        d.enumByte(t.nextState, DirState::Blocked, "directory next state");
        t.nextOwner = d.u32();
        t.nextSharers = d.u64();
        t.pendingAcks = d.u32();
        t.dataReady = d.u64();
        t.dataPending = d.b();
        Msg data;
        d.io(data);
        t.dataType = data.type;
        t.dataDst = data.dst;
        t.dataFromMemory = data.fromMemory;
        t.dataContentionHint = data.contentionHint;
        // The record keeps only the reply's variable fields; an image
        // whose reply the directory could not have built is corrupt.
        const Msg built = dataMsgOf(line, t);
        if (built.type != data.type || built.line != data.line ||
            built.src != data.src || built.dst != data.dst ||
            built.requester != data.requester ||
            built.fromPrivateCache != data.fromPrivateCache ||
            built.excl != data.excl || built.fromMemory != data.fromMemory ||
            built.contentionHint != data.contentionHint ||
            built.sent != data.sent) {
            throw SnapshotError(strprintf(
                "directory bank %u line %#llx: malformed data reply",
                bankIndex, static_cast<unsigned long long>(line)));
        }
        t.blockedSince = d.u64();
        d.list(t.queued, "queued requests", [&](auto &m) { d.io(m); });
    }

    d.list(wake, "wake-ups", [&](auto &kv) {
        d.u64(kv.first);
        d.u64(kv.second);
    });
    d.list(stallBuffer, "stall buffer", [&](auto &m) { d.io(m); });
    stalledUntil = d.u64();

    llcArray.restore(d);
    blockedLines = d.u32();
}

} // namespace rowsim
