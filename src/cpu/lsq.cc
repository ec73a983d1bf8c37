#include "cpu/lsq.hh"

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

LoadQueue::LoadQueue(unsigned entries) : capacity(entries), slots(entries)
{
    ROWSIM_ASSERT(entries > 0, "LQ needs at least one entry");
}

unsigned
LoadQueue::allocate(SeqNum seq, bool is_atomic)
{
    ROWSIM_ASSERT(!full(), "LQ allocate when full");
    unsigned idx = tailIdx;
    LqEntry &e = slots[idx];
    e = LqEntry{};
    e.valid = true;
    e.seq = seq;
    e.isAtomic = is_atomic;
    tailIdx = (tailIdx + 1) % capacity;
    count++;
    ROWSIM_TRACE_AT(TraceCategory::Queue, "lq alloc seq=%llu occ=%u/%u",
                    static_cast<unsigned long long>(seq), count, capacity);
    return idx;
}

void
LoadQueue::freeHead(SeqNum seq)
{
    ROWSIM_ASSERT(!empty(), "LQ freeHead on empty queue");
    LqEntry &e = slots[headIdx];
    ROWSIM_ASSERT(e.seq == seq, "LQ dealloc out of order");
    e.valid = false;
    headIdx = (headIdx + 1) % capacity;
    count--;
    ROWSIM_TRACE_AT(TraceCategory::Queue, "lq free seq=%llu occ=%u/%u",
                    static_cast<unsigned long long>(seq), count, capacity);
}

SeqNum
LoadQueue::oldestSeq() const
{
    return count == 0 ? 0 : slots[headIdx].seq;
}

bool
LoadQueue::isOldest(SeqNum seq) const
{
    return count > 0 && slots[headIdx].seq == seq;
}

StoreQueue::StoreQueue(unsigned entries) : capacity(entries), slots(entries)
{
    ROWSIM_ASSERT(entries > 0, "SQ needs at least one entry");
}

unsigned
StoreQueue::allocate(SeqNum seq, bool is_atomic)
{
    ROWSIM_ASSERT(!full(), "SQ allocate when full");
    unsigned idx = tailIdx;
    SqEntry &e = slots[idx];
    e = SqEntry{};
    e.valid = true;
    e.seq = seq;
    e.isAtomic = is_atomic;
    tailIdx = (tailIdx + 1) % capacity;
    count++;
    ROWSIM_TRACE_AT(TraceCategory::Queue, "sq alloc seq=%llu occ=%u/%u",
                    static_cast<unsigned long long>(seq), count, capacity);
    return idx;
}

void
StoreQueue::freeHead(SeqNum seq)
{
    ROWSIM_ASSERT(!empty(), "SQ freeHead on empty queue");
    SqEntry &e = slots[headIdx];
    ROWSIM_ASSERT(e.seq == seq, "SQ dealloc out of order");
    e.valid = false;
    headIdx = (headIdx + 1) % capacity;
    count--;
    ROWSIM_TRACE_AT(TraceCategory::Queue, "sq free seq=%llu occ=%u/%u",
                    static_cast<unsigned long long>(seq), count, capacity);
}

SqEntry *
StoreQueue::headEntry()
{
    return count == 0 ? nullptr : &slots[headIdx];
}

SqEntry *
StoreQueue::forwardSource(SeqNum seq, Addr addr, bool &unknown_older)
{
    unknown_older = false;
    const Addr word = wordAlign(addr);
    // Scan youngest -> oldest, stopping at the first (youngest) match.
    for (unsigned i = 0, idx = (tailIdx + capacity - 1) % capacity;
         i < count; i++, idx = (idx + capacity - 1) % capacity) {
        SqEntry &e = slots[idx];
        if (!e.valid || e.seq >= seq)
            continue;
        if (!e.addressReady) {
            unknown_older = true;
            continue;
        }
        if (wordAlign(e.addr) == word)
            return &e;
    }
    return nullptr;
}

SqEntry *
StoreQueue::olderSameLineUnwritten(SeqNum seq, Addr line)
{
    const Addr aligned = lineAlign(line);
    for (unsigned i = 0, idx = (tailIdx + capacity - 1) % capacity;
         i < count; i++, idx = (idx + capacity - 1) % capacity) {
        SqEntry &e = slots[idx];
        if (!e.valid || e.seq >= seq || e.written || e.isAtomic)
            continue;
        if (e.addressReady && lineAlign(e.addr) == aligned)
            return &e;
    }
    return nullptr;
}

bool
StoreQueue::noneOlderThan(SeqNum seq) const
{
    return count == 0 || slots[headIdx].seq >= seq;
}

bool
StoreQueue::sbEmpty() const
{
    for (unsigned i = 0, idx = headIdx; i < count;
         i++, idx = (idx + 1) % capacity) {
        const SqEntry &e = slots[idx];
        if (e.committed && !e.written)
            return false;
    }
    return true;
}

// All slots are serialized, invalid ones included: restored slot garbage
// then matches an uninterrupted run's, keeping later images bit-identical.

template <class Ar>
void
LoadQueue::visit(Ar &ar)
{
    ar.section("lq");
    visitRing(ar, "LQ capacity", capacity, headIdx, tailIdx, count);
    for (LqEntry &e : slots)
        ar.io(e);
}

template <class Ar>
void
StoreQueue::visit(Ar &ar)
{
    ar.section("sq");
    visitRing(ar, "SQ capacity", capacity, headIdx, tailIdx, count);
    for (SqEntry &e : slots)
        ar.io(e);
}

template void LoadQueue::visit(Ser &);
template void LoadQueue::visit(Deser &);
template void StoreQueue::visit(Ser &);
template void StoreQueue::visit(Deser &);

} // namespace rowsim
