#include "cpu/atomic_queue.hh"

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

AtomicQueue::AtomicQueue(unsigned entries)
    : capacity(entries), slots(entries)
{
    ROWSIM_ASSERT(entries > 0, "AQ needs at least one entry");
}

unsigned
AtomicQueue::allocate(SeqNum seq, Addr pc, Cycle now)
{
    ROWSIM_ASSERT(!full(), "AQ allocate when full");
    unsigned idx = tailIdx;
    AqEntry &e = slots[idx];
    e = AqEntry{};
    e.valid = true;
    e.seq = seq;
    e.pc = pc;
    e.dispatchCycle = now;
    tailIdx = (tailIdx + 1) % capacity;
    count++;
    ROWSIM_TRACE(TraceCategory::Queue, now,
                 "aq alloc seq=%llu pc=%#llx occ=%u/%u",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(pc), count, capacity);
    return idx;
}

AqEntry &
AtomicQueue::head()
{
    ROWSIM_ASSERT(!empty(), "AQ head on empty queue");
    return slots[headIdx];
}

void
AtomicQueue::freeHead(SeqNum seq)
{
    ROWSIM_ASSERT(!empty(), "AQ freeHead on empty queue");
    AqEntry &e = slots[headIdx];
    ROWSIM_ASSERT(e.seq == seq,
                  "AQ unlock out of order: head seq %llu, unlocking %llu",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(seq));
    e.valid = false;
    headIdx = (headIdx + 1) % capacity;
    count--;
    ROWSIM_TRACE_AT(TraceCategory::Queue, "aq free seq=%llu occ=%u/%u",
                    static_cast<unsigned long long>(seq), count, capacity);
}

bool
AtomicQueue::olderAllLocked(SeqNum seq) const
{
    for (unsigned i = 0; i < capacity; i++) {
        const AqEntry &e = slots[i];
        if (e.valid && e.seq < seq && !e.locked)
            return false;
    }
    return true;
}

bool
AtomicQueue::lineLocked(Addr line) const
{
    for (unsigned i = 0; i < capacity; i++) {
        const AqEntry &e = slots[i];
        if (e.valid && e.locked && e.line() == lineAlign(line))
            return true;
    }
    return false;
}

int
AtomicQueue::find(SeqNum seq) const
{
    for (unsigned i = 0; i < capacity; i++) {
        if (slots[i].valid && slots[i].seq == seq)
            return static_cast<int>(i);
    }
    return -1;
}

template <class Ar>
void
AtomicQueue::visit(Ar &ar)
{
    ar.section("aq");
    visitRing(ar, "AQ capacity", capacity, headIdx, tailIdx, count);
    for (AqEntry &e : slots)
        ar.io(e);
}

template void AtomicQueue::visit(Ser &);
template void AtomicQueue::visit(Deser &);

} // namespace rowsim
