#include "mem/memsystem.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/log.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

MemSystem::MemSystem(const SystemParams &params)
    : net(params.numCores, params.net)
{
    if (params.numCores > maxCores) {
        ROWSIM_FATAL("numCores %u exceeds the %u-core limit (the "
                     "directory's sharer mask has one bit per core)",
                     params.numCores, maxCores);
    }
    caches.reserve(params.numCores);
    banks.reserve(params.numCores);
    for (CoreId c = 0; c < params.numCores; c++) {
        caches.emplace_back(
            std::make_unique<PrivateCache>(c, params.mem, &net, &fmem));
        net.attach(c, caches.back().get());
    }
    for (unsigned b = 0; b < params.numCores; b++) {
        banks.emplace_back(
            std::make_unique<Directory>(b, params.numCores, params.mem,
                                        &net));
        net.attach(params.numCores + b, banks.back().get());
    }
}

void
MemSystem::tick(Cycle now)
{
    net.tick(now);
    for (auto &b : banks)
        b->tick(now);
    for (auto &c : caches)
        c->tick(now);
}

Cycle
MemSystem::nextEventCycle(Cycle now) const
{
    Cycle next = net.nextDue();
    if (next != invalidCycle && next <= now)
        next = now + 1;
    for (const auto &b : banks)
        next = std::min(next, b->nextEventCycle(now));
    for (const auto &c : caches)
        next = std::min(next, c->nextEventCycle(now));
    return next;
}

bool
MemSystem::idle() const
{
    if (!net.idle())
        return false;
    for (const auto &b : banks)
        if (!b->idle())
            return false;
    for (const auto &c : caches)
        if (!c->idle())
            return false;
    return true;
}

bool
MemSystem::funcAccess(CoreId c, Addr addr, bool exclusive, Cycle now)
{
    const Addr line = lineAlign(addr);
    const unsigned cores = static_cast<unsigned>(caches.size());
    Directory &home = *banks[net.homeBank(line) - cores];
    const auto bit = [](CoreId id) { return 1ULL << id; };

    const CacheState mine = caches[c]->lineState(line);
    if (mine == CacheState::Modified ||
        (!exclusive && mine != CacheState::Invalid)) {
        return false; // hit with sufficient permission
    }

    bool remote = false;
    dirtyVictims.clear();
    // One probe of the home bank: nothing below inserts into it before
    // the end state is written, the victims' writebacks after may.
    const std::size_t slot = home.funcSlot(line);
    const Directory::StableLine entry = home.stableAt(slot);
    const bool ownedElsewhere = entry.state == DirState::Modified &&
                                entry.owner != invalidCore &&
                                entry.owner != c;

    if (exclusive) {
        // GetX end state: every other copy dropped, requester Modified,
        // directory M/{requester}/no sharers. An M holder elsewhere is
        // the cache-to-cache forward detail mode serves via FwdGetX.
        // The home bank's sharers plus owner cover every private copy
        // (checker category swmr), so only those caches are visited.
        std::uint64_t holders = entry.sharers & ~bit(c);
        if (ownedElsewhere)
            holders |= bit(entry.owner);
        for (; holders; holders &= holders - 1) {
            const auto o = static_cast<CoreId>(std::countr_zero(holders));
            if (caches[o]->funcDropLine(line) == CacheState::Modified)
                remote = true;
        }
        if (!remote)
            home.funcTouchLlc(line, now);
        caches[c]->funcInstall(line, CacheState::Modified, now,
                               &dirtyVictims);
        home.funcSetAt(slot, DirState::Modified, c, 0);
    } else {
        // GetS end state: an M owner is downgraded and becomes a
        // sharer (FwdGetS), otherwise data comes from the LLC/memory.
        std::uint64_t sharers = entry.sharers | bit(c);
        if (ownedElsewhere && caches[entry.owner]->funcDowngrade(line, now)) {
            remote = true;
            sharers |= bit(entry.owner);
        }
        if (!remote)
            home.funcTouchLlc(line, now);
        caches[c]->funcInstall(line, CacheState::Shared, now,
                               &dirtyVictims);
        home.funcSetAt(slot, DirState::Shared, invalidCore, sharers);
    }

    // Dirty victims of the install: apply the PutM end state at each
    // victim's own home bank (data presence moves to the LLC).
    for (Addr v : dirtyVictims)
        banks[net.homeBank(v) - cores]->funcWriteback(v, c, now);
    return remote;
}

void
FunctionalMemory::save(Ser &s) const
{
    s.section("fmem");
    // The value memory reaches millions of words on long runs and is
    // the bulk of every checkpoint and functional digest, so this path
    // is deliberately cheap: a sorted flat copy (no per-word std::map
    // node), then delta-varint encoding — address gaps are mostly one
    // word (streams touch consecutive addresses) and data words are
    // mostly small, so an entry costs ~2-4 bytes instead of 16.
    std::vector<KeyedWord> sorted;
    sorted.reserve(words.size());
    for (const Words::Slot &w : words.slots()) {
        if (w.key != invalidAddr)
            sorted.emplace_back(w.key, w.value);
    }
    sortByKey(sorted);
    s.u64(sorted.size());
    Addr prev = 0;
    for (const auto &[addr, value] : sorted) {
        s.vu64(addr - prev);
        prev = addr;
        s.vu64(value);
    }
}

void
FunctionalMemory::restore(Deser &d)
{
    d.section("fmem");
    words.clear();
    // A word takes at least two bytes (gap, value): bound the count
    // before anything is sized by it.
    const std::uint64_t n = d.u64();
    if (n > d.remaining() / 2) {
        throw SnapshotError(strprintf(
            "value memory: %llu words cannot fit in %zu bytes",
            static_cast<unsigned long long>(n), d.remaining()));
    }
    words.reserve(n);
    Addr prev = 0;
    for (std::uint64_t i = 0; i < n; i++) {
        // Addresses strictly ascend: a zero gap repeats one, and a gap
        // that wraps past 2^64 lands on or before an earlier one (or on
        // invalidAddr, the empty-slot marker).
        const std::uint64_t gap = d.vu64();
        if (i > 0 && gap == 0) {
            throw SnapshotError(strprintf(
                "value memory address %#llx repeated",
                static_cast<unsigned long long>(prev)));
        }
        if (gap >= invalidAddr - prev) {
            throw SnapshotError(strprintf(
                "value memory address gap %#llx after %#llx wraps",
                static_cast<unsigned long long>(gap),
                static_cast<unsigned long long>(prev)));
        }
        const Addr addr = prev + gap;
        prev = addr;
        words[addr] = d.vu64();
    }
}

template <class Ar>
void
MemSystem::visit(Ar &ar)
{
    ar.section("memsys");
    ar.io(net);
    ar.io(fmem);
    for (auto &c : caches)
        ar.io(*c);
    for (auto &b : banks)
        ar.io(*b);
}

template void MemSystem::visit(Ser &);
template void MemSystem::visit(Deser &);

} // namespace rowsim
