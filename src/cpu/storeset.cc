#include "cpu/storeset.hh"

#include "sim/snapshot.hh"

namespace rowsim
{

StoreSet::StoreSet(unsigned ssit_bits, unsigned lfst_entries)
    : ssitBits(ssit_bits), ssit(1u << ssit_bits, invalidSet),
      lfst(lfst_entries, 0), stats_("storeset")
{
}

unsigned
StoreSet::index(Addr pc) const
{
    return static_cast<unsigned>(pc >> 2) & ((1u << ssitBits) - 1);
}

std::uint32_t
StoreSet::setOf(Addr pc) const
{
    return ssit[index(pc)];
}

void
StoreSet::storeFetched(std::uint32_t set, SeqNum seq)
{
    if (set != invalidSet)
        lfst[set % lfst.size()] = seq;
}

void
StoreSet::storeExecuted(std::uint32_t set, SeqNum seq)
{
    if (set != invalidSet && lfst[set % lfst.size()] == seq)
        lfst[set % lfst.size()] = 0;
}

SeqNum
StoreSet::dependence(Addr load_pc) const
{
    std::uint32_t set = ssit[index(load_pc)];
    if (set == invalidSet)
        return 0;
    return lfst[set % lfst.size()];
}

void
StoreSet::violation(Addr load_pc, Addr store_pc)
{
    violations_++;
    std::uint32_t &ls = ssit[index(load_pc)];
    std::uint32_t &ss = ssit[index(store_pc)];
    if (ls == invalidSet && ss == invalidSet) {
        ls = ss = nextSetId++ % static_cast<std::uint32_t>(lfst.size());
    } else if (ls == invalidSet) {
        ls = ss;
    } else if (ss == invalidSet) {
        ss = ls;
    } else {
        // Merge: convention is the smaller id wins.
        std::uint32_t winner = std::min(ls, ss);
        ls = ss = winner;
    }
}

void
StoreSet::clear()
{
    for (auto &s : ssit)
        s = invalidSet;
    for (auto &f : lfst)
        f = 0;
}

void
StoreSet::save(Ser &s) const
{
    s.section("storeset");
    s.u32(ssitBits);
    s.u64(lfst.size());
    for (std::uint32_t v : ssit)
        s.u32(v);
    for (SeqNum v : lfst)
        s.u64(v);
    s.u32(nextSetId);
}

void
StoreSet::restore(Deser &d)
{
    d.section("storeset");
    const std::uint32_t bits = d.u32();
    const std::uint64_t lfstEntries = d.u64();
    if (bits != ssitBits || lfstEntries != lfst.size()) {
        throw SnapshotError(strprintf(
            "store-set geometry mismatch: image %u bits / %llu LFST "
            "entries, configured %u / %zu",
            bits, static_cast<unsigned long long>(lfstEntries), ssitBits,
            lfst.size()));
    }
    for (std::uint32_t &v : ssit)
        v = d.u32();
    for (SeqNum &v : lfst)
        v = d.u64();
    nextSetId = d.u32();
}

} // namespace rowsim
