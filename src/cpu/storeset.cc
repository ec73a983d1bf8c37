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

template <class Ar>
void
StoreSet::visit(Ar &ar)
{
    ar.section("storeset");
    ar.expect(ssitBits, "store-set SSIT bits");
    ar.expect(std::uint64_t{lfst.size()}, "store-set LFST entries");
    ar.array(ssit.data(), ssit.size(), "store-set SSIT");
    ar.array(lfst.data(), lfst.size(), "store-set LFST");
    ar.u32(nextSetId);
}

template void StoreSet::visit(Ser &);
template void StoreSet::visit(Deser &);

} // namespace rowsim
