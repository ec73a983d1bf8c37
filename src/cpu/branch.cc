#include "cpu/branch.hh"

#include "sim/snapshot.hh"

namespace rowsim
{

namespace
{
void
bump(std::uint8_t &ctr, bool up)
{
    if (up && ctr < 3)
        ctr++;
    else if (!up && ctr > 0)
        ctr--;
}
} // namespace

BranchPredictor::BranchPredictor(unsigned table_bits, unsigned history_bits)
    : tableBits(table_bits), historyBits(history_bits),
      bimodal(1u << table_bits, 1), gshare(1u << table_bits, 1),
      chooser(1u << table_bits, 2), stats_("branch")
{
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<unsigned>(pc >> 2) & ((1u << tableBits) - 1);
}

unsigned
BranchPredictor::gshareIndex(Addr pc) const
{
    std::uint64_t h = history & ((1ULL << historyBits) - 1);
    return static_cast<unsigned>((pc >> 2) ^ h) & ((1u << tableBits) - 1);
}

bool
BranchPredictor::predict(Addr pc) const
{
    bool use_gshare = chooser[bimodalIndex(pc)] >= 2;
    return use_gshare ? gshare[gshareIndex(pc)] >= 2
                      : bimodal[bimodalIndex(pc)] >= 2;
}

bool
BranchPredictor::update(Addr pc, bool taken)
{
    const unsigned bi = bimodalIndex(pc);
    const unsigned gi = gshareIndex(pc);
    const bool bimodal_taken = bimodal[bi] >= 2;
    const bool gshare_taken = gshare[gi] >= 2;
    const bool use_gshare = chooser[bi] >= 2;
    const bool predicted = use_gshare ? gshare_taken : bimodal_taken;

    // Chooser trains toward whichever component was right.
    if (bimodal_taken != gshare_taken)
        bump(chooser[bi], gshare_taken == taken);
    bump(bimodal[bi], taken);
    bump(gshare[gi], taken);
    history = (history << 1) | (taken ? 1 : 0);

    const bool correct = predicted == taken;
    lookups_++;
    if (!correct)
        mispredicts_++;
    return correct;
}

template <class Ar>
void
BranchPredictor::visit(Ar &ar)
{
    ar.section("branch");
    ar.expect(tableBits, "branch predictor table bits");
    ar.expect(historyBits, "branch predictor history bits");
    ar.u64(history);
    ar.array(bimodal.data(), bimodal.size(), "branch bimodal table");
    ar.array(gshare.data(), gshare.size(), "branch gshare table");
    ar.array(chooser.data(), chooser.size(), "branch chooser table");
}

template void BranchPredictor::visit(Ser &);
template void BranchPredictor::visit(Deser &);

} // namespace rowsim
