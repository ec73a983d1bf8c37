#include "cpu/stream.hh"

#include "sim/snapshot.hh"

namespace rowsim
{

void
InstStream::save(Ser &) const
{
    throw SnapshotError("this instruction-stream type does not support "
                        "checkpointing");
}

void
InstStream::restore(Deser &)
{
    throw SnapshotError("this instruction-stream type does not support "
                        "checkpointing");
}

template <class Ar>
void
LoopStream::visit(Ar &ar)
{
    ar.section("loopstream");
    ar.expect(std::uint64_t{body_.size()}, "loop stream body size");
    ar.u64(idx);
    if (Ar::loading && idx >= body_.size())
        throw SnapshotError("loop stream position out of range");
}

template void LoopStream::visit(Ser &);
template void LoopStream::visit(Deser &);

} // namespace rowsim
