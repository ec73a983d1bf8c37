#include "sim/workloads.hh"

#include "common/log.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

unsigned
WorkloadProfile::approxInstsPerIter() const
{
    unsigned n = aluOps + loadsBefore + loadsAfter + storesPerIter +
                 branches + fillerAlu;
    n += static_cast<unsigned>(atomicProb *
                               (1.0 + storeBeforeAtomicProb));
    if (chainAfterAtomic)
        n += 4;
    return n;
}

KernelStream::KernelStream(const WorkloadProfile &profile, CoreId thread,
                           std::uint64_t seed)
    : p(profile), tid(thread),
      rng(seed * 0x9e3779b97f4a7c15ULL + thread * 0x2545f4914f6cdd1dULL + 1)
{
}

MicroOp
KernelStream::next()
{
    if (bufPos >= buf.size())
        genIteration();
    return buf[bufPos++];
}

void
KernelStream::genIteration()
{
    buf.clear();
    bufPos = 0;
    iterCount++;

    // Per-op PC: stable per position so predictors see consistent PCs.
    auto pc_at = [this](unsigned pos) {
        return p.pcBase + 4ULL * pos;
    };
    unsigned pos = 0;

    auto emit = [&](MicroOp op) -> std::size_t {
        op.pc = pc_at(pos++);
        buf.push_back(op);
        return buf.size() - 1;
    };
    auto dist_from = [&](std::size_t producer_idx) -> std::uint32_t {
        return static_cast<std::uint32_t>(buf.size() - producer_idx);
    };

    const bool has_atomic = p.atomicProb >= 1.0 || rng.chance(p.atomicProb);

    // ---- leading independent loads (MLP feeding eager execution) ----
    for (unsigned i = 0; i < p.loadsBefore; i++) {
        MicroOp op;
        op.cls = OpClass::Load;
        if (p.sharedDataLines > 0 && rng.chance(p.sharedDataProb)) {
            op.addr = addrmap::sharedDataLine(rng.below(p.sharedDataLines));
        } else {
            op.addr = addrmap::privateLine(tid, rng.below(p.privateLines));
        }
        emit(op);
    }

    // ---- dependent ALU chain ----
    std::size_t last_alu = SIZE_MAX;
    for (unsigned i = 0; i < p.aluOps; i++) {
        MicroOp op;
        op.cls = OpClass::IntAlu;
        op.execLatency = static_cast<std::uint16_t>(p.aluLatency);
        if (last_alu != SIZE_MAX)
            op.src0 = dist_from(last_alu);
        last_alu = emit(op);
    }

    // ---- independent filler ALU work ----
    for (unsigned i = 0; i < p.fillerAlu; i++) {
        MicroOp op;
        op.cls = OpClass::IntAlu;
        emit(op);
    }

    // ---- branches ----
    for (unsigned i = 0; i < p.branches; i++) {
        MicroOp op;
        op.cls = OpClass::Branch;
        op.takenBranch = p.branchTakenProb <= 0.0
                             ? false
                             : (p.branchTakenProb >= 1.0
                                    ? true
                                    : rng.chance(p.branchTakenProb));
        emit(op);
    }

    std::size_t atomic_idx = SIZE_MAX;
    if (has_atomic) {
        // Target selection: shared pool (contention-prone) or private.
        Addr target;
        if (p.sharedFraction >= 1.0 || rng.chance(p.sharedFraction)) {
            target = addrmap::sharedAtomicWord(
                rng.below(p.sharedAtomicWords));
        } else {
            target = addrmap::privateBase + tid * addrmap::privateSpan +
                     addrmap::privateSpan / 2 +
                     rng.below(p.privateAtomicWords) * lineBytes;
        }

        // Optional store to the same word/line first (atomic locality).
        if (p.storeBeforeAtomicProb > 0.0 &&
            rng.chance(p.storeBeforeAtomicProb)) {
            MicroOp st;
            st.cls = OpClass::Store;
            st.addr = rng.chance(p.storeSameWordProb) ? target : target + 8;
            st.value = rng.next();
            emit(st);

            // Payload record written after the slot store but before the
            // index bump (their drain delays a lazy atomic past the
            // point where the line gets stolen).
            for (unsigned i = 0; i < p.payloadStores; i++) {
                MicroOp ps;
                ps.cls = OpClass::Store;
                // A small, cache-resident record area: the drain delay
                // comes from store-buffer serialisation, not misses.
                ps.addr = addrmap::privateLine(tid, rng.below(64));
                ps.value = rng.next();
                emit(ps);
            }
        }

        MicroOp at;
        at.cls = OpClass::AtomicRMW;
        at.aop = p.aop;
        at.addr = target;
        at.value = p.aop == AtomicOp::FetchAdd ? 1 : rng.next();
        if (p.atomicDependsOnChain && last_alu != SIZE_MAX)
            at.src0 = dist_from(last_alu);
        // Distinct atomic PCs map distinct predictor entries.
        at.pc = p.pcBase + 0x1000 +
                4ULL * (iterCount % p.numAtomicPCs);
        pos++;
        buf.push_back(at);
        atomic_idx = buf.size() - 1;
    }

    // ---- younger work: independent unless chained on the atomic ----
    for (unsigned i = 0; i < p.loadsAfter; i++) {
        MicroOp op;
        op.cls = OpClass::Load;
        op.addr = addrmap::privateLine(tid, rng.below(p.privateLines));
        if (p.chainAfterAtomic && atomic_idx != SIZE_MAX)
            op.src0 = dist_from(atomic_idx);
        emit(op);
    }
    if (p.chainAfterAtomic && atomic_idx != SIZE_MAX) {
        std::size_t prev = atomic_idx;
        for (unsigned i = 0; i < 4; i++) {
            MicroOp op;
            op.cls = OpClass::IntAlu;
            op.src0 = dist_from(prev);
            prev = emit(op);
        }
    }

    // ---- trailing stores (private, or shared payload traffic) ----
    for (unsigned i = 0; i < p.storesPerIter; i++) {
        MicroOp op;
        op.cls = OpClass::Store;
        if (p.sharedDataLines > 0 && rng.chance(p.sharedStoreProb)) {
            op.addr = addrmap::sharedDataLine(rng.below(p.sharedDataLines));
        } else {
            op.addr = addrmap::privateLine(tid, rng.below(p.privateLines));
        }
        op.value = rng.next();
        emit(op);
    }

    ROWSIM_ASSERT(!buf.empty(), "empty workload iteration");
    buf.back().endOfIteration = true;
}

std::vector<std::unique_ptr<InstStream>>
makeStreams(const WorkloadProfile &profile, unsigned num_cores,
            std::uint64_t seed)
{
    std::vector<std::unique_ptr<InstStream>> out;
    out.reserve(num_cores);
    for (CoreId c = 0; c < num_cores; c++)
        out.push_back(std::make_unique<KernelStream>(profile, c, seed));
    return out;
}

template <class Ar>
void
KernelStream::visit(Ar &ar)
{
    ar.section("kernelstream");
    ar.expect(tid, "kernel stream thread id");
    std::uint64_t rngState[4];
    rng.getState(rngState);
    for (std::uint64_t &w : rngState)
        ar.u64(w);
    if constexpr (Ar::loading)
        rng.setState(rngState);
    ar.u64(iterCount);
    ar.list(buf, "kernel stream ops", [&](auto &op) { ar.io(op); });
    ar.u64(bufPos);
    if (Ar::loading && bufPos > buf.size())
        throw SnapshotError("kernel stream position out of range");
}

template void KernelStream::visit(Ser &);
template void KernelStream::visit(Deser &);

} // namespace rowsim
