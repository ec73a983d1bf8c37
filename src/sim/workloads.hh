/**
 * @file
 * Synthetic workload substrate.
 *
 * The paper evaluates RoW on PARSEC / Splash-4 / fine-grain-synchronization
 * binaries driven through a Sniper front-end. Those traces are not
 * available here, so each benchmark is replaced by a parameterised kernel
 * that reproduces the behavioural profile the paper's analysis depends on
 * (DESIGN.md §2): atomic intensity, contention degree, dependency shape
 * around the atomic, and store->atomic locality. The eager/lazy trade-off
 * then emerges from the simulated microarchitecture.
 */

#ifndef ROWSIM_SIM_WORKLOADS_HH
#define ROWSIM_SIM_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/microop.hh"
#include "cpu/stream.hh"

namespace rowsim
{

/** Fixed regions of the simulated address space. */
namespace addrmap
{
/** Shared atomic words, one per cacheline (word i at base + 64*i). */
constexpr Addr sharedAtomicBase = 0x1'0000'0000ULL;
/** Shared data lines (e.g. queue payloads, DB rows). */
constexpr Addr sharedDataBase = 0x2'0000'0000ULL;
/** Per-thread private regions. */
constexpr Addr privateBase = 0x4'0000'0000ULL;
constexpr Addr privateSpan = 0x0'1000'0000ULL;

constexpr Addr
sharedAtomicWord(std::uint64_t i)
{
    return sharedAtomicBase + i * lineBytes;
}

constexpr Addr
sharedDataLine(std::uint64_t i)
{
    return sharedDataBase + i * lineBytes;
}

constexpr Addr
privateLine(CoreId tid, std::uint64_t i)
{
    return privateBase + tid * privateSpan + i * lineBytes;
}
} // namespace addrmap

/**
 * Behavioural profile of one benchmark. See profiles.cc for the
 * per-benchmark instantiations and the rationale for each.
 */
struct WorkloadProfile
{
    std::string name;

    // --- iteration structure (instruction mix) ---
    unsigned aluOps = 20;       ///< dependent ALU chain per iteration
    unsigned aluLatency = 1;
    unsigned loadsBefore = 4;   ///< independent private loads before atomic
    unsigned loadsAfter = 4;    ///< independent private loads after atomic
    unsigned storesPerIter = 1; ///< trailing private stores
    unsigned branches = 2;
    double branchTakenProb = 0.0; ///< 0/1 = predictable; 0.5 = random
    unsigned fillerAlu = 0;       ///< extra independent ALU padding

    // --- atomic behaviour ---
    double atomicProb = 1.0; ///< P(iteration contains an atomic)
    AtomicOp aop = AtomicOp::FetchAdd;
    unsigned numAtomicPCs = 1;

    // --- contention structure ---
    /** Atomics target one of this many shared words (small => contended;
     *  very large => effectively uncontended, canneal-style). */
    std::uint64_t sharedAtomicWords = 1;
    /** Fraction of atomics aimed at the shared pool; the rest go to a
     *  per-thread private pool. */
    double sharedFraction = 1.0;
    std::uint64_t privateAtomicWords = 1024;

    // --- locality (cq/tatp/barnes pattern, §IV-E) ---
    /** P(a store to the atomic's target precedes it in the iteration). */
    double storeBeforeAtomicProb = 0.0;
    /** P(that store hits the same word — forwardable — rather than a
     *  different word of the same line). */
    double storeSameWordProb = 1.0;
    /** Payload stores (shared-data lines) emitted between the slot store
     *  and the atomic. Their store-buffer drain time opens the window in
     *  which a lazily-executed atomic loses the line (§IV-E locality). */
    unsigned payloadStores = 0;

    // --- dependency shaping (Fig. 4) ---
    /** Atomic's address operand depends on the ALU chain (late ready). */
    bool atomicDependsOnChain = false;
    /** Post-atomic work depends on the atomic's result (no younger ILP). */
    bool chainAfterAtomic = false;

    // --- private working set ---
    std::uint64_t privateLines = 1ULL << 12;

    // --- shared data (queue payloads, DB rows) ---
    std::uint64_t sharedDataLines = 0;
    /** P(a leading load targets the shared data region). */
    double sharedDataProb = 0.0;
    /** P(a trailing store targets the shared data region) — creates real
     *  producer/consumer invalidation traffic (pc, tpcc). */
    double sharedStoreProb = 0.0;

    Addr pcBase = 0x400000;

    /** Approximate instructions per iteration (reporting only). */
    unsigned approxInstsPerIter() const;
};

/**
 * The kernel stream: generates iterations of the profile forever,
 * deterministically from (profile, thread id, seed).
 */
class KernelStream : public InstStream
{
  public:
    KernelStream(const WorkloadProfile &profile, CoreId tid,
                 std::uint64_t seed);

    MicroOp next() override;

    void save(Ser &s) const override { s.io(*this); }
    void restore(Deser &d) override { d.io(*this); }
    /** Snapshot field list: the RNG and iteration buffer are the
     *  stream's only evolving state (the profile is config-derived). */
    template <class Ar> void visit(Ar &ar);

  private:
    void genIteration();

    WorkloadProfile p;
    CoreId tid;
    Rng rng;
    std::uint64_t iterCount = 0;
    std::vector<MicroOp> buf;
    std::size_t bufPos = 0;
};

/** Build one stream per core for @p profile. */
std::vector<std::unique_ptr<InstStream>>
makeStreams(const WorkloadProfile &profile, unsigned num_cores,
            std::uint64_t seed);

} // namespace rowsim

#endif // ROWSIM_SIM_WORKLOADS_HH
