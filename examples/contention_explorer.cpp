/**
 * @file
 * Contention explorer: sweep the number of shared counter words that 32
 * threads hammer, from 1 (maximal contention) to 4096 (essentially
 * private), and show where the eager/lazy crossover falls and how RoW
 * tracks the winner on both sides of it.
 *
 * This is the paper's central trade-off (Section III) reduced to a
 * single dial you can turn.
 *
 *   ./build/examples/contention_explorer
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

/** pc-like kernel with a configurable shared-pool size. */
WorkloadProfile
sweepProfile(std::uint64_t shared_words)
{
    WorkloadProfile p;
    p.name = "sweep";
    p.sharedAtomicWords = shared_words;
    p.loadsBefore = 4;
    p.loadsAfter = 6;
    p.privateLines = 1ULL << 15;
    p.aluOps = 10;
    p.fillerAlu = 60;
    return p;
}

Cycle
run(std::uint64_t shared_words, AtomicPolicy policy)
{
    SystemParams sp;
    sp.numCores = 32;
    sp.core.atomicPolicy = policy;
    sp.core.row.update = PredictorUpdate::UpDown;
    System sys(sp, makeStreams(sweepProfile(shared_words), 32, 1));
    return sys.run(60);
}

} // namespace

int
cliMain()
{
    std::printf("Eager vs lazy vs RoW over contention degree "
                "(32 threads, FAA kernel)\n\n");
    std::printf("%12s %10s %10s %10s %8s %8s\n", "sharedWords", "eager",
                "lazy", "RoW", "lazy/e", "RoW/e");

    for (std::uint64_t words : {1ULL, 2ULL, 4ULL, 16ULL, 64ULL, 256ULL,
                                1024ULL, 4096ULL}) {
        Cycle e = run(words, AtomicPolicy::Eager);
        Cycle l = run(words, AtomicPolicy::Lazy);
        Cycle r = run(words, AtomicPolicy::RoW);
        // (RoW here uses the default RW+Dir detector with the UpDown
        // predictor — kinder to mixed-contention pools than Sat.)
        std::printf("%12llu %10llu %10llu %10llu %8.3f %8.3f\n",
                    static_cast<unsigned long long>(words),
                    static_cast<unsigned long long>(e),
                    static_cast<unsigned long long>(l),
                    static_cast<unsigned long long>(r),
                    static_cast<double>(l) / static_cast<double>(e),
                    static_cast<double>(r) / static_cast<double>(e));
    }

    std::printf("\nFew shared words -> contended -> lazy wins; many -> "
                "uncontended -> eager wins.\nRoW should sit near "
                "min(eager, lazy) across the whole sweep.\n");
    return 0;
}

int
main()
{
    return rowsim::runMain(cliMain);
}
