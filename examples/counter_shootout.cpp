/**
 * @file
 * Counter shootout: the canonical fetch-and-increment benchmark — every
 * thread increments one shared counter between bursts of private work —
 * executed under all four atomic policies (fenced, eager, lazy, RoW).
 * Prints throughput and the Fig. 6 latency breakdown, and verifies the
 * atomicity invariant (final counter value == total committed FAAs).
 *
 * The private loads miss the caches, so an eagerly executed atomic holds
 * its cacheline locked while they commit — exactly the §III pathology.
 *
 *   ./build/examples/counter_shootout [cores]   (1 .. 1024, default 16)
 */

#include <cstdio>
#include <memory>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

WorkloadProfile
shootoutProfile()
{
    WorkloadProfile p;
    p.name = "shootout";
    p.sharedAtomicWords = 1; // one hot counter
    p.loadsBefore = 4;       // slow private loads the atomic bypasses
    p.loadsAfter = 4;
    p.privateLines = 1ULL << 15;
    p.aluOps = 8;
    p.fillerAlu = 40;
    p.storesPerIter = 1;
    return p;
}

const char *
policyName(AtomicPolicy p)
{
    switch (p) {
      case AtomicPolicy::Fenced: return "fenced";
      case AtomicPolicy::Eager: return "eager";
      case AtomicPolicy::Lazy: return "lazy";
      case AtomicPolicy::RoW: return "RoW";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t n = argc > 1 ? parseEnvU64("cores", argv[1]) : 16;
    if (n == 0 || n > 1024)
        ROWSIM_FATAL("cores: value %llu outside [1, 1024]",
                     static_cast<unsigned long long>(n));
    const unsigned cores = static_cast<unsigned>(n);
    const std::uint64_t quota = 80;

    std::printf("Shared fetch-and-increment, %u cores, %llu increments "
                "per core\n\n",
                cores, static_cast<unsigned long long>(quota));
    std::printf("%-8s %10s %14s %9s %9s %9s %10s\n", "policy", "cycles",
                "incr/kcycle", "d->issue", "iss->lock", "lock->unl",
                "invariant");

    for (AtomicPolicy p : {AtomicPolicy::Fenced, AtomicPolicy::Eager,
                           AtomicPolicy::Lazy, AtomicPolicy::RoW}) {
        SystemParams sp;
        sp.numCores = cores;
        sp.core.atomicPolicy = p;
        System sys(sp, makeStreams(shootoutProfile(), cores, 1));
        Cycle c = sys.run(quota);
        sys.drain();
        RunResult r;
        collectMetrics(sys, CounterBaseline{}, r);

        std::uint64_t total = 0;
        for (CoreId i = 0; i < cores; i++)
            total += sys.core(i).committedAtomics();
        const std::uint64_t value =
            sys.mem().functional().read64(addrmap::sharedAtomicWord(0));

        std::printf("%-8s %10llu %14.2f %9.0f %9.0f %9.0f %10s\n",
                    policyName(p), static_cast<unsigned long long>(c),
                    1000.0 * static_cast<double>(total) /
                        static_cast<double>(c),
                    r.dispatchToIssue, r.issueToLock, r.lockToUnlock,
                    value == total ? "OK" : "LOST UPDATES!");
        if (value != total) {
            std::fprintf(stderr,
                         "ATOMICITY VIOLATION: counter=%llu "
                         "committed=%llu\n",
                         static_cast<unsigned long long>(value),
                         static_cast<unsigned long long>(total));
            return 1;
        }
    }

    std::printf("\nOn a hot counter, eager execution holds the line "
                "locked while its older\nloads commit; lazy and RoW keep "
                "the lock window to a few cycles and win.\n");
    return 0;
}
