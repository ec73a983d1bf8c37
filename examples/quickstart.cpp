/**
 * @file
 * Quickstart: build a 32-core system, run the `pc` (producer/consumer)
 * workload under the three atomic execution policies, and print the
 * execution times and atomic statistics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/log.hh"
#include "sim/experiment.hh"

int
cliMain()
{
    using namespace rowsim;

    std::printf("RoWSim quickstart: 'pc' on 32 cores\n");
    std::printf("%-12s %10s %10s %9s %12s %12s\n", "policy", "cycles",
                "norm", "at/10k", "contended%", "lock window");

    const RunResult eager = runExperiment("pc", eagerConfig());
    for (const ExpConfig &cfg :
         {eagerConfig(), lazyConfig(),
          rowConfig(ContentionDetector::RWDir,
                    PredictorUpdate::SaturateOnContention)}) {
        const RunResult r = runExperiment("pc", cfg);
        std::printf("%-12s %10llu %10.3f %9.1f %11.1f%% %9.0f cyc\n",
                    r.config.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<double>(r.cycles) /
                        static_cast<double>(eager.cycles),
                    r.atomicsPer10k, r.contendedPct, r.lockToUnlock);
    }
    std::printf("\nLower is better; 'pc' is contended, so lazy and RoW "
                "should beat eager.\n");
    return 0;
}

int
main()
{
    return rowsim::runMain(cliMain);
}
