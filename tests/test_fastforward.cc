/**
 * @file
 * Idle fast-forward equivalence tests: skipping quiescent cycles must
 * never change a simulated result. Every (workload, policy) case runs
 * with ROWSIM_FF=0 and ROWSIM_FF=1 and the full stats tree must be
 * byte-identical; check mode (tick-through + per-window audit) must run
 * panic-free; fault injection must force fast-forward off. Idle cores
 * sleep under the same mode: mid-run images must not see it either.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

RunResult
runWithFF(const char *ff, const std::string &w, const ExpConfig &cfg,
          std::uint64_t quota, unsigned cores = 16)
{
    ::setenv("ROWSIM_FF", ff, 1);
    RunResult r = runExperiment(w, cfg, cores, quota, 1,
                                /*capture_stats=*/true);
    ::unsetenv("ROWSIM_FF");
    return r;
}

std::unique_ptr<System>
systemWithFF(const char *ff, const std::string &w, const ExpConfig &cfg,
             unsigned cores = 16)
{
    ::setenv("ROWSIM_FF", ff, 1);
    const SystemParams sp = makeParams(cfg, cores, 1);
    auto sys = std::make_unique<System>(
        sp, makeStreams(profileFor(w), sp.numCores, sp.seed));
    ::unsetenv("ROWSIM_FF");
    return sys;
}

} // namespace

TEST(FastForward, OnOffBitIdenticalAcrossPolicySuite)
{
    struct Case
    {
        const char *workload;
        ExpConfig cfg;
        std::uint64_t quota;
    };
    const Case cases[] = {
        // Both contention extremes under every policy: idle windows are
        // longest on the lazy/contended runs, shortest on eager ones.
        {"pc", eagerConfig(), 60},
        {"pc", lazyConfig(), 60},
        {"pc", rowConfig(ContentionDetector::RWDir,
                         PredictorUpdate::SaturateOnContention), 60},
        {"canneal", eagerConfig(), 80},
        {"canneal", lazyConfig(), 80},
        {"cq", rowConfig(ContentionDetector::RWDir,
                         PredictorUpdate::UpDown, true), 60},
        {"tpcc", fencedConfig(), 40},
        {"streamcluster", rowConfig(ContentionDetector::RW,
                                    PredictorUpdate::UpDown), 40},
    };
    for (const Case &c : cases) {
        RunResult off = runWithFF("0", c.workload, c.cfg, c.quota);
        RunResult on = runWithFF("1", c.workload, c.cfg, c.quota);
        EXPECT_EQ(off.cycles, on.cycles)
            << c.workload << "/" << c.cfg.label;
        EXPECT_EQ(off.statsJson, on.statsJson)
            << c.workload << "/" << c.cfg.label;
    }
}

TEST(FastForward, CheckModeAuditsCleanAndMatchesOff)
{
    // check mode ticks through every predicted-idle window and panics
    // on any counter/average drift; its results must equal FF-off.
    const ExpConfig row = rowConfig(
        ContentionDetector::RWDir, PredictorUpdate::SaturateOnContention);
    RunResult off = runWithFF("0", "pc", row, 60);
    RunResult chk = runWithFF("check", "pc", row, 60);
    EXPECT_EQ(off.cycles, chk.cycles);
    EXPECT_EQ(off.statsJson, chk.statsJson);

    // Check mode also audits every core sleep tick by tick. The work-
    // stealing raytrace runs, one lazy and one RoW, are where a sleep
    // that skipped the bookkeeping of its first idle tick gets caught.
    struct Case
    {
        ExpConfig cfg;
        std::uint64_t quota;
        unsigned cores;
    };
    for (const Case &c : {Case{lazyConfig(), 80, 32}, Case{row, 20, 16}}) {
        RunResult o = runWithFF("0", "raytrace", c.cfg, c.quota, c.cores);
        RunResult k = runWithFF("check", "raytrace", c.cfg, c.quota, c.cores);
        EXPECT_EQ(o.cycles, k.cycles) << c.cfg.label;
        EXPECT_EQ(o.statsJson, k.statsJson) << c.cfg.label;
    }
}

TEST(FastForward, ForcedOffUnderFaultInjection)
{
    // The injector draws from its RNG every cycle, so eliding ticks
    // would change the fault schedule; System must ignore ROWSIM_FF=1
    // when faults are enabled and produce the FF=0 result.
    SystemParams sp = makeParams(eagerConfig(), 8, 1);
    sp.faultCategories = "netdelay,evict";
    sp.faultSeed = 1234;
    sp.faultRate = 50;

    ::setenv("ROWSIM_FF", "0", 1);
    RunResult off = runExperimentParams("pc", sp, "faults_ff0", 40, true);
    ::setenv("ROWSIM_FF", "1", 1);
    RunResult on = runExperimentParams("pc", sp, "faults_ff1", 40, true);
    ::unsetenv("ROWSIM_FF");

    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.statsJson, on.statsJson);
}

TEST(FastForward, IntervalSeriesIdenticalAcrossModes)
{
    // A tight sampling period puts many sample points inside would-be
    // idle windows; fast-forward must land every one of them at the
    // exact cycle with the exact delta. The time-series engine widens
    // the comparison from end-of-run counters to the full per-interval
    // series (cycles, values, Welford state, batch layout, CI) — and
    // check mode additionally audits the series inside every skipped
    // window tick-by-tick.
    ::setenv("ROWSIM_STATS_INTERVAL", "512", 1);
    ExpConfig cfg = lazyConfig();
    cfg.timeseries = true;

    RunResult off = runWithFF("0", "pc", cfg, 60);
    RunResult on = runWithFF("1", "pc", cfg, 60);
    RunResult chk = runWithFF("check", "pc", cfg, 60);
    ::unsetenv("ROWSIM_STATS_INTERVAL");

    ASSERT_NE(off.statsJson.find("\"timeseries\""), std::string::npos);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.statsJson, on.statsJson);
    EXPECT_EQ(off.cycles, chk.cycles);
    EXPECT_EQ(off.statsJson, chk.statsJson);
}

TEST(FastForward, SkipsActuallyHappenOnIdleWorkloads)
{
    // Guard against the optimization silently disabling itself: a lazy
    // contended run spends most of its time waiting and must fast-forward
    // a nontrivial share of its cycles.
    ::setenv("ROWSIM_FF", "1", 1);
    SystemParams sp = makeParams(lazyConfig(), 16, 1);
    System sys(sp, makeStreams(profileFor("pc"), sp.numCores, sp.seed));
    sys.run(60);
    ::unsetenv("ROWSIM_FF");
    EXPECT_GT(sys.fastForwardedCycles(), 0u);
}

TEST(FastForward, CoresSleepOnContendedWorkloads)
{
    // Contended eager atomics spend most ticks waiting on remote fills
    // and held locks: nearly every core tick is provably idle, while
    // the System-wide skip rarely applies because some core is busy.
    for (const char *ff : {"0", "1"}) {
        auto sys = systemWithFF(ff, "pc", eagerConfig());
        sys->run(60);
        const double ticked = static_cast<double>(
            sys->now() - sys->fastForwardedCycles());
        std::uint64_t slept = 0;
        for (CoreId c = 0; c < sys->numCores(); c++)
            slept += sys->core(c).sleptTicks();
        if (ff[0] == '0') {
            EXPECT_EQ(slept, 0u);
        } else {
            EXPECT_GT(static_cast<double>(slept) /
                          (ticked * sys->numCores()),
                      0.80);
        }
    }
}

TEST(FastForward, MidRunImagesIdenticalWhileCoresSleep)
{
    // The warm stop lands mid-run, where a sleeping core would show any
    // bookkeeping of its first idle tick that was skipped. The image
    // taken there must match the FF=0 run's, and a fresh System restored
    // from it must finish exactly as the FF=0 run does.
    struct Case
    {
        const char *workload;
        ExpConfig cfg;
        std::uint64_t quota;
    };
    const Case cases[] = {
        {"pc", eagerConfig(), 60},
        {"pc", lazyConfig(), 60},
        {"pc", rowConfig(ContentionDetector::RWDir,
                         PredictorUpdate::SaturateOnContention), 60},
        {"canneal", eagerConfig(), 80},
        {"canneal", lazyConfig(), 80},
        {"cq", rowConfig(ContentionDetector::RWDir,
                         PredictorUpdate::UpDown, true), 60},
        {"tpcc", fencedConfig(), 40},
        {"streamcluster", rowConfig(ContentionDetector::RW,
                                    PredictorUpdate::UpDown), 40},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.workload) + "/" + c.cfg.label);
        auto off = systemWithFF("0", c.workload, c.cfg);
        auto on = systemWithFF("1", c.workload, c.cfg);
        off->runWarmup(c.quota, c.quota / 2);
        on->runWarmup(c.quota, c.quota / 2);
        ASSERT_EQ(off->stateDigest(), on->stateDigest());

        Ser image;
        on->save(image);
        on = systemWithFF("1", c.workload, c.cfg);
        Deser d(image.bytes());
        on->restore(d);

        EXPECT_EQ(off->run(c.quota), on->run(c.quota));
        EXPECT_EQ(off->stateDigest(), on->stateDigest());
        EXPECT_EQ(off->statsJson(), on->statsJson());
    }
}
