/**
 * @file
 * Whole-system integration tests: multicore runs over the real workload
 * profiles, determinism, scaling sanity, statistics plumbing, and the
 * experiment harness itself.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    RunResult a = runExperiment("sps", eagerConfig(), 8, 30, 5);
    RunResult b = runExperiment("sps", eagerConfig(), 8, 30, 5);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.atomicsCommitted, b.atomicsCommitted);
}

TEST(SystemIntegration, SeedChangesExecution)
{
    RunResult a = runExperiment("sps", eagerConfig(), 8, 30, 5);
    RunResult b = runExperiment("sps", eagerConfig(), 8, 30, 6);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(SystemIntegration, EveryCoreReachesQuota)
{
    SystemParams sp;
    sp.numCores = 8;
    System sys(sp, makeStreams(profileFor("barnes"), 8, 1));
    sys.run(20);
    for (CoreId c = 0; c < 8; c++)
        EXPECT_GE(sys.core(c).committedIterations(), 20u);
}

TEST(SystemIntegration, MoreCoresMoreContention)
{
    // Same per-core quota on a single hot counter: 16 cores must take
    // disproportionately longer than 4 (serialisation).
    RunResult small = runExperiment("pc", eagerConfig(), 4, 40);
    RunResult big = runExperiment("pc", eagerConfig(), 16, 40);
    EXPECT_GT(big.cycles, small.cycles);
    EXPECT_GT(big.contendedPct, 50.0);
}

TEST(SystemIntegration, AtomicsPer10kMatchesProfileIntent)
{
    RunResult r = runExperiment("sps", eagerConfig(), 8, 40);
    EXPECT_GT(r.atomicsPer10k, 50.0);
    RunResult quiet = runExperiment("blackscholes", eagerConfig(), 8, 10);
    EXPECT_LT(quiet.atomicsPer10k, 1.0);
}

TEST(SystemIntegration, NonAtomicWorkloadInsensitiveToPolicy)
{
    RunResult e = runExperiment("blackscholes", eagerConfig(), 8, 15);
    RunResult l = runExperiment("blackscholes", lazyConfig(), 8, 15);
    double ratio = static_cast<double>(l.cycles) / e.cycles;
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(SystemIntegration, StatsAggregationSumsAcrossCores)
{
    SystemParams sp;
    sp.numCores = 4;
    System sys(sp, makeStreams(profileFor("pc"), 4, 1));
    sys.run(20);
    std::uint64_t manual = 0;
    for (CoreId c = 0; c < 4; c++)
        manual += sys.core(c).stats().counterValue("atomicsUnlocked");
    EXPECT_EQ(sys.totalCounter("atomicsUnlocked"), manual);
    EXPECT_GT(sys.totalInstructions(), 0u);
    EXPECT_GT(sys.totalAtomics(), 0u);
}

TEST(SystemIntegration, LatencyBreakdownIsConsistent)
{
    RunResult r = runExperiment("tpcc", eagerConfig(), 8, 30);
    // Segments are non-negative and the breakdown is populated.
    EXPECT_GE(r.dispatchToIssue, 0.0);
    EXPECT_GE(r.issueToLock, 0.0);
    EXPECT_GT(r.lockToUnlock, 0.0);
}

TEST(SystemIntegration, Fig6MeansPinnedAndTailsAlwaysOn)
{
    // The phase means pinned at %.17g: the merged histogram summary
    // must keep reproducing them bit for bit.
    struct Pin
    {
        ExpConfig cfg;
        double d2i, i2l, l2u;
    };
    const Pin pins[] = {
        {eagerConfig(), 1190.4880952380952, 452.15773809523807,
         52.163690476190474},
        {lazyConfig(), 1312.5144508670521, 29.01156069364162,
         4.0953757225433529},
    };
    for (Pin p : pins) {
        SCOPED_TRACE(p.cfg.label);
        p.cfg.profile = 0u; // profiling off, whatever the environment
        RunResult r = runExperiment("pc", p.cfg, 8, 40, 1);
        EXPECT_EQ(r.dispatchToIssue, p.d2i);
        EXPECT_EQ(r.issueToLock, p.i2l);
        EXPECT_EQ(r.lockToUnlock, p.l2u);
        // The tails come with every run, profiled or not.
        EXPECT_GT(r.dispatchToIssueP50, 0.0);
        EXPECT_GT(r.issueToLockP50, 0.0);
        EXPECT_GT(r.lockToUnlockP50, 0.0);
        EXPECT_LE(r.issueToLockP50, r.issueToLockP90);
        EXPECT_LE(r.issueToLockP90, r.issueToLockP99);
    }
}

TEST(SystemIntegration, Fig6IssueToLockTailFitsTheHistogram)
{
    // pc under eager at the fig06 scale has the longest acquisitions of
    // any Fig. 6 bar. An overflowing sample reads back as the observed
    // maximum, which would flatten p90 and p99 onto one value.
    SystemParams sp = makeParams(eagerConfig(), 32, 1);
    System sys(sp, makeStreams(profileFor("pc"), sp.numCores, sp.seed));
    sys.run(defaultQuota("pc"));
    std::uint64_t samples = 0, overflow = 0;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        const Histogram *h =
            sys.core(c).stats().findHistogram("atomicIssueToLockHist");
        ASSERT_NE(h, nullptr);
        samples += h->summary().count();
        overflow += h->overflow();
    }
    EXPECT_GT(samples, 0u);
    EXPECT_EQ(overflow, 0u);
    RunResult r;
    collectMetrics(sys, CounterBaseline{}, r);
    EXPECT_LT(r.issueToLockP90, r.issueToLockP99);
}

TEST(SystemIntegration, RunCyclesAdvancesExactly)
{
    SystemParams sp;
    sp.numCores = 2;
    System sys(sp, makeStreams(profileFor("fft"), 2, 1));
    sys.runCycles(1234);
    EXPECT_EQ(sys.now(), 1234u);
}

TEST(SystemIntegration, MakeParamsAppliesConfig)
{
    auto cfg = rowConfig(ContentionDetector::RW, PredictorUpdate::UpDown,
                         true);
    cfg.latencyThreshold = 777;
    SystemParams sp = makeParams(cfg, 8, 3);
    EXPECT_EQ(sp.numCores, 8u);
    EXPECT_EQ(sp.seed, 3u);
    EXPECT_EQ(sp.core.atomicPolicy, AtomicPolicy::RoW);
    EXPECT_EQ(sp.core.row.detector, ContentionDetector::RW);
    EXPECT_EQ(sp.core.row.update, PredictorUpdate::UpDown);
    EXPECT_TRUE(sp.core.forwardToAtomics);
    EXPECT_EQ(sp.core.row.latencyThreshold, 777u);
}

TEST(SystemIntegration, ThirtyTwoCoreTableOneConfigRuns)
{
    // The full paper-scale configuration (Table I): a short run must
    // work end to end and stay deadlock-free.
    RunResult r = runExperiment("tpcc", eagerConfig(), 32, 10);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GE(r.atomicsCommitted, 32u * 10u);
}

TEST(SystemIntegration, DrainQuiescesDeepPipelines)
{
    SystemParams sp;
    sp.numCores = 8;
    System sys(sp, makeStreams(profileFor("pc"), 8, 1));
    sys.run(10);
    sys.drain();
    EXPECT_TRUE(sys.mem().idle());
    for (CoreId c = 0; c < 8; c++)
        EXPECT_TRUE(sys.core(c).drained());
}

TEST(SystemIntegration, NetworkAndDirectoryStatsPopulated)
{
    SystemParams sp;
    sp.numCores = 4;
    System sys(sp, makeStreams(profileFor("pc"), 4, 1));
    sys.run(20);
    EXPECT_GT(sys.mem().network().stats().counterValue("messages"), 100u);
    std::uint64_t getx = 0;
    for (unsigned b = 0; b < sys.mem().numBanks(); b++)
        getx += sys.mem().directory(b).stats().counterValue("getX");
    EXPECT_GT(getx, 0u);
}

// The directory's sharer mask has one bit per core: a System past the
// limit is refused before any cache or bank is built, naming the
// limit. Only the first value past it is tried.
TEST(SystemIntegration, MoreCoresThanTheSharerMaskIsFatal)
{
    SystemParams sp;
    sp.numCores = maxCores + 1;
    try {
        System sys(sp, {});
        FAIL() << "a 65-core System was accepted";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("65"), std::string::npos) << what;
        EXPECT_NE(what.find("64-core limit"), std::string::npos) << what;
    }
}
