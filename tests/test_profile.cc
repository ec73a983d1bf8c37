/**
 * @file
 * Attribution-profiler tests: category parsing, CPI-stack slot
 * conservation (with and without idle fast-forward), the per-cacheline
 * contention table against a two-core ping-pong with known structure,
 * the RoW decision audit against the predictor's own counters, and the
 * off/on equivalence guarantees (profiling must never perturb the
 * simulated machine, and off-mode stats JSON must not grow new keys).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/experiment.hh"
#include "sim/profile.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

/** A maximally simple ping-pong: every iteration is one fetch-add to
 *  the single shared word, so the lock line and its traffic are known
 *  in closed form. */
WorkloadProfile
pingPongProfile()
{
    WorkloadProfile w;
    w.name = "pingpong";
    w.aluOps = 4;
    w.loadsBefore = 0;
    w.loadsAfter = 0;
    w.storesPerIter = 0;
    w.branches = 0;
    w.atomicProb = 1.0;
    w.sharedAtomicWords = 1;
    w.sharedFraction = 1.0;
    w.numAtomicPCs = 1;
    return w;
}

/** Direct System run with an explicit profile spec; returns cycles. */
Cycle
runProfiled(System &sys, std::uint64_t quota)
{
    Cycle c = sys.run(quota);
    EXPECT_NE(sys.profiler(), nullptr);
    return c;
}

} // namespace

TEST(ProfileCategories, ParseAndReject)
{
    EXPECT_EQ(parseProfileCategories(""), 0u);
    EXPECT_EQ(parseProfileCategories("none"), 0u);
    EXPECT_EQ(parseProfileCategories("all"), profCategoryAll);
    EXPECT_EQ(parseProfileCategories("cpi"),
              static_cast<std::uint32_t>(ProfCategory::Cpi));
    EXPECT_EQ(parseProfileCategories("lines,row"),
              static_cast<std::uint32_t>(ProfCategory::Lines) |
                  static_cast<std::uint32_t>(ProfCategory::Row));
    // "check" audits the cpi stacks, so it pulls them in.
    EXPECT_EQ(parseProfileCategories("check"),
              static_cast<std::uint32_t>(ProfCategory::Check) |
                  static_cast<std::uint32_t>(ProfCategory::Cpi));
    EXPECT_THROW(parseProfileCategories("bogus"), std::runtime_error);
    EXPECT_THROW(parseProfileCategories("cpi,hotloops"),
                 std::runtime_error);
    // Retired: the Fig. 6 phase histograms are always on.
    EXPECT_THROW(parseProfileCategories("pcs"), std::runtime_error);
}

TEST(ProfileCpi, SlotConservationWithAndWithoutFastForward)
{
    // Every commit slot of every cycle must land in exactly one bucket:
    // sum(stack) == cycles * commitWidth per core. Fast-forward skips
    // must be credited as explicit idle slots, so the invariant holds
    // under FF=0, FF=1 and FF=check alike. The "check" category also
    // arms the end-of-run audit inside System::run (panics on drift).
    for (const char *ff : {"0", "1", "check"}) {
        ::setenv("ROWSIM_FF", ff, 1);
        SystemParams sp = makeParams(lazyConfig(), 8, 1);
        sp.profileCategories =
            profMask(ProfCategory::Check) | profMask(ProfCategory::Cpi);
        System sys(sp, makeStreams(profileFor("pc"), sp.numCores,
                                   sp.seed));
        const Cycle cycles = runProfiled(sys, 50);
        ::unsetenv("ROWSIM_FF");

        const auto &cpi = sys.profiler()->cpi();
        ASSERT_EQ(cpi.size(), sp.numCores);
        for (unsigned c = 0; c < sp.numCores; c++) {
            std::uint64_t total = 0;
            for (std::uint64_t slots : cpi[c])
                total += slots;
            EXPECT_EQ(total,
                      static_cast<std::uint64_t>(cycles) *
                          sp.core.commitWidth)
                << "core " << c << " under ROWSIM_FF=" << ff;
        }
        // A lazy contended run must attribute some slots to the lazy
        // wait — the bucket the paper's Fig. 6 story is about.
        std::uint64_t lazyWait = 0, retired = 0;
        for (unsigned c = 0; c < sp.numCores; c++) {
            lazyWait += cpi[c][static_cast<unsigned>(
                CpiBucket::AtomicLazyWait)];
            retired += cpi[c][static_cast<unsigned>(CpiBucket::Retired)];
        }
        EXPECT_GT(lazyWait, 0u) << "ROWSIM_FF=" << ff;
        EXPECT_GT(retired, 0u) << "ROWSIM_FF=" << ff;
    }
}

TEST(ProfileLines, PingPongLineTableHasKnownCounts)
{
    SystemParams sp = makeParams(eagerConfig(), 2, 1);
    sp.profileCategories = profMask(ProfCategory::Lines);
    System sys(sp, makeStreams(pingPongProfile(), sp.numCores, sp.seed));
    runProfiled(sys, 200);
    // run() returns the moment the quota commits; drain the in-flight
    // tail so every acquired lock has released and the books close.
    sys.drain();

    const Addr lockLine = lineAlign(addrmap::sharedAtomicWord(0));
    const auto &lines = sys.profiler()->lines();
    ASSERT_TRUE(lines.count(lockLine))
        << "the shared word's line must be tracked";
    const Profiler::LineProf &p = lines.at(lockLine);

    // Every unlocked atomic acquired the lock exactly once; a forced
    // unlock releases without an unlock stat and the replay re-acquires.
    const std::uint64_t unlocked = sys.totalCounter("atomicsUnlocked");
    const std::uint64_t forced = sys.totalCounter("forcedUnlocks");
    EXPECT_GT(unlocked, 0u);
    EXPECT_EQ(p.acquires, unlocked + forced);

    // Both cores hammer the same line; it must ping-pong between them.
    EXPECT_EQ(p.coresMask, 0b11u);
    EXPECT_GT(p.ownerSwaps, 0u);
    EXPECT_GT(p.holdCycles, 0u);
    EXPECT_GT(p.remoteFills, 0u);

    // Top-K: with K=1 the dump must name exactly this line.
    Profiler::setTopK(1);
    const std::string json = sys.profiler()->toJson();
    Profiler::setTopK(0);
    EXPECT_NE(json.find("\"linesTracked\""), std::string::npos);
    EXPECT_NE(json.find(strprintf("\"line\":\"%#llx\"",
                                  static_cast<unsigned long long>(
                                      lockLine))),
              std::string::npos);
}

TEST(ProfileRow, AuditTotalsMatchPredictorCounters)
{
    SystemParams sp = makeParams(
        rowConfig(ContentionDetector::RWDir,
                  PredictorUpdate::SaturateOnContention),
        8, 1);
    sp.profileCategories = profMask(ProfCategory::Row);
    System sys(sp, makeStreams(profileFor("pc"), sp.numCores, sp.seed));
    runProfiled(sys, 60);

    std::uint64_t updates = 0, contended = 0;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        updates +=
            sys.core(c).predictor().stats().counterValue("updates");
        contended += sys.core(c).predictor().stats().counterValue(
            "contendedOutcomes");
    }
    ASSERT_GT(updates, 0u);

    // The audit mirrors the predictor's update call site one-to-one:
    // cross-tab total == updates, observed-contended column ==
    // contendedOutcomes.
    const Profiler::RowProf t = sys.profiler()->rowTotals();
    const std::uint64_t cells = t.cell[0][0] + t.cell[0][1] +
                                t.cell[1][0] + t.cell[1][1];
    EXPECT_EQ(cells, updates);
    EXPECT_EQ(t.cell[0][1] + t.cell[1][1], contended);
}

TEST(ProfileOffOn, OffModeStatsJsonIsUntouchedAndMaskDoesNotLeak)
{
    ::unsetenv("ROWSIM_PROFILE");
    ExpConfig off = eagerConfig();
    ExpConfig all = eagerConfig();
    all.label = "eager+all";
    all.profile = profCategoryAll;

    RunResult off1 = runExperiment("pc", off, 8, 40, 1, true);
    RunResult ron = runExperiment("pc", all, 8, 40, 1, true);
    // A profiled run on this thread must not leak its mask into the
    // next unprofiled System (setupProfiling re-applies per run).
    RunResult off2 = runExperiment("pc", off, 8, 40, 1, true);

    EXPECT_EQ(off1.statsJson, off2.statsJson);
    EXPECT_EQ(off1.statsJson.find("\"profile\""), std::string::npos);
    EXPECT_TRUE(off1.profileJson.empty());
    EXPECT_TRUE(off2.profileJson.empty());

    EXPECT_EQ(off1.cycles, ron.cycles);
    EXPECT_NE(ron.statsJson.find("\"profile\""), std::string::npos);
    ASSERT_FALSE(ron.profileJson.empty());
    EXPECT_NE(ron.profileJson.find("\"categories\":"), std::string::npos);
    EXPECT_NE(ron.profileJson.find("\"cpi\":"), std::string::npos);
    EXPECT_NE(ron.profileJson.find("\"row\":"), std::string::npos);
}
