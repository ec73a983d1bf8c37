/**
 * @file
 * CPI-stack profiler tests: category parsing (the retired categories
 * are fatal), slot conservation with and without idle fast-forward
 * (audited at the end of every profiled run), and the off/on
 * equivalence guarantees (profiling must never perturb the simulated
 * machine, and off-mode stats JSON must not grow new keys).
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
    EXPECT_EQ(parseProfileCategories("cpi"), profMask(ProfCategory::Cpi));
    EXPECT_EQ(parseProfileCategories("cpi,none"), profCategoryAll);
    EXPECT_THROW(parseProfileCategories("bogus"), std::runtime_error);
    EXPECT_THROW(parseProfileCategories("cpi,hotloops"),
                 std::runtime_error);
    // Retired: the line table and the RoW audit are the span tracker's,
    // the conservation audit runs with every cpi run, and the Fig. 6
    // phase histograms are always on.
    for (const char *retired : {"lines", "row", "check", "pcs"}) {
        try {
            parseProfileCategories(retired);
            ADD_FAILURE() << retired << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("valid: cpi, all, none"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ProfileCpi, SlotConservationWithAndWithoutFastForward)
{
    // Every commit slot of every cycle must land in exactly one bucket:
    // sum(stack) == cycles * commitWidth per core. Fast-forward skips
    // must be credited as explicit idle slots, so the invariant holds
    // under FF=0, FF=1 and FF=check alike. Every profiled run also
    // audits this inside System::run at its end (panics on drift).
    for (const char *ff : {"0", "1", "check"}) {
        ::setenv("ROWSIM_FF", ff, 1);
        SystemParams sp = makeParams(lazyConfig(), 8, 1);
        sp.profileCategories = profMask(ProfCategory::Cpi);
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
    // The line and RoW views are the span tracker's.
    EXPECT_EQ(ron.profileJson.find("\"lines\":"), std::string::npos);
    EXPECT_EQ(ron.profileJson.find("\"row\":"), std::string::npos);
}
