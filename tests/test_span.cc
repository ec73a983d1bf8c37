/**
 * @file
 * Span-tracker tests: segment conservation across fast-forward modes
 * (every span's segments must exactly tile dispatch→commit — close()
 * panics otherwise, so a clean run with spans on IS the check), span
 * counts against the commit stream in closed form, the per-cacheline
 * contention table against a two-core ping-pong, the RoW audit against
 * the predictor's own counters, the off/on equivalence guarantees
 * (tracing must never perturb the simulated machine, off-mode stats
 * JSON must be byte-identical), sweep determinism of the span summaries
 * across thread counts, per-job sink-file isolation under a concurrent
 * sweep, restore-time span truncation, and the per-message-type network
 * latency histograms.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/span.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

struct ScopedEnv
{
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

/** A two-core ping-pong with one shared word: every iteration commits
 *  exactly one atomic, so span counts have a closed form. */
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

std::unique_ptr<System>
makeSpanSystem(const WorkloadProfile &profile, const ExpConfig &cfg,
               unsigned cores, std::uint64_t seed)
{
    SystemParams sp = makeParams(cfg, cores, seed);
    sp.spans = true;
    return std::make_unique<System>(sp,
                                    makeStreams(profile, cores, seed));
}

std::unique_ptr<System>
makeSpanSystem(const std::string &workload, const ExpConfig &cfg,
               unsigned cores, std::uint64_t seed)
{
    return makeSpanSystem(profileFor(workload), cfg, cores, seed);
}

std::string
statsJsonOf(System &sys)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *mem = open_memstream(&buf, &len);
    EXPECT_NE(mem, nullptr);
    sys.dumpStatsJson(mem);
    std::fclose(mem);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

} // namespace

TEST(SpanSpec, ParseAndReject)
{
    for (const char *off : {"0", "off", "no", "false"}) {
        ScopedEnv env("ROWSIM_SPANS", off);
        EXPECT_FALSE(resolveRunOptions().spans) << off;
    }
    for (const char *on : {"1", "on", "yes", "true"}) {
        ScopedEnv env("ROWSIM_SPANS", on);
        EXPECT_TRUE(resolveRunOptions().spans) << on;
    }
    ScopedEnv env("ROWSIM_SPANS", "maybe");
    EXPECT_THROW(resolveRunOptions(), std::runtime_error);
    EXPECT_THROW(parseOnOffSpec("ROWSIM_SPANS", ""), std::runtime_error);
}

TEST(SpanConservation, SegmentsTileDispatchToCommitAcrossFFModes)
{
    // close() panics on any span whose segments do not sum exactly to
    // commit − dispatch, so a clean contended run under every
    // fast-forward mode and policy family is itself the conservation
    // proof. The explicit re-check below guards the retained records
    // (what toJson exports) against a silent close()-side regression.
    for (const char *ff : {"0", "1", "check"}) {
        ScopedEnv env("ROWSIM_FF", ff);
        for (const ExpConfig &cfg :
             {eagerConfig(), lazyConfig(),
              rowConfig(ContentionDetector::RWDir,
                        PredictorUpdate::SaturateOnContention)}) {
            SCOPED_TRACE(cfg.label + " ff=" + ff);
            auto sys = makeSpanSystem("pc", cfg, 8, 1);
            sys->run(60);
            sys->drain();

            const SpanTracker *sp = sys->spans();
            ASSERT_NE(sp, nullptr);
            EXPECT_GT(sp->closed(), 0u);
            for (const SpanTracker::Record &r : sp->retained()) {
                std::uint64_t sum = 0;
                for (std::uint64_t s : r.segs)
                    sum += s;
                EXPECT_EQ(sum, r.total()) << "span " << r.id;
            }
        }
    }
}

TEST(SpanCounts, PingPongClosedFormAndDrainedBooks)
{
    // One atomic per committed iteration on two cores: after a drain,
    // every opened span has closed and the count equals the atomic
    // commit stream exactly.
    auto sys = makeSpanSystem(pingPongProfile(), eagerConfig(), 2, 1);
    sys->run(200);
    sys->drain();

    const SpanTracker *sp = sys->spans();
    ASSERT_NE(sp, nullptr);
    const std::uint64_t atomics = sys->totalAtomics();
    EXPECT_GT(atomics, 0u);
    EXPECT_EQ(sp->closed(), atomics);
    EXPECT_EQ(sp->opened(), sp->closed() + sp->openCount());

    // One PC, one line: the aggregates must collapse to single rows
    // that each account for every closed span.
    ASSERT_EQ(sp->pcs().size(), 1u);
    ASSERT_EQ(sp->lines().size(), 1u);
    EXPECT_EQ(sp->pcs().begin()->second.count, sp->closed());
    EXPECT_EQ(sp->lines().begin()->second.count, sp->closed());
    EXPECT_EQ(sp->lines().begin()->first,
              lineAlign(addrmap::sharedAtomicWord(0)));
    EXPECT_EQ(sp->totalHist().summary().count(), sp->closed());

    // The contended line ping-pongs: some spans must see remote legs.
    std::uint64_t netCycles = 0;
    for (const SpanTracker::Record &r : sp->retained())
        netCycles += r.netCycles;
    EXPECT_GT(netCycles, 0u);
}

TEST(ProfileLines, PingPongLineTableHasKnownCounts)
{
    // The per-cacheline contention table is the span tracker's line
    // view: on a two-core ping-pong over one shared word its counts
    // follow from the lock stats in closed form.
    auto sys = makeSpanSystem(pingPongProfile(), eagerConfig(), 2, 1);
    sys->run(200);
    // run() returns the moment the quota commits; drain the in-flight
    // tail so every acquired lock has released and the books close.
    sys->drain();

    const SpanTracker *sp = sys->spans();
    ASSERT_NE(sp, nullptr);
    const Addr lockLine = lineAlign(addrmap::sharedAtomicWord(0));
    ASSERT_TRUE(sp->lines().count(lockLine))
        << "the shared word's line must be tracked";
    const SpanTracker::Agg &line = sp->lines().at(lockLine);

    // Every lock steal forces a replay of the victim's span, and every
    // closed span unlocked once, so the line's acquisitions (closed
    // spans plus replays) are the unlocks plus the forced unlocks.
    const std::uint64_t unlocked = sys->totalCounter("atomicsUnlocked");
    const std::uint64_t forced = sys->totalCounter("forcedUnlocks");
    EXPECT_GT(unlocked, 0u);
    EXPECT_EQ(line.replays, forced);
    EXPECT_EQ(line.count + line.replays, unlocked + forced);

    // Both cores hammer the same line; it must ping-pong between them.
    EXPECT_EQ(line.coreMask, 0b11u);
    EXPECT_GT(line.ownerSwaps, 0u);
    EXPECT_GT(line.segs[static_cast<unsigned>(SpanSeg::LockHeld)], 0u);
    EXPECT_GT(line.netCycles, 0u);

    // The JSON dump names the line.
    const std::string json = sp->toJson();
    EXPECT_NE(json.find("\"linesTracked\""), std::string::npos);
    EXPECT_NE(json.find(strprintf("\"line\":\"%#llx\"",
                                  static_cast<unsigned long long>(
                                      lockLine))),
              std::string::npos);
}

TEST(SpanRow, AuditTotalsMatchPredictorCounters)
{
    // The PC table's RoW audit is recorded at the predictor's update
    // site: the cross-tab sums to the predictor's updates and its
    // observed-contended column to its contendedOutcomes.
    auto sys = makeSpanSystem(
        "pc",
        rowConfig(ContentionDetector::RWDir,
                  PredictorUpdate::SaturateOnContention),
        8, 1);
    sys->run(60);

    std::uint64_t updates = 0, contended = 0;
    for (CoreId c = 0; c < sys->numCores(); c++) {
        updates +=
            sys->core(c).predictor().stats().counterValue("updates");
        contended += sys->core(c).predictor().stats().counterValue(
            "contendedOutcomes");
    }
    ASSERT_GT(updates, 0u);

    const SpanTracker::Agg t = sys->spans()->rowTotals();
    EXPECT_EQ(t.row[0][0] + t.row[0][1] + t.row[1][0] + t.row[1][1],
              updates);
    EXPECT_EQ(t.row[0][1] + t.row[1][1], contended);
    EXPECT_GT(t.lazyWasteCycles + t.eagerContendedCycles, 0u);
}

TEST(SpanOffOn, OffModeIsByteIdenticalAndTracingDoesNotPerturb)
{
    ::unsetenv("ROWSIM_SPANS");
    ExpConfig off = eagerConfig();
    ExpConfig on = eagerConfig();
    on.label = "eager+spans";
    on.spans = true;

    RunResult off1 = runExperiment("pc", off, 8, 40, 1, true);
    RunResult ron = runExperiment("pc", on, 8, 40, 1, true);
    // A spans-on run on this thread must not leak its gate into the
    // next plain System (setupSpans re-applies per construction).
    RunResult off2 = runExperiment("pc", off, 8, 40, 1, true);

    EXPECT_EQ(off1.statsJson, off2.statsJson);
    EXPECT_EQ(off1.statsJson.find("\"spans\""), std::string::npos);
    EXPECT_TRUE(off1.spanJson.empty());
    EXPECT_TRUE(off2.spanJson.empty());

    // Tracing is observe-only: identical machine, identical cycles.
    EXPECT_EQ(off1.cycles, ron.cycles);
    EXPECT_EQ(off1.instructions, ron.instructions);
    EXPECT_NE(ron.statsJson.find("\"spans\""), std::string::npos);
    ASSERT_FALSE(ron.spanJson.empty());
    EXPECT_NE(ron.spanJson.find("\"segTotals\""), std::string::npos);
    EXPECT_NE(ron.spanJson.find("\"critical\""), std::string::npos);
    EXPECT_NE(ron.toJson().find("\"spans\""), std::string::npos);
}

TEST(SpanSweep, SummariesDeterministicAcrossThreadCounts)
{
    std::vector<SweepJob> jobs;
    for (const char *w : {"pc", "cq", "sps", "tatp"}) {
        for (ExpConfig cfg : {eagerConfig(), lazyConfig()}) {
            cfg.spans = true;
            jobs.push_back(sweepJob(w, cfg, 8, 30));
        }
    }
    std::vector<RunResult> serial = SweepEngine(1).run(jobs);
    std::vector<RunResult> parallel = SweepEngine(8).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        EXPECT_EQ(serial[k].cycles, parallel[k].cycles) << k;
        ASSERT_FALSE(serial[k].spanJson.empty()) << k;
        EXPECT_EQ(serial[k].spanJson, parallel[k].spanJson)
            << jobs[k].workload << "/" << jobs[k].label;
    }
}

TEST(SpanSweep, ConcurrentJobsWriteDisjointSuffixedTraceFiles)
{
    namespace fs = std::filesystem;
    const std::string dir = "span-scratch-sweep";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string base = dir + "/trace.json";

    {
        ScopedEnv env("ROWSIM_TRACE_JSON", base);
        ScopedEnv cat("ROWSIM_TRACE", "span");
        ScopedEnv spans("ROWSIM_SPANS", "on");
        std::vector<SweepJob> jobs;
        for (const char *w : {"cq", "sps"})
            jobs.push_back(sweepJob(w, eagerConfig(), 4, 30));
        SweepEngine(2).run(jobs);
    }
    // The sweep worker scoped each job's sinks by job index: no shared
    // unsuffixed file, one well-formed JSON file per job.
    EXPECT_FALSE(fs::exists(base));
    for (const char *suffixed :
         {"span-scratch-sweep/trace.j0.json",
          "span-scratch-sweep/trace.j1.json"}) {
        ASSERT_TRUE(fs::exists(suffixed)) << suffixed;
        std::ifstream in(suffixed);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        EXPECT_GT(text.size(), 2u) << suffixed;
        EXPECT_EQ(text.front(), '{') << suffixed;
        EXPECT_NE(text.find("\"traceEvents\""), std::string::npos)
            << suffixed;
        EXPECT_NE(text.find("\"ph\""), std::string::npos) << suffixed;
    }
    fs::remove_all(dir);
}

TEST(SpanSnapshot, RestoreTruncatesInFlightSpansAndKeepsBooksClean)
{
    const ExpConfig cfg = lazyConfig();

    // Warm a contended run so atomics are in flight, snapshot it.
    auto warm = makeSpanSystem("cq", cfg, 4, 3);
    warm->runWarmup(200, 50);
    Ser s;
    warm->save(s);
    warm.reset();

    auto resumed = makeSpanSystem("cq", cfg, 4, 3);
    resumed->run(10); // open some spans before the restore cuts in
    Deser d(s.bytes());
    resumed->restore(d);

    const SpanTracker *sp = resumed->spans();
    ASSERT_NE(sp, nullptr);
    // Everything open at restore was dropped and counted; no dangling
    // IDs survive.
    EXPECT_EQ(sp->openCount(), 0u);
    EXPECT_GT(sp->truncated(), 0u);

    // The resumed run traces cleanly: spans opened after the restore
    // close with full conservation (close() would panic otherwise).
    const std::uint64_t closedBefore = sp->closed();
    resumed->run(200);
    resumed->drain();
    EXPECT_GT(sp->closed(), closedBefore);
    // Count accounting: every opened span is closed, still open, or was
    // truncated (truncated additionally counts in-image atomics that
    // never opened a span here, so it bounds the gap from above).
    EXPECT_GE(sp->opened(), sp->closed() + sp->openCount());
    EXPECT_LE(sp->opened() - sp->closed() - sp->openCount(),
              sp->truncated());
}

TEST(SpanSnapshot, SaveRestoreRunBitIdenticalWithSpansOff)
{
    ::unsetenv("ROWSIM_SPANS");
    const ExpConfig cfg = eagerConfig();
    auto makeSys = [&] {
        return std::make_unique<System>(
            makeParams(cfg, 4, 3),
            makeStreams(profileFor("cq"), 4, 3));
    };

    auto cold = makeSys();
    const Cycle coldCycles = cold->run(200);
    const std::string coldStats = statsJsonOf(*cold);

    auto warm = makeSys();
    warm->runWarmup(200, 50);
    Ser s;
    warm->save(s);
    warm.reset();

    auto resumed = makeSys();
    Deser d(s.bytes());
    resumed->restore(d);
    EXPECT_EQ(resumed->run(200), coldCycles);
    EXPECT_EQ(statsJsonOf(*resumed), coldStats);
    EXPECT_EQ(coldStats.find("\"spans\""), std::string::npos);
}

TEST(SpanNetwork, PerMessageTypeLatencyHistogramsInStatsJson)
{
    // The network records a latency histogram per message type
    // unconditionally (independent of span tracing): the stats JSON
    // must carry them with sane percentile ordering.
    auto sys = makeSpanSystem(pingPongProfile(), eagerConfig(), 2, 1);
    sys->run(200);
    sys->drain();
    const std::string json = statsJsonOf(*sys);
    for (const char *h : {"latGetX", "latFwdGetX", "latUnblock"}) {
        EXPECT_NE(json.find(std::string("\"") + h + "\""),
                  std::string::npos)
            << h << " histogram missing from stats JSON";
    }
    const StatGroup &net = sys->mem().network().stats();
    const Histogram *lat = net.findHistogram("latGetX");
    ASSERT_NE(lat, nullptr);
    ASSERT_GT(lat->summary().count(), 0u);
    EXPECT_LE(lat->percentile(0.50), lat->percentile(0.99));
    EXPECT_GE(lat->summary().max(), lat->summary().min());
}
