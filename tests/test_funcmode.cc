/**
 * @file
 * Functional fast-mode + sampling tests: a func-warmed checkpoint must
 * resume into detail mode bit-identically to the in-process
 * continuation; the functional interpreter must reproduce the detail
 * run's mode-independent architectural facts (funcStateDigest) on
 * order-insensitive workloads at matched instruction counts; sampled
 * runs must be deterministic across sweep thread counts; the
 * "sampling" report key must appear exactly when ROWSIM_SAMPLE is
 * active; malformed specs / incompatible observability setups must
 * fail loudly; and the directory's sharers plus owner must cover every
 * private copy functional mode leaves behind (the exclusive path
 * invalidates only those caches).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "mem/memsystem.hh"
#include "sim/checker.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/sampling.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

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

std::unique_ptr<System>
makeSystem(const std::string &workload, const ExpConfig &cfg,
           unsigned cores, std::uint64_t seed)
{
    return std::make_unique<System>(
        makeParams(cfg, cores, seed),
        makeStreams(profileFor(workload), cores, seed));
}

struct ScopedEnv
{
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

/** A fresh per-test scratch directory under the build tree. */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir = "funcmode-scratch-" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** @p json with every window's cache provenance marked as served. */
std::string
allFromCache(std::string json)
{
    const std::string f = "\"fromCache\":false", t = "\"fromCache\":true";
    for (std::size_t at; (at = json.find(f)) != std::string::npos;)
        json.replace(at, f.size(), t);
    return json;
}

std::size_t
countOf(const std::string &text, const std::string &what)
{
    std::size_t n = 0;
    for (std::size_t at = 0; (at = text.find(what, at)) != std::string::npos;
         at += what.size())
        n++;
    return n;
}

} // namespace

// The tentpole contract: any func-mode cycle boundary is a legal
// snapshot point, and the ordinary save/restore round-trips
// func-warmed state into a detail run. A detail run resumed from a
// restored func checkpoint must be bit-identical — cycles, stats tree,
// state digest — to the detail continuation of the System that wrote
// the checkpoint.
TEST(FuncMode, FuncWarmCheckpointResumesDetailBitIdentically)
{
    struct Case
    {
        const char *workload;
        ExpConfig cfg;
    };
    // cq and sps exercise CAS/Swap and shared plain stores through the
    // functional interpreter; this test needs no cross-mode
    // order-insensitivity, only self-consistency of the snapshot.
    const Case cases[] = {
        {"counter", eagerConfig()},
        {"cq", lazyConfig()},
        {"sps", rowConfig(ContentionDetector::RWDir,
                          PredictorUpdate::SaturateOnContention)},
    };
    const unsigned cores = 4;
    const std::uint64_t seed = 3, quota = 120, warm = 40;
    const std::string dir = scratchDir("resume");

    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(c.workload) + "/" + c.cfg.label);
        const std::string path =
            dir + "/" + c.workload + "-" + c.cfg.label + ".ckpt";

        auto a = makeSystem(c.workload, c.cfg, cores, seed);
        a->runFunctional(quota, warm);
        a->saveCheckpoint(path);
        const Cycle a_cycles = a->run(quota);
        const std::string a_stats = statsJsonOf(*a);
        const std::string a_digest = a->stateDigest();

        auto b = makeSystem(c.workload, c.cfg, cores, seed);
        b->restoreCheckpoint(path);
        EXPECT_EQ(b->run(quota), a_cycles)
            << "detail resume from the func checkpoint diverged";
        EXPECT_EQ(statsJsonOf(*b), a_stats)
            << "stats tree diverged after func-warm restore";
        EXPECT_EQ(b->stateDigest(), a_digest);
    }
    std::filesystem::remove_all(dir);
}

// Cross-validation invariant (the nightly drill, in miniature): on an
// order-insensitive workload, a func replay to the detail run's
// per-core committed instruction counts reproduces the
// mode-independent architectural facts exactly.
TEST(FuncMode, FuncStateDigestMatchesDetailAtMatchedInstCounts)
{
    for (const char *wl : {"counter", "streamcluster"}) {
        for (const ExpConfig &cfg :
             {eagerConfig(), lazyConfig(),
              rowConfig(ContentionDetector::RWDir,
                        PredictorUpdate::SaturateOnContention)}) {
            SCOPED_TRACE(std::string(wl) + "/" + cfg.label);
            const unsigned cores = 4;
            const std::uint64_t seed = 7, quota = 80;

            auto detail = makeSystem(wl, cfg, cores, seed);
            detail->run(quota);
            detail->drain(); // store buffers must reach the value memory
            std::vector<std::uint64_t> targets;
            for (CoreId c = 0; c < cores; c++)
                targets.push_back(detail->core(c).committedInstructions());

            auto func = makeSystem(wl, cfg, cores, seed);
            func->runFunctionalToInstCounts(targets);
            EXPECT_EQ(func->funcStateDigest(), detail->funcStateDigest());
            EXPECT_LT(func->now(), detail->now() / 10)
                << "func mode should be far cheaper in simulated ticks";
        }
    }
}

// ROWSIM_MODE plumbing: func runs go through the ordinary experiment
// harness, commit real work, and cost far fewer simulated cycles; the
// explicit ExpConfig::mode overrides the environment.
TEST(FuncMode, ModeSelectsTheFunctionalPath)
{
    const RunResult detail = runExperiment("counter", eagerConfig(), 4, 80);
    ASSERT_TRUE(detail.ok());

    ScopedEnv mode("ROWSIM_MODE", "func");
    const RunResult func = runExperiment("counter", eagerConfig(), 4, 80);
    ASSERT_TRUE(func.ok());
    EXPECT_GT(func.instructions, 0u);
    EXPECT_GT(func.atomicsCommitted, 0u);
    EXPECT_LT(func.cycles, detail.cycles / 10);

    // Params override the environment.
    ExpConfig cfg = eagerConfig();
    cfg.mode = ExecMode::Detail;
    const RunResult forced = runExperiment("counter", cfg, 4, 80);
    EXPECT_EQ(forced.cycles, detail.cycles);

    ::setenv("ROWSIM_MODE", "bogus", 1);
    EXPECT_THROW(runExperiment("counter", eagerConfig(), 4, 80),
                 std::runtime_error);
}

// The sampling spec parser: shape, defaults, and loud failures.
TEST(FuncMode, SampleSpecParsing)
{
    EXPECT_FALSE(parseSampleSpec("X", "").active);

    const SampleSpec s = parseSampleSpec("X", "8:2:5");
    EXPECT_TRUE(s.active);
    EXPECT_EQ(s.checkpoints, 8u);
    EXPECT_EQ(s.warmIters, 2u);
    EXPECT_EQ(s.detailIters, 5u);
    EXPECT_DOUBLE_EQ(s.confidence, 0.95);

    EXPECT_DOUBLE_EQ(parseSampleSpec("X", "4:0:3:0.99").confidence, 0.99);

    for (const char *bad : {"8", "8:2", "0:1:1", "4:1:0", "4:1:2:1.5",
                            "4:1:2:0.9x", "nope"}) {
        EXPECT_THROW(parseSampleSpec("X", bad), std::runtime_error)
            << "spec '" << bad << "' should be rejected";
    }

    const auto grid = sampleGrid(150, 8);
    ASSERT_EQ(grid.size(), 8u);
    for (unsigned k = 0; k < 8; k++)
        EXPECT_EQ(grid[k], 150u * k / 8);
}

// Sampled runs must be a pure function of the job set: identical
// across sweep thread counts.
TEST(FuncMode, SampledRunDeterministicAcrossThreads)
{
    ScopedEnv sample("ROWSIM_SAMPLE", "4:1:4");

    ::setenv("ROWSIM_SWEEP_THREADS", "1", 1);
    const RunResult one = runExperiment("counter", eagerConfig(), 4, 80);
    ASSERT_TRUE(one.ok());
    ASSERT_FALSE(one.samplingJson.empty());

    ::setenv("ROWSIM_SWEEP_THREADS", "8", 1);
    const RunResult eight = runExperiment("counter", eagerConfig(), 4, 80);
    EXPECT_EQ(eight.samplingJson, one.samplingJson);
    EXPECT_EQ(eight.toJson(), one.toJson());

    ::unsetenv("ROWSIM_SWEEP_THREADS");
}

// Sampled aggregate shape: the grid follows the documented arithmetic,
// every window reports, and the run report carries the "sampling" key
// — which must be absent (and the summary empty) without ROWSIM_SAMPLE,
// preserving the historical report byte layout.
TEST(FuncMode, SamplingReportShapeAndAbsence)
{
    const RunResult plain = runExperiment("counter", eagerConfig(), 4, 80);
    EXPECT_TRUE(plain.samplingJson.empty());
    EXPECT_EQ(plain.toJson().find("\"sampling\""), std::string::npos)
        << "non-sampled reports must not grow a sampling key";

    {
        ScopedEnv sample("ROWSIM_SAMPLE", "4:1:4");
        const RunResult s = runExperiment("counter", eagerConfig(), 4, 80);
        ASSERT_TRUE(s.ok());
        EXPECT_NE(s.toJson().find("\"sampling\":{"), std::string::npos);
        EXPECT_NE(s.samplingJson.find("\"grid\":[0,20,40,60]"),
                  std::string::npos);
        EXPECT_NE(s.samplingJson.find("\"checkpoints\":4"),
                  std::string::npos);
        for (unsigned k = 0; k < 4; k++) {
            EXPECT_NE(s.samplingJson.find(strprintf("\"k\":%u", k)),
                      std::string::npos);
        }
        // The extrapolated headline estimate must land in the right
        // regime (the detail reference for this setup is ~30 Kcycles).
        EXPECT_GT(s.cycles, plain.cycles / 4);
        EXPECT_LT(s.cycles, plain.cycles * 4);
    }
}

// Sampling windows are first-class result-store citizens: a sampled
// rerun with the store enabled recomputes nothing (every window is a
// hit), and still reproduces the aggregate byte-identically.
TEST(FuncMode, SampledWindowsServeFromResultStore)
{
    const std::string dir = scratchDir("sample-store");
    ScopedEnv results("ROWSIM_RESULTS", "on");
    ScopedEnv resultsDir("ROWSIM_RESULTS_DIR", dir + "/store");
    ScopedEnv sample("ROWSIM_SAMPLE", "3:1:3");

    const RunResult cold = runExperiment("counter", lazyConfig(), 4, 60);
    ASSERT_TRUE(cold.ok());
    EXPECT_NE(cold.samplingJson.find("\"fromCache\":false"),
              std::string::npos);
    EXPECT_EQ(cold.samplingJson.find("\"fromCache\":true"),
              std::string::npos);

    const RunResult warm = runExperiment("counter", lazyConfig(), 4, 60);
    ASSERT_TRUE(warm.ok());
    EXPECT_NE(warm.samplingJson.find("\"fromCache\":true"),
              std::string::npos);
    EXPECT_EQ(warm.samplingJson.find("\"fromCache\":false"),
              std::string::npos);

    // Identical apart from the cache provenance marker.
    EXPECT_EQ(allFromCache(cold.samplingJson), warm.samplingJson);

    std::filesystem::remove_all(dir);
}

// The store is the rerun cache at window granularity: with any one
// window's entry gone, the rerun warms up only as far as that window's
// mark (the last mark included), runs that window alone, and reproduces
// the cold aggregate.
TEST(FuncMode, SampledRerunRecomputesExactlyTheMissingWindow)
{
    const std::string dir = scratchDir("sample-partial");
    ScopedEnv results("ROWSIM_RESULTS", "on");
    ScopedEnv resultsDir("ROWSIM_RESULTS_DIR", dir);
    ScopedEnv sample("ROWSIM_SAMPLE", "3:1:3");

    const RunResult cold = runExperiment("counter", eagerConfig(), 4, 60);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(countOf(cold.samplingJson, "\"fromCache\":false"), 3u);

    std::vector<std::filesystem::path> entries;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), 3u) << "one store entry per window";

    for (const std::filesystem::path &entry : entries) {
        std::filesystem::remove(entry);
        const RunResult rerun =
            runExperiment("counter", eagerConfig(), 4, 60);
        ASSERT_TRUE(rerun.ok());
        EXPECT_EQ(countOf(rerun.samplingJson, "\"fromCache\":false"), 1u)
            << "after removing " << entry;
        EXPECT_EQ(allFromCache(rerun.toJson()), allFromCache(cold.toJson()))
            << "after removing " << entry;
        EXPECT_TRUE(std::filesystem::exists(entry))
            << "the recomputed window is stored again";
    }
    std::filesystem::remove_all(dir);
}

// The warm grid lives in memory: a sampled run writes nothing to its
// working directory.
TEST(FuncMode, SampledRunLeavesTheWorkingDirectoryEmpty)
{
    const std::string dir =
        std::filesystem::absolute(scratchDir("sample-cwd")).string();
    const std::filesystem::path home = std::filesystem::current_path();
    std::filesystem::current_path(dir);
    RunResult r;
    {
        ScopedEnv sample("ROWSIM_SAMPLE", "2:1:2");
        r = runExperiment("counter", lazyConfig(), 4, 40);
    }
    std::filesystem::current_path(home);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

// A sampled run inside a sweep job starts a sweep of its own: the
// windows' sinks nest under the outer job's key, so two sampled
// experiments of two windows each trace into four distinct files.
TEST(FuncMode, NestedWindowSinksDoNotCollide)
{
    const std::string dir = scratchDir("sample-trace");
    ScopedEnv sample("ROWSIM_SAMPLE", "2:1:2");
    ScopedEnv trace("ROWSIM_TRACE", "atomic");
    ScopedEnv text("ROWSIM_TRACE_FILE", dir + "/t.txt");
    ScopedEnv json("ROWSIM_TRACE_JSON", dir + "/t.json");

    const std::vector<SweepJob> jobs = {
        sweepJob("counter", eagerConfig(), 4, 40),
        sweepJob("counter", lazyConfig(), 4, 40)};
    for (const RunResult &r : SweepEngine(2).run(jobs))
        ASSERT_TRUE(r.ok()) << r.error;

    std::vector<std::string> traces;
    for (const char *key : {"j0.j0", "j0.j1", "j1.j0", "j1.j1"}) {
        const std::string path = dir + "/t." + key + ".txt";
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        traces.emplace_back(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
        EXPECT_FALSE(traces.back().empty()) << path;
        for (std::size_t i = 0; i + 1 < traces.size(); i++)
            EXPECT_NE(traces[i], traces.back()) << path;
    }
    std::filesystem::remove_all(dir);
}

// Func and detail runs of one configuration share a config fingerprint
// by design (checkpoints interchange) — the result store must still
// never serve one mode's entry to the other.
TEST(FuncMode, ResultStoreKeysDetailAndFuncApart)
{
    const std::string dir = scratchDir("store-mode");
    ScopedEnv results("ROWSIM_RESULTS", "on");
    ScopedEnv resultsDir("ROWSIM_RESULTS_DIR", dir);

    const RunResult detail = runExperiment("counter", eagerConfig(), 4, 60);
    ASSERT_TRUE(detail.ok());
    EXPECT_FALSE(detail.fromCache);

    ScopedEnv mode("ROWSIM_MODE", "func");
    const RunResult func = runExperiment("counter", eagerConfig(), 4, 60);
    ASSERT_TRUE(func.ok());
    EXPECT_FALSE(func.fromCache)
        << "a func run must not be served the detail run's entry";
    EXPECT_LT(func.cycles, detail.cycles / 10);

    const RunResult funcAgain =
        runExperiment("counter", eagerConfig(), 4, 60);
    EXPECT_TRUE(funcAgain.fromCache);
    EXPECT_EQ(funcAgain.cycles, func.cycles);

    std::filesystem::remove_all(dir);
}

// Incompatible setups fail loudly instead of producing subtly wrong
// numbers: sampling under the attribution profiler or a
// convergence-bounded run, func mode under fault injection.
TEST(FuncMode, IncompatibleSetupsAreFatal)
{
    ScopedEnv sample("ROWSIM_SAMPLE", "2:1:2");
    {
        ExpConfig profiled = eagerConfig();
        profiled.profile = profMask(ProfCategory::Cpi);
        EXPECT_THROW(runExperiment("counter", profiled, 4, 60),
                     std::runtime_error);
    }
    {
        ScopedEnv conv("ROWSIM_CONVERGE", "instructions:0.2");
        EXPECT_THROW(runExperiment("counter", eagerConfig(), 4, 60),
                     std::runtime_error);
    }
    ::unsetenv("ROWSIM_SAMPLE");
    {
        ScopedEnv mode("ROWSIM_MODE", "func");
        ScopedEnv faults("ROWSIM_FAULTS", "all");
        EXPECT_THROW(runExperiment("counter", eagerConfig(), 4, 60),
                     std::runtime_error);
    }
}

// The oracle for the exclusive path's filtered invalidation: after every
// funcAccess, each valid L2 line of every cache is covered by its home
// bank's sharers plus the owner of a Modified entry, so invalidating
// only those caches drops every other copy. Small arrays at 32 cores
// and a line pool several times their capacity make conflict
// evictions (clean and dirty) part of the mix.
TEST(FuncMode, DirectoryCoversEveryPrivateCopy)
{
    SystemParams sp;
    sp.numCores = 32;
    sp.mem.l1Sets = 4;
    sp.mem.l1Ways = 2;
    sp.mem.l2Sets = 8;
    sp.mem.l2Ways = 4;
    sp.mem.l3SetsPerBank = 16;
    sp.mem.l3Ways = 4;
    MemSystem mem(sp);
    const unsigned cores = sp.numCores;

    const auto home = [&](Addr line) -> Directory & {
        return mem.directory(
            static_cast<unsigned>(mem.network().homeBank(line)) - cores);
    };
    const auto l2Set = [&](Addr line) {
        return lineNum(line) & (sp.mem.l2Sets - 1);
    };
    // First private copy outside its home bank's sharers plus owner
    // (or an M copy the bank does not record as owned), or "".
    const auto uncovered = [&]() -> std::string {
        std::string bad;
        for (CoreId c = 0; c < cores && bad.empty(); c++) {
            mem.cache(c).forEachL2Line([&](Addr line, CacheState st) {
                const Directory::StableLine e = home(line).stableLine(line);
                const bool m =
                    e.state == DirState::Modified && e.owner < cores;
                std::uint64_t covered = e.sharers;
                if (m)
                    covered |= 1ULL << e.owner;
                if (bad.empty() &&
                    (!(covered >> c & 1) ||
                     (st == CacheState::Modified && (!m || e.owner != c)))) {
                    bad = strprintf("l1d%u holds line %#llx (state %d) "
                                    "outside sharers+owner %#llx",
                                    c,
                                    static_cast<unsigned long long>(line),
                                    static_cast<int>(st),
                                    static_cast<unsigned long long>(
                                        covered));
                }
            });
        }
        return bad;
    };

    // 32 lines every core touches, plus 48 lines of its own per core:
    // each cache holds 32 lines over 8 sets, so private traffic keeps
    // evicting shared copies (clean ones silently, leaving stale
    // sharer bits) and dirty ones (writebacks).
    const auto pick = [&](Rng &r, CoreId c) -> Addr {
        if (r.chance(0.5))
            return r.below(32) * lineBytes;
        return (4096 + c * 64 + r.below(48)) * Addr{lineBytes};
    };

    Rng rng(24);
    std::uint64_t evictions = 0, dirtyEvictions = 0, remoteFills = 0,
                  invalidatingWrites = 0;
    for (std::uint64_t step = 1; step <= 20000; step++) {
        const auto c = static_cast<CoreId>(rng.below(cores));
        const Addr line = pick(rng, c);
        const bool exclusive = rng.chance(0.4);

        // What the removed broadcast would have seen: the other caches
        // holding the line, and whether one of them held it Modified.
        std::uint64_t others = 0;
        bool remoteM = false;
        for (CoreId o = 0; o < cores; o++) {
            const CacheState st = mem.cache(o).lineState(line);
            if (o != c && st != CacheState::Invalid) {
                others |= 1ULL << o;
                remoteM |= st == CacheState::Modified;
            }
        }
        std::vector<std::pair<Addr, CacheState>> before;
        mem.cache(c).forEachL2Line([&](Addr l, CacheState st) {
            if (l2Set(l) == l2Set(line))
                before.emplace_back(l, st);
        });

        const bool remote = mem.funcAccess(c, line, exclusive, step);
        const CacheState mine = mem.cache(c).lineState(line);
        if (exclusive) {
            ASSERT_EQ(remote, remoteM) << "step " << step;
            ASSERT_EQ(mine, CacheState::Modified);
            for (std::uint64_t o = others; o; o &= o - 1) {
                ASSERT_EQ(mem.cache(static_cast<CoreId>(
                                        std::countr_zero(o)))
                              .lineState(line),
                          CacheState::Invalid)
                    << "step " << step << ": a copy survived a write";
            }
            invalidatingWrites += others != 0;
        } else {
            ASSERT_NE(mine, CacheState::Invalid);
        }
        remoteFills += remote;
        for (const auto &[l, st] : before) {
            if (mem.cache(c).lineState(l) != CacheState::Invalid)
                continue;
            evictions++;
            if (st == CacheState::Modified) {
                dirtyEvictions++;
                ASSERT_NE(home(l).lineOwner(l), c)
                    << "dirty victim 0x" << std::hex << l
                    << " still owned by its evictor";
            }
        }
        const std::string bad = uncovered();
        ASSERT_EQ(bad, "") << "step " << step;
    }
    // The mix did reach every path (about 4.6k / 2.6k / 3.9k / 3.9k).
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(dirtyEvictions, 500u);
    EXPECT_GT(remoteFills, 1000u);
    EXPECT_GT(invalidatingWrites, 1000u);
}

// Functional warm-up on every workload profile leaves state the swmr
// check accepts at each warm mark. The functional entry points sweep
// the enabled checks once on return, so ROWSIM_CHECK covers sampled
// runs; the sweep counts prove each entry point did.
TEST(FuncMode, WarmupIsSwmrCleanOnEveryProfile)
{
    const std::uint32_t saved = Checker::mask();
    std::vector<std::string> profiles = allWorkloads();
    profiles.push_back("counter");
    for (const std::string &wl : profiles) {
        SCOPED_TRACE(wl);
        SystemParams sp = makeParams(
            rowConfig(ContentionDetector::RWDir,
                      PredictorUpdate::SaturateOnContention),
            32, 5);
        sp.checkCategories = "swmr";
        System sys(sp, makeStreams(profileFor(wl), 32, 5));
        ASSERT_TRUE(Checker::enabled(CheckCategory::Swmr));
        std::uint64_t sweeps = sys.checker().sweepsRun();
        for (std::uint64_t mark : {4, 8, 12}) {
            ASSERT_NO_THROW(sys.runFunctional(16, mark)) << "mark " << mark;
            EXPECT_EQ(sys.checker().sweepsRun(), ++sweeps)
                << "runFunctional must sweep once on return";
        }
        std::vector<std::uint64_t> targets;
        for (CoreId c = 0; c < 32; c++)
            targets.push_back(sys.core(c).committedInstructions() + 500);
        ASSERT_NO_THROW(sys.runFunctionalToInstCounts(targets));
        EXPECT_EQ(sys.checker().sweepsRun(), sweeps + 1)
            << "runFunctionalToInstCounts must sweep once on return";
    }
    Checker::configure(saved);
}
