/**
 * @file
 * Functional fast-mode + sampling tests: a func-warmed checkpoint must
 * resume into detail mode bit-identically to the in-process
 * continuation; the functional interpreter must reproduce the detail
 * run's mode-independent architectural facts (funcStateDigest) on
 * order-insensitive workloads at matched instruction counts; sampled
 * runs must be deterministic across sweep thread counts and isolation
 * modes; the "sampling" report key must appear exactly when
 * ROWSIM_SAMPLE is active; and malformed specs / incompatible
 * observability setups must fail loudly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
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
// across sweep thread counts and across thread/process isolation.
TEST(FuncMode, SampledRunDeterministicAcrossThreadsAndIsolation)
{
    const std::string dir = scratchDir("sample-det");
    ScopedEnv ckpt("ROWSIM_CKPT_DIR", dir);
    ScopedEnv sample("ROWSIM_SAMPLE", "4:1:4");

    ::setenv("ROWSIM_SWEEP_THREADS", "1", 1);
    const RunResult one = runExperiment("counter", eagerConfig(), 4, 80);
    ASSERT_TRUE(one.ok());
    ASSERT_FALSE(one.samplingJson.empty());

    ::setenv("ROWSIM_SWEEP_THREADS", "8", 1);
    const RunResult eight = runExperiment("counter", eagerConfig(), 4, 80);
    EXPECT_EQ(eight.samplingJson, one.samplingJson);
    EXPECT_EQ(eight.toJson(), one.toJson());

    ::setenv("ROWSIM_SWEEP_ISOLATE", "process", 1);
    const RunResult isolated =
        runExperiment("counter", eagerConfig(), 4, 80);
    EXPECT_EQ(isolated.samplingJson, one.samplingJson);
    EXPECT_EQ(isolated.toJson(), one.toJson());

    ::unsetenv("ROWSIM_SWEEP_ISOLATE");
    ::unsetenv("ROWSIM_SWEEP_THREADS");
    std::filesystem::remove_all(dir);
}

// Sampled aggregate shape: the grid follows the documented arithmetic,
// every window reports, and the run report carries the "sampling" key
// — which must be absent (and the summary empty) without ROWSIM_SAMPLE,
// preserving the historical report byte layout.
TEST(FuncMode, SamplingReportShapeAndAbsence)
{
    const std::string dir = scratchDir("sample-shape");
    ScopedEnv ckpt("ROWSIM_CKPT_DIR", dir);

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
    std::filesystem::remove_all(dir);
}

// Sampling windows are first-class result-store citizens: a sampled
// rerun with the store enabled recomputes nothing (every window is a
// hit), and still reproduces the aggregate byte-identically.
TEST(FuncMode, SampledWindowsServeFromResultStore)
{
    const std::string dir = scratchDir("sample-store");
    ScopedEnv ckpt("ROWSIM_CKPT_DIR", dir + "/ckpt");
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
    std::string a = cold.samplingJson, b = warm.samplingJson;
    const std::string f = "\"fromCache\":false", t = "\"fromCache\":true";
    for (std::size_t at; (at = a.find(f)) != std::string::npos;)
        a.replace(at, f.size(), t);
    EXPECT_EQ(a, b);

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
