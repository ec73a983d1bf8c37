/**
 * @file
 * Sweep-engine tests: parallel execution must be bit-identical to
 * serial (full stats tree, not just headline cycles), results must come
 * back in submission order, thread-count selection must honour the env
 * override, a failing job must surface as the rethrown first error and
 * leave the other jobs in the result store, and rowsim_sweep must reject
 * malformed arguments by name.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

using namespace rowsim;

namespace
{

namespace fs = std::filesystem;

/** ≥8 distinct configs x 2 seeds, spanning both contention extremes and
 *  every policy family; small quotas keep the suite fast. */
std::vector<SweepJob>
jobMatrix()
{
    const ExpConfig configs[] = {
        eagerConfig(),
        eagerConfig(true),
        lazyConfig(),
        fencedConfig(),
        rowConfig(ContentionDetector::EW, PredictorUpdate::UpDown),
        rowConfig(ContentionDetector::RW,
                  PredictorUpdate::SaturateOnContention),
        rowConfig(ContentionDetector::RWDir, PredictorUpdate::UpDown),
        rowConfig(ContentionDetector::RWDir,
                  PredictorUpdate::SaturateOnContention, true),
    };
    const char *workloads[] = {"pc", "canneal", "cq", "tpcc",
                               "sps", "freqmine", "barnes", "tatp"};
    std::vector<SweepJob> jobs;
    unsigned i = 0;
    for (const ExpConfig &cfg : configs) {
        for (std::uint64_t seed : {1ull, 7ull}) {
            SweepJob j;
            j.workload = workloads[i % 8];
            j.cfg = cfg;
            j.numCores = 8;
            j.quota = 40;
            j.seed = seed;
            j.captureStatsJson = true;
            jobs.push_back(std::move(j));
        }
        i++;
    }
    return jobs;
}

} // namespace

TEST(Sweep, ParallelBitIdenticalToSerial)
{
    const std::vector<SweepJob> jobs = jobMatrix();
    ASSERT_GE(jobs.size(), 16u);

    std::vector<RunResult> serial = SweepEngine(1).run(jobs);
    std::vector<RunResult> parallel = SweepEngine(8).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        EXPECT_EQ(serial[k].cycles, parallel[k].cycles) << k;
        EXPECT_FALSE(serial[k].statsJson.empty()) << k;
        EXPECT_EQ(serial[k].statsJson, parallel[k].statsJson)
            << jobs[k].workload << "/" << jobs[k].cfg.label << " seed "
            << jobs[k].seed;
    }
}

TEST(Sweep, ResultsInSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    for (const char *w : {"pc", "canneal", "cq"}) {
        SweepJob j;
        j.workload = w;
        j.cfg = eagerConfig();
        j.numCores = 8;
        j.quota = 30;
        jobs.push_back(std::move(j));
    }
    std::vector<RunResult> results = SweepEngine(3).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t k = 0; k < jobs.size(); ++k)
        EXPECT_EQ(results[k].workload, jobs[k].workload);
}

TEST(Sweep, MatchesDirectRunExperiment)
{
    SweepJob j;
    j.workload = "tpcc";
    j.cfg = lazyConfig();
    j.numCores = 8;
    j.quota = 40;
    j.captureStatsJson = true;
    std::vector<RunResult> viaSweep = SweepEngine(4).run({j});
    RunResult direct = runExperiment(j.workload, j.cfg, j.numCores,
                                     j.quota, j.seed, true);
    ASSERT_EQ(viaSweep.size(), 1u);
    EXPECT_EQ(viaSweep[0].cycles, direct.cycles);
    EXPECT_EQ(viaSweep[0].statsJson, direct.statsJson);
}

TEST(Sweep, StrictModeRethrowsFirstErrorInSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    SweepJob good;
    good.workload = "canneal";
    good.cfg = eagerConfig();
    good.numCores = 8;
    good.quota = 20;
    jobs.push_back(good);
    SweepJob bad = good;
    bad.workload = "no-such-workload";
    jobs.push_back(bad);
    jobs.push_back(good);
    SweepOptions strict;
    strict.threads = 2;
    strict.strict = true;
    EXPECT_THROW(SweepEngine(strict).run(jobs), std::runtime_error);
}

TEST(Sweep, ErrorsCapturedPerJobWithoutAborting)
{
    std::vector<SweepJob> jobs;
    SweepJob good;
    good.workload = "canneal";
    good.cfg = eagerConfig();
    good.numCores = 8;
    good.quota = 20;
    jobs.push_back(good);
    SweepJob bad = good;
    bad.workload = "no-such-workload";
    jobs.push_back(bad);
    jobs.push_back(good);

    // Default mode: the failed job is reported in place, the rest of
    // the sweep completes.
    std::vector<RunResult> results = SweepEngine(2).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_GT(results[0].cycles, 0u);
    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status, RunStatus::Failed);
    EXPECT_EQ(results[1].workload, "no-such-workload");
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_TRUE(results[2].ok());
    EXPECT_GT(results[2].cycles, 0u);

    // The failure rides along in the JSON report; ok lines stay clean.
    EXPECT_NE(results[1].toJson().find("\"status\":\"failed\""),
              std::string::npos);
    EXPECT_EQ(results[0].toJson().find("\"status\""), std::string::npos);
}

TEST(Sweep, DefaultThreadsHonoursEnvOverride)
{
    ::setenv("ROWSIM_SWEEP_THREADS", "3", 1);
    EXPECT_EQ(SweepEngine::defaultThreads(), 3u);
    EXPECT_EQ(SweepEngine(0).threads(), 3u);
    ::setenv("ROWSIM_SWEEP_THREADS", "0", 1);
    EXPECT_EQ(SweepEngine::defaultThreads(), 1u);
    ::unsetenv("ROWSIM_SWEEP_THREADS");
    EXPECT_GE(SweepEngine::defaultThreads(), 1u);
}

TEST(Sweep, OptionsFromEnv)
{
    ::setenv("ROWSIM_SWEEP_THREADS", "5", 1);
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", "sweep-env-store", 1);
    SweepOptions o = SweepOptions::fromEnv();
    EXPECT_EQ(o.threads, 5u);
    EXPECT_FALSE(o.strict);
    EXPECT_EQ(o.storeDir, "sweep-env-store");
    ::unsetenv("ROWSIM_SWEEP_THREADS");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    EXPECT_TRUE(SweepOptions::fromEnv().storeDir.empty());
}

// A failed job costs only itself: the jobs around it are stored, a
// rerun serves them byte-identically, and the failure is not stored.
TEST(Sweep, FailedJobKeepsTheOthersInTheStore)
{
    const std::string dir = "sweep-failed-store";
    fs::remove_all(dir);
    SweepJob good;
    good.workload = "canneal";
    good.cfg = eagerConfig();
    good.numCores = 8;
    good.quota = 20;
    SweepJob bad = good;
    bad.workload = "no-such-workload";
    SweepJob other = good;
    other.cfg = lazyConfig();
    const std::vector<SweepJob> jobs = {good, bad, other};

    SweepOptions o;
    o.threads = 2;
    o.storeDir = dir;
    const std::vector<RunResult> cold = SweepEngine(o).run(jobs);
    const std::vector<RunResult> warm = SweepEngine(o).run(jobs);
    ASSERT_EQ(warm.size(), 3u);
    for (std::size_t k : {0u, 2u}) {
        ASSERT_TRUE(cold[k].ok()) << cold[k].error;
        EXPECT_FALSE(cold[k].fromCache) << k;
        EXPECT_TRUE(warm[k].fromCache) << k;
        EXPECT_EQ(warm[k].toJson(), cold[k].toJson()) << k;
    }
    EXPECT_EQ(cold[1].status, RunStatus::Failed);
    EXPECT_EQ(warm[1].status, RunStatus::Failed);
    EXPECT_FALSE(warm[1].fromCache);

    std::size_t entries = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        entries += e.path().extension() == ".res";
    EXPECT_EQ(entries, 2u);
    fs::remove_all(dir);
}

// The CLI rejects a malformed number, and a retired flag, by name and
// with a non-zero exit instead of running with a wrapped or default
// value.
TEST(Sweep, CliRejectsMalformedNumbersAndRetiredFlags)
{
    const std::string err = "rowsim_sweep_cli.err";
    const struct
    {
        std::string args;
        const char *flag;
    } cases[] = {
        {"--quota -1 --list fig06", "--quota"},
        {"--jobs '' --list fig06", "--jobs"},
        {"--jobs 1025 --list fig06", "--jobs"},
        {"--quota 99999999999999999999999 --list fig06", "--quota"},
        {"--isolate process fig06", "--isolate"},
    };
    for (const auto &c : cases) {
        const std::string cmd = std::string(ROWSIM_SWEEP_PATH) + " " +
                                c.args + " > /dev/null 2> " + err;
        const int rc = std::system(cmd.c_str());
        EXPECT_FALSE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << c.args;
        std::ifstream in(err);
        const std::string text{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
        EXPECT_NE(text.find(c.flag), std::string::npos)
            << c.args << " gave \"" << text << "\"";
    }
    std::remove(err.c_str());
}
