/**
 * @file
 * Sweep-engine tests: parallel execution must be bit-identical to
 * serial (full stats tree, not just headline cycles), results must come
 * back in submission order, thread-count selection must honour the env
 * override, a failing job must surface as the rethrown first error and
 * leave the other jobs in the result store, label aliases of one
 * configuration must simulate once, every job must write its own stats
 * tree, and rowsim_sweep must reject malformed arguments by name. The figure table's cells look results up
 * by (workload, label), so each pair must name one configuration.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/figures.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
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
            SweepJob j = sweepJob(workloads[i % 8], cfg, 8, 40, seed);
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
            << jobs[k].workload << "/" << jobs[k].label << " seed "
            << jobs[k].params.seed;
    }
}

TEST(Sweep, ResultsInSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    for (const char *w : {"pc", "canneal", "cq"})
        jobs.push_back(sweepJob(w, eagerConfig(), 8, 30));
    std::vector<RunResult> results = SweepEngine(3).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t k = 0; k < jobs.size(); ++k)
        EXPECT_EQ(results[k].workload, jobs[k].workload);
}

TEST(Sweep, MatchesDirectRunExperiment)
{
    SweepJob j = sweepJob("tpcc", lazyConfig(), 8, 40);
    j.captureStatsJson = true;
    std::vector<RunResult> viaSweep = SweepEngine(4).run({j});
    RunResult direct = runExperiment("tpcc", lazyConfig(), 8, 40, 1, true);
    ASSERT_EQ(viaSweep.size(), 1u);
    EXPECT_EQ(viaSweep[0].cycles, direct.cycles);
    EXPECT_EQ(viaSweep[0].statsJson, direct.statsJson);
}

TEST(Sweep, StrictModeRethrowsFirstErrorInSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    const SweepJob good = sweepJob("canneal", eagerConfig(), 8, 20);
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
    const SweepJob good = sweepJob("canneal", eagerConfig(), 8, 20);
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
    const SweepJob good = sweepJob("canneal", eagerConfig(), 8, 20);
    SweepJob bad = good;
    bad.workload = "no-such-workload";
    const SweepJob other = sweepJob("canneal", lazyConfig(), 8, 20);
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

// Two labels of one configuration (figure tables name the same machine
// differently, e.g. RW+Dir_Sat and thr_400) share one store entry: the
// sweep simulates it once and serves the repeat under its own label.
TEST(Sweep, LabelAliasesSimulateOnce)
{
    const std::string dir = "sweep-label-alias";
    fs::remove_all(dir);
    const SweepJob job = sweepJob("canneal", eagerConfig(), 8, 20);
    SweepJob alias = job;
    alias.label = "alias";

    SweepOptions o;
    o.threads = 2;
    o.storeDir = dir;
    const std::vector<RunResult> r = SweepEngine(o).run({job, alias});
    ASSERT_EQ(r.size(), 2u);
    ASSERT_TRUE(r[0].ok()) << r[0].error;
    ASSERT_TRUE(r[1].ok()) << r[1].error;
    EXPECT_FALSE(r[0].fromCache);
    EXPECT_TRUE(r[1].fromCache);
    EXPECT_EQ(r[0].cycles, r[1].cycles);
    EXPECT_EQ(r[0].config, "eager");
    EXPECT_EQ(r[1].config, "alias");

    std::size_t entries = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        entries += e.path().extension() == ".res";
    EXPECT_EQ(entries, 1u);
    fs::remove_all(dir);
}

// ROWSIM_STATS_JSON carries the job key inside a sweep, like every other
// per-run sink: concurrent jobs never truncate one shared file.
TEST(Sweep, EveryJobWritesItsOwnStatsTree)
{
    const std::vector<SweepJob> jobs = {
        sweepJob("canneal", eagerConfig(), 8, 20),
        sweepJob("canneal", lazyConfig(), 8, 20)};
    ::setenv("ROWSIM_STATS_JSON", "sweep-stats.json", 1);
    SweepOptions o;
    o.threads = 2;
    const std::vector<RunResult> r = SweepEngine(o).run(jobs);
    ::unsetenv("ROWSIM_STATS_JSON");

    EXPECT_FALSE(fs::exists("sweep-stats.json"));
    for (std::size_t k = 0; k < jobs.size(); k++) {
        ASSERT_TRUE(r[k].ok()) << r[k].error;
        const std::string path = "sweep-stats.j" + std::to_string(k) +
                                 ".json";
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const Json tree = parseJson(text);
        EXPECT_EQ(tree.at("cycles").asU64(), r[k].cycles) << path;
        EXPECT_TRUE(tree.at("groups").has("sim")) << path;
        fs::remove(path);
    }
}

// The CLI rejects a malformed number, a retired flag, and a store flag
// without a store, by name and with a non-zero exit status instead of
// running with a wrapped or default value (or aborting).
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
        // Retired: every job already serves a stored result itself.
        {"--resume --workload pc --quota 20 fig06", "--resume"},
        // Without a store nothing could be served or kept.
        {"--expect-cached --workload pc --quota 20 fig06",
         "--expect-cached"},
    };
    for (const auto &c : cases) {
        const std::string cmd = std::string(ROWSIM_SWEEP_PATH) + " " +
                                c.args + " > /dev/null 2> " + err;
        const int rc = std::system(cmd.c_str());
        // A usage error exits with a status; it does not abort.
        EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) != 0)
            << c.args << " gave wait status " << rc;
        std::ifstream in(err);
        const std::string text{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
        EXPECT_NE(text.find(c.flag), std::string::npos)
            << c.args << " gave \"" << text << "\"";
        const std::size_t fatal = text.find("fatal:");
        EXPECT_NE(fatal, std::string::npos) << c.args;
        EXPECT_EQ(text.find("fatal:", fatal + 1), std::string::npos)
            << c.args << " printed the fatal line twice: " << text;
    }
    std::remove(err.c_str());
}

namespace
{

/** Run rowsim_sweep with @p args; its exit status and stdout. */
std::pair<int, std::string>
runSweepCli(const std::string &args)
{
    // ctest runs the tests of this file concurrently: one file each.
    const std::string out =
        std::string("rowsim_sweep_cli.") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".out";
    const std::string cmd = std::string(ROWSIM_SWEEP_PATH) + " " + args +
                            " > " + out + " 2> /dev/null";
    const int rc = std::system(cmd.c_str());
    std::ifstream in(out);
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    std::remove(out.c_str());
    return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, text};
}

} // namespace

// A (workload, label) pair is the only key the cells read a result by:
// within an entry it must name one configuration, and one job.
TEST(FigureTable, WorkloadLabelNamesOneConfig)
{
    for (const Figure &f : figures()) {
        std::map<std::pair<std::string, std::string>, std::uint64_t> seen;
        for (const SweepJob &j : f.jobs) {
            const std::uint64_t fp = configFingerprint(j.params, 0, 0, 0);
            const auto [it, fresh] =
                seen.emplace(std::pair(j.workload, j.label), fp);
            EXPECT_TRUE(fresh) << f.name << ": " << j.workload << "/"
                               << j.label << " runs twice";
            EXPECT_EQ(it->second, fp)
                << f.name << ": " << j.workload << "/" << j.label
                << " names two configurations";
        }
    }
}

// The matrices CI compares across builds keep their size and order:
// fig09 is every Fig. 9 bar for every atomic-intensive workload,
// workload-major, and fig06 is eager then lazy per workload.
TEST(FigureTable, MatricesKeepTheirOrder)
{
    const std::vector<SweepJob> &fig09 = findFigure("fig09").jobs;
    const std::vector<ExpConfig> cfgs = fig9Configs();
    ASSERT_EQ(fig09.size(), 104u);
    std::size_t i = 0;
    for (const std::string &w : atomicIntensiveWorkloads()) {
        for (const ExpConfig &cfg : cfgs) {
            EXPECT_EQ(fig09[i].workload, w) << i;
            EXPECT_EQ(fig09[i].label, cfg.label) << i;
            EXPECT_EQ(configFingerprint(fig09[i].params, 0, 0, 0),
                      configFingerprint(makeParams(cfg, 32, 1), 0, 0, 0))
                << i;
            EXPECT_FALSE(fig09[i].captureStatsJson) << i;
            i++;
        }
    }
    EXPECT_EQ(findFigure("fig06").jobs.size(), 26u);
    EXPECT_TRUE(findFigure("fig02").jobs.empty());
}

TEST(FigureTable, TablePrintsTheBenchLayout)
{
    FigureTable t("T");
    t.cell("a", "x", 1.0);
    t.cell("b", "y", 2.5);
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    t.print(f);
    std::fclose(f);
    const std::string text(buf, len);
    std::free(buf);
    EXPECT_EQ(text, "\n=== T ===\n"
                    "                           x            y\n"
                    "a                      1.000            -\n"
                    "b                          -        2.500\n");
}

// --list without a figure names every entry with its job count.
TEST(Sweep, CliListsTheFigureTable)
{
    const auto [rc, text] = runSweepCli("--list");
    EXPECT_EQ(rc, 0) << text;
    for (const Figure &f : figures()) {
        char line[64];
        std::snprintf(line, sizeof line, "%-20s %4zu jobs\n",
                      f.name.c_str(), f.jobs.size());
        EXPECT_NE(text.find(line), std::string::npos) << f.name << text;
    }
    const auto [bad, none] = runSweepCli("fig99");
    EXPECT_EQ(bad, 1);
}

// A figure with no sweep jobs still prints its table.
TEST(Sweep, CliPrintsAFigureWithoutJobs)
{
    const auto [rc, text] = runSweepCli("fig02");
    EXPECT_EQ(rc, 0) << text;
    EXPECT_NE(text.find("fig02, 0 jobs"), std::string::npos) << text;
    EXPECT_NE(text.find("=== Fig. 2 — microbenchmark cycles per iteration"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("new/SWAP"), std::string::npos) << text;
}

// A figure run fills the store and prints its table; the rerun serves
// every job from the store and prints the same table.
TEST(Sweep, CliFigureRerunIsCached)
{
    const std::string dir = "sweep-cli-store";
    fs::remove_all(dir);
    const std::string args = "--store " + dir + " --quota 20 fig05";
    const auto [rc, cold] = runSweepCli(args);
    ASSERT_EQ(rc, 0) << cold;
    EXPECT_NE(cold.find("13 ok (0 cached), 0 failed"), std::string::npos)
        << cold;
    const std::size_t table = cold.find("\n=== Fig. 5");
    ASSERT_NE(table, std::string::npos) << cold;

    const auto [rc2, warm] = runSweepCli("--expect-cached " + args);
    EXPECT_EQ(rc2, 0) << warm;
    EXPECT_NE(warm.find("13 ok (13 cached), 0 failed"), std::string::npos)
        << warm;
    const std::size_t warmTable = warm.find("\n=== Fig. 5");
    ASSERT_NE(warmTable, std::string::npos) << warm;
    EXPECT_EQ(warm.substr(warmTable), cold.substr(table));
    fs::remove_all(dir);
}
