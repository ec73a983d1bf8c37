/**
 * @file
 * rowsim_sweep: resumable figure sweeps.
 *
 * Runs the full job matrix behind a figure (fig06 latency breakdown,
 * fig09 normalized-performance bars) through the SweepEngine, with the
 * content-addressed result store turned on so the sweep is an
 * incremental query: jobs whose key already has a valid entry are
 * served from disk, everything else is computed on the engine's thread
 * pool and persisted as it finishes. A failing job is reported in place
 * and the rest completes; a killed sweep leaves every finished job in
 * the store for --resume.
 *
 * Typical flow:
 *   rowsim_sweep --store results/ fig09          # cold: compute + fill
 *   rowsim_sweep --store results/ fig09          # warm: seconds, not hours
 *   rowsim_sweep --store results/ --resume fig09 # recompute only holes
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/sweep.hh"

using namespace rowsim;

namespace
{

struct CliOptions
{
    std::string figure;
    bool resume = false;
    bool list = false;
    bool expectCached = false;
    std::string reportPath;
    std::uint64_t quota = 0;            ///< 0 = per-workload default
    std::vector<std::string> onlyWorkloads; ///< empty = full matrix
    /** Environment policy; --store sets its storeDir. */
    SweepOptions sweep = SweepOptions::fromEnv();
};

void
usage(FILE *out)
{
    std::fprintf(out,
        "usage: rowsim_sweep [options] <fig06|fig09>\n"
        "\n"
        "Run a figure's full job matrix as a resumable sweep backed by\n"
        "the content-addressed result store.\n"
        "\n"
        "  --store DIR          enable the result store rooted at DIR\n"
        "                       (ROWSIM_RESULTS=on in that directory)\n"
        "  --resume             serve stored results without dispatching;\n"
        "                       only missing/invalid entries are computed\n"
        "                       (needs --store or ROWSIM_RESULTS=on)\n"
        "  --jobs N             worker threads, 0 (serial) .. 1024\n"
        "                       (default: cores, or ROWSIM_SWEEP_THREADS)\n"
        "  --strict             fail fast: abort the sweep on any failure\n"
        "  --report PATH        append one JSON line per result (- = stdout)\n"
        "  --quota N            override every job's iteration quota\n"
        "                       (default: per-workload figure quotas).\n"
        "                       Long quotas are where sampled execution\n"
        "                       (ROWSIM_SAMPLE) beats detail wall clock\n"
        "  --workload W         restrict the matrix to workload W\n"
        "                       (repeatable)\n"
        "  --list               print the job matrix and exit\n"
        "  --expect-cached      exit 1 if any job had to be recomputed\n"
        "                       (needs --store or ROWSIM_RESULTS=on)\n");
}

/** --jobs, checked against the ROWSIM_SWEEP_THREADS range; 0 runs
 *  serially, as that knob's 0 does (the engine reads a thread count of
 *  0 as "the default"). */
unsigned
parseJobs(const char *text)
{
    const std::uint64_t n = parseEnvU64("--jobs", text);
    for (const Knob &k : knobs()) {
        if (std::string(k.name) == "ROWSIM_SWEEP_THREADS" && n > k.hi)
            ROWSIM_FATAL("--jobs: value %llu outside [0, %llu]",
                         static_cast<unsigned long long>(n),
                         static_cast<unsigned long long>(k.hi));
    }
    return std::max(static_cast<unsigned>(n), 1u);
}

/** The job matrix behind one figure. */
std::vector<SweepJob>
jobsFor(const std::string &figure)
{
    std::vector<SweepJob> jobs;
    if (figure == "fig09") {
        // Fig. 9: every policy bar for every atomic-intensive workload,
        // full stats captured so downstream plotting can drill in.
        for (const std::string &w : atomicIntensiveWorkloads()) {
            for (const ExpConfig &cfg : fig9Configs()) {
                SweepJob j;
                j.workload = w;
                j.cfg = cfg;
                j.numCores = 32;
                j.seed = 1;
                j.captureStatsJson = true;
                jobs.push_back(std::move(j));
            }
        }
    } else if (figure == "fig06") {
        // Fig. 6: eager vs lazy atomic-phase latency breakdown.
        for (const std::string &w : atomicIntensiveWorkloads()) {
            for (const ExpConfig &cfg : {eagerConfig(), lazyConfig()}) {
                SweepJob j;
                j.workload = w;
                j.cfg = cfg;
                j.numCores = 32;
                j.seed = 1;
                jobs.push_back(std::move(j));
            }
        }
    } else {
        ROWSIM_FATAL("rowsim_sweep: unknown figure \"%s\" (want fig06 or fig09)",
              figure.c_str());
    }
    return jobs;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions o;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                ROWSIM_FATAL("rowsim_sweep: %s needs an argument", flag);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--store") {
            o.sweep.storeDir = next("--store");
            if (o.sweep.storeDir.empty())
                ROWSIM_FATAL("rowsim_sweep: --store needs a directory");
        } else if (arg == "--resume") {
            o.resume = true;
        } else if (arg == "--jobs") {
            o.sweep.threads = parseJobs(next("--jobs"));
        } else if (arg == "--strict") {
            o.sweep.strict = true;
        } else if (arg == "--report") {
            o.reportPath = next("--report");
        } else if (arg == "--quota") {
            o.quota = parseEnvU64("--quota", next("--quota"));
        } else if (arg == "--workload") {
            o.onlyWorkloads.emplace_back(next("--workload"));
        } else if (arg == "--list") {
            o.list = true;
        } else if (arg == "--expect-cached") {
            o.expectCached = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(stderr);
            ROWSIM_FATAL("rowsim_sweep: unknown option \"%s\"", arg.c_str());
        } else if (o.figure.empty()) {
            o.figure = arg;
        } else {
            ROWSIM_FATAL("rowsim_sweep: more than one figure given "
                  "(\"%s\" and \"%s\")", o.figure.c_str(), arg.c_str());
        }
    }
    if (o.figure.empty() && !o.list) {
        usage(stderr);
        ROWSIM_FATAL("rowsim_sweep: no figure given");
    }
    // Both flags ask about stored results; without a store every job
    // would be recomputed and nothing kept.
    if ((o.resume || o.expectCached) && o.sweep.storeDir.empty())
        ROWSIM_FATAL("rowsim_sweep: %s needs a result store (--store DIR "
                     "or ROWSIM_RESULTS=on)",
                     o.resume ? "--resume" : "--expect-cached");
    return o;
}

} // namespace

int
cliMain(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    std::vector<SweepJob> jobs = jobsFor(opt.figure);
    if (!opt.onlyWorkloads.empty()) {
        std::erase_if(jobs, [&](const SweepJob &j) {
            return std::find(opt.onlyWorkloads.begin(),
                             opt.onlyWorkloads.end(),
                             j.workload) == opt.onlyWorkloads.end();
        });
        if (jobs.empty())
            ROWSIM_FATAL("rowsim_sweep: --workload filter matched no job in %s",
                  opt.figure.c_str());
    }
    if (opt.quota) {
        for (SweepJob &j : jobs)
            j.quota = opt.quota;
    }

    if (opt.list) {
        std::printf("%-4s %-12s %-24s %5s %4s\n", "idx", "workload",
                    "config", "cores", "seed");
        for (std::size_t i = 0; i < jobs.size(); i++)
            std::printf("%-4zu %-12s %-24s %5u %4llu\n", i,
                        jobs[i].workload.c_str(), jobs[i].cfg.label.c_str(),
                        jobs[i].numCores,
                        static_cast<unsigned long long>(jobs[i].seed));
        return 0;
    }

    // --resume: answer as much of the query as possible straight from
    // the store, and only dispatch the holes (missing, quarantined, or
    // schema-stale entries) to the engine.
    std::vector<RunResult> results(jobs.size());
    std::vector<bool> served(jobs.size(), false);
    std::size_t precached = 0;
    if (opt.resume) {
        ResultStore store(opt.sweep.storeDir);
        for (std::size_t i = 0; i < jobs.size(); i++) {
            const SweepJob &j = jobs[i];
            const std::uint64_t quota =
                j.quota ? j.quota : defaultQuota(j.workload);
            const ResultKey key = ResultStore::keyFor(
                makeParams(j.cfg, j.numCores, j.seed), j.workload,
                j.cfg.label, quota);
            if (store.serve(key, j.captureStatsJson, results[i])) {
                served[i] = true;
                precached++;
            }
        }
    }

    std::vector<SweepJob> pending;
    std::vector<std::size_t> pendingIdx;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (!served[i]) {
            pending.push_back(jobs[i]);
            pendingIdx.push_back(i);
        }
    }

    std::printf("rowsim_sweep: %s, %zu jobs (%zu from store, %zu to run)\n",
                opt.figure.c_str(), jobs.size(), precached, pending.size());
    std::fflush(stdout);

    if (!pending.empty()) {
        std::vector<RunResult> ran = SweepEngine(opt.sweep).run(pending);
        for (std::size_t k = 0; k < pendingIdx.size(); k++)
            results[pendingIdx[k]] = std::move(ran[k]);
    }

    std::size_t okCount = 0, cachedCount = 0, failedCount = 0;
    for (std::size_t i = 0; i < results.size(); i++) {
        const RunResult &r = results[i];
        if (r.ok())
            okCount++;
        else
            failedCount++;
        if (r.fromCache)
            cachedCount++;
        if (r.ok()) {
            std::printf("[%3zu] %-12s %-24s ok%s  cycles=%llu\n", i,
                        r.workload.c_str(), r.config.c_str(),
                        r.fromCache ? " (cached)" : "",
                        static_cast<unsigned long long>(r.cycles));
        } else {
            std::printf("[%3zu] %-12s %-24s %s: %s\n", i,
                        r.workload.c_str(), r.config.c_str(),
                        runStatusName(r.status), r.error.c_str());
        }
        if (!opt.reportPath.empty())
            writeRunReport(r, opt.reportPath);
    }
    std::printf("rowsim_sweep: %zu ok (%zu cached), %zu failed\n", okCount,
                cachedCount, failedCount);

    if (opt.expectCached && cachedCount != results.size()) {
        std::fprintf(stderr,
                     "rowsim_sweep: --expect-cached but %zu of %zu jobs "
                     "were recomputed\n",
                     results.size() - cachedCount, results.size());
        return 1;
    }
    return failedCount == 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return rowsim::runMain(cliMain, argc, argv);
}
