/**
 * @file
 * rowsim_sweep: regenerate one paper figure through the result store.
 *
 * Runs the job matrix of any entry of the figure table (src/sim/
 * figures.hh) through the SweepEngine and prints one line per job, then
 * the figure's tables. With a result store every job is an incremental
 * query: a job whose key already has a valid entry is served from disk,
 * everything else is computed on the engine's thread pool and persisted
 * as it finishes. A failing job is reported in place and the rest
 * completes; a killed sweep leaves every finished job in the store, so
 * a rerun computes only the holes.
 *
 * Typical flow:
 *   rowsim_sweep --list                          # the figure table
 *   rowsim_sweep --store results/ fig09          # cold: compute + fill
 *   rowsim_sweep --store results/ fig09          # warm: seconds, not hours
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/figures.hh"
#include "sim/sweep.hh"

using namespace rowsim;

namespace
{

struct CliOptions
{
    std::string figure;
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
        "usage: rowsim_sweep [options] <figure>\n"
        "       rowsim_sweep --list\n"
        "\n"
        "Run a figure's full job matrix, backed by the content-addressed\n"
        "result store when one is on, and print the figure's tables.\n"
        "\n"
        "  --store DIR          enable the result store rooted at DIR\n"
        "                       (ROWSIM_RESULTS=on in that directory)\n"
        "  --jobs N             worker threads, 0 (serial) .. 1024\n"
        "                       (default: cores, or ROWSIM_SWEEP_THREADS)\n"
        "  --strict             fail fast: abort the sweep on any failure\n"
        "  --report PATH        append one JSON line per result (- = stdout)\n"
        "  --quota N            override every job's iteration quota\n"
        "                       (default: per-workload figure quotas).\n"
        "                       Long quotas are where sampled execution\n"
        "                       (ROWSIM_SAMPLE) beats detail wall clock\n"
        "  --workload W         restrict the matrix to workload W\n"
        "                       (repeatable; the tables are then skipped)\n"
        "  --list               print the job matrix and exit; without a\n"
        "                       figure, name every figure and its job count\n"
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
    // Without a store every job would be recomputed and nothing kept.
    if (o.expectCached && o.sweep.storeDir.empty())
        ROWSIM_FATAL("rowsim_sweep: --expect-cached needs a result store "
                     "(--store DIR or ROWSIM_RESULTS=on)");
    return o;
}

} // namespace

int
cliMain(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    if (opt.list && opt.figure.empty()) {
        for (const Figure &f : figures())
            std::printf("%-20s %4zu jobs\n", f.name.c_str(), f.jobs.size());
        return 0;
    }

    const Figure &fig = findFigure(opt.figure);
    std::vector<SweepJob> jobs = fig.jobs;
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
                        jobs[i].workload.c_str(), jobs[i].label.c_str(),
                        jobs[i].params.numCores,
                        static_cast<unsigned long long>(
                            jobs[i].params.seed));
        return 0;
    }

    std::printf("rowsim_sweep: %s, %zu jobs\n", opt.figure.c_str(),
                jobs.size());
    std::fflush(stdout);

    // Each job serves a stored result or computes and stores its own.
    const std::vector<RunResult> results = SweepEngine(opt.sweep).run(jobs);

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

    // The tables read every job of the figure; a filtered or failed
    // sweep has holes in them.
    if (!opt.onlyWorkloads.empty()) {
        std::printf("rowsim_sweep: --workload given, tables skipped\n");
    } else if (failedCount == 0) {
        for (const FigureTable &t : fig.cells(FigureResults(jobs, results)))
            t.print(stdout);
    }

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
