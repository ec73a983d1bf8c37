/**
 * @file
 * Shared infrastructure for the figure-reproduction benchmarks.
 *
 * Every bench binary regenerates one table/figure of the paper: it runs
 * the required (workload, config) simulations through google-benchmark
 * (one benchmark per bar/point, Iterations(1), simulated metrics exposed
 * as counters) and then prints the figure's rows in paper order.
 *
 * Simulations are memoized per process so a baseline shared by many bars
 * (e.g. eager) runs once.
 *
 * Drivers additionally register their full (workload, config) set as
 * prewarm jobs at static-init time; ROWSIM_BENCH_MAIN then fills the
 * memo cache through the parallel SweepEngine before google-benchmark
 * starts, so the per-benchmark bodies only read memoized results.
 * Results are bit-identical to on-demand serial runs (the engine's
 * determinism contract), and filtered invocations skip the prewarm.
 */

#ifndef ROWSIM_BENCH_COMMON_HH
#define ROWSIM_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/sweep.hh"

namespace rowsim::bench
{

/** Memo-cache key: everything runExperiment's result depends on. */
inline std::string
runKey(const std::string &workload, const std::string &label,
       unsigned cores, std::uint64_t quota)
{
    return workload + "|" + label + "|" + std::to_string(cores) + "|" +
           std::to_string(quota);
}

/** Process-wide memoized results (filled by prewarm and on demand). */
inline std::map<std::string, RunResult> &
runCache()
{
    static std::map<std::string, RunResult> cache;
    return cache;
}

/** Memoized experiment execution (keyed by workload + config label). */
inline const RunResult &
cachedRun(const std::string &workload, const ExpConfig &cfg,
          unsigned cores = 32, std::uint64_t quota = 0)
{
    auto &cache = runCache();
    std::string key = runKey(workload, cfg.label, cores, quota);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, runExperiment(workload, cfg, cores,
                                              quota)).first;
    return it->second;
}

/** Prewarm job list + key set (dedup against shared baselines). */
inline std::pair<std::vector<SweepJob>, std::set<std::string>> &
prewarmRegistry()
{
    static std::pair<std::vector<SweepJob>, std::set<std::string>> reg;
    return reg;
}

/** Register one (workload, config) pair for the pre-benchmark sweep.
 *  Call from the driver's registration block, next to
 *  RegisterBenchmark. Duplicate keys collapse to one job. */
inline void
addPrewarm(const std::string &workload, const ExpConfig &cfg,
           unsigned cores = 32, std::uint64_t quota = 0)
{
    auto &reg = prewarmRegistry();
    if (!reg.second.insert(runKey(workload, cfg.label, cores,
                                  quota)).second)
        return;
    SweepJob job;
    job.workload = workload;
    job.cfg = cfg;
    job.numCores = cores;
    job.quota = quota;
    reg.first.push_back(std::move(job));
}

/** Run every registered prewarm job through the SweepEngine and move
 *  the results into the memo cache. Skipped under --benchmark_filter /
 *  --benchmark_list_tests: partial invocations should only pay for the
 *  simulations they actually touch (cachedRun falls back to on-demand
 *  serial runs, which produce identical results). */
inline void
runPrewarm(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--benchmark_filter", 0) == 0 ||
            arg.rfind("--benchmark_list_tests", 0) == 0)
            return;
    }
    const auto &jobs = prewarmRegistry().first;
    if (jobs.empty())
        return;
    std::vector<RunResult> results = runSweep(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Never memoize a failed run: cachedRun falls back to an
        // on-demand serial run, which surfaces the real error to the
        // user instead of silently rendering a figure from garbage.
        if (!results[i].ok())
            continue;
        runCache().emplace(runKey(jobs[i].workload, jobs[i].cfg.label,
                                  jobs[i].numCores, jobs[i].quota),
                           std::move(results[i]));
    }
}

/** Normalised execution time vs the eager-no-forwarding baseline, the
 *  normalisation every figure in the paper uses. */
inline double
normalised(const std::string &workload, const ExpConfig &cfg,
           unsigned cores = 32)
{
    const RunResult &base = cachedRun(workload, eagerConfig(), cores);
    const RunResult &r = cachedRun(workload, cfg, cores);
    return static_cast<double>(r.cycles) / static_cast<double>(base.cycles);
}

/** Row collector: benchmarks append cells; main() prints the table. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    void
    cell(const std::string &row, const std::string &col, double value)
    {
        cols_.insert({col, cols_.size()});
        rows_.insert({row, rows_.size()});
        values_[{row, col}] = value;
    }

    void
    print() const
    {
        std::vector<std::string> cols(cols_.size()), rows(rows_.size());
        for (const auto &kv : cols_)
            cols[kv.second] = kv.first;
        for (const auto &kv : rows_)
            rows[kv.second] = kv.first;

        std::printf("\n=== %s ===\n%-15s", title_.c_str(), "");
        for (const auto &c : cols)
            std::printf(" %12s", c.c_str());
        std::printf("\n");
        for (const auto &r : rows) {
            std::printf("%-15s", r.c_str());
            for (const auto &c : cols) {
                auto it = values_.find({r, c});
                if (it == values_.end())
                    std::printf(" %12s", "-");
                else
                    std::printf(" %12.3f", it->second);
            }
            std::printf("\n");
        }
        std::fflush(stdout);
    }

  private:
    std::string title_;
    std::map<std::string, std::size_t> cols_;
    std::map<std::string, std::size_t> rows_;
    std::map<std::pair<std::string, std::string>, double> values_;
};

inline Table &
table(const char *title = "")
{
    static Table t(title);
    return t;
}

/** Geometric mean over the atomic-intensive workloads of a metric. */
inline double
geomean(const std::function<double(const std::string &)> &metric)
{
    double log_sum = 0;
    unsigned n = 0;
    for (const auto &w : atomicIntensiveWorkloads()) {
        log_sum += std::log(metric(w));
        n++;
    }
    return std::exp(log_sum / n);
}

/** Standard main: prewarm the memo cache through the parallel sweep
 *  engine, run benchmarks, then print the collected table. Prewarm runs
 *  before Initialize so the filter/list flags are still in argv. */
inline int
benchMain(int argc, char **argv)
{
    runPrewarm(argc, argv);
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    table().print();
    ::benchmark::Shutdown();
    return 0;
}

#define ROWSIM_BENCH_MAIN()                                              \
    int main(int argc, char **argv)                                      \
    {                                                                    \
        return ::rowsim::runMain(::rowsim::bench::benchMain, argc, argv); \
    }

} // namespace rowsim::bench

#endif // ROWSIM_BENCH_COMMON_HH
