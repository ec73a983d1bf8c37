#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "common/heartbeat.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/sampling.hh"

namespace rowsim
{

SweepEngine::SweepEngine(unsigned threads)
{
    opts_.threads = threads ? threads : defaultThreads();
}

SweepEngine::SweepEngine(const SweepOptions &opts) : opts_(opts)
{
    if (opts_.threads == 0)
        opts_.threads = defaultThreads();
}

unsigned
SweepEngine::defaultThreads()
{
    return SweepOptions::fromEnv().threads;
}

SweepOptions
SweepOptions::from(const RunOptions &o)
{
    SweepOptions s;
    const unsigned hw = std::thread::hardware_concurrency();
    s.threads = o.sweepThreads ? std::max(*o.sweepThreads, 1u)
                               : std::max(hw, 1u);
    if (o.results)
        s.storeDir = o.resultsDir;
    return s;
}

SweepOptions
SweepOptions::fromEnv()
{
    return from(resolveRunOptions());
}

SweepJob
sweepJob(const std::string &workload, const ExpConfig &cfg,
         unsigned num_cores, std::uint64_t quota, std::uint64_t seed)
{
    SweepJob j;
    j.workload = workload;
    j.params = makeParams(cfg, num_cores, seed);
    j.label = cfg.label;
    j.quota = quota;
    return j;
}

namespace
{

/** Stamp the identity of @p job onto a failure result. */
RunResult
failedResult(const SweepJob &job, std::string error)
{
    RunResult r;
    r.workload = job.workload;
    r.config = job.label;
    r.status = RunStatus::Failed;
    r.error = std::move(error);
    return r;
}

/** One job, executed on the calling pool thread. */
RunResult
executeJob(const SweepJob &job, std::size_t index,
           const std::string &storeDir, const std::string &outerKey)
{
    // Scope the trace / profile / span / crash sinks to the job so
    // concurrent jobs write disjoint suffixed files. The key is derived
    // from the job *index*, not the worker, so the file set is
    // identical for any thread count; a sweep started inside a job (a
    // sampled run's windows) nests under that job's key.
    Trace::scopeToJob(outerKey.empty()
                          ? strprintf("j%zu", index)
                          : strprintf("%s.j%zu", outerKey.c_str(), index));
    if (job.image)
        return runDetailWindow(job, storeDir);
    return runExperimentParams(job.workload, job.params, job.label,
                               job.quota, job.captureStatsJson, storeDir);
}

/** The result-store key @p job runs under; none for a window job or a
 *  job whose store is off. */
std::optional<ResultKey>
storeKey(const SweepJob &job, const std::string &storeDir)
{
    if (job.image)
        return std::nullopt;
    RunOptions opts = resolveRunOptions(job.params, storeDir);
    applyRunRules(opts);
    if (!opts.results)
        return std::nullopt;
    const std::uint64_t quota =
        job.quota ? job.quota : defaultQuota(job.workload);
    return ResultStore::keyFor(job.params, opts, job.workload, quota);
}

/** Split @p jobs into those that simulate and those that repeat an
 *  earlier job's result-store key (a label alias of one configuration):
 *  those run afterwards, as store hits. Without a store every job
 *  simulates. */
void
splitRepeats(const std::vector<SweepJob> &jobs, const std::string &storeDir,
             std::vector<std::size_t> &first, std::vector<std::size_t> &repeat)
{
    std::map<ResultKey, std::size_t> seen;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        std::optional<ResultKey> key;
        try {
            key = storeKey(jobs[i], storeDir);
        } catch (const std::exception &) {
            // Options that do not resolve fail the job inside its run.
        }
        if (key && !seen.emplace(*key, i).second)
            repeat.push_back(i);
        else
            first.push_back(i);
    }
}

/** Non-strict completion report: name every failed job. */
void
warnFailures(const std::vector<SweepJob> &jobs,
             const std::vector<RunResult> &results)
{
    for (std::size_t i = 0; i < results.size(); i++) {
        if (!results[i].ok()) {
            ROWSIM_WARN("sweep: job %zu (%s/%s) failed: %s", i,
                        jobs[i].workload.c_str(),
                        jobs[i].label.c_str(),
                        results[i].error.c_str());
        }
    }
}

} // namespace

void
SweepEngine::runThreaded(const std::vector<SweepJob> &jobs,
                         const std::vector<std::size_t> &todo,
                         std::vector<RunResult> &results,
                         std::vector<std::exception_ptr> &errors)
{
    const std::string outerKey = Trace::jobKey();
    std::atomic<std::size_t> nextJob{0};

    auto worker = [&]() {
        for (;;) {
            const std::size_t t =
                nextJob.fetch_add(1, std::memory_order_relaxed);
            if (t >= todo.size())
                return;
            const std::size_t i = todo[t];
            hb_.emitJob(i, "started", jobs[i].workload,
                        jobs[i].label, nullptr);
            try {
                results[i] =
                    executeJob(jobs[i], i, opts_.storeDir, outerKey);
            } catch (const std::exception &e) {
                errors[i] = std::current_exception();
                results[i] = failedResult(jobs[i], e.what());
            } catch (...) {
                errors[i] = std::current_exception();
                results[i] = failedResult(jobs[i], "unknown exception");
            }
            hb_.emitJob(i, "finished", jobs[i].workload,
                        jobs[i].label,
                        runStatusName(results[i].status));
        }
    };

    // Always run jobs on pool threads — a 1-thread sweep takes exactly
    // the code path of an 8-thread sweep, so serial-vs-parallel
    // comparisons differ only in scheduling.
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(opts_.threads, todo.size()));
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; t++)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

std::vector<RunResult>
SweepEngine::run(const std::vector<SweepJob> &jobs)
{
    if (jobs.empty())
        return {};
    hb_ = Heartbeat(resolveRunOptions().heartbeat);
    if (hb_.enabled()) {
        hb_.emitSweep("start", jobs.size(), 0, 0);
        for (std::size_t i = 0; i < jobs.size(); i++) {
            hb_.emitJob(i, "queued", jobs[i].workload,
                        jobs[i].label, nullptr);
        }
    }
    std::vector<RunResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::vector<std::size_t> first, repeat;
    splitRepeats(jobs, opts_.storeDir, first, repeat);
    runThreaded(jobs, first, results, errors);
    runThreaded(jobs, repeat, results, errors);

    if (opts_.strict) {
        // Deterministic failure reporting: first failed job in
        // submission order, independent of which worker hit it first.
        for (std::size_t i = 0; i < errors.size(); i++) {
            if (errors[i])
                std::rethrow_exception(errors[i]);
        }
    } else {
        warnFailures(jobs, results);
    }
    if (hb_.enabled()) {
        std::size_t ok = 0;
        for (const RunResult &r : results)
            ok += r.ok() ? 1 : 0;
        hb_.emitSweep("end", jobs.size(), ok, results.size() - ok);
    }
    return results;
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs)
{
    return SweepEngine(SweepOptions::fromEnv()).run(jobs);
}

} // namespace rowsim
