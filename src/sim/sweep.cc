#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/heartbeat.hh"
#include "common/log.hh"
#include "common/trace.hh"
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

namespace
{

/** Stamp the identity of @p job onto a failure result. */
RunResult
failedResult(const SweepJob &job, std::string error)
{
    RunResult r;
    r.workload = job.workload;
    r.config = job.cfg.label;
    r.status = RunStatus::Failed;
    r.error = std::move(error);
    return r;
}

/** One job, executed on the calling pool thread. */
RunResult
executeJob(const SweepJob &job, std::size_t index,
           const std::string &storeDir)
{
    // Scope the trace / profile / span / crash sinks to the job so
    // concurrent jobs write disjoint suffixed files. The key is derived
    // from the job *index*, not the worker, so the file set is
    // identical for any thread count.
    Trace::scopeToJob(strprintf("j%zu", index));
    if (!job.ckptPath.empty())
        return runDetailWindow(job, storeDir);
    return runExperiment(job.workload, job.cfg, job.numCores, job.quota,
                         job.seed, job.captureStatsJson, storeDir);
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
                        jobs[i].cfg.label.c_str(),
                        results[i].error.c_str());
        }
    }
}

} // namespace

std::vector<RunResult>
SweepEngine::runThreaded(const std::vector<SweepJob> &jobs)
{
    std::vector<RunResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());

    std::atomic<std::size_t> nextJob{0};

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                nextJob.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            hb_.emitJob(i, "started", jobs[i].workload,
                        jobs[i].cfg.label, nullptr);
            try {
                results[i] = executeJob(jobs[i], i, opts_.storeDir);
            } catch (const std::exception &e) {
                errors[i] = std::current_exception();
                results[i] = failedResult(jobs[i], e.what());
            } catch (...) {
                errors[i] = std::current_exception();
                results[i] = failedResult(jobs[i], "unknown exception");
            }
            hb_.emitJob(i, "finished", jobs[i].workload,
                        jobs[i].cfg.label,
                        runStatusName(results[i].status));
        }
    };

    // Always run jobs on pool threads — a 1-thread sweep takes exactly
    // the code path of an 8-thread sweep, so serial-vs-parallel
    // comparisons differ only in scheduling.
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(opts_.threads, jobs.size()));
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; t++)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

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
    return results;
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
                        jobs[i].cfg.label, nullptr);
        }
    }
    std::vector<RunResult> results = runThreaded(jobs);
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
