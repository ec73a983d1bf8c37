#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <csignal>
#include <unistd.h>

#include "common/heartbeat.hh"
#include "common/io.hh"
#include "common/log.hh"
#include "common/trace.hh"
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
    s.isolation = o.sweepIsolation;
    s.timeoutMs = o.sweepTimeoutMs;
    s.retries = o.sweepRetries;
    s.backoffMs = o.sweepBackoffMs;
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
failedResult(const SweepJob &job, RunStatus status, std::string error,
             unsigned attempts)
{
    RunResult r;
    r.workload = job.workload;
    r.config = job.cfg.label;
    r.status = status;
    r.error = std::move(error);
    r.attempts = attempts;
    return r;
}

/** One job, executed in the calling thread/process (shared by both
 *  isolation modes — the forked worker calls this too, so thread and
 *  process sweeps run byte-identical simulations). The crash drill is
 *  handled by the caller: only process isolation can survive a real
 *  abort, so thread mode degrades it to a thrown error. */
RunResult
executeJob(const SweepJob &job, std::size_t index,
           const std::string &storeDir)
{
    // Scope the trace / profile / span / crash sinks to the job so
    // concurrent (or retried) jobs write disjoint suffixed files. The
    // key is derived from the job *index*, not the worker, so the file
    // set is identical for any thread count or isolation mode.
    Trace::scopeToJob(strprintf("j%zu", index));
    if (job.injectHangMs) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(job.injectHangMs));
    }
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
            ROWSIM_WARN("sweep: job %zu (%s/%s) %s after %u attempt%s: %s",
                        i, jobs[i].workload.c_str(),
                        jobs[i].cfg.label.c_str(),
                        runStatusName(results[i].status),
                        results[i].attempts,
                        results[i].attempts == 1 ? "" : "s",
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
                        jobs[i].cfg.label, 1, nullptr);
            try {
                if (jobs[i].injectCrash)
                    throw std::runtime_error(
                        "injected crash (thread isolation cannot contain "
                        "a real abort)");
                results[i] = executeJob(jobs[i], i, opts_.storeDir);
            } catch (const std::exception &e) {
                errors[i] = std::current_exception();
                results[i] = failedResult(jobs[i], RunStatus::Failed,
                                          e.what(), 1);
            } catch (...) {
                errors[i] = std::current_exception();
                results[i] = failedResult(jobs[i], RunStatus::Failed,
                                          "unknown exception", 1);
            }
            hb_.emitJob(i, "finished", jobs[i].workload,
                        jobs[i].cfg.label, 1,
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
SweepEngine::runIsolated(const std::vector<SweepJob> &jobs)
{
    using clock = std::chrono::steady_clock;

    // Handoff directory for worker → parent result files. PID-scoped so
    // concurrent sweeps (tests!) never collide; every path below is
    // written atomically, so a killed worker leaves no partial file.
    const char *tmproot = std::getenv("TMPDIR");
    const std::string dir =
        strprintf("%s/rowsim-sweep.%ld",
                  (tmproot && *tmproot) ? tmproot : "/tmp",
                  static_cast<long>(::getpid()));

    struct Attempt
    {
        std::size_t job;
        unsigned number; // 1-based attempt counter
        clock::time_point notBefore;
    };
    struct Worker
    {
        std::size_t job;
        unsigned number;
        pid_t pid;
        clock::time_point deadline;
        bool hasDeadline;
        bool killed;
        std::string path;
    };

    std::vector<RunResult> results(jobs.size());
    std::deque<Attempt> pending;
    for (std::size_t i = 0; i < jobs.size(); i++)
        pending.push_back({i, 1, clock::now()});
    std::vector<Worker> running;

    const std::size_t slots =
        std::max<std::size_t>(1, std::min<std::size_t>(opts_.threads,
                                                       jobs.size()));

    auto finishAttempt = [&](const Worker &w, RunStatus status,
                             std::string error) {
        if (status != RunStatus::Ok) {
            const bool retryable = status == RunStatus::Crashed ||
                                   status == RunStatus::TimedOut;
            if (retryable && w.number <= opts_.retries) {
                hb_.emitJob(w.job, "retrying",
                            jobs[w.job].workload,
                            jobs[w.job].cfg.label, w.number,
                            runStatusName(status));
                // Exponential backoff: transient-looking failures
                // (OOM-killed worker, a loaded machine tripping the
                // timeout) get breathing room before the retry.
                const std::uint64_t delay = opts_.backoffMs
                                            << (w.number - 1);
                ROWSIM_WARN("sweep: job %zu (%s/%s) %s (attempt %u); "
                            "retrying in %llu ms",
                            w.job, jobs[w.job].workload.c_str(),
                            jobs[w.job].cfg.label.c_str(),
                            runStatusName(status), w.number,
                            static_cast<unsigned long long>(delay));
                pending.push_back(
                    {w.job, w.number + 1,
                     clock::now() + std::chrono::milliseconds(delay)});
                return;
            }
            results[w.job] = failedResult(jobs[w.job], status,
                                          std::move(error), w.number);
            hb_.emitJob(w.job, "finished", jobs[w.job].workload,
                        jobs[w.job].cfg.label, w.number,
                        runStatusName(status));
        }
        std::remove(w.path.c_str());
    };

    auto reap = [&](Worker &w, int wstatus) {
        if (w.killed) {
            finishAttempt(w, RunStatus::TimedOut,
                          strprintf("exceeded %llu ms wall-clock budget",
                                    static_cast<unsigned long long>(
                                        opts_.timeoutMs)));
            return;
        }
        const bool exitedClean =
            WIFEXITED(wstatus) && (WEXITSTATUS(wstatus) == 0 ||
                                   WEXITSTATUS(wstatus) == 1);
        std::vector<std::uint8_t> raw;
        if (exitedClean && readFileBytes(w.path, raw)) {
            try {
                RunResult r = decodeResult(raw);
                r.attempts = w.number;
                if (r.ok()) {
                    results[w.job] = std::move(r);
                    std::remove(w.path.c_str());
                    hb_.emitJob(w.job, "finished",
                                jobs[w.job].workload,
                                jobs[w.job].cfg.label, w.number,
                                runStatusName(RunStatus::Ok));
                } else {
                    // The worker failed in-simulator and said why;
                    // deterministic, so never retried.
                    finishAttempt(w, r.status, r.error);
                }
                return;
            } catch (const std::exception &) {
                // fall through: treat an undecodable handoff as a crash
            }
        }
        std::string why;
        if (WIFSIGNALED(wstatus)) {
            why = strprintf("worker killed by signal %d",
                            WTERMSIG(wstatus));
        } else if (WIFEXITED(wstatus)) {
            why = strprintf("worker exited with status %d and no valid "
                            "result",
                            WEXITSTATUS(wstatus));
        } else {
            why = "worker vanished without a valid result";
        }
        finishAttempt(w, RunStatus::Crashed, std::move(why));
    };

    while (!pending.empty() || !running.empty()) {
        // Launch every ready attempt while worker slots are free.
        bool launched = false;
        for (auto it = pending.begin();
             running.size() < slots && it != pending.end();) {
            if (it->notBefore > clock::now()) {
                ++it;
                continue;
            }
            const Attempt a = *it;
            it = pending.erase(it);
            const SweepJob &job = jobs[a.job];
            const std::string path =
                strprintf("%s/job%zu.a%u.res", dir.c_str(), a.job,
                          a.number);
            // fork() only clones the calling thread; buffered stdio in
            // other threads' ownership would be flushed twice. The
            // isolated scheduler is single-threaded by design — flush
            // before forking so the child starts with clean buffers.
            std::fflush(stdout);
            std::fflush(stderr);
            const pid_t pid = ::fork();
            if (pid < 0) {
                ROWSIM_FATAL("sweep: fork failed: %s",
                             std::strerror(errno));
            }
            if (pid == 0) {
                // Worker. Everything funnels into one handoff file;
                // _Exit (not exit) so no parent-registered atexit state
                // runs twice.
                if (job.injectCrash)
                    std::abort(); // resilience drill: a genuine SIGABRT
                int code = 0;
                try {
                    RunResult r = executeJob(job, a.job, opts_.storeDir);
                    atomicWriteFile(path, encodeResult(r));
                } catch (const std::exception &e) {
                    code = 1;
                    try {
                        atomicWriteFile(
                            path, encodeResult(failedResult(
                                      job, RunStatus::Failed, e.what(),
                                      a.number)));
                    } catch (...) {
                        code = 2; // no handoff → parent records a crash
                    }
                } catch (...) {
                    code = 2;
                }
                std::fflush(nullptr);
                std::_Exit(code);
            }
            // Parent. Lifecycle events come from the scheduler, never
            // from executeJob — the forked worker would duplicate them.
            hb_.emitJob(a.job, "started", job.workload,
                        job.cfg.label, a.number, nullptr);
            Worker w;
            w.job = a.job;
            w.number = a.number;
            w.pid = pid;
            w.hasDeadline = opts_.timeoutMs > 0;
            w.deadline = clock::now() +
                         std::chrono::milliseconds(opts_.timeoutMs);
            w.killed = false;
            w.path = path;
            running.push_back(std::move(w));
            launched = true;
        }

        // Reap finished workers and kill overdue ones.
        bool reaped = false;
        for (auto it = running.begin(); it != running.end();) {
            int wstatus = 0;
            const pid_t got = ::waitpid(it->pid, &wstatus, WNOHANG);
            if (got == it->pid) {
                reap(*it, wstatus);
                it = running.erase(it);
                reaped = true;
                continue;
            }
            if (it->hasDeadline && !it->killed &&
                clock::now() >= it->deadline) {
                // SIGKILL, not SIGTERM: a worker stuck in a simulator
                // livelock will not honour anything catchable, and the
                // atomic handoff protocol makes hard death safe.
                ::kill(it->pid, SIGKILL);
                it->killed = true;
            }
            ++it;
        }

        if (!launched && !reaped && !running.empty())
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (running.empty() && !pending.empty()) {
            // Everything alive is backing off; sleep to the earliest
            // retry point instead of spinning.
            auto earliest = pending.front().notBefore;
            for (const Attempt &a : pending)
                earliest = std::min(earliest, a.notBefore);
            const auto now = clock::now();
            if (earliest > now)
                std::this_thread::sleep_for(
                    std::min<clock::duration>(
                        earliest - now, std::chrono::milliseconds(50)));
        }
    }
    ::rmdir(dir.c_str());

    if (opts_.strict) {
        for (std::size_t i = 0; i < results.size(); i++) {
            if (!results[i].ok()) {
                throw std::runtime_error(strprintf(
                    "sweep: job %zu (%s/%s) %s after %u attempt%s: %s",
                    i, jobs[i].workload.c_str(),
                    jobs[i].cfg.label.c_str(),
                    runStatusName(results[i].status), results[i].attempts,
                    results[i].attempts == 1 ? "" : "s",
                    results[i].error.c_str()));
            }
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
    const bool isolated = opts_.isolation == SweepIsolation::Process;
    const char *iso = isolated ? "process" : "thread";
    if (hb_.enabled()) {
        hb_.emitSweep("start", jobs.size(), 0, 0, iso);
        for (std::size_t i = 0; i < jobs.size(); i++) {
            hb_.emitJob(i, "queued", jobs[i].workload,
                        jobs[i].cfg.label, 1, nullptr);
        }
    }
    std::vector<RunResult> results =
        isolated ? runIsolated(jobs) : runThreaded(jobs);
    if (hb_.enabled()) {
        std::size_t ok = 0;
        for (const RunResult &r : results)
            ok += r.ok() ? 1 : 0;
        hb_.emitSweep("end", jobs.size(), ok, results.size() - ok,
                      iso);
    }
    return results;
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs)
{
    return SweepEngine(SweepOptions::fromEnv()).run(jobs);
}

} // namespace rowsim
