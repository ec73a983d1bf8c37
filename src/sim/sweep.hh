/**
 * @file
 * Parallel, fault-tolerant deterministic sweep engine.
 *
 * Figure reproductions are embarrassingly parallel: dozens of fully
 * independent (workload, config) simulations whose results are only
 * combined at print time. The engine runs them either on a pool of
 * worker threads (fast, shared address space) or in forked worker
 * processes (isolated: a crashing or hanging job cannot take the sweep
 * down), and returns RunResults in submission order.
 *
 * Failure handling: a failed job no longer aborts the sweep. Each
 * result carries a RunStatus (+ error text); the sweep completes every
 * remaining job and reports partial results. Callers that want the old
 * all-or-nothing behaviour opt into SweepOptions::strict. Under
 * process isolation each job additionally gets a wall-clock timeout
 * and bounded retries with exponential backoff (crashes and timeouts
 * are retried — a clean in-simulator failure is deterministic and is
 * not).
 *
 * Determinism: each simulation is a pure function of its SweepJob — a
 * System touches no cross-run mutable state (trace sinks, checker
 * masks, and panic hooks are thread-local; see DESIGN.md "Performance &
 * threading model"), so parallel results are bit-identical to running
 * the same jobs serially, whatever the thread count, scheduling, or
 * isolation mode.
 */

#ifndef ROWSIM_SIM_SWEEP_HH
#define ROWSIM_SIM_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/heartbeat.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"

namespace rowsim
{

/** One independent simulation in a sweep. */
struct SweepJob
{
    std::string workload;
    ExpConfig cfg;
    unsigned numCores = 32;
    /** Per-core iterations; 0 = the workload's default quota. */
    std::uint64_t quota = 0;
    std::uint64_t seed = 1;
    /** Capture System::dumpStatsJson into RunResult::statsJson
     *  (determinism audits; large, so off by default). */
    bool captureStatsJson = false;

    // ---- SMARTS measurement-window support (src/sim/sampling.cc) ----
    // A non-empty ckptPath turns the job into one detail window of a
    // sampled run: restore the (func-warmed) checkpoint, detail-warm
    // to windowStartIters + windowWarmIters, then measure exactly
    // windowIters more iterations per core and report the deltas.
    // `cfg` then only carries the window's reporting label; the
    // simulated configuration comes from windowParams (ExpConfig
    // cannot express every ablation runExperimentParams can).
    std::string ckptPath;
    SystemParams windowParams;
    /** Checkpoint mark m_k in per-core committed iterations. */
    std::uint64_t windowStartIters = 0;
    /** Detail warm-up iterations before measurement starts. */
    std::uint64_t windowWarmIters = 0;
    /** Measured iterations per core. */
    std::uint64_t windowIters = 0;

    // Resilience-drill support (tests + the CI fault drill): make the
    // worker misbehave before simulating. Under process isolation a
    // crash is a real SIGABRT and a hang trips the timeout; under
    // thread isolation both degrade to a clean Failed (a thread cannot
    // be safely killed).
    bool injectCrash = false;
    unsigned injectHangMs = 0;
};

/** Execution policy for one sweep. */
struct SweepOptions
{
    /** Concurrent workers; 0 = SweepEngine::defaultThreads(). */
    unsigned threads = 0;
    SweepIsolation isolation = SweepIsolation::Thread;
    /** Per-job wall-clock budget in ms (process isolation only;
     *  0 = unlimited). An overrunning worker is SIGKILLed. */
    std::uint64_t timeoutMs = 0;
    /** Extra attempts after a crash or timeout (process isolation
     *  only). Clean in-simulator failures are deterministic and never
     *  retried. */
    unsigned retries = 0;
    /** Base retry delay; attempt k waits backoffMs * 2^(k-1). */
    std::uint64_t backoffMs = 100;
    /** Rethrow (thread mode: the original exception; process mode: a
     *  summary) for the first failed job in submission order, after
     *  every job has run. */
    bool strict = false;
    /** Result store every job serves from and persists to; empty
     *  leaves the choice to each job's run options. */
    std::string storeDir;

    /** The policy of resolved run options: isolation, timeout, retries,
     *  backoff and the threads knob, plus their result store. */
    static SweepOptions from(const RunOptions &o);
    /** from() of the options the environment resolves to now. */
    static SweepOptions fromEnv();
};

/**
 * Sweep executor. Thread mode: a fixed pool claims jobs in submission
 * order from a shared index. Process mode: the calling thread — and
 * only it; fork() from a threaded scheduler is not async-signal-safe —
 * schedules forked workers, handing results back through validated
 * files (see DESIGN.md §12).
 */
class SweepEngine
{
  public:
    /** Thread-mode engine; @p threads 0 picks defaultThreads(). */
    explicit SweepEngine(unsigned threads = 0);

    explicit SweepEngine(const SweepOptions &opts);

    /**
     * Run every job and return results in submission order (results[i]
     * belongs to jobs[i]). Failed jobs come back with a non-Ok status
     * instead of aborting the sweep; with opts.strict the first
     * failure in submission order is (re)thrown after all jobs ran.
     */
    std::vector<RunResult> run(const std::vector<SweepJob> &jobs);

    unsigned threads() const { return opts_.threads; }
    const SweepOptions &options() const { return opts_; }

    /** ROWSIM_SWEEP_THREADS when set (0 = serial fallback of 1), else
     *  std::thread::hardware_concurrency(), else 1. */
    static unsigned defaultThreads();

  private:
    std::vector<RunResult> runThreaded(const std::vector<SweepJob> &jobs);
    std::vector<RunResult> runIsolated(const std::vector<SweepJob> &jobs);

    SweepOptions opts_;
    /** The heartbeat sink, resolved per run(). */
    Heartbeat hb_;
};

/** Convenience: run @p jobs under the environment's policy
 *  (SweepOptions::fromEnv()). */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &jobs);

} // namespace rowsim

#endif // ROWSIM_SIM_SWEEP_HH
