/**
 * @file
 * Parallel deterministic sweep engine.
 *
 * Figure reproductions are embarrassingly parallel: dozens of fully
 * independent (workload, config) simulations whose results are only
 * combined at print time. The engine runs them on a pool of worker
 * threads and returns RunResults in submission order.
 *
 * Failure handling: a failed job does not abort the sweep. A panic, a
 * fatal error or a tripped watchdog (which names the stuck component)
 * throws inside the job; the result carries RunStatus::Failed and the
 * error text, and the sweep completes every remaining job. Callers that
 * want all-or-nothing behaviour opt into SweepOptions::strict. Failures
 * are not retried: the simulator is deterministic, so a rerun fails the
 * same way. With a result store, every finished job is kept, so a
 * killed sweep resumes by computing only the missing entries, and jobs
 * that share a store key (label aliases of one configuration) simulate
 * once: the repeats run after every other job, as store hits under
 * their own labels.
 *
 * Determinism: each simulation is a pure function of its SweepJob — a
 * System touches no cross-run mutable state (trace sinks, checker
 * masks, and panic hooks are thread-local; see DESIGN.md "Performance &
 * threading model"), so parallel results are bit-identical to running
 * the same jobs serially, whatever the thread count or scheduling.
 */

#ifndef ROWSIM_SIM_SWEEP_HH
#define ROWSIM_SIM_SWEEP_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/heartbeat.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"

namespace rowsim
{

class Ser;

/** One independent simulation in a sweep. */
struct SweepJob
{
    std::string workload;
    /** The simulated system: makeParams() of an ExpConfig, or any
     *  ablation runExperimentParams can run (AQ size, re-issue delay,
     *  lock-steal threshold, ...). */
    SystemParams params;
    /** Reporting label; not part of the result-store key. */
    std::string label;
    /** Per-core iterations; 0 = the workload's default quota. */
    std::uint64_t quota = 0;
    /** Capture System::dumpStatsJson into RunResult::statsJson
     *  (determinism audits; large, so off by default). */
    bool captureStatsJson = false;

    // ---- SMARTS measurement-window support (src/sim/sampling.cc) ----
    // A non-null image turns the job into one detail window of a
    // sampled run: restore the (func-warmed) in-memory image, detail-warm
    // to windowStartIters + windowWarmIters, then measure exactly
    // windowIters more iterations per core and report the deltas.
    std::shared_ptr<const Ser> image;
    /** Image mark m_k in per-core committed iterations. */
    std::uint64_t windowStartIters = 0;
    /** Detail warm-up iterations before measurement starts. */
    std::uint64_t windowWarmIters = 0;
    /** Measured iterations per core. */
    std::uint64_t windowIters = 0;
    /** The sampling layout the window belongs to (grid, warm and detail
     *  lengths, window index): its result-store key component. */
    std::string window;
};

/** The job runExperiment(@p workload, @p cfg, ...) runs. */
SweepJob sweepJob(const std::string &workload, const ExpConfig &cfg,
                  unsigned num_cores = 32, std::uint64_t quota = 0,
                  std::uint64_t seed = 1);

/** Execution policy for one sweep. */
struct SweepOptions
{
    /** Concurrent workers; 0 = SweepEngine::defaultThreads(). */
    unsigned threads = 0;
    /** Rethrow the original exception of the first failed job in
     *  submission order, after every job has run. */
    bool strict = false;
    /** Result store every job serves from and persists to; empty
     *  leaves the choice to each job's run options. */
    std::string storeDir;

    /** The policy of resolved run options: the threads knob and their
     *  result store. */
    static SweepOptions from(const RunOptions &o);
    /** from() of the options the environment resolves to now. */
    static SweepOptions fromEnv();
};

/** Sweep executor: a fixed pool of threads claims jobs in submission
 *  order from a shared index (see DESIGN.md §12). */
class SweepEngine
{
  public:
    /** @p threads 0 picks defaultThreads(). */
    explicit SweepEngine(unsigned threads = 0);

    explicit SweepEngine(const SweepOptions &opts);

    /**
     * Run every job and return results in submission order (results[i]
     * belongs to jobs[i]). Failed jobs come back with status Failed
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
    /** Run jobs[i] for every i of @p todo on the pool, filling
     *  results[i] and, on failure, errors[i]. */
    void runThreaded(const std::vector<SweepJob> &jobs,
                     const std::vector<std::size_t> &todo,
                     std::vector<RunResult> &results,
                     std::vector<std::exception_ptr> &errors);

    SweepOptions opts_;
    /** The heartbeat sink, resolved per run(). */
    Heartbeat hb_;
};

/** Convenience: run @p jobs under the environment's policy
 *  (SweepOptions::fromEnv()). */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &jobs);

} // namespace rowsim

#endif // ROWSIM_SIM_SWEEP_HH
