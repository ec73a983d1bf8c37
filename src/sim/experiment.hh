/**
 * @file
 * Experiment harness: configures a System for one (workload, policy)
 * pair, runs it to quota, and extracts every metric the paper's figures
 * report. All benches and integration tests go through this API.
 */

#ifndef ROWSIM_SIM_EXPERIMENT_HH
#define ROWSIM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace rowsim
{

/** One experiment configuration (a bar in Fig. 9 / Fig. 13). */
struct ExpConfig
{
    std::string label = "eager";
    AtomicPolicy policy = AtomicPolicy::Eager;
    ContentionDetector detector = ContentionDetector::RWDir;
    PredictorUpdate update = PredictorUpdate::SaturateOnContention;
    bool forwardToAtomics = false;
    bool localityPromotion = true;
    Cycle latencyThreshold = 400;
    unsigned predictorEntries = 64;
    // Run options; copied into the SystemParams fields of the same
    // names (see there and sim/options.hh).
    std::optional<std::uint32_t> profile; ///< ProfCategory mask
    std::optional<bool> spans;
    std::optional<bool> timeseries;
    std::optional<ConvergeSpec> converge;
    std::optional<ExecMode> mode;
};

/** Outcome of one run. Anything but Ok means the metric fields are
 *  not meaningful; `error` says why. */
enum class RunStatus : std::uint8_t
{
    Ok = 0,     ///< completed normally
    Failed = 1, ///< threw (panic, fatal, watchdog, bad config)
};

const char *runStatusName(RunStatus s);

/** Everything a figure could want from one run. */
struct RunResult
{
    std::string workload;
    std::string config;

    /** Outcome of the run; metric fields below are meaningful only for
     *  Ok. Sweeps in non-strict mode report per-job failures here
     *  instead of throwing. */
    RunStatus status = RunStatus::Ok;
    /** Human-readable failure description (empty when Ok). */
    std::string error;
    /** True when the result was served from the content-addressed
     *  result store instead of being recomputed. */
    bool fromCache = false;

    bool ok() const { return status == RunStatus::Ok; }

    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t atomicsCommitted = 0;
    double atomicsPer10k = 0;

    std::uint64_t atomicsUnlocked = 0;
    std::uint64_t detectedContended = 0;
    std::uint64_t oracleContended = 0;
    /** % of atomics facing contention (oracle; Fig. 5 red line). */
    double contendedPct = 0;

    /** Mean L1D miss latency over all memory instructions (Fig. 11). */
    double missLatency = 0;

    // Fig. 6 latency breakdown (means over unlocked atomics).
    double dispatchToIssue = 0;
    double issueToLock = 0;
    double lockToUnlock = 0;

    /** Fig. 6 tail percentiles, from the per-core atomic-phase
     *  histograms merged across cores (the same samples as the means).
     *  Filled for every detail run; 0 in sampled aggregates. */
    double dispatchToIssueP50 = 0, dispatchToIssueP90 = 0,
           dispatchToIssueP99 = 0;
    double issueToLockP50 = 0, issueToLockP90 = 0, issueToLockP99 = 0;
    double lockToUnlockP50 = 0, lockToUnlockP90 = 0, lockToUnlockP99 = 0;

    // Fig. 4 independent-instruction counts at atomic issue.
    double olderUnexecuted = 0;
    double youngerStarted = 0;

    /** Contention-prediction accuracy (Fig. 12); 0 when not RoW. */
    double predAccuracy = 0;

    std::uint64_t atomicsForwarded = 0;
    std::uint64_t atomicsPromoted = 0;
    std::uint64_t forcedUnlocks = 0;
    std::uint64_t eagerIssued = 0;
    std::uint64_t lazyIssued = 0;

    /** Full System::dumpStatsJson output, captured before the System is
     *  destroyed. Empty unless the run was asked to capture it
     *  (runExperiment's capture_stats / SweepJob::captureStatsJson) —
     *  it is large, and most callers only want the summary metrics. */
    std::string statsJson;

    /** Profiler::toJson() of the run, captured whenever the run was
     *  profiled; empty otherwise. */
    std::string profileJson;

    /** SpanTracker::toJson() of the run, captured whenever span tracing
     *  was on; empty otherwise. */
    std::string spanJson;

    /** IntervalSampler::toJson() of the run — per-metric series,
     *  online statistics, and batch-means CIs — captured whenever the
     *  engine was on; empty otherwise. */
    std::string tsJson;

    /** Sampled-run summary (SMARTS-style checkpointed sampling,
     *  ROWSIM_SAMPLE): checkpoint grid, per-window detail results, and
     *  batch-means confidence intervals, as one JSON object. Empty
     *  unless sampling was active; rides along in toJson() as
     *  "sampling" so non-sampled reports stay byte-identical. */
    std::string samplingJson;

    /** Convergence-bounded run outcome; meaningful only when a
     *  convergence spec was active (convergeMetric non-empty). */
    std::string convergeMetric;
    double convergeTarget = 0;
    double convergeConfidence = 0;
    /** Relative CI half-width of the target metric at the stop cycle
     *  (or end of quota); +inf prints as null in JSON. */
    double convergeAchieved = 0;
    /** True when the run stopped on the CI bound before the quota. */
    bool converged = false;

    /** One-line JSON object with every field above except statsJson and
     *  profileJson (run reports); spanJson rides along as "spans" when
     *  the run traced spans, tsJson as "timeseries" (plus a "converge"
     *  object when a spec was active), and status/error appear
     *  only for failed runs (ok-run reports stay byte-identical across
     *  versions). */
    std::string toJson() const;
};

class System;

/** Additive counters of a System at one point, so a measured segment
 *  reports deltas; the default baseline measures the whole run. */
struct CounterBaseline
{
    Cycle cycle = 0;
    std::uint64_t insts = 0, atomics = 0;
    std::uint64_t unlocked = 0, detected = 0, oracle = 0;
    std::uint64_t forwarded = 0, promoted = 0, forced = 0;
    std::uint64_t eager = 0, lazy = 0;
    std::uint64_t predUpdates = 0, predCorrect = 0;
};

CounterBaseline snapshotCounters(System &sys);

/** Fill @p r's counters (deltas over @p base), the rates derived from
 *  them, and the latency means and Fig. 6 percentiles (read whole) from
 *  @p sys. */
void collectMetrics(System &sys, const CounterBaseline &base, RunResult &r);

/** Append @p r as one JSON line to @p path ("-" = stdout). */
void writeRunReport(const RunResult &r, const std::string &path);

/** Standard configurations used across the figures. */
ExpConfig eagerConfig(bool forwarding = false);
ExpConfig lazyConfig();
ExpConfig fencedConfig();
ExpConfig rowConfig(ContentionDetector det, PredictorUpdate upd,
                    bool forwarding = false);
/** The Fig. 9 bar set: eager, lazy, EW/RW/RW+Dir x U/D / Sat. */
std::vector<ExpConfig> fig9Configs();

/**
 * Run @p workload under @p cfg.
 * @param quota per-core iterations (0: the workload's default)
 * @param capture_stats fill RunResult::statsJson with the full stats tree
 * @param store_dir non-empty: serve from / persist to the result store
 *        rooted there, whatever ROWSIM_RESULTS says (sweeps)
 */
RunResult runExperiment(const std::string &workload, const ExpConfig &cfg,
                        unsigned num_cores = 32, std::uint64_t quota = 0,
                        std::uint64_t seed = 1, bool capture_stats = false,
                        const std::string &store_dir = "");

/** Build the SystemParams for a config (exposed for tests). */
SystemParams makeParams(const ExpConfig &cfg, unsigned num_cores,
                        std::uint64_t seed);

/**
 * Run @p workload with explicit SystemParams — the entry point for
 * microarchitectural ablations (AQ size, re-issue delay, lock-steal
 * threshold, ...) that ExpConfig does not expose, and for every sweep
 * job. The other parameters are runExperiment's.
 */
RunResult runExperimentParams(const std::string &workload,
                              const SystemParams &params,
                              const std::string &label,
                              std::uint64_t quota = 0,
                              bool capture_stats = false,
                              const std::string &store_dir = "");

} // namespace rowsim

#endif // ROWSIM_SIM_EXPERIMENT_HH
