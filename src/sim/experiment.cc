#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "common/json.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "sim/options.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/sampling.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

namespace rowsim
{

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
    }
    return "?";
}

std::string
RunResult::toJson() const
{
    std::string j = strprintf(
        "{\"workload\":\"%s\",\"config\":\"%s\",\"cycles\":%llu,"
        "\"instructions\":%llu,\"atomicsCommitted\":%llu,"
        "\"atomicsPer10k\":%.4f,\"atomicsUnlocked\":%llu,"
        "\"detectedContended\":%llu,\"oracleContended\":%llu,"
        "\"contendedPct\":%.4f,\"missLatency\":%.4f,"
        "\"dispatchToIssue\":%.4f,\"issueToLock\":%.4f,"
        "\"lockToUnlock\":%.4f,"
        "\"dispatchToIssueP50\":%.4f,\"dispatchToIssueP90\":%.4f,"
        "\"dispatchToIssueP99\":%.4f,"
        "\"issueToLockP50\":%.4f,\"issueToLockP90\":%.4f,"
        "\"issueToLockP99\":%.4f,"
        "\"lockToUnlockP50\":%.4f,\"lockToUnlockP90\":%.4f,"
        "\"lockToUnlockP99\":%.4f,\"olderUnexecuted\":%.4f,"
        "\"youngerStarted\":%.4f,\"predAccuracy\":%.4f,"
        "\"atomicsForwarded\":%llu,\"atomicsPromoted\":%llu,"
        "\"forcedUnlocks\":%llu,\"eagerIssued\":%llu,\"lazyIssued\":%llu",
        workload.c_str(), config.c_str(),
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(instructions),
        static_cast<unsigned long long>(atomicsCommitted), atomicsPer10k,
        static_cast<unsigned long long>(atomicsUnlocked),
        static_cast<unsigned long long>(detectedContended),
        static_cast<unsigned long long>(oracleContended), contendedPct,
        missLatency, dispatchToIssue, issueToLock, lockToUnlock,
        dispatchToIssueP50, dispatchToIssueP90, dispatchToIssueP99,
        issueToLockP50, issueToLockP90, issueToLockP99, lockToUnlockP50,
        lockToUnlockP90, lockToUnlockP99, olderUnexecuted, youngerStarted,
        predAccuracy,
        static_cast<unsigned long long>(atomicsForwarded),
        static_cast<unsigned long long>(atomicsPromoted),
        static_cast<unsigned long long>(forcedUnlocks),
        static_cast<unsigned long long>(eagerIssued),
        static_cast<unsigned long long>(lazyIssued));
    if (!spanJson.empty())
        j += ",\"spans\":" + spanJson;
    if (!tsJson.empty())
        j += ",\"timeseries\":" + tsJson;
    if (!samplingJson.empty())
        j += ",\"sampling\":" + samplingJson;
    if (!convergeMetric.empty()) {
        j += strprintf(
            ",\"converge\":{\"metric\":\"%s\",\"target\":%.6g,"
            "\"confidence\":%.6g,\"achieved\":%s,\"converged\":%s}",
            convergeMetric.c_str(), convergeTarget, convergeConfidence,
            std::isfinite(convergeAchieved)
                ? strprintf("%.6g", convergeAchieved).c_str()
                : "null",
            converged ? "true" : "false");
    }
    // Failure fields only when there is a failure: ok-run report lines
    // keep their historical byte layout.
    if (status != RunStatus::Ok) {
        j += strprintf(",\"status\":\"%s\",\"error\":\"%s\"",
                       runStatusName(status), jsonEscape(error).c_str());
    }
    j += "}";
    return j;
}

namespace
{

/** Append @p line to @p path ("-" = stdout). Sweep workers write
 *  concurrently; serialize so every JSON line lands intact
 *  (append-mode writes interleave at the stdio level). */
void
appendLine(const std::string &path, const std::string &line,
           const char *what)
{
    static std::mutex appendMutex;
    std::lock_guard<std::mutex> lock(appendMutex);
    if (path == "-") {
        std::fprintf(stdout, "%s\n", line.c_str());
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        ROWSIM_WARN("cannot open %s file '%s'", what, path.c_str());
        return;
    }
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
}

/**
 * Merge one Fig. 6 phase histogram across every core and return its
 * mean, with the tail percentiles in @p p50/@p p90/@p p99. The merged
 * summary sums the per-core sums in core order, exactly as
 * System::meanAverage would. Returns 0 and leaves the percentiles
 * untouched when no core sampled the phase.
 */
double
mergedPhase(System &sys, const char *name, double &p50, double &p90,
            double &p99)
{
    std::optional<Histogram> merged;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        const Histogram *h = sys.core(c).stats().findHistogram(name);
        if (!h)
            continue;
        if (merged)
            merged->merge(*h);
        else
            merged = *h;
    }
    if (!merged || merged->summary().count() == 0)
        return 0.0;
    p50 = merged->percentile(0.50);
    p90 = merged->percentile(0.90);
    p99 = merged->percentile(0.99);
    return merged->summary().mean();
}

} // namespace

void
writeRunReport(const RunResult &r, const std::string &path)
{
    appendLine(path, r.toJson(), "run report");
}

CounterBaseline
snapshotCounters(System &sys)
{
    CounterBaseline b;
    b.cycle = sys.now();
    b.insts = sys.totalInstructions();
    b.atomics = sys.totalAtomics();
    b.unlocked = sys.totalCounter("atomicsUnlocked");
    b.detected = sys.totalCounter("atomicsDetectedContended");
    b.oracle = sys.totalCounter("atomicsOracleContended");
    b.forwarded = sys.totalCounter("atomicsForwarded");
    b.promoted = sys.totalCounter("atomicsPromotedEager");
    b.forced = sys.totalCounter("forcedUnlocks");
    b.eager = sys.totalCounter("atomicsIssuedEager");
    b.lazy = sys.totalCounter("atomicsIssuedLazy");
    for (CoreId c = 0; c < sys.numCores(); c++) {
        b.predUpdates +=
            sys.core(c).predictor().stats().counterValue("updates");
        b.predCorrect +=
            sys.core(c).predictor().stats().counterValue("correct");
    }
    return b;
}

void
collectMetrics(System &sys, const CounterBaseline &base, RunResult &r)
{
    const CounterBaseline now = snapshotCounters(sys);
    r.instructions = now.insts - base.insts;
    r.atomicsCommitted = now.atomics - base.atomics;
    r.atomicsPer10k =
        r.instructions ? 1e4 * static_cast<double>(r.atomicsCommitted) /
                             static_cast<double>(r.instructions)
                       : 0.0;
    r.atomicsUnlocked = now.unlocked - base.unlocked;
    r.detectedContended = now.detected - base.detected;
    r.oracleContended = now.oracle - base.oracle;
    r.contendedPct =
        r.atomicsUnlocked
            ? 100.0 * static_cast<double>(r.oracleContended) /
                  static_cast<double>(r.atomicsUnlocked)
            : 0.0;
    r.atomicsForwarded = now.forwarded - base.forwarded;
    r.atomicsPromoted = now.promoted - base.promoted;
    r.forcedUnlocks = now.forced - base.forced;
    r.eagerIssued = now.eager - base.eager;
    r.lazyIssued = now.lazy - base.lazy;

    r.missLatency = sys.meanCacheAverage("missLatency");
    r.dispatchToIssue =
        mergedPhase(sys, "atomicDispatchToIssueHist", r.dispatchToIssueP50,
                    r.dispatchToIssueP90, r.dispatchToIssueP99);
    r.issueToLock = mergedPhase(sys, "atomicIssueToLockHist",
                                r.issueToLockP50, r.issueToLockP90,
                                r.issueToLockP99);
    r.lockToUnlock = mergedPhase(sys, "atomicLockToUnlockHist",
                                 r.lockToUnlockP50, r.lockToUnlockP90,
                                 r.lockToUnlockP99);
    r.olderUnexecuted = sys.meanAverage("olderUnexecutedAtIssue");
    r.youngerStarted = sys.meanAverage("youngerStartedAtIssue");

    const std::uint64_t updates = now.predUpdates - base.predUpdates;
    const std::uint64_t correct = now.predCorrect - base.predCorrect;
    r.predAccuracy = updates ? 100.0 * static_cast<double>(correct) /
                                   static_cast<double>(updates)
                             : 0.0;
}

ExpConfig
eagerConfig(bool forwarding)
{
    ExpConfig c;
    c.label = forwarding ? "eager+fwd" : "eager";
    c.policy = AtomicPolicy::Eager;
    c.forwardToAtomics = forwarding;
    return c;
}

ExpConfig
lazyConfig()
{
    ExpConfig c;
    c.label = "lazy";
    c.policy = AtomicPolicy::Lazy;
    return c;
}

ExpConfig
fencedConfig()
{
    ExpConfig c;
    c.label = "fenced";
    c.policy = AtomicPolicy::Fenced;
    return c;
}

namespace
{
const char *
detectorName(ContentionDetector d)
{
    switch (d) {
      case ContentionDetector::EW: return "EW";
      case ContentionDetector::RW: return "RW";
      case ContentionDetector::RWDir: return "RW+Dir";
      case ContentionDetector::RWDirNotify: return "RW+DirNtf";
    }
    return "?";
}

const char *
updateName(PredictorUpdate u)
{
    switch (u) {
      case PredictorUpdate::UpDown: return "U/D";
      case PredictorUpdate::SaturateOnContention: return "Sat";
      case PredictorUpdate::TwoUpOneDown: return "+2/-1";
    }
    return "?";
}
} // namespace

ExpConfig
rowConfig(ContentionDetector det, PredictorUpdate upd, bool forwarding)
{
    ExpConfig c;
    c.label = std::string(detectorName(det)) + "_" + updateName(upd) +
              (forwarding ? "+fwd" : "");
    c.policy = AtomicPolicy::RoW;
    c.detector = det;
    c.update = upd;
    c.forwardToAtomics = forwarding;
    return c;
}

std::vector<ExpConfig>
fig9Configs()
{
    std::vector<ExpConfig> v;
    v.push_back(eagerConfig());
    v.push_back(lazyConfig());
    for (auto det : {ContentionDetector::EW, ContentionDetector::RW,
                     ContentionDetector::RWDir}) {
        for (auto upd : {PredictorUpdate::UpDown,
                         PredictorUpdate::SaturateOnContention}) {
            v.push_back(rowConfig(det, upd));
        }
    }
    return v;
}

SystemParams
makeParams(const ExpConfig &cfg, unsigned num_cores, std::uint64_t seed)
{
    SystemParams sp;
    sp.numCores = num_cores;
    sp.seed = seed;
    sp.core.atomicPolicy = cfg.policy;
    sp.core.forwardToAtomics = cfg.forwardToAtomics;
    sp.core.row.detector = cfg.detector;
    sp.core.row.update = cfg.update;
    sp.core.row.latencyThreshold = cfg.latencyThreshold;
    sp.core.row.predictorEntries = cfg.predictorEntries;
    sp.core.row.localityPromotion = cfg.localityPromotion;
    sp.profileCategories = cfg.profile;
    sp.spans = cfg.spans;
    sp.timeseries = cfg.timeseries;
    sp.converge = cfg.converge;
    sp.mode = cfg.mode;
    return sp;
}

namespace
{

/** One profile / span record line: {"workload","config","cycles",
 *  "<key>"} — input formats of tools/rowsim_report. */
std::string
recordLine(const RunResult &r, const char *key, const std::string &json)
{
    return strprintf("{\"workload\":\"%s\",\"config\":\"%s\","
                     "\"cycles\":%llu,\"%s\":%s}",
                     r.workload.c_str(), r.config.c_str(),
                     static_cast<unsigned long long>(r.cycles), key,
                     json.c_str());
}

/** The per-run JSON sinks that need only the RunResult (run report,
 *  profile record, span record) — shared by live runs and result-store
 *  hits, so a warm rerun still feeds every figure script. */
void
emitRunSinks(const RunResult &r, const RunOptions &opts)
{
    // The run report lets figure scripts collect every run without
    // touching the harness call sites.
    if (!opts.report.empty())
        writeRunReport(r, opts.report);
    // Inside a sweep worker the record paths carry the job key (like
    // the trace sinks), so concurrent jobs never interleave one file.
    auto jobPath = [](const std::string &path) {
        return path == "-" ? path : suffixJobPath(path, Trace::jobKey());
    };
    if (!opts.profileJson.empty() && !r.profileJson.empty()) {
        appendLine(jobPath(opts.profileJson),
                   recordLine(r, "profile", r.profileJson), "profile JSON");
    }
    if (!opts.spansJson.empty() && !r.spanJson.empty()) {
        appendLine(jobPath(opts.spansJson),
                   recordLine(r, "spans", r.spanJson), "span JSON");
    }
}

/** Run @p workload on a fully-specified system and harvest the metrics. */
RunResult
runAndCollect(const std::string &workload, const SystemParams &sp,
              const std::string &label, std::uint64_t quota,
              bool capture_stats, const std::string &store_dir)
{
    const WorkloadProfile profile = profileFor(workload);
    if (quota == 0)
        quota = defaultQuota(workload);

    // One resolution serves the whole run: the rules, the sampling
    // diversion, the store key, the System and the sinks.
    RunOptions opts = resolveRunOptions(sp, store_dir);
    applyRunRules(opts);

    // SMARTS-style checkpointed sampling — functional warm-up to a
    // checkpoint grid, short detail windows from each checkpoint (sweep
    // jobs, so they cache and parallelize individually), batch-means
    // aggregation. The windows go through the result store themselves;
    // the aggregate bypasses it.
    if (opts.sample.active) {
        RunResult r = runSampled(workload, sp, opts, label, quota);
        emitRunSinks(r, opts);
        return r;
    }

    // Content-addressed result store: serve a prior identical run from
    // disk instead of re-simulating (the run rules already turned it
    // off for runs with live sinks a cached RunResult cannot replay).
    std::unique_ptr<ResultStore> store = ResultStore::open(opts);
    ResultKey key{};
    if (store) {
        key = ResultStore::keyFor(sp, opts, workload, label, quota);
        RunResult cached;
        if (store->serve(key, capture_stats, cached)) {
            emitRunSinks(cached, opts);
            return cached;
        }
    }

    System sys(sp, opts, makeStreams(profile, sp.numCores, sp.seed));

    RunResult r;
    r.workload = workload;
    r.config = label;
    // Functional fast mode retires the whole quota architecturally.
    r.cycles = opts.funcMode ? sys.runFunctional(quota) : sys.run(quota);

    collectMetrics(sys, CounterBaseline{}, r);

    // Render the full stats tree while the System is still alive
    // (sweeps compare these dumps byte-for-byte).
    if (capture_stats)
        r.statsJson = sys.statsJson();

    if (const Profiler *prof = sys.profiler(); prof && prof->active())
        r.profileJson = prof->toJson();
    if (const SpanTracker *sp = sys.spans(); sp && sp->active())
        r.spanJson = sp->toJson();
    if (const IntervalSampler &ts = sys.sampler(); ts.engineOn()) {
        r.tsJson = ts.toJson();
        if (ts.converge().active) {
            r.convergeMetric = ts.converge().metric;
            r.convergeTarget = ts.converge().relHalfwidth;
            r.convergeConfidence = ts.converge().confidence;
            r.convergeAchieved = ts.achievedRelHalfwidth();
            r.converged = ts.converged();
        }
    }

    // Persist the completed run before emitting sinks: once stored, a
    // rerun with the same key never simulates again.
    if (store)
        store->store(key, r);

    emitRunSinks(r, opts);
    // The full stats tree (every group's counters/averages/formulas +
    // interval series) of the most recent run.
    if (opts.statsJson == "-") {
        sys.dumpStatsJson(stdout);
    } else if (!opts.statsJson.empty()) {
        if (std::FILE *f = std::fopen(opts.statsJson.c_str(), "w")) {
            sys.dumpStatsJson(f);
            std::fclose(f);
        } else {
            ROWSIM_WARN("cannot open stats JSON file '%s'",
                        opts.statsJson.c_str());
        }
    }
    return r;
}

} // namespace

RunResult
runExperiment(const std::string &workload, const ExpConfig &cfg,
              unsigned num_cores, std::uint64_t quota, std::uint64_t seed,
              bool capture_stats, const std::string &store_dir)
{
    return runAndCollect(workload, makeParams(cfg, num_cores, seed),
                         cfg.label, quota, capture_stats, store_dir);
}

RunResult
runExperimentParams(const std::string &workload, const SystemParams &params,
                    const std::string &label, std::uint64_t quota,
                    bool capture_stats)
{
    return runAndCollect(workload, params, label, quota, capture_stats, "");
}

} // namespace rowsim
