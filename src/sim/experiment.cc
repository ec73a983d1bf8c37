#include "sim/experiment.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "common/heartbeat.hh"

#include "common/json.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/sampling.hh"
#include "sim/snapshot.hh"
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
      case RunStatus::Crashed: return "crashed";
      case RunStatus::TimedOut: return "timeout";
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
        j += strprintf(",\"status\":\"%s\",\"error\":\"%s\","
                       "\"attempts\":%u",
                       runStatusName(status), jsonEscape(error).c_str(),
                       attempts);
    }
    j += "}";
    return j;
}

void
writeRunReport(const RunResult &r, const std::string &path)
{
    // Sweep workers report concurrently; serialize so every JSON line
    // lands intact (append-mode writes interleave at the stdio level).
    static std::mutex reportMutex;
    std::lock_guard<std::mutex> lock(reportMutex);

    const std::string line = r.toJson();
    if (path == "-") {
        std::fprintf(stdout, "%s\n", line.c_str());
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        ROWSIM_WARN("cannot open run report file '%s'", path.c_str());
        return;
    }
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
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

bool
funcModeFor(const SystemParams &params)
{
    std::string m = params.mode;
    if (m.empty()) {
        if (const char *env = std::getenv("ROWSIM_MODE"); env && *env)
            m = env;
    }
    if (m.empty() || m == "detail")
        return false;
    if (m == "func")
        return true;
    ROWSIM_FATAL("bad ROWSIM_MODE '%s' (valid: detail, func)", m.c_str());
    return false;
}

namespace
{

/**
 * Merge one named per-core histogram across every core and read its
 * tail percentiles. Leaves the outputs untouched when no core recorded
 * the histogram (profiling off / no samples).
 */
void
mergedPercentiles(System &sys, const char *name, double &p50, double &p90,
                  double &p99)
{
    const Histogram *first = nullptr;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        if (const Histogram *h = sys.core(c).stats().findHistogram(name)) {
            first = h;
            break;
        }
    }
    if (!first)
        return;
    Histogram merged(first->lo(), first->hi(),
                     static_cast<unsigned>(first->buckets().size()));
    for (CoreId c = 0; c < sys.numCores(); c++) {
        if (const Histogram *h = sys.core(c).stats().findHistogram(name))
            merged.merge(*h);
    }
    if (merged.summary().count() == 0)
        return;
    p50 = merged.percentile(0.50);
    p90 = merged.percentile(0.90);
    p99 = merged.percentile(0.99);
}

/** Append a profiled run's record as one JSON line to @p path
 *  ("-" = stdout); same serialization discipline as writeRunReport. */
void
writeProfileRecord(const RunResult &r, const std::string &path)
{
    static std::mutex profileMutex;
    std::lock_guard<std::mutex> lock(profileMutex);

    const std::string line = strprintf(
        "{\"workload\":\"%s\",\"config\":\"%s\",\"cycles\":%llu,"
        "\"profile\":%s}",
        r.workload.c_str(), r.config.c_str(),
        static_cast<unsigned long long>(r.cycles), r.profileJson.c_str());
    if (path == "-") {
        std::fprintf(stdout, "%s\n", line.c_str());
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        ROWSIM_WARN("cannot open profile JSON file '%s'", path.c_str());
        return;
    }
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
}

/** Append a span-traced run's record as one JSON line to @p path
 *  ("-" = stdout) — an input format of tools/rowsim_report. */
void
writeSpanRecord(const RunResult &r, const std::string &path)
{
    static std::mutex spanMutex;
    std::lock_guard<std::mutex> lock(spanMutex);

    const std::string line = strprintf(
        "{\"workload\":\"%s\",\"config\":\"%s\",\"cycles\":%llu,"
        "\"spans\":%s}",
        r.workload.c_str(), r.config.c_str(),
        static_cast<unsigned long long>(r.cycles), r.spanJson.c_str());
    if (path == "-") {
        std::fprintf(stdout, "%s\n", line.c_str());
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        ROWSIM_WARN("cannot open span JSON file '%s'", path.c_str());
        return;
    }
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
}

/** Checkpoint file name for one (workload, config, run-shape) tuple.
 *  Everything that decides the warmup trajectory is part of the key, so
 *  a stale file can never be restored into the wrong run (and the
 *  config fingerprint embedded in the file backstops the rest). */
std::string
checkpointPath(const std::string &workload, const std::string &label,
               unsigned num_cores, std::uint64_t seed, std::uint64_t quota,
               std::uint64_t warm)
{
    const char *dir_env = std::getenv("ROWSIM_CKPT_DIR");
    const std::string dir =
        (dir_env && *dir_env) ? dir_env : "rowsim-ckpt";
    auto sanitize = [](const std::string &in) {
        std::string out;
        for (const char ch : in) {
            out += std::isalnum(static_cast<unsigned char>(ch)) ? ch
                                                                : '_';
        }
        return out;
    };
    return dir + "/" + sanitize(workload) + "-" + sanitize(label) +
           strprintf("-c%u-s%llu-q%llu-w%llu.ckpt", num_cores,
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(quota),
                     static_cast<unsigned long long>(warm));
}

/**
 * sys.run(quota), optionally short-circuited through a warmup
 * checkpoint (ROWSIM_CKPT=save|restore|auto):
 *
 *  - save:    run to the warmup point, write the checkpoint, continue.
 *  - restore: resume from the checkpoint (missing file is fatal).
 *  - auto:    restore when the file exists, else run + save it.
 *
 * ROWSIM_CKPT_AT sets the warmup point in committed iterations per core
 * (default quota/4); ROWSIM_CKPT_DIR the directory (default
 * "rowsim-ckpt"). Because save→restore→run is bit-identical to an
 * uninterrupted run, every downstream metric and stats dump is
 * unaffected — only the wall-clock cost of re-simulating the warmup is.
 */
Cycle
runMaybeCheckpointed(System &sys, const std::string &workload,
                     const std::string &label, std::uint64_t quota)
{
    const char *mode_env = std::getenv("ROWSIM_CKPT");
    if (!mode_env || !*mode_env)
        return sys.run(quota);
    const std::string mode = mode_env;
    if (mode != "save" && mode != "restore" && mode != "auto") {
        ROWSIM_FATAL("bad ROWSIM_CKPT '%s' (valid: save, restore, auto)",
                     mode_env);
    }
    if (sys.profiler() && sys.profiler()->active()) {
        ROWSIM_WARN("ROWSIM_CKPT ignored: the attribution profiler is "
                    "active and the snapshot format does not carry its "
                    "state");
        return sys.run(quota);
    }
    if (sys.timeseries() && sys.timeseries()->converge().active) {
        // A convergence-bounded run can stop before the warmup point,
        // which would leave a checkpoint that no cold run reproduces;
        // warmup therefore ignores convergence, and mixing the two
        // would make the stop cycle depend on ROWSIM_CKPT. Refuse.
        ROWSIM_WARN("ROWSIM_CKPT ignored: ROWSIM_CONVERGE bounds the "
                    "run at a data-dependent cycle");
        return sys.run(quota);
    }

    std::uint64_t warm = quota / 4;
    if (const char *at = std::getenv("ROWSIM_CKPT_AT"); at && *at)
        warm = parseEnvU64("ROWSIM_CKPT_AT", at);
    if (warm == 0 || warm >= quota) {
        ROWSIM_WARN("ROWSIM_CKPT ignored: warmup point %llu outside "
                    "(0, quota %llu)",
                    static_cast<unsigned long long>(warm),
                    static_cast<unsigned long long>(quota));
        return sys.run(quota);
    }

    const std::string path = checkpointPath(
        workload, label, sys.numCores(), sys.params().seed, quota, warm);

    bool restored = false;
    if (mode == "restore" || mode == "auto") {
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            sys.restoreCheckpoint(path);
            restored = true;
        } else if (mode == "restore") {
            ROWSIM_FATAL("ROWSIM_CKPT=restore: checkpoint '%s' not "
                         "found (populate it with ROWSIM_CKPT=save or "
                         "auto)",
                         path.c_str());
        }
    }
    if (!restored) {
        sys.runWarmup(quota, warm);
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        sys.saveCheckpoint(path);
    }
    // Degenerate case: every core already reached the quota at the
    // warmup point, so the run is over — run(quota) would tick once
    // more and report one extra cycle.
    bool done = true;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        if (sys.core(c).committedIterations() < quota) {
            done = false;
            break;
        }
    }
    return done ? sys.now() : sys.run(quota);
}

/** The per-run JSON sinks that need only the RunResult (run report,
 *  profile record, span record) — shared by live runs and result-store
 *  hits, so a warm rerun still feeds every figure script. */
void
emitRunSinks(const RunResult &r)
{
    // ROWSIM_REPORT=<path>: append a one-line JSON report per run (any
    // bench or test), "-" for stdout. Lets figure scripts collect every
    // run without touching the harness call sites.
    if (const char *report = std::getenv("ROWSIM_REPORT");
        report && *report) {
        writeRunReport(r, report);
    }
    // ROWSIM_PROFILE_JSON=<path>: append one profiler record per
    // profiled run ({"workload","config","cycles","profile"}), "-" for
    // stdout — an input format of tools/rowsim_report. Inside a sweep
    // worker the path carries the job key (like the trace sinks), so
    // concurrent jobs never interleave one file.
    if (const char *pj = std::getenv("ROWSIM_PROFILE_JSON");
        pj && *pj && !r.profileJson.empty()) {
        writeProfileRecord(r, std::strcmp(pj, "-") == 0
                                  ? std::string("-")
                                  : suffixJobPath(pj, Trace::jobKey()));
    }
    // ROWSIM_SPANS_JSON=<path>: append one span record per span-traced
    // run ({"workload","config","cycles","spans"}), "-" for stdout —
    // an input format of tools/rowsim_report.
    if (const char *sj = std::getenv("ROWSIM_SPANS_JSON");
        sj && *sj && !r.spanJson.empty()) {
        writeSpanRecord(r, std::strcmp(sj, "-") == 0
                                ? std::string("-")
                                : suffixJobPath(sj, Trace::jobKey()));
    }
}

/** Run @p workload on a fully-specified system and harvest the metrics. */
RunResult
runAndCollect(const std::string &workload, const SystemParams &sp,
              const std::string &label, std::uint64_t quota,
              bool capture_stats)
{
    const WorkloadProfile profile = profileFor(workload);
    if (quota == 0)
        quota = defaultQuota(workload);

    // ROWSIM_SAMPLE=<n>:<warm>:<detail>: divert to SMARTS-style
    // checkpointed sampling — functional warm-up to a checkpoint grid,
    // short detail windows from each checkpoint (sweep jobs, so they
    // cache and parallelize individually), batch-means aggregation. The
    // windows go through the result store themselves; the aggregate
    // bypasses it.
    if (const SampleSpec sample = sampleSpecFromEnv(); sample.active) {
        RunResult r = runSampled(workload, sp, label, quota, sample);
        emitRunSinks(r);
        return r;
    }

    const bool funcMode = funcModeFor(sp);

    // Content-addressed result store (ROWSIM_RESULTS=on): serve a prior
    // identical run from disk instead of re-simulating. Bypassed when
    // the caller needs live-System side artifacts a cached RunResult
    // cannot reproduce (the full-stats sink or any trace sink). The
    // trace env is normally parsed at System construction, which is
    // after this decision — force it now so the first run of a traced
    // process bypasses too instead of serving a hit that emits nothing.
    Trace::initFromEnv();
    std::unique_ptr<ResultStore> store = ResultStore::fromEnv();
    const char *statsSink = std::getenv("ROWSIM_STATS_JSON");
    // The heartbeat is a live sink like the trace / stats sinks: a
    // store hit would silently emit no telemetry, so it bypasses too.
    const bool bypassStore = (statsSink && *statsSink) ||
                             Trace::anyEnabled() || Heartbeat::enabled();
    ResultKey key{};
    if (store && !bypassStore) {
        key = ResultStore::keyFor(sp, workload, label, quota);
        RunResult cached;
        if (store->load(key, cached)) {
            // An entry written by a no-stats run cannot serve a caller
            // that wants statsJson — recompute (and upgrade the entry).
            if (!capture_stats || !cached.statsJson.empty()) {
                if (!capture_stats)
                    cached.statsJson.clear();
                cached.fromCache = true;
                emitRunSinks(cached);
                return cached;
            }
        }
    }

    System sys(sp, makeStreams(profile, sp.numCores, sp.seed));

    RunResult r;
    r.workload = workload;
    r.config = label;
    // Functional fast mode retires the whole quota architecturally;
    // the warmup-checkpoint shortcut is pointless there (the func run
    // IS the fast path) and is ignored.
    r.cycles = funcMode ? sys.runFunctional(quota)
                        : runMaybeCheckpointed(sys, workload, label, quota);

    r.instructions = sys.totalInstructions();
    r.atomicsCommitted = sys.totalAtomics();
    r.atomicsPer10k =
        r.instructions
            ? 1e4 * static_cast<double>(r.atomicsCommitted) /
                  static_cast<double>(r.instructions)
            : 0.0;

    r.atomicsUnlocked = sys.totalCounter("atomicsUnlocked");
    r.detectedContended = sys.totalCounter("atomicsDetectedContended");
    r.oracleContended = sys.totalCounter("atomicsOracleContended");
    r.contendedPct =
        r.atomicsUnlocked
            ? 100.0 * static_cast<double>(r.oracleContended) /
                  static_cast<double>(r.atomicsUnlocked)
            : 0.0;

    r.missLatency = sys.meanCacheAverage("missLatency");
    r.dispatchToIssue = sys.meanAverage("atomicDispatchToIssue");
    r.issueToLock = sys.meanAverage("atomicIssueToLock");
    r.lockToUnlock = sys.meanAverage("atomicLockToUnlock");
    mergedPercentiles(sys, "atomicDispatchToIssueHist",
                      r.dispatchToIssueP50, r.dispatchToIssueP90,
                      r.dispatchToIssueP99);
    mergedPercentiles(sys, "atomicIssueToLockHist", r.issueToLockP50,
                      r.issueToLockP90, r.issueToLockP99);
    mergedPercentiles(sys, "atomicLockToUnlockHist", r.lockToUnlockP50,
                      r.lockToUnlockP90, r.lockToUnlockP99);
    r.olderUnexecuted = sys.meanAverage("olderUnexecutedAtIssue");
    r.youngerStarted = sys.meanAverage("youngerStartedAtIssue");

    std::uint64_t updates = 0, correct = 0;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        updates += sys.core(c).predictor().stats().counterValue("updates");
        correct += sys.core(c).predictor().stats().counterValue("correct");
    }
    r.predAccuracy = updates ? 100.0 * static_cast<double>(correct) /
                                   static_cast<double>(updates)
                             : 0.0;

    r.atomicsForwarded = sys.totalCounter("atomicsForwarded");
    r.atomicsPromoted = sys.totalCounter("atomicsPromotedEager");
    r.forcedUnlocks = sys.totalCounter("forcedUnlocks");
    r.eagerIssued = sys.totalCounter("atomicsIssuedEager");
    r.lazyIssued = sys.totalCounter("atomicsIssuedLazy");

    if (capture_stats) {
        // Render the full stats tree into memory while the System is
        // still alive (sweeps compare these dumps byte-for-byte).
        char *buf = nullptr;
        std::size_t len = 0;
        if (std::FILE *mem = open_memstream(&buf, &len)) {
            sys.dumpStatsJson(mem);
            std::fclose(mem);
            r.statsJson.assign(buf, len);
            std::free(buf);
        } else {
            ROWSIM_WARN("open_memstream failed; statsJson not captured");
        }
    }

    if (const Profiler *prof = sys.profiler(); prof && prof->active())
        r.profileJson = prof->toJson();
    if (const SpanTracker *sp = sys.spans(); sp && sp->active())
        r.spanJson = sp->toJson();
    if (const TimeSeriesEngine *ts = sys.timeseries()) {
        r.tsJson = ts->toJson();
        if (ts->converge().active) {
            r.convergeMetric = ts->converge().metric;
            r.convergeTarget = ts->converge().relHalfwidth;
            r.convergeConfidence = ts->converge().confidence;
            r.convergeAchieved = ts->achievedRelHalfwidth();
            r.converged = ts->converged();
        }
    }

    // Persist the completed run before emitting sinks: once stored, a
    // rerun with the same key never simulates again.
    if (store && !bypassStore)
        store->store(key, r);

    emitRunSinks(r);
    // ROWSIM_STATS_JSON=<path>: the full stats tree (every group's
    // counters/averages/formulas + interval series) of the most recent
    // run, "-" for stdout.
    if (statsSink && *statsSink) {
        if (std::string(statsSink) == "-") {
            sys.dumpStatsJson(stdout);
        } else if (std::FILE *f = std::fopen(statsSink, "w")) {
            sys.dumpStatsJson(f);
            std::fclose(f);
        } else {
            ROWSIM_WARN("cannot open stats JSON file '%s'", statsSink);
        }
    }
    return r;
}

} // namespace

RunResult
runExperiment(const std::string &workload, const ExpConfig &cfg,
              unsigned num_cores, std::uint64_t quota, std::uint64_t seed,
              bool capture_stats)
{
    return runAndCollect(workload, makeParams(cfg, num_cores, seed),
                         cfg.label, quota, capture_stats);
}

RunResult
runExperimentParams(const std::string &workload, const SystemParams &params,
                    const std::string &label, std::uint64_t quota,
                    bool capture_stats)
{
    return runAndCollect(workload, params, label, quota, capture_stats);
}

} // namespace rowsim
