#include "sim/sampling.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "common/log.hh"
#include "common/timeseries.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

namespace rowsim
{

SampleSpec
parseSampleSpec(const char *name, const std::string &spec)
{
    SampleSpec s;
    if (spec.empty())
        return s;
    unsigned n = 0;
    unsigned long long warm = 0, detail = 0;
    double conf = 0.95;
    char junk = 0;
    const int got = std::sscanf(spec.c_str(), "%u:%llu:%llu:%lf%c", &n,
                                &warm, &detail, &conf, &junk);
    if (got != 3 && got != 4) {
        ROWSIM_FATAL("bad %s '%s' (want <n_ckpts>:<warm>:<detail>"
                     "[:<confidence>], iterations per core)",
                     name, spec.c_str());
    }
    if (n < 1 || detail < 1) {
        ROWSIM_FATAL("bad %s '%s': need at least 1 checkpoint and 1 "
                     "measured iteration",
                     name, spec.c_str());
    }
    if (!(conf > 0.0 && conf < 1.0)) {
        ROWSIM_FATAL("bad %s '%s': confidence must be in (0, 1)", name,
                     spec.c_str());
    }
    s.active = true;
    s.checkpoints = n;
    s.warmIters = warm;
    s.detailIters = detail;
    s.confidence = conf;
    return s;
}

std::vector<std::uint64_t>
sampleGrid(std::uint64_t quota, unsigned n)
{
    std::vector<std::uint64_t> g(n);
    for (unsigned k = 0; k < n; k++)
        g[k] = quota * k / n;
    return g;
}

namespace
{

/** Window reporting label; also the store key's label component, so it
 *  encodes everything of the sampling layout the window depends on. */
std::string
windowLabel(const std::string &label, const SampleSpec &spec,
            std::uint64_t quota, unsigned k)
{
    return label + strprintf("#s%u.%llu.%llu.q%llu.k%u", spec.checkpoints,
                             static_cast<unsigned long long>(spec.warmIters),
                             static_cast<unsigned long long>(
                                 spec.detailIters),
                             static_cast<unsigned long long>(quota), k);
}

/** One aggregated metric: how to read it from a window result, how to
 *  write the whole-run value back into the aggregate result, and
 *  whether the window value is an additive count (extrapolated by
 *  quota / detailIters) or already a rate/mean. */
struct MetricDef
{
    const char *name;
    double (*get)(const RunResult &);
    void (*set)(RunResult &, double);
    bool extrapolate;
};

constexpr MetricDef kSampledMetrics[] = {
    {"cycles", [](const RunResult &w) { return double(w.cycles); },
     [](RunResult &r, double v) {
         r.cycles = static_cast<Cycle>(std::llround(v));
     },
     true},
    {"instructions",
     [](const RunResult &w) { return double(w.instructions); },
     [](RunResult &r, double v) {
         r.instructions = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"atomicsCommitted",
     [](const RunResult &w) { return double(w.atomicsCommitted); },
     [](RunResult &r, double v) {
         r.atomicsCommitted = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"atomicsUnlocked",
     [](const RunResult &w) { return double(w.atomicsUnlocked); },
     [](RunResult &r, double v) {
         r.atomicsUnlocked = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"detectedContended",
     [](const RunResult &w) { return double(w.detectedContended); },
     [](RunResult &r, double v) {
         r.detectedContended = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"oracleContended",
     [](const RunResult &w) { return double(w.oracleContended); },
     [](RunResult &r, double v) {
         r.oracleContended = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"atomicsForwarded",
     [](const RunResult &w) { return double(w.atomicsForwarded); },
     [](RunResult &r, double v) {
         r.atomicsForwarded = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"atomicsPromoted",
     [](const RunResult &w) { return double(w.atomicsPromoted); },
     [](RunResult &r, double v) {
         r.atomicsPromoted = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"forcedUnlocks",
     [](const RunResult &w) { return double(w.forcedUnlocks); },
     [](RunResult &r, double v) {
         r.forcedUnlocks = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"eagerIssued",
     [](const RunResult &w) { return double(w.eagerIssued); },
     [](RunResult &r, double v) {
         r.eagerIssued = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"lazyIssued", [](const RunResult &w) { return double(w.lazyIssued); },
     [](RunResult &r, double v) {
         r.lazyIssued = static_cast<std::uint64_t>(std::llround(v));
     },
     true},
    {"atomicsPer10k",
     [](const RunResult &w) { return w.atomicsPer10k; },
     [](RunResult &r, double v) { r.atomicsPer10k = v; }, false},
    {"contendedPct", [](const RunResult &w) { return w.contendedPct; },
     [](RunResult &r, double v) { r.contendedPct = v; }, false},
    {"missLatency", [](const RunResult &w) { return w.missLatency; },
     [](RunResult &r, double v) { r.missLatency = v; }, false},
    {"dispatchToIssue",
     [](const RunResult &w) { return w.dispatchToIssue; },
     [](RunResult &r, double v) { r.dispatchToIssue = v; }, false},
    {"issueToLock", [](const RunResult &w) { return w.issueToLock; },
     [](RunResult &r, double v) { r.issueToLock = v; }, false},
    {"lockToUnlock", [](const RunResult &w) { return w.lockToUnlock; },
     [](RunResult &r, double v) { r.lockToUnlock = v; }, false},
    {"olderUnexecuted",
     [](const RunResult &w) { return w.olderUnexecuted; },
     [](RunResult &r, double v) { r.olderUnexecuted = v; }, false},
    {"youngerStarted",
     [](const RunResult &w) { return w.youngerStarted; },
     [](RunResult &r, double v) { r.youngerStarted = v; }, false},
    {"predAccuracy", [](const RunResult &w) { return w.predAccuracy; },
     [](RunResult &r, double v) { r.predAccuracy = v; }, false},
};

} // namespace

RunResult
runDetailWindow(const SweepJob &job, const std::string &storeDir)
{
    SystemParams sp = job.windowParams;
    sp.mode = ExecMode::Detail;
    const std::uint64_t stop =
        job.windowStartIters + job.windowWarmIters + job.windowIters;

    // Windows are first-class store citizens: a sampled rerun with the
    // same layout restores, at most, nothing. Same rules as
    // runAndCollect (a cached window emits no telemetry).
    RunOptions opts = resolveRunOptions(sp, storeDir);
    applyRunRules(opts);
    std::unique_ptr<ResultStore> store = ResultStore::open(opts);
    ResultKey key{};
    if (store) {
        key = ResultStore::keyFor(sp, opts, job.workload, job.cfg.label,
                                  stop);
        RunResult cached;
        if (store->serve(key, job.captureStatsJson, cached))
            return cached;
    }

    const WorkloadProfile profile = profileFor(job.workload);
    System sys(sp, opts, makeStreams(profile, sp.numCores, sp.seed));
    sys.restoreCheckpoint(job.ckptPath);
    if (job.windowWarmIters)
        sys.runWarmup(stop, job.windowStartIters + job.windowWarmIters);

    const CounterBaseline base = snapshotCounters(sys);
    const Cycle end = sys.run(stop);

    RunResult r;
    r.workload = job.workload;
    r.config = job.cfg.label;
    r.cycles = end - base.cycle;
    // Latency means are read whole: the timing stats were empty at the
    // func-written checkpoint, so they cover exactly this window's
    // detail-warm + measured segment (see the header contract).
    collectMetrics(sys, base, r);

    if (job.captureStatsJson)
        r.statsJson = sys.statsJson();

    if (store)
        store->store(key, r);
    return r;
}

RunResult
runSampled(const std::string &workload, const SystemParams &params,
           const RunOptions &opts, const std::string &label,
           std::uint64_t quota)
{
    const SampleSpec &spec = opts.sample;
    ROWSIM_ASSERT(spec.active && quota > 0,
                  "runSampled needs an active spec and a resolved quota");

    const unsigned n = spec.checkpoints;
    const std::vector<std::uint64_t> grid = sampleGrid(quota, n);

    // Phase 1: one functional system warms through the grid, dropping a
    // checkpoint at every mark. If the full grid already exists on disk
    // the func run is skipped entirely (the embedded config fingerprint
    // protects against restoring a stale layout into the wrong config).
    std::vector<std::string> paths(n);
    bool allExist = true;
    for (unsigned k = 0; k < n; k++) {
        paths[k] = checkpointFile(
            opts.ckptDir, workload, label,
            strprintf("-c%u-s%llu-q%llu-n%u-k%u.fckpt", params.numCores,
                      static_cast<unsigned long long>(params.seed),
                      static_cast<unsigned long long>(quota), n, k));
        std::error_code ec;
        if (!std::filesystem::exists(paths[k], ec))
            allExist = false;
    }
    if (!allExist) {
        const WorkloadProfile profile = profileFor(workload);
        System sys(params, opts,
                   makeStreams(profile, params.numCores, params.seed));
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(paths[0]).parent_path(), ec);
        for (unsigned k = 0; k < n; k++) {
            if (grid[k] > 0)
                sys.runFunctional(quota, grid[k]);
            sys.saveCheckpoint(paths[k]);
        }
    }

    // Phase 2: the measurement windows, as ordinary sweep jobs under
    // the run's thread count and result store.
    std::vector<SweepJob> jobs(n);
    for (unsigned k = 0; k < n; k++) {
        SweepJob &j = jobs[k];
        j.workload = workload;
        j.cfg.label = windowLabel(label, spec, quota, k);
        j.numCores = params.numCores;
        j.seed = params.seed;
        j.ckptPath = paths[k];
        j.windowParams = params;
        j.windowStartIters = grid[k];
        j.windowWarmIters = spec.warmIters;
        j.windowIters = spec.detailIters;
    }
    const std::vector<RunResult> wins =
        SweepEngine(SweepOptions::from(opts)).run(jobs);

    RunResult r;
    r.workload = workload;
    r.config = label;
    for (unsigned k = 0; k < n; k++) {
        if (!wins[k].ok()) {
            r.status = wins[k].status;
            r.error = strprintf("sampling window %u (%s): %s", k,
                                jobs[k].cfg.label.c_str(),
                                wins[k].error.c_str());
            return r;
        }
    }

    // Phase 3: batch-means aggregation. Every metric gets a mean,
    // stddev, and Student-t CI over the window values; additive
    // counters are extrapolated by quota / detailIters into whole-run
    // estimates, which also fill the headline RunResult fields (so a
    // fig09 ranking of sampled runs works unchanged).
    const double scale = static_cast<double>(quota) /
                         static_cast<double>(spec.detailIters);
    std::string metricsJson;
    for (const MetricDef &m : kSampledMetrics) {
        double sum = 0.0;
        for (unsigned k = 0; k < n; k++)
            sum += m.get(wins[k]);
        const double mean = sum / n;
        double s2 = 0.0;
        for (unsigned k = 0; k < n; k++) {
            const double d = m.get(wins[k]) - mean;
            s2 += d * d;
        }
        const double stddev = n > 1 ? std::sqrt(s2 / (n - 1)) : 0.0;
        const double estimate = m.extrapolate ? mean * scale : mean;
        m.set(r, estimate);

        std::string ci = "null";
        if (n > 1) {
            const double p = 1.0 - (1.0 - spec.confidence) / 2.0;
            // CI of the window mean; for extrapolated counters the
            // same scale applies to the mean and the halfwidth.
            const double cs = m.extrapolate ? scale : 1.0;
            const double hw =
                tQuantile(p, n - 1) * stddev / std::sqrt(double(n)) * cs;
            ci = strprintf("{\"confidence\":%.6g,\"halfwidth\":%.17g,"
                           "\"lo\":%.17g,\"hi\":%.17g}",
                           spec.confidence, hw, estimate - hw,
                           estimate + hw);
        }
        if (!metricsJson.empty())
            metricsJson += ",";
        metricsJson += strprintf(
            "\"%s\":{\"mean\":%.17g,\"stddev\":%.17g,\"estimate\":%.17g,"
            "\"extrapolated\":%s,\"ci\":%s}",
            m.name, mean, stddev, estimate,
            m.extrapolate ? "true" : "false", ci.c_str());
    }

    std::string gridJson, windowsJson;
    for (unsigned k = 0; k < n; k++) {
        if (k) {
            gridJson += ",";
            windowsJson += ",";
        }
        gridJson += strprintf(
            "%llu", static_cast<unsigned long long>(grid[k]));
        std::string wm;
        for (const MetricDef &m : kSampledMetrics) {
            if (!wm.empty())
                wm += ",";
            wm += strprintf("\"%s\":%.17g", m.name, m.get(wins[k]));
        }
        windowsJson += strprintf(
            "{\"k\":%u,\"mark\":%llu,\"fromCache\":%s,\"metrics\":{%s}}",
            k, static_cast<unsigned long long>(grid[k]),
            wins[k].fromCache ? "true" : "false", wm.c_str());
    }

    r.samplingJson = strprintf(
        "{\"spec\":{\"checkpoints\":%u,\"warmIters\":%llu,"
        "\"detailIters\":%llu,\"confidence\":%.6g},\"quota\":%llu,"
        "\"grid\":[%s],\"windows\":[%s],\"metrics\":{%s}}",
        n, static_cast<unsigned long long>(spec.warmIters),
        static_cast<unsigned long long>(spec.detailIters), spec.confidence,
        static_cast<unsigned long long>(quota), gridJson.c_str(),
        windowsJson.c_str(), metricsJson.c_str());
    return r;
}

} // namespace rowsim
