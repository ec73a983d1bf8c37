#include "sim/sampling.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
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

/** Window layout tag: everything of the sampling layout the window
 *  depends on. It keys the window's stored result and suffixes its
 *  reporting label. */
std::string
windowTag(const SampleSpec &spec, std::uint64_t quota, unsigned k)
{
    return strprintf("#s%u.%llu.%llu.q%llu.k%u", spec.checkpoints,
                     static_cast<unsigned long long>(spec.warmIters),
                     static_cast<unsigned long long>(spec.detailIters),
                     static_cast<unsigned long long>(quota), k);
}

/** One aggregated metric: its report name and RunResult field. */
template <class T> struct Metric
{
    const char *name;
    T RunResult::*field;
};

/** Additive counts: extrapolated by quota / detailIters into whole-run
 *  estimates. Reported before the means, in this order. */
constexpr Metric<std::uint64_t> kCountMetrics[] = {
    {"cycles", &RunResult::cycles},
    {"instructions", &RunResult::instructions},
    {"atomicsCommitted", &RunResult::atomicsCommitted},
    {"atomicsUnlocked", &RunResult::atomicsUnlocked},
    {"detectedContended", &RunResult::detectedContended},
    {"oracleContended", &RunResult::oracleContended},
    {"atomicsForwarded", &RunResult::atomicsForwarded},
    {"atomicsPromoted", &RunResult::atomicsPromoted},
    {"forcedUnlocks", &RunResult::forcedUnlocks},
    {"eagerIssued", &RunResult::eagerIssued},
    {"lazyIssued", &RunResult::lazyIssued},
};

/** Rates and means: the whole-run estimate is the window mean. */
constexpr Metric<double> kMeanMetrics[] = {
    {"atomicsPer10k", &RunResult::atomicsPer10k},
    {"contendedPct", &RunResult::contendedPct},
    {"missLatency", &RunResult::missLatency},
    {"dispatchToIssue", &RunResult::dispatchToIssue},
    {"issueToLock", &RunResult::issueToLock},
    {"lockToUnlock", &RunResult::lockToUnlock},
    {"olderUnexecuted", &RunResult::olderUnexecuted},
    {"youngerStarted", &RunResult::youngerStarted},
    {"predAccuracy", &RunResult::predAccuracy},
};

/** The run options window @p job resolves to. The sampled run keys its
 *  store lookups with the same resolution the window stores under. */
RunOptions
windowOptions(const SweepJob &job, const std::string &storeDir)
{
    RunOptions opts = resolveRunOptions(job.params, storeDir);
    applyRunRules(opts);
    return opts;
}

/** Result-store key of window @p job run under @p opts. */
ResultKey
windowKey(const SweepJob &job, const RunOptions &opts)
{
    return ResultStore::keyFor(job.params, opts, job.workload,
                               job.windowStartIters + job.windowWarmIters +
                                   job.windowIters,
                               job.window);
}

} // namespace

RunResult
runDetailWindow(const SweepJob &job, const std::string &storeDir)
{
    const SystemParams &sp = job.params;
    const std::uint64_t stop =
        job.windowStartIters + job.windowWarmIters + job.windowIters;
    const RunOptions opts = windowOptions(job, storeDir);

    const WorkloadProfile profile = profileFor(job.workload);
    System sys(sp, opts, makeStreams(profile, sp.numCores, sp.seed));
    Deser image(job.image->bytes());
    sys.restore(image);
    if (job.windowWarmIters)
        sys.runWarmup(stop, job.windowStartIters + job.windowWarmIters);

    const CounterBaseline base = snapshotCounters(sys);
    const Cycle end = sys.run(stop);

    RunResult r;
    r.workload = job.workload;
    r.config = job.label;
    r.cycles = end - base.cycle;
    // Latency means are read whole: the timing stats were empty at the
    // func-written image, so they cover exactly this window's
    // detail-warm + measured segment (see the header contract).
    collectMetrics(sys, base, r);

    // Windows are first-class store citizens: runSampled serves the
    // ones already stored and runs only the rest.
    if (std::unique_ptr<ResultStore> store = ResultStore::open(opts))
        store->store(windowKey(job, opts), r);
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

    std::vector<SweepJob> jobs(n);
    for (unsigned k = 0; k < n; k++) {
        SweepJob &j = jobs[k];
        j.workload = workload;
        j.window = windowTag(spec, quota, k);
        j.label = label + j.window;
        j.params = params;
        j.params.mode = ExecMode::Detail;
        j.windowStartIters = grid[k];
        j.windowWarmIters = spec.warmIters;
        j.windowIters = spec.detailIters;
    }

    // Phase 1: serve every window the result store already holds.
    const SweepOptions sweep = SweepOptions::from(opts);
    std::vector<RunResult> wins(n);
    std::vector<unsigned> missing;
    const RunOptions wopts = windowOptions(jobs[0], sweep.storeDir);
    const std::unique_ptr<ResultStore> store = ResultStore::open(wopts);
    for (unsigned k = 0; k < n; k++) {
        if (store &&
            store->serve(windowKey(jobs[k], wopts), false, wins[k]))
            wins[k].config = jobs[k].label;
        else
            missing.push_back(k);
    }

    // Phase 2: one functional system warms through the grid up to the
    // last missing mark, imaging the state in memory at every missing
    // mark. Phase 3: only those windows run, as ordinary sweep jobs
    // under the run's thread count and result store.
    if (!missing.empty()) {
        std::vector<SweepJob> todo;
        {
            const WorkloadProfile profile = profileFor(workload);
            System sys(params, opts,
                       makeStreams(profile, params.numCores, params.seed));
            for (unsigned k = 0; todo.size() < missing.size(); k++) {
                if (grid[k] > 0)
                    sys.runFunctional(quota, grid[k]);
                if (k != missing[todo.size()])
                    continue;
                auto image = std::make_shared<Ser>();
                sys.save(*image);
                todo.push_back(jobs[k]);
                todo.back().image = std::move(image);
            }
        } // the functional System is gone before the windows start
        const std::vector<RunResult> ran = SweepEngine(sweep).run(todo);
        for (std::size_t i = 0; i < missing.size(); i++)
            wins[missing[i]] = ran[i];
    }

    RunResult r;
    r.workload = workload;
    r.config = label;
    for (unsigned k = 0; k < n; k++) {
        if (!wins[k].ok()) {
            r.status = wins[k].status;
            r.error = strprintf("sampling window %u (%s): %s", k,
                                jobs[k].label.c_str(),
                                wins[k].error.c_str());
            return r;
        }
    }

    // Batch-means aggregation. Every metric gets a mean, stddev, and
    // Student-t CI over the window values; additive counts are
    // extrapolated by quota / detailIters into whole-run estimates,
    // which also fill the headline RunResult fields (so a fig09 ranking
    // of sampled runs works unchanged).
    const double scale = static_cast<double>(quota) /
                         static_cast<double>(spec.detailIters);
    std::string metricsJson;
    // Aggregate one metric over the windows; returns its estimate.
    auto aggregate = [&](const char *name, auto field, bool extrapolate) {
        double sum = 0.0;
        for (const RunResult &w : wins)
            sum += static_cast<double>(w.*field);
        const double mean = sum / n;
        double s2 = 0.0;
        for (const RunResult &w : wins) {
            const double d = static_cast<double>(w.*field) - mean;
            s2 += d * d;
        }
        const double stddev = n > 1 ? std::sqrt(s2 / (n - 1)) : 0.0;
        const double estimate = extrapolate ? mean * scale : mean;

        std::string ci = "null";
        if (n > 1) {
            const double p = 1.0 - (1.0 - spec.confidence) / 2.0;
            // CI of the window mean; for extrapolated counters the
            // same scale applies to the mean and the halfwidth.
            const double cs = extrapolate ? scale : 1.0;
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
            "\"%s\":{\"mean\":%.17g,\"stddev\":%.17g,"
            "\"estimate\":%.17g,\"extrapolated\":%s,\"ci\":%s}",
            name, mean, stddev, estimate, extrapolate ? "true" : "false",
            ci.c_str());
        return estimate;
    };
    for (const auto &m : kCountMetrics) {
        r.*m.field = static_cast<std::uint64_t>(
            std::llround(aggregate(m.name, m.field, true)));
    }
    for (const auto &m : kMeanMetrics)
        r.*m.field = aggregate(m.name, m.field, false);

    std::string gridJson, windowsJson;
    for (unsigned k = 0; k < n; k++) {
        if (k) {
            gridJson += ",";
            windowsJson += ",";
        }
        gridJson += strprintf(
            "%llu", static_cast<unsigned long long>(grid[k]));
        std::string wm;
        auto put = [&](const char *name, double v) {
            wm += strprintf("%s\"%s\":%.17g", wm.empty() ? "" : ",",
                            name, v);
        };
        for (const auto &m : kCountMetrics)
            put(m.name, static_cast<double>(wins[k].*m.field));
        for (const auto &m : kMeanMetrics)
            put(m.name, wins[k].*m.field);
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
