#include "sim/figures.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "sim/microbench.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

void
FigureTable::cell(const std::string &row, const std::string &col,
                  double value)
{
    if (std::find(rows_.begin(), rows_.end(), row) == rows_.end())
        rows_.push_back(row);
    if (std::find(cols_.begin(), cols_.end(), col) == cols_.end())
        cols_.push_back(col);
    values_[{row, col}] = value;
}

void
FigureTable::print(std::FILE *out) const
{
    std::fprintf(out, "\n=== %s ===\n%-15s", title_.c_str(), "");
    for (const std::string &c : cols_)
        std::fprintf(out, " %12s", c.c_str());
    std::fprintf(out, "\n");
    for (const std::string &r : rows_) {
        std::fprintf(out, "%-15s", r.c_str());
        for (const std::string &c : cols_) {
            auto it = values_.find({r, c});
            if (it == values_.end())
                std::fprintf(out, " %12s", "-");
            else
                std::fprintf(out, " %12.3f", it->second);
        }
        std::fprintf(out, "\n");
    }
    std::fflush(out);
}

FigureResults::FigureResults(const std::vector<SweepJob> &jobs,
                             const std::vector<RunResult> &results)
{
    for (std::size_t i = 0; i < jobs.size(); i++)
        byKey_.emplace(std::pair(jobs[i].workload, jobs[i].label),
                       &results[i]);
}

const RunResult &
FigureResults::at(const std::string &workload,
                  const std::string &label) const
{
    auto it = byKey_.find({workload, label});
    if (it == byKey_.end())
        ROWSIM_FATAL("figure has no run of %s under %s", workload.c_str(),
                     label.c_str());
    return *it->second;
}

double
FigureResults::normalised(const std::string &workload,
                          const std::string &label) const
{
    return static_cast<double>(at(workload, label).cycles) /
           static_cast<double>(at(workload, "eager").cycles);
}

double
FigureResults::geomean(const std::vector<std::string> &workloads,
                       const std::string &label) const
{
    double log_sum = 0;
    for (const std::string &w : workloads)
        log_sum += std::log(normalised(w, label));
    return std::exp(log_sum / static_cast<double>(workloads.size()));
}

namespace
{

/** Append @p job unless @p jobs has its (workload, label) pair already:
 *  a baseline shared by many bars runs once. A pair repeated with other
 *  params is appended, so the figure-table test names the collision. */
void
addJob(std::vector<SweepJob> &jobs, SweepJob job)
{
    for (const SweepJob &j : jobs) {
        if (j.workload == job.workload && j.label == job.label &&
            configFingerprint(j.params, 0, 0, 0) ==
                configFingerprint(job.params, 0, 0, 0))
            return;
    }
    jobs.push_back(std::move(job));
}

/** @p jobs plus every workload of @p workloads under every config of
 *  @p cfgs, workload-major, at 32 cores and seed 1. */
std::vector<SweepJob>
grid(const std::vector<std::string> &workloads,
     const std::vector<ExpConfig> &cfgs, std::vector<SweepJob> jobs = {})
{
    for (const std::string &w : workloads) {
        for (const ExpConfig &cfg : cfgs)
            addJob(jobs, sweepJob(w, cfg));
    }
    return jobs;
}

ExpConfig
rwDir(PredictorUpdate upd, bool forwarding = false)
{
    return rowConfig(ContentionDetector::RWDir, upd, forwarding);
}

// ---- Fig. 1, 4, 5, 6: eager vs lazy --------------------------------

/** Fig. 1: normalized execution time of lazy vs eager execution of
 *  unfenced atomic RMWs, best to worst eager-vs-lazy speedup. */
std::vector<FigureTable>
fig01(const FigureResults &res)
{
    FigureTable t("Fig. 1 — normalized execution time (lazy vs eager)");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        t.cell(w, "eager", 1.0);
        t.cell(w, "lazy", res.normalised(w, "lazy"));
    }
    return {t};
}

/** Fig. 2: cycles per iteration of the §II-A microbenchmark, FAA / CAS /
 *  SWAP with and without the lock prefix and explicit mfences, on the
 *  "old" (fenced) and "new" (unfenced) microarchitectures. A single
 *  thread, run directly rather than as a sweep job. */
std::vector<FigureTable>
fig02(const FigureResults &)
{
    FigureTable t("Fig. 2 — microbenchmark cycles per iteration");
    for (bool old_core : {true, false}) {
        for (RmwKind k : {RmwKind::FAA, RmwKind::CAS, RmwKind::SWAP}) {
            for (bool lock : {false, true}) {
                for (bool mfence : {false, true}) {
                    MicrobenchVariant v;
                    v.kind = k;
                    v.lockPrefix = lock;
                    v.mfence = mfence;
                    v.oldCore = old_core;
                    t.cell(std::string(old_core ? "old" : "new") + "/" +
                               rmwKindName(k),
                           std::string(lock ? "lock" : "plain") +
                               (mfence ? "+mfence" : ""),
                           microbenchCyclesPerIter(v, 1500));
                }
            }
        }
    }
    return {t};
}

/** Fig. 4: instructions older than an eager atomic still unexecuted at
 *  its issue, and younger ones already started at a lazy atomic's. */
std::vector<FigureTable>
fig04(const FigureResults &res)
{
    FigureTable t("Fig. 4 — independent instructions around atomics");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        t.cell(w, "older@eager", res.at(w, "eager").olderUnexecuted);
        t.cell(w, "younger@lazy", res.at(w, "lazy").youngerStarted);
    }
    return {t};
}

/** Fig. 5: atomics per 10k instructions and the share of atomics that
 *  face contention under eager execution. */
std::vector<FigureTable>
fig05(const FigureResults &res)
{
    FigureTable t("Fig. 5 — atomic intensity and contentiousness (eager)");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        const RunResult &r = res.at(w, "eager");
        t.cell(w, "at/10k-inst", r.atomicsPer10k);
        t.cell(w, "contended%", r.contendedPct);
    }
    return {t};
}

/** Fig. 6: atomic latency from dispatch to write, split into
 *  dispatch->issue, issue->lock and lock->unlock, eager and lazy; then
 *  the tail of the acquisition phase, read from the same histograms. */
std::vector<FigureTable>
fig06(const FigureResults &res)
{
    FigureTable t("Fig. 6 — atomic latency breakdown (cycles)");
    FigureTable p("Fig. 6 — acquisition tail (issue->lock cycles)");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        const RunResult &e = res.at(w, "eager");
        const RunResult &l = res.at(w, "lazy");
        t.cell(w, "E:disp->iss", e.dispatchToIssue);
        t.cell(w, "E:iss->lock", e.issueToLock);
        t.cell(w, "E:lock->unl", e.lockToUnlock);
        t.cell(w, "L:disp->iss", l.dispatchToIssue);
        t.cell(w, "L:iss->lock", l.issueToLock);
        t.cell(w, "L:lock->unl", l.lockToUnlock);
        p.cell(w, "E:p50", e.issueToLockP50);
        p.cell(w, "E:p90", e.issueToLockP90);
        p.cell(w, "E:p99", e.issueToLockP99);
        p.cell(w, "L:p50", l.issueToLockP50);
        p.cell(w, "L:p90", l.issueToLockP90);
        p.cell(w, "L:p99", l.issueToLockP99);
    }
    return {t, p};
}

// ---- Fig. 9 and the §IV-D single-entry predictor -------------------

/** Fig. 9: the EW / RW / RW+Dir detectors with the U/D and Sat
 *  predictors against eager and lazy, forwarding off. */
std::vector<FigureTable>
fig09(const FigureResults &res)
{
    FigureTable t("Fig. 9 — RoW variants, normalized execution time "
                  "(no forwarding)");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        for (const ExpConfig &cfg : fig9Configs())
            t.cell(w, cfg.label, res.normalised(w, cfg.label));
    }
    for (const ExpConfig &cfg : fig9Configs())
        t.cell("geomean", cfg.label,
               res.geomean(atomicIntensiveWorkloads(), cfg.label));
    return {t};
}

ExpConfig
singleEntryConfig()
{
    ExpConfig cfg = rwDir(PredictorUpdate::SaturateOnContention);
    cfg.predictorEntries = 1;
    cfg.label = "RW+Dir_Sat_1entry";
    return cfg;
}

/** §IV-D: one predictor entry for all atomics performs about like
 *  eager (the paper: 0.3% worse on average). */
std::vector<FigureTable>
singleEntry(const FigureResults &res)
{
    FigureTable t("§IV-D — single-entry predictor (RW+Dir Sat), "
                  "normalized time");
    const std::string label = singleEntryConfig().label;
    for (const std::string &w : atomicIntensiveWorkloads())
        t.cell(w, "1-entry", res.normalised(w, label));
    t.cell("geomean", "1-entry",
           res.geomean(atomicIntensiveWorkloads(), label));
    return {t};
}

// ---- Fig. 10 - 13 --------------------------------------------------

constexpr Cycle kThresholds[] = {0, 100, 400, 1000, 2000,
                                 16000 /* ~inf for 14-bit timestamps */};

std::string
thresholdName(Cycle t)
{
    return t >= 16000 ? "inf" : std::to_string(t);
}

ExpConfig
thresholdConfig(Cycle t)
{
    ExpConfig cfg = rwDir(PredictorUpdate::SaturateOnContention);
    cfg.latencyThreshold = t;
    cfg.label = "thr_" + thresholdName(t);
    return cfg;
}

/** Fig. 10: sensitivity of RW+Dir to its remote-fill latency
 *  threshold. */
std::vector<FigureTable>
fig10(const FigureResults &res)
{
    FigureTable t("Fig. 10 — RW+Dir latency-threshold sensitivity");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        for (Cycle thr : kThresholds) {
            t.cell(w, thresholdName(thr),
                   res.normalised(w, thresholdConfig(thr).label));
        }
    }
    for (Cycle thr : kThresholds) {
        t.cell("geomean", thresholdName(thr),
               res.geomean(atomicIntensiveWorkloads(),
                           thresholdConfig(thr).label));
    }
    return {t};
}

/** Fig. 11: mean L1D miss latency over all memory instructions. */
std::vector<FigureTable>
fig11(const FigureResults &res)
{
    FigureTable t("Fig. 11 — L1D miss latency (cycles)");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        for (const char *label :
             {"eager", "lazy", "RW+Dir_U/D", "RW+Dir_Sat"})
            t.cell(w, label, res.at(w, label).missLatency);
    }
    return {t};
}

/** Fig. 12: how often the U/D and Sat predictors' calls agree with
 *  what the RW+Dir detector then observes. */
std::vector<FigureTable>
fig12(const FigureResults &res)
{
    FigureTable t("Fig. 12 — contention-prediction accuracy (%)");
    double ud = 0, sat = 0;
    for (const std::string &w : atomicIntensiveWorkloads()) {
        const double a = res.at(w, "RW+Dir_U/D").predAccuracy;
        const double b = res.at(w, "RW+Dir_Sat").predAccuracy;
        t.cell(w, "U/D", a);
        t.cell(w, "Sat", b);
        ud += a;
        sat += b;
    }
    const double n = static_cast<double>(atomicIntensiveWorkloads().size());
    t.cell("average", "U/D", ud / n);
    t.cell("average", "Sat", sat / n);
    return {t};
}

std::vector<ExpConfig>
fig13Configs()
{
    return {lazyConfig(),
            eagerConfig(true),
            rwDir(PredictorUpdate::UpDown),
            rwDir(PredictorUpdate::UpDown, true),
            rwDir(PredictorUpdate::SaturateOnContention),
            rwDir(PredictorUpdate::SaturateOnContention, true)};
}

/** The best RoW configuration: RW+Dir, U/D, forwarding. */
ExpConfig
bestRow()
{
    return rwDir(PredictorUpdate::UpDown, true);
}

/** Fig. 13: store-to-atomic forwarding and the §IV-E locality
 *  promotion, all normalized to eager without forwarding; the last row
 *  is §VI's average over every application. */
std::vector<FigureTable>
fig13(const FigureResults &res)
{
    FigureTable t("Fig. 13 — forwarding to atomics, normalized time");
    for (const std::string &w : atomicIntensiveWorkloads()) {
        for (const ExpConfig &cfg : fig13Configs())
            t.cell(w, cfg.label, res.normalised(w, cfg.label));
    }
    for (const ExpConfig &cfg : fig13Configs())
        t.cell("geomean", cfg.label,
               res.geomean(atomicIntensiveWorkloads(), cfg.label));
    const std::string best = bestRow().label;
    t.cell("all-apps geomean", best, res.geomean(allWorkloads(), best));
    return {t};
}

// ---- Ablations -----------------------------------------------------

const std::vector<std::string> &
predictorSubset()
{
    static const std::vector<std::string> s = {
        "canneal", "cq", "barnes", "streamcluster", "tpcc", "pc"};
    return s;
}

/** The detectors (RW, RW+Dir, and the RW+DirNotify alternative §IV-C
 *  rejects), the update rules (with the +2/-1 variant §IV-D rejects),
 *  then the table sizes, in column order. */
std::vector<ExpConfig>
predictorConfigs()
{
    std::vector<ExpConfig> v;
    for (auto det : {ContentionDetector::RW, ContentionDetector::RWDir,
                     ContentionDetector::RWDirNotify})
        v.push_back(rowConfig(det, PredictorUpdate::SaturateOnContention));
    v.push_back(rwDir(PredictorUpdate::UpDown));
    v.push_back(rwDir(PredictorUpdate::TwoUpOneDown));
    for (unsigned entries : {64u, 16u, 4u, 1u}) {
        ExpConfig cfg = rwDir(PredictorUpdate::SaturateOnContention);
        cfg.predictorEntries = entries;
        cfg.label = "Sat_" + std::to_string(entries) + "e";
        v.push_back(cfg);
    }
    return v;
}

/** Column @p col: the normalised time of @p label on each workload of
 *  @p workloads, then their geomean row. */
void
normalisedColumns(FigureTable &t, const FigureResults &res,
                  const std::vector<std::string> &workloads,
                  const std::string &label, const std::string &col)
{
    for (const std::string &w : workloads)
        t.cell(w, col, res.normalised(w, label));
    t.cell("geomean", col, res.geomean(workloads, label));
}

/** Predictor ablations on one workload per behaviour class. */
std::vector<FigureTable>
ablationPredictor(const FigureResults &res)
{
    FigureTable t("Predictor ablation — detector / update rule / table "
                  "size (normalized time)");
    for (const ExpConfig &cfg : predictorConfigs())
        normalisedColumns(t, res, predictorSubset(), cfg.label, cfg.label);
    return {t};
}

const std::vector<std::string> &
microarchSubset()
{
    static const std::vector<std::string> s = {"canneal", "cq", "tpcc",
                                               "pc"};
    return s;
}

/** One row of the microarchitecture ablation: dimension, value, and
 *  the best RoW configuration with that value set. */
struct MicroarchRow
{
    std::string dim, value;
    SystemParams params;

    /** Store label, e.g. `aq_4`. */
    std::string label() const { return dim + "_" + value; }
    /** Column name, e.g. `aq=4`. */
    std::string col() const { return dim + "=" + value; }
};

/** The Atomic Queue size bounds atomic MLP; the re-issue delay is the
 *  cost of waking a waiting atomic, the knob behind the §IV-E locality
 *  window; the lock-steal threshold is the deadlock backstop for
 *  eagerly locked lines. */
std::vector<MicroarchRow>
microarchRows()
{
    const SystemParams best = makeParams(bestRow(), 32, 1);
    std::vector<MicroarchRow> rows;
    for (unsigned aq : {4u, 8u, 16u, 32u}) {
        rows.push_back({"aq", std::to_string(aq), best});
        rows.back().params.core.aqEntries = aq;
    }
    for (unsigned delay : {0u, 4u, 8u, 16u}) {
        rows.push_back({"reissue", std::to_string(delay), best});
        rows.back().params.core.atomicReissueDelay = delay;
    }
    for (Cycle steal : {1000u, 5000u, 20000u}) {
        rows.push_back({"steal", std::to_string(steal), best});
        rows.back().params.mem.lockStealThreshold = steal;
    }
    return rows;
}

/** Microarchitectural ablations of the best RoW configuration. */
std::vector<FigureTable>
ablationMicroarch(const FigureResults &res)
{
    FigureTable t("Microarchitecture ablations (RoW RW+Dir U/D +fwd, "
                  "normalized time)");
    for (const MicroarchRow &row : microarchRows())
        normalisedColumns(t, res, microarchSubset(), row.label(), row.col());
    return {t};
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = [] {
        const std::vector<std::string> &ai = atomicIntensiveWorkloads();
        const std::vector<ExpConfig> eagerLazy = {eagerConfig(),
                                                  lazyConfig()};
        std::vector<ExpConfig> thresholds = {eagerConfig()};
        for (Cycle t : kThresholds)
            thresholds.push_back(thresholdConfig(t));
        std::vector<ExpConfig> predictor = predictorConfigs();
        predictor.insert(predictor.begin(), eagerConfig());
        std::vector<SweepJob> microarch =
            grid(microarchSubset(), {eagerConfig()});
        for (const MicroarchRow &row : microarchRows()) {
            for (const std::string &w : microarchSubset()) {
                SweepJob j;
                j.workload = w;
                j.params = row.params;
                j.label = row.label();
                addJob(microarch, std::move(j));
            }
        }
        return std::vector<Figure>{
            {"fig01", grid(ai, eagerLazy), fig01},
            {"fig02", {}, fig02},
            {"fig04", grid(ai, eagerLazy), fig04},
            {"fig05", grid(ai, {eagerConfig()}), fig05},
            {"fig06", grid(ai, eagerLazy), fig06},
            {"fig09", grid(ai, fig9Configs()), fig09},
            {"sec4d_single_entry",
             grid(ai, {eagerConfig(), singleEntryConfig()}), singleEntry},
            {"fig10", grid(ai, thresholds), fig10},
            {"fig11",
             grid(ai, {eagerConfig(), lazyConfig(),
                       rwDir(PredictorUpdate::UpDown),
                       rwDir(PredictorUpdate::SaturateOnContention)}),
             fig11},
            {"fig12",
             grid(ai, {rwDir(PredictorUpdate::UpDown),
                       rwDir(PredictorUpdate::SaturateOnContention)}),
             fig12},
            {"fig13",
             grid(ai, fig13Configs(),
                  grid(allWorkloads(), {eagerConfig(), bestRow()})),
             fig13},
            {"ablation_predictor", grid(predictorSubset(), predictor),
             ablationPredictor},
            {"ablation_microarch", std::move(microarch), ablationMicroarch},
        };
    }();
    return table;
}

const Figure &
findFigure(const std::string &name)
{
    for (const Figure &f : figures()) {
        if (f.name == name)
            return f;
    }
    ROWSIM_FATAL("unknown figure \"%s\" (rowsim_sweep --list names them)",
                 name.c_str());
}

} // namespace rowsim
