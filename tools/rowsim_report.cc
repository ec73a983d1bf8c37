/**
 * @file
 * One report front end for every JSON sink the simulator writes.
 *
 *   rowsim_report [--collapsed PATH] FILE|-   render FILE once and exit
 *   rowsim_report --follow FILE               tail a heartbeat stream live
 *
 * FILE is a stats-JSON report (System::dumpStatsJson), a raw sink object
 * (Profiler / SpanTracker / IntervalSampler ::toJson()), or a JSONL
 * stream of run records or heartbeat events; "-" reads stdin. There is
 * no subcommand: each record says what it holds, and every section it
 * carries is rendered, in this order:
 *
 *  - profile ("profile" member, raw "categories"; ROWSIM_PROFILE): the
 *    per-core CPI stack table with an aggregate percentage row, the
 *    top-K contended-line table, the RoW predicted x observed cross-tab
 *    with dispatch accuracy and mispredict cost. --collapsed PATH
 *    also writes flamegraph-style folded stacks ("label;coreN;bucket
 *    slots") for flamegraph.pl / speedscope.
 *  - spans ("spans" member, raw "segTotals"; ROWSIM_SPANS): the Fig. 6
 *    segment breakdown with latency percentiles, the per-PC and
 *    per-line tables, and an ASCII waterfall plus critical-path
 *    decomposition (network hops, directory blocking, lock stalls or
 *    unattributed protocol time) of each retained slowest span.
 *  - timeseries ("timeseries" member, raw "metrics"; ROWSIM_TS /
 *    ROWSIM_CONVERGE): per-metric count, mean, stddev, lag-1
 *    autocorrelation and batch-means confidence interval, a sparkline
 *    and an over-time table of each metric's window, and the
 *    convergence outcome.
 *  - heartbeat ("ev" lines; ROWSIM_HEARTBEAT): drawn after the whole
 *    input as one per-job table merging "sweep" events (job total,
 *    final tally), "job" events (lifecycle, status)
 *    and "run" progress events (quota fraction, Kcycles/s, ETA, RSS).
 *
 * --follow redraws the heartbeat table as events arrive and exits on
 * the sweep-end event. A partial trailing line (a worker mid-write)
 * stays buffered until complete, and a file that shrinks (a restarted
 * sweep) is read again from the start.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"

namespace
{

using rowsim::Json;
using rowsim::parseJson;

// ---------------------------------------------------------------------
// Profile section
// ---------------------------------------------------------------------

/** Matches CpiBucket order in src/sim/profile.hh; the JSON keys are the
 *  source of truth, this list only fixes the column order. */
const char *const cpiBuckets[] = {
    "retired",       "frontendStall",  "robFull",
    "exec",          "sqDrainWait",    "atomicLazyWait",
    "atomicExecute", "coherenceMiss",  "idle",
};
constexpr unsigned numBuckets = sizeof(cpiBuckets) / sizeof(cpiBuckets[0]);

void
printCpi(const Json &cpi, const std::string &label, std::FILE *collapsed)
{
    if (cpi.type != Json::Array || cpi.arr.empty())
        return;
    std::printf("  CPI stack (commit slots per bucket):\n");
    std::printf("    %-6s", "core");
    for (const char *b : cpiBuckets)
        std::printf(" %14s", b);
    std::printf("\n");

    unsigned long long agg[numBuckets] = {0};
    for (const Json &core : cpi.arr) {
        std::printf("    %-6llu", core.at("core").asU64());
        for (unsigned i = 0; i < numBuckets; ++i) {
            unsigned long long v = core.at(cpiBuckets[i]).asU64();
            agg[i] += v;
            std::printf(" %14llu", v);
            if (collapsed && v) {
                std::fprintf(collapsed, "%s;core%llu;%s %llu\n",
                             label.c_str(), core.at("core").asU64(),
                             cpiBuckets[i], v);
            }
        }
        std::printf("\n");
    }

    unsigned long long total = 0;
    for (unsigned long long v : agg)
        total += v;
    std::printf("    %-6s", "all");
    for (unsigned i = 0; i < numBuckets; ++i)
        std::printf(" %14llu", agg[i]);
    std::printf("\n    %-6s", "%");
    for (unsigned i = 0; i < numBuckets; ++i)
        std::printf(" %13.1f%%",
                    total ? 100.0 * static_cast<double>(agg[i]) /
                                static_cast<double>(total)
                          : 0.0);
    std::printf("\n");
}

void
printLines(const Json &profile)
{
    const Json &lines = profile.at("lines");
    if (lines.type != Json::Array)
        return;
    std::printf("  Contended lines (top %zu of %llu tracked, by hold "
                "cycles):\n",
                lines.arr.size(), profile.at("linesTracked").asU64());
    if (lines.arr.empty())
        return;
    std::printf("    %-14s %9s %11s %6s %7s %6s %7s %10s %6s %5s %5s\n",
                "line", "acquires", "holdCyc", "cont", "rfills", "swaps",
                "stalls", "stallCyc", "steals", "qMax", "cores");
    for (const Json &l : lines.arr) {
        std::printf(
            "    %-14s %9llu %11llu %6llu %7llu %6llu %7llu %10llu "
            "%6llu %5llu %5llu\n",
            l.at("line").str.c_str(), l.at("acquires").asU64(),
            l.at("holdCycles").asU64(), l.at("contendedUnlocks").asU64(),
            l.at("remoteFills").asU64(), l.at("ownerSwaps").asU64(),
            l.at("lockStalls").asU64(), l.at("lockStallCycles").asU64(),
            l.at("steals").asU64(), l.at("queuedMax").asU64(),
            l.at("cores").asU64());
    }
}

void
printRow(const Json &row)
{
    if (row.type != Json::Object)
        return;
    const Json &t = row.at("totals");
    std::printf("  RoW decision audit (predicted x observed):\n");
    std::printf("    %-18s %14s %14s\n", "", "uncontended", "contended");
    std::printf("    %-18s %14llu %14llu\n", "predicted eager",
                t.at("eagerUncontended").asU64(),
                t.at("eagerContended").asU64());
    std::printf("    %-18s %14llu %14llu\n", "predicted lazy",
                t.at("lazyUncontended").asU64(),
                t.at("lazyContended").asU64());
    std::printf("    updates=%llu contended=%llu accuracy=%.2f%%\n",
                t.at("updates").asU64(), t.at("contendedOutcomes").asU64(),
                100.0 * row.at("dispatchAccuracy").asDouble());
    std::printf("    mispredict cost: lazy-waste=%llu cyc, "
                "eager-contended=%llu cyc\n",
                t.at("lazyWasteCycles").asU64(),
                t.at("eagerContendedCycles").asU64());

    const Json &pcs = row.at("pcs");
    if (pcs.type != Json::Array || pcs.arr.empty())
        return;
    std::printf("    per-PC: %-14s %8s %8s %8s %8s %10s %10s\n", "pc",
                "eagUnc", "eagCon", "lazUnc", "lazCon", "wasteCyc",
                "eagConCyc");
    for (const Json &p : pcs.arr) {
        std::printf("            %-14s %8llu %8llu %8llu %8llu %10llu "
                    "%10llu\n",
                    p.at("pc").str.c_str(),
                    p.at("eagerUncontended").asU64(),
                    p.at("eagerContended").asU64(),
                    p.at("lazyUncontended").asU64(),
                    p.at("lazyContended").asU64(),
                    p.at("lazyWasteCycles").asU64(),
                    p.at("eagerContendedCycles").asU64());
    }
}

/** Render one record: @p profile is the profiler object itself. */
void
renderProfile(const Json &profile, const std::string &label,
              std::FILE *collapsed)
{
    std::printf("=== %s (categories: %s, commitWidth %llu) ===\n",
                label.c_str(), profile.at("categories").str.c_str(),
                profile.at("commitWidth").asU64());
    printCpi(profile.at("cpi"), label, collapsed);
    printLines(profile);
    printRow(profile.at("row"));
    std::printf("\n");
}

// ---------------------------------------------------------------------
// Spans section
// ---------------------------------------------------------------------

/** Matches SpanSeg order in src/sim/span.hh; the JSON keys are the
 *  source of truth, this list only fixes the column order. */
const char *const segNames[] = {
    "dispatchWait", "sbDrain",     "aqWait",   "execute",
    "l1Miss",       "unblockWait", "lockHeld",
};
constexpr unsigned numSegs = sizeof(segNames) / sizeof(segNames[0]);

/** Single-letter glyph per segment for the waterfall lane. */
const char segGlyphs[numSegs + 1] = "dsqxmul";

void
printHist(const char *name, const Json &h)
{
    if (h.type != Json::Object)
        return;
    std::printf("    %-12s n=%-8llu mean=%-9.1f p50=%-8.0f p90=%-8.0f "
                "p99=%-8.0f max=%.0f\n",
                name, h.at("count").asU64(), h.at("mean").asDouble(),
                h.at("p50").asDouble(), h.at("p90").asDouble(),
                h.at("p99").asDouble(), h.at("max").asDouble());
}

void
printSegTotals(const Json &spans)
{
    const Json &t = spans.at("segTotals");
    if (t.type != Json::Object)
        return;
    const double total =
        std::max(1.0, static_cast<double>(t.at("total").asU64()));
    std::printf("  Segment breakdown (all %llu closed spans, "
                "%llu span-cycles):\n",
                spans.at("closed").asU64(), t.at("total").asU64());
    for (const char *seg : segNames) {
        const unsigned long long v = t.at(seg).asU64();
        std::printf("    %-14s %12llu %6.1f%%  ", seg, v,
                    100.0 * static_cast<double>(v) / total);
        const int bar = static_cast<int>(
            40.0 * static_cast<double>(v) / total + 0.5);
        for (int i = 0; i < bar; ++i)
            std::printf("#");
        std::printf("\n");
    }
    std::printf("    remote legs inside l1Miss: netCycles=%llu "
                "dirBlocked=%llu lockStall=%llu\n",
                t.at("netCycles").asU64(), t.at("dirBlocked").asU64(),
                t.at("lockStall").asU64());
}

void
printAggTable(const Json &arr, const char *title, const char *keyName,
              unsigned long long tracked)
{
    if (arr.type != Json::Array || arr.arr.empty())
        return;
    std::printf("  %s (top %zu of %llu, by span-cycles):\n", title,
                arr.arr.size(), tracked);
    std::printf("    %-14s %8s %11s %7s %7s %9s %9s %9s %9s\n", keyName,
                "count", "cycles", "lazy", "replays", "sbDrain", "l1Miss",
                "unblock", "lockHeld");
    for (const Json &a : arr.arr) {
        std::printf("    %-14s %8llu %11llu %7llu %7llu %9llu %9llu "
                    "%9llu %9llu\n",
                    a.at(keyName).str.c_str(), a.at("count").asU64(),
                    a.at("total").asU64(), a.at("lazy").asU64(),
                    a.at("replays").asU64(), a.at("sbDrain").asU64(),
                    a.at("l1Miss").asU64(), a.at("unblockWait").asU64(),
                    a.at("lockHeld").asU64());
    }
}

/** One retained span: header line, scaled waterfall lane, critical path. */
void
printSpan(const Json &sp)
{
    const unsigned long long total = sp.at("total").asU64();
    std::printf("    span %llu core%llu pc=%s line=%s [%llu, %llu) "
                "%llu cyc %s replays=%llu\n",
                sp.at("id").asU64(), sp.at("core").asU64(),
                sp.at("pc").str.c_str(), sp.at("line").str.c_str(),
                sp.at("dispatch").asU64(), sp.at("commit").asU64(), total,
                sp.at("lazy").b ? "lazy" : "eager",
                sp.at("replays").asU64());

    // Waterfall: one 60-column lane, segments in SpanSeg order scaled to
    // the span's total. The segments tile dispatch→commit (conservation
    // is enforced at close), so the lane is exact up to rounding.
    const Json &segs = sp.at("segs");
    constexpr int lane = 60;
    std::string bar;
    for (unsigned s = 0; s < numSegs; ++s) {
        const unsigned long long v = segs.at(segNames[s]).asU64();
        if (!v || !total)
            continue;
        int w = static_cast<int>(
            static_cast<double>(lane) * static_cast<double>(v) /
                static_cast<double>(total) + 0.5);
        if (w < 1)
            w = 1;
        bar.append(static_cast<std::size_t>(w), segGlyphs[s]);
    }
    if (bar.size() > lane)
        bar.resize(lane);
    std::printf("      |%-*s|\n", lane, bar.c_str());

    const Json &crit = sp.at("critical");
    std::printf("      legs: net=%llu cyc/%llu hops, dirBlocked=%llu, "
                "lockStall=%llu, missOther=%llu -> critical path: %s\n",
                sp.at("netCycles").asU64(), sp.at("netHops").asU64(),
                sp.at("dirBlocked").asU64(), sp.at("lockStall").asU64(),
                crit.at("missOther").asU64(),
                crit.at("dominant").str.c_str());
}

/** Render one record: @p spans is the span-tracker object itself. */
void
renderSpans(const Json &spans, const std::string &label)
{
    std::printf("=== %s (spans: %llu opened, %llu closed, %llu open at "
                "end, %llu truncated) ===\n",
                label.c_str(), spans.at("opened").asU64(),
                spans.at("closed").asU64(), spans.at("openAtEnd").asU64(),
                spans.at("truncated").asU64());
    std::printf("  Latency percentiles (cycles dispatch->commit):\n");
    printHist("all", spans.at("latency"));
    printHist("l1Miss", spans.at("missLatency"));
    printHist("lockHeld", spans.at("lockHeld"));
    printSegTotals(spans);
    printAggTable(spans.at("pcs"), "Atomic PCs", "pc",
                  spans.at("pcsTracked").asU64());
    printAggTable(spans.at("lines"), "Cache lines", "line",
                  spans.at("linesTracked").asU64());

    const Json &recs = spans.at("spans");
    if (recs.type == Json::Array && !recs.arr.empty()) {
        std::printf("  Slowest retained spans (waterfall: d=dispatchWait "
                    "s=sbDrain q=aqWait x=execute m=l1Miss u=unblockWait "
                    "l=lockHeld):\n");
        for (const Json &sp : recs.arr)
            printSpan(sp);
    }
    std::printf("\n");
}

// ---------------------------------------------------------------------
// Time-series section
// ---------------------------------------------------------------------

/** 60-column ASCII sparkline: each column is the mean of the points it
 *  covers, mapped to a 10-level density ramp over [min, max]. */
std::string
sparkline(const std::vector<double> &vals)
{
    constexpr int lane = 60;
    static const char ramp[] = " .:-=+*#%@";
    if (vals.empty())
        return std::string(lane, ' ');
    double lo = vals[0], hi = vals[0];
    for (double v : vals) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi - lo;
    std::string out;
    const int cols = std::min<int>(lane, static_cast<int>(vals.size()));
    for (int c = 0; c < cols; ++c) {
        const std::size_t a = vals.size() * c / cols;
        const std::size_t b =
            std::max(a + 1, vals.size() * (c + 1) / cols);
        double sum = 0;
        for (std::size_t i = a; i < b; ++i)
            sum += vals[i];
        const double mean = sum / static_cast<double>(b - a);
        const int level =
            span > 0 ? static_cast<int>(9.0 * (mean - lo) / span + 0.5)
                     : 0;
        out += ramp[std::clamp(level, 0, 9)];
    }
    return out;
}

void
printMetric(const std::string &name, const Json &m)
{
    const Json &ci = m.at("ci");
    std::printf("    %-18s %7llu %12.6g %12.6g %6.3f %4llux%-6llu",
                name.c_str(), m.at("count").asU64(),
                m.at("mean").asDouble(), m.at("stddev").asDouble(),
                m.at("lag1").asDouble(), m.at("batches").asU64(),
                m.at("batchSize").asU64());
    if (ci.at("valid").b) {
        const double rel = ci.at("rel").asDouble();
        std::printf("  [%.6g, %.6g]", ci.at("lo").asDouble(),
                    ci.at("hi").asDouble());
        if (std::isfinite(rel))
            std::printf("  ±%.2f%%", 100.0 * rel);
        std::printf("\n");
    } else {
        std::printf("  (CI needs ≥8 batches)\n");
    }
}

void
printOverTime(const Json &metrics)
{
    // Union of retained cycles (all metrics sample the same grid, but
    // stay defensive) sampled at up to ten rows.
    std::vector<double> cycles;
    for (const auto &kv : metrics.obj) {
        const Json &cyc = kv.second.at("points").at("cycles");
        for (const Json &c : cyc.arr)
            cycles.push_back(c.asDouble());
        break; // one metric fixes the grid
    }
    if (cycles.empty())
        return;
    std::printf("  Over time (window of %zu samples):\n", cycles.size());
    std::printf("    %12s", "cycle");
    for (const auto &kv : metrics.obj)
        std::printf(" %14s", kv.first.c_str());
    std::printf("\n");
    const std::size_t rows = std::min<std::size_t>(10, cycles.size());
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i =
            rows == 1 ? 0 : (cycles.size() - 1) * r / (rows - 1);
        std::printf("    %12.0f", cycles[i]);
        for (const auto &kv : metrics.obj) {
            const Json &vals = kv.second.at("points").at("values");
            std::printf(" %14.6g",
                        i < vals.arr.size() ? vals.arr[i].asDouble() : 0.0);
        }
        std::printf("\n");
    }
}

/** Render one record: @p ts is the time-series object itself. */
void
renderTimeseries(const Json &ts, const std::string &label)
{
    const Json &metrics = ts.at("metrics");
    std::printf("=== %s (interval %llu cycles, window %llu samples) ===\n",
                label.c_str(), ts.at("period").asU64(),
                ts.at("window").asU64());
    std::printf("    %-18s %7s %12s %12s %6s %11s  %s\n", "metric",
                "count", "mean", "stddev", "lag1", "batches",
                "batch-means CI");
    for (const auto &kv : metrics.obj)
        printMetric(kv.first, kv.second);

    std::printf("  Sparklines (per-interval deltas, min→max):\n");
    for (const auto &kv : metrics.obj) {
        const Json &vals = kv.second.at("points").at("values");
        std::vector<double> v;
        v.reserve(vals.arr.size());
        for (const Json &x : vals.arr)
            v.push_back(x.asDouble());
        std::printf("    %-18s |%s|\n", kv.first.c_str(),
                    sparkline(v).c_str());
    }

    printOverTime(metrics);

    const Json &conv = ts.at("converge");
    if (conv.type == Json::Object) {
        const double achieved = conv.at("achieved").asDouble();
        std::printf("  Convergence: %s rel CI ≤ %.4g @%.0f%% -> %s "
                    "(achieved %.4g%s)\n",
                    conv.at("metric").str.c_str(),
                    conv.at("target").asDouble(),
                    100.0 * conv.at("confidence").asDouble(),
                    conv.at("converged").b
                        ? "converged" : "NOT converged",
                    achieved,
                    conv.at("converged").b
                        ? (" at cycle " +
                           std::to_string(conv.at("atCycle").asU64()))
                              .c_str()
                        : "");
    }
    std::printf("\n");
}

// ---------------------------------------------------------------------
// Heartbeat table
// ---------------------------------------------------------------------

struct JobRow
{
    std::string workload;
    std::string config;
    std::string state = "queued";
    std::string status;
    // Live progress from the latest run event.
    double frac = 0;
    double kcps = 0;
    double etaMs = -1;
    long rssKb = -1;
    bool seenRun = false;
};

struct TopState
{
    bool sweepSeen = false;
    bool sweepEnded = false;
    std::size_t jobsTotal = 0, ok = 0, failed = 0;
    // Keyed by job index; the "jN" key of run events maps here.
    std::map<std::size_t, JobRow> jobs;

    void
    apply(const Json &ev)
    {
        const std::string kind = ev.at("ev").str;
        if (kind == "sweep") {
            sweepSeen = true;
            jobsTotal = ev.at("jobs").asU64();
            if (ev.at("state").str == "end") {
                sweepEnded = true;
                ok = ev.at("ok").asU64();
                failed = ev.at("failed").asU64();
            }
            return;
        }
        // Both "job" and "run" events address a row by job key.
        const std::string &key = ev.at("job").str;
        if (key.size() < 2 || key[0] != 'j')
            return; // run event outside a sweep
        const std::size_t idx =
            static_cast<std::size_t>(std::strtoull(key.c_str() + 1,
                                                   nullptr, 10));
        JobRow &row = jobs[idx];
        if (kind == "job") {
            row.state = ev.at("state").str;
            row.workload = ev.at("workload").str;
            row.config = ev.at("config").str;
            row.status = ev.at("status").str;
        } else if (kind == "run") {
            row.seenRun = true;
            row.frac = ev.at("frac").asDouble();
            row.kcps = ev.at("kcps").asDouble();
            row.etaMs = ev.obj.count("etaMs")
                            ? ev.at("etaMs").asDouble() : -1.0;
            row.rssKb = static_cast<long>(ev.at("rssKb").asDouble());
        }
    }
};

std::string
fmtEta(double ms)
{
    if (ms < 0)
        return "-";
    char buf[32];
    if (ms >= 60000)
        std::snprintf(buf, sizeof buf, "%.1fm", ms / 60000.0);
    else
        std::snprintf(buf, sizeof buf, "%.1fs", ms / 1000.0);
    return buf;
}

void
renderTop(const TopState &st, bool follow)
{
    if (follow)
        std::printf("\x1b[H\x1b[2J"); // home + clear
    std::size_t queued = 0, runningN = 0, done = 0;
    for (const auto &kv : st.jobs) {
        const std::string &s = kv.second.state;
        if (s == "queued")
            queued++;
        else if (s == "started")
            runningN++;
        else if (s == "finished")
            done++;
    }
    std::printf("rowsim sweep: %zu jobs  queued %zu  running %zu  done %zu",
                st.jobsTotal, queued, runningN, done);
    if (st.sweepEnded)
        std::printf("  -- COMPLETE: %zu ok, %zu failed", st.ok,
                    st.failed);
    std::printf("\n\n");
    std::printf("%5s %-12s %-14s %-9s %7s %9s %8s %9s %-8s\n", "job",
                "workload", "config", "state", "prog", "kcyc/s", "eta",
                "rssMB", "status");
    for (const auto &kv : st.jobs) {
        const JobRow &r = kv.second;
        std::printf("%5zu %-12.12s %-14.14s %-9.9s ", kv.first,
                    r.workload.c_str(), r.config.c_str(),
                    r.state.c_str());
        if (r.seenRun && r.state != "finished") {
            std::printf("%6.1f%% %9.1f %8s %9.1f", 100.0 * r.frac,
                        r.kcps, fmtEta(r.etaMs).c_str(),
                        r.rssKb >= 0 ? r.rssKb / 1024.0 : 0.0);
        } else if (r.state == "finished") {
            std::printf("%6.0f%% %9s %8s %9s", 100.0, "-", "-", "-");
        } else {
            std::printf("%7s %9s %8s %9s", "-", "-", "-", "-");
        }
        std::printf(" %-8.24s\n", r.status.c_str());
    }
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Front end: section detection and input
// ---------------------------------------------------------------------

/** A section lives under its wrapper member (stats report / JSONL run
 *  record), or is the record itself when that is a raw sink object
 *  carrying the sink's marker key. */
const Json *
section(const Json &rec, const char *member, const char *rawKey)
{
    if (rec.has(member) && rec.at(member).type == Json::Object)
        return &rec.at(member);
    return rec.has(rawKey) ? &rec : nullptr;
}

struct Report
{
    std::FILE *collapsed = nullptr;
    TopState top;
    unsigned index = 0, rendered = 0;

    /** Render every section @p rec carries; heartbeat events only
     *  update the table, which is drawn once the input is read. */
    void
    record(const Json &rec)
    {
        std::string label;
        if (rec.at("workload").type == Json::String)
            label = rec.at("workload").str;
        if (rec.at("config").type == Json::String)
            label += (label.empty() ? "" : "/") + rec.at("config").str;
        if (label.empty())
            label = "run" + std::to_string(index);
        index++;

        if (const Json *p = section(rec, "profile", "categories")) {
            renderProfile(*p, label, collapsed);
            rendered++;
        }
        if (const Json *s = section(rec, "spans", "segTotals")) {
            renderSpans(*s, label);
            rendered++;
        }
        if (const Json *t = section(rec, "timeseries", "metrics")) {
            renderTimeseries(*t, label);
            rendered++;
        }
        if (rec.has("ev"))
            top.apply(rec);
    }
};

std::string
readAll(const char *path)
{
    std::FILE *f =
        std::strcmp(path, "-") == 0 ? stdin : std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "rowsim_report: cannot open %s\n", path);
        std::exit(1);
    }
    std::string out;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    if (f != stdin)
        std::fclose(f);
    return out;
}

/** Render @p path once: a whole-file parse handles pretty-printed stats
 *  reports; if that fails the input is a JSONL stream, parsed line by
 *  line. */
int
renderOnce(const char *path, std::FILE *collapsed)
{
    const std::string text = readAll(path);
    Report rep;
    rep.collapsed = collapsed;

    Json root;
    bool wholeFile = true;
    try {
        root = parseJson(text);
    } catch (const std::exception &) {
        wholeFile = false;
    }
    if (wholeFile) {
        rep.record(root);
    } else {
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string::npos)
                eol = text.size();
            const std::string line = text.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            try {
                root = parseJson(line);
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "rowsim_report: skipping bad line: %s\n",
                             e.what());
                continue;
            }
            rep.record(root);
        }
    }

    if (rep.top.sweepSeen || !rep.top.jobs.empty()) {
        renderTop(rep.top, false);
        rep.rendered++;
    }
    if (!rep.rendered) {
        std::fprintf(stderr,
                     "rowsim_report: no profile, span, time-series or "
                     "heartbeat records found in %s (was the run executed "
                     "with ROWSIM_PROFILE, ROWSIM_SPANS, ROWSIM_TS or "
                     "ROWSIM_HEARTBEAT set?)\n",
                     path);
        return 1;
    }
    return 0;
}

/** Tail the heartbeat stream at @p path, redrawing the table as events
 *  arrive, until the sweep-end event lands. */
int
followStream(const char *path)
{
    TopState st;
    std::string buf;     // undigested bytes (tail may be mid-line)
    long offset = 0;     // next byte to read from the stream file
    bool warnedMissing = false;

    for (;;) {
        if (std::FILE *f = std::fopen(path, "rb")) {
            // A shrunken file means the sweep restarted with a fresh
            // sink; start over instead of reading garbage.
            std::fseek(f, 0, SEEK_END);
            const long size = std::ftell(f);
            if (size < offset) {
                offset = 0;
                buf.clear();
                st = TopState();
            }
            std::fseek(f, offset, SEEK_SET);
            char chunk[1 << 16];
            std::size_t n;
            while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
                buf.append(chunk, n);
                offset += static_cast<long>(n);
            }
            std::fclose(f);
        } else if (!warnedMissing) {
            std::fprintf(stderr,
                         "rowsim_report: waiting for %s to appear...\n",
                         path);
            warnedMissing = true;
        }

        // Digest complete lines; a partial tail stays buffered.
        std::size_t pos = 0;
        while (true) {
            const std::size_t eol = buf.find('\n', pos);
            if (eol == std::string::npos)
                break;
            const std::string line = buf.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            try {
                const Json ev = parseJson(line);
                if (ev.has("ev"))
                    st.apply(ev);
            } catch (const std::exception &) {
                // A torn or foreign line; skip it.
            }
        }
        buf.erase(0, pos);

        renderTop(st, true);
        if (st.sweepEnded)
            return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: rowsim_report [--collapsed PATH] FILE|-\n"
        "       rowsim_report --follow FILE\n"
        "  FILE: a stats JSON report, a raw profiler / span-tracker /\n"
        "        time-series JSON object, or a JSONL stream of run\n"
        "        records (ROWSIM_PROFILE_JSON, ROWSIM_SPANS_JSON,\n"
        "        ROWSIM_REPORT) or heartbeat events (ROWSIM_HEARTBEAT).\n"
        "        Every section a record carries is rendered. '-' reads\n"
        "        stdin.\n"
        "  --collapsed PATH: also write flamegraph folded stacks\n"
        "        (label;coreN;bucket slots) to PATH.\n"
        "  --follow: tail a heartbeat stream into a live per-job table,\n"
        "        redrawn as events arrive, until the sweep ends.\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *input = nullptr;
    const char *collapsedPath = nullptr;
    bool followMode = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--collapsed") == 0) {
            if (++i >= argc)
                usage();
            collapsedPath = argv[i];
        } else if (std::strcmp(argv[i], "--follow") == 0) {
            followMode = true;
        } else if (!input) {
            input = argv[i];
        } else {
            usage();
        }
    }
    if (!input || (followMode && (collapsedPath ||
                                  std::strcmp(input, "-") == 0)))
        usage();
    if (followMode)
        return followStream(input);

    std::FILE *collapsed = nullptr;
    if (collapsedPath) {
        collapsed = std::fopen(collapsedPath, "w");
        if (!collapsed) {
            std::fprintf(stderr, "rowsim_report: cannot write %s\n",
                         collapsedPath);
            return 1;
        }
    }
    const int rc = renderOnce(input, collapsed);
    if (collapsed)
        std::fclose(collapsed);
    return rc;
}
