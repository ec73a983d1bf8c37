/**
 * @file
 * Metric time-series engine tests: the online statistics must match
 * closed forms (Welford mean/variance, lag-1 autocorrelation, Student-t
 * quantiles, batch-means CIs with pairwise collapse), the spec parsers
 * must accept the documented grammar and reject everything else, the
 * "timeseries" stats key must appear exactly when the engine is on
 * (byte-identity with every knob off), ROWSIM_CONVERGE must stop a run
 * early at a deterministic interval boundary — invariant across
 * fast-forward modes — and the series must survive sweeps (1-vs-8
 * threads, thread-vs-process) and a mid-interval save/restore
 * bit-identically.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/timeseries.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

struct ScopedEnv
{
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

std::string
statsJsonOf(System &sys)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *mem = open_memstream(&buf, &len);
    EXPECT_NE(mem, nullptr);
    sys.dumpStatsJson(mem);
    std::fclose(mem);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

std::unique_ptr<System>
makeSystem(const std::string &workload, const ExpConfig &cfg,
           unsigned cores, std::uint64_t seed)
{
    return std::make_unique<System>(
        makeParams(cfg, cores, seed),
        makeStreams(profileFor(workload), cores, seed));
}

} // namespace

// ---------------------------------------------------------------------
// MetricSeries statistics against closed forms
// ---------------------------------------------------------------------

TEST(MetricSeries, WelfordMatchesClosedForm)
{
    const double xs[] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
    MetricSeries m;
    double sum = 0;
    for (unsigned i = 0; i < 10; ++i) {
        m.add(i * 100, xs[i]);
        sum += xs[i];
    }
    const double mean = sum / 10.0;
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    EXPECT_EQ(m.count(), 10u);
    EXPECT_NEAR(m.mean(), mean, 1e-12);
    EXPECT_NEAR(m.variance(), ss / 9.0, 1e-12);
    EXPECT_NEAR(m.stddev(), std::sqrt(ss / 9.0), 1e-12);
}

TEST(MetricSeries, Lag1MatchesClosedFormAndClamps)
{
    // Alternating series: strongly negative lag-1 autocorrelation.
    MetricSeries alt;
    for (unsigned i = 0; i < 100; ++i)
        alt.add(i, i % 2 ? 1.0 : -1.0);
    EXPECT_NEAR(alt.lag1(), -1.0, 0.05);

    // Monotone ramp: strongly positive.
    MetricSeries ramp;
    for (unsigned i = 0; i < 100; ++i)
        ramp.add(i, static_cast<double>(i));
    EXPECT_GT(ramp.lag1(), 0.9);
    EXPECT_LE(ramp.lag1(), 1.0);

    // Degenerate cases pin to 0: short series and zero variance.
    MetricSeries two;
    two.add(0, 1);
    two.add(1, 2);
    EXPECT_EQ(two.lag1(), 0.0);
    MetricSeries flat;
    for (unsigned i = 0; i < 50; ++i)
        flat.add(i, 7.0);
    EXPECT_EQ(flat.lag1(), 0.0);
}

TEST(TimeSeries, TQuantileMatchesTables)
{
    // Standard two-sided 95% table values t_{df}(0.975).
    EXPECT_NEAR(tQuantile(0.975, 1), 12.706, 0.01);
    EXPECT_NEAR(tQuantile(0.975, 2), 4.303, 0.005);
    EXPECT_NEAR(tQuantile(0.975, 4), 2.776, 0.02);
    EXPECT_NEAR(tQuantile(0.975, 7), 2.365, 0.01);
    EXPECT_NEAR(tQuantile(0.975, 30), 2.042, 0.005);
    EXPECT_NEAR(tQuantile(0.975, 1000), 1.962, 0.005);
    // 99% level.
    EXPECT_NEAR(tQuantile(0.995, 7), 3.499, 0.03);
    EXPECT_NEAR(tQuantile(0.995, 63), 2.656, 0.01);
}

TEST(MetricSeries, BatchMeansCiClosedForm)
{
    // 16 samples, batch size 1 -> 16 batch means = the samples.
    MetricSeries m;
    double sum = 0;
    for (unsigned i = 0; i < 16; ++i) {
        const double v = 10.0 + (i % 4); // 10,11,12,13 repeating
        m.add(i, v);
        sum += v;
    }
    ASSERT_EQ(m.batchCount(), 16u);
    ASSERT_EQ(m.batchSize(), 1u);
    const double mean = sum / 16.0;
    double ss = 0;
    for (unsigned i = 0; i < 16; ++i) {
        const double v = 10.0 + (i % 4);
        ss += (v - mean) * (v - mean);
    }
    const double s2 = ss / 15.0;
    const double expectHw =
        tQuantile(0.975, 15) * std::sqrt(s2 / 16.0);

    const MetricSeries::Ci ci = m.ci(0.95);
    ASSERT_TRUE(ci.valid);
    EXPECT_NEAR(ci.halfwidth, expectHw, 1e-9);
    EXPECT_NEAR(ci.relHalfwidth, expectHw / mean, 1e-9);
    EXPECT_NEAR(ci.lo, mean - expectHw, 1e-9);
    EXPECT_NEAR(ci.hi, mean + expectHw, 1e-9);
}

TEST(MetricSeries, CiInvalidUntilMinBatchesAndInfiniteRelAtZeroMean)
{
    MetricSeries m;
    for (unsigned i = 0; i < MetricSeries::kMinBatches - 1; ++i)
        m.add(i, 1.0);
    EXPECT_FALSE(m.ci(0.95).valid);
    m.add(99, 1.0);
    EXPECT_TRUE(m.ci(0.95).valid);

    // Mean zero: half-width finite, relative half-width infinite.
    MetricSeries z;
    for (unsigned i = 0; i < 16; ++i)
        z.add(i, i % 2 ? 1.0 : -1.0);
    const MetricSeries::Ci ci = z.ci(0.95);
    ASSERT_TRUE(ci.valid);
    EXPECT_TRUE(std::isinf(ci.relHalfwidth));
}

TEST(MetricSeries, BatchCollapseKeepsTotalsAndBoundsMemory)
{
    MetricSeries m;
    double sum = 0;
    const unsigned n = 10000;
    for (unsigned i = 0; i < n; ++i) {
        const double v = std::sin(0.1 * i) + 2.0;
        m.add(i, v);
        sum += v;
    }
    EXPECT_EQ(m.count(), n);
    EXPECT_NEAR(m.mean(), sum / n, 1e-9);
    // The collapse keeps the completed-batch count within
    // (kMaxBatches/2, kMaxBatches] while batchSize doubles.
    EXPECT_LE(m.batchCount(), MetricSeries::kMaxBatches);
    EXPECT_GT(m.batchCount(), MetricSeries::kMaxBatches / 2);
    EXPECT_GE(m.batchSize(), 2u);
    // Completed batches partition a prefix of the samples exactly.
    EXPECT_LE(m.batchCount() * m.batchSize(), n);
    const MetricSeries::Ci ci = m.ci(0.95);
    ASSERT_TRUE(ci.valid);
    EXPECT_GT(ci.halfwidth, 0.0);
    EXPECT_LT(ci.relHalfwidth, 1.0);
}

TEST(MetricSeries, WindowRingKeepsNewestPoints)
{
    MetricSeries m(4);
    for (unsigned i = 0; i < 10; ++i)
        m.add(1000 + i, static_cast<double>(i));
    const std::vector<Cycle> cyc = m.windowCycles();
    const std::vector<double> val = m.windowValues();
    ASSERT_EQ(cyc.size(), 4u);
    ASSERT_EQ(val.size(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(cyc[i], 1006u + i);
        EXPECT_EQ(val[i], 6.0 + i);
    }
}

// ---------------------------------------------------------------------
// Spec parsers
// ---------------------------------------------------------------------

TEST(TimeSeries, ParseConvergeSpec)
{
    const ConvergeSpec none = parseConvergeSpec("X", "");
    EXPECT_FALSE(none.active);

    const ConvergeSpec basic =
        parseConvergeSpec("X", "instructions:0.02");
    EXPECT_TRUE(basic.active);
    EXPECT_EQ(basic.metric, "instructions");
    EXPECT_DOUBLE_EQ(basic.relHalfwidth, 0.02);
    EXPECT_DOUBLE_EQ(basic.confidence, 0.95);

    const ConvergeSpec full = parseConvergeSpec("X", "atomics:0.1:0.99");
    EXPECT_DOUBLE_EQ(full.confidence, 0.99);

    EXPECT_THROW(parseConvergeSpec("X", "nocolon"), std::runtime_error);
    EXPECT_THROW(parseConvergeSpec("X", ":0.1"), std::runtime_error);
    EXPECT_THROW(parseConvergeSpec("X", "m:0"), std::runtime_error);
    EXPECT_THROW(parseConvergeSpec("X", "m:-0.5"), std::runtime_error);
    EXPECT_THROW(parseConvergeSpec("X", "m:0.1:1.5"),
                 std::runtime_error);
    EXPECT_THROW(parseConvergeSpec("X", "m:junk"), std::runtime_error);
}

TEST(TimeSeries, ParseOnOffSpec)
{
    for (const char *on : {"on", "1", "yes", "true"})
        EXPECT_TRUE(parseOnOffSpec("X", on)) << on;
    for (const char *off : {"off", "0", "no", "false"})
        EXPECT_FALSE(parseOnOffSpec("X", off)) << off;
    EXPECT_THROW(parseOnOffSpec("X", "maybe"), std::runtime_error);
}

// ---------------------------------------------------------------------
// System integration
// ---------------------------------------------------------------------

TEST(TimeSeries, OffByDefaultAndByteIdentical)
{
    // No knob set: the stats tree must not contain the key at all, and
    // an explicitly-off run must be byte-identical to an unset one.
    RunResult plain = runExperiment("pc", eagerConfig(), 8, 40, 1, true);
    EXPECT_EQ(plain.statsJson.find("\"timeseries\""), std::string::npos);
    EXPECT_TRUE(plain.tsJson.empty());
    EXPECT_EQ(plain.toJson().find("timeseries"), std::string::npos);
    EXPECT_EQ(plain.toJson().find("converge"), std::string::npos);

    ExpConfig off = eagerConfig();
    off.timeseries = false;
    RunResult offRun = runExperiment("pc", off, 8, 40, 1, true);
    EXPECT_EQ(offRun.statsJson, plain.statsJson);
}

TEST(TimeSeries, EngineSamplesEveryIntervalIntoTheStatsTree)
{
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    ExpConfig cfg = eagerConfig();
    cfg.timeseries = true;
    RunResult r = runExperiment("pc", cfg, 8, 60, 1, true);
    EXPECT_NE(r.statsJson.find("\"timeseries\""), std::string::npos);
    ASSERT_FALSE(r.tsJson.empty());
    // One sample per full interval.
    EXPECT_NE(r.tsJson.find("\"instructions\""), std::string::npos);
    EXPECT_NE(r.tsJson.find(strprintf("\"count\": %llu",
                                      static_cast<unsigned long long>(
                                          r.cycles / 1024))),
              std::string::npos);
    // Without a converge spec there is no converge object anywhere.
    EXPECT_EQ(r.tsJson.find("\"converge\""), std::string::npos);
}

TEST(TimeSeries, DefaultPeriodAppliesWhenIntervalUnset)
{
    ExpConfig cfg = eagerConfig();
    cfg.timeseries = true;
    RunResult r = runExperiment("pc", cfg, 8, 200, 1, true);
    ASSERT_FALSE(r.tsJson.empty());
    EXPECT_NE(r.tsJson.find("\"period\": 8192"), std::string::npos);
}

TEST(TimeSeries, UnknownConvergeMetricIsFatalNamingTheValidSet)
{
    ExpConfig cfg = eagerConfig();
    cfg.converge = ConvergeSpec{true, "nosuchmetric", 0.1};
    try {
        runExperiment("pc", cfg, 4, 20, 1, false);
        ADD_FAILURE() << "expected a fatal error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("instructions"),
                  std::string::npos);
    }
}

TEST(TimeSeries, ConvergeStopsEarlyAtAnIntervalBoundary)
{
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    ExpConfig plain = eagerConfig();
    RunResult unbounded =
        runExperiment("pc", plain, 8, 4000, 1, false);

    ExpConfig conv = eagerConfig();
    conv.converge = ConvergeSpec{true, "instructions", 0.2};
    RunResult bounded = runExperiment("pc", conv, 8, 4000, 1, false);

    ASSERT_TRUE(bounded.converged);
    EXPECT_EQ(bounded.convergeMetric, "instructions");
    EXPECT_DOUBLE_EQ(bounded.convergeTarget, 0.2);
    EXPECT_LE(bounded.convergeAchieved, 0.2);
    EXPECT_LT(bounded.cycles, unbounded.cycles)
        << "the CI bound should stop the run well before quota";
    EXPECT_EQ(bounded.cycles % 1024, 0u)
        << "the stop must land exactly on a sampling boundary";
    EXPECT_NE(bounded.toJson().find("\"converge\""), std::string::npos);

    // Determinism: the stop cycle is a pure function of the sampled
    // series, so a rerun reproduces it exactly.
    RunResult again = runExperiment("pc", conv, 8, 4000, 1, false);
    EXPECT_EQ(again.cycles, bounded.cycles);
}

TEST(TimeSeries, ConvergeStopCycleInvariantAcrossFastForwardModes)
{
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    ExpConfig conv = lazyConfig();
    conv.converge = ConvergeSpec{true, "instructions", 0.2};

    RunResult byMode[3];
    const char *modes[] = {"0", "1", "check"};
    for (unsigned i = 0; i < 3; ++i) {
        ScopedEnv ff("ROWSIM_FF", modes[i]);
        byMode[i] = runExperiment("pc", conv, 8, 4000, 1, true);
    }
    ASSERT_TRUE(byMode[0].converged);
    for (unsigned i = 1; i < 3; ++i) {
        EXPECT_EQ(byMode[i].cycles, byMode[0].cycles) << modes[i];
        EXPECT_EQ(byMode[i].statsJson, byMode[0].statsJson) << modes[i];
    }
}

TEST(TimeSeries, QuotaRemainsUpperBoundWhenCiNeverTightens)
{
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    ExpConfig strict = eagerConfig();
    strict.converge = ConvergeSpec{true, "instructions", 0.000001};
    RunResult r = runExperiment("pc", strict, 8, 60, 1, false);
    EXPECT_FALSE(r.converged);
    EXPECT_GT(r.convergeAchieved, 0.000001);

    ExpConfig plain = eagerConfig();
    RunResult free = runExperiment("pc", plain, 8, 60, 1, false);
    EXPECT_EQ(r.cycles, free.cycles)
        << "an unmet bound must not change the quota-limited result";
}

// ---------------------------------------------------------------------
// Sweep determinism and snapshot round-trip
// ---------------------------------------------------------------------

TEST(TimeSeries, SweepDeterministicAcrossThreadCountsAndIsolation)
{
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    std::vector<SweepJob> jobs;
    for (const char *w : {"pc", "canneal", "cq", "tatp"}) {
        SweepJob j;
        j.workload = w;
        j.cfg = eagerConfig();
        j.cfg.timeseries = true;
        if (std::string(w) == "cq")
            j.cfg.converge = ConvergeSpec{true, "instructions", 0.25};
        j.numCores = 8;
        j.quota = 40;
        j.captureStatsJson = true;
        jobs.push_back(std::move(j));
    }

    std::vector<RunResult> serial = SweepEngine(1).run(jobs);
    std::vector<RunResult> parallel = SweepEngine(8).run(jobs);
    SweepOptions iso;
    iso.threads = 4;
    iso.isolation = SweepIsolation::Process;
    std::vector<RunResult> process = SweepEngine(iso).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        ASSERT_TRUE(serial[k].ok()) << k;
        EXPECT_FALSE(serial[k].tsJson.empty()) << k;
        EXPECT_EQ(serial[k].statsJson, parallel[k].statsJson) << k;
        EXPECT_EQ(serial[k].tsJson, parallel[k].tsJson) << k;
        EXPECT_EQ(serial[k].statsJson, process[k].statsJson) << k;
        EXPECT_EQ(serial[k].tsJson, process[k].tsJson) << k;
        EXPECT_EQ(serial[k].converged, process[k].converged) << k;
    }
}

TEST(TimeSeries, SaveRestoreMidIntervalResumesBitIdentically)
{
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    ExpConfig cfg = lazyConfig();
    cfg.timeseries = true;
    const unsigned cores = 4;
    const std::uint64_t seed = 3, quota = 200, warm = 50;

    auto cold = makeSystem("cq", cfg, cores, seed);
    cold->run(quota);
    const std::string cold_stats = statsJsonOf(*cold);
    ASSERT_NE(cold_stats.find("\"timeseries\""), std::string::npos);

    // The warm stop lands wherever iteration `warm` commits — almost
    // surely mid-interval, so the in-progress batch, the Welford state
    // and the ring must all round-trip through the snapshot.
    auto warm_sys = makeSystem("cq", cfg, cores, seed);
    warm_sys->runWarmup(quota, warm);
    Ser s;
    warm_sys->save(s);
    warm_sys.reset();

    auto resumed = makeSystem("cq", cfg, cores, seed);
    Deser d(s.bytes());
    resumed->restore(d);
    resumed->run(quota);
    EXPECT_EQ(statsJsonOf(*resumed), cold_stats);
}

TEST(TimeSeries, RestoreRejectsEngineMismatch)
{
    // Pin the sampling period so both Systems agree at the
    // interval-stats layer and the refusal comes from the engine check.
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "1024");
    ExpConfig on = eagerConfig();
    on.timeseries = true;
    auto src = makeSystem("pc", on, 4, 1);
    src->runWarmup(100, 20);
    Ser s;
    src->save(s);

    // Same config but engine off: the stats pass must refuse by name
    // instead of misinterpreting the payload.
    auto dst = makeSystem("pc", eagerConfig(), 4, 1);
    Deser d(s.bytes());
    try {
        dst->restore(d);
        ADD_FAILURE() << "expected a SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("time-series"),
                  std::string::npos);
    }
}

TEST(TimeSeries, EngineStateSurvivesSerRoundTripExactly)
{
    ConvergeSpec conv;
    conv.active = true;
    conv.metric = "m0";
    conv.relHalfwidth = 0.1;
    TimeSeriesEngine a(64, 8, conv);
    a.addMetric("m0");
    a.addMetric("m1");
    std::vector<double> vals(2);
    for (unsigned i = 1; i <= 150; ++i) {
        vals[0] = 5.0 + std::sin(0.3 * i);
        vals[1] = 100.0 * i;
        a.observe(i * 64, vals);
    }
    Ser s;
    a.save(s);

    TimeSeriesEngine b(64, 8, conv);
    b.addMetric("m0");
    b.addMetric("m1");
    Deser d(s.bytes());
    b.restore(d);
    d.expectEnd();
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.converged(), b.converged());
    EXPECT_EQ(a.convergedAtCycle(), b.convergedAtCycle());
}
