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
 * bit-identically. The interval sampler's points must be the tail of
 * its stored series, and its restore must reject hand-built images
 * with impossible counts by name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
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
        m.add(xs[i]);
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
        alt.add(i % 2 ? 1.0 : -1.0);
    EXPECT_NEAR(alt.lag1(), -1.0, 0.05);

    // Monotone ramp: strongly positive.
    MetricSeries ramp;
    for (unsigned i = 0; i < 100; ++i)
        ramp.add(static_cast<double>(i));
    EXPECT_GT(ramp.lag1(), 0.9);
    EXPECT_LE(ramp.lag1(), 1.0);

    // Degenerate cases pin to 0: short series and zero variance.
    MetricSeries two;
    two.add(1);
    two.add(2);
    EXPECT_EQ(two.lag1(), 0.0);
    MetricSeries flat;
    for (unsigned i = 0; i < 50; ++i)
        flat.add(7.0);
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
        m.add(v);
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
        m.add(1.0);
    EXPECT_FALSE(m.ci(0.95).valid);
    m.add(1.0);
    EXPECT_TRUE(m.ci(0.95).valid);

    // Mean zero: half-width finite, relative half-width infinite.
    MetricSeries z;
    for (unsigned i = 0; i < 16; ++i)
        z.add(i % 2 ? 1.0 : -1.0);
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
        m.add(v);
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

TEST(TimeSeries, SweepDeterministicAcrossThreadCounts)
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

    ASSERT_EQ(serial.size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        ASSERT_TRUE(serial[k].ok()) << k;
        EXPECT_FALSE(serial[k].tsJson.empty()) << k;
        EXPECT_EQ(serial[k].statsJson, parallel[k].statsJson) << k;
        EXPECT_EQ(serial[k].tsJson, parallel[k].tsJson) << k;
        EXPECT_EQ(serial[k].converged, parallel[k].converged) << k;
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
    double c0 = 0, c1 = 0;
    auto probed = [&](IntervalSampler &is) {
        is.configure(64, true, conv);
        is.addProbe("m0", [&] { return c0; });
        is.addProbe("m1", [&] { return c1; });
    };
    IntervalSampler a;
    probed(a);
    for (unsigned i = 1; i <= 600; ++i) {
        c0 += 5.0 + std::sin(0.3 * i);
        c1 += 100.0 * i;
        a.tick(i * 64);
    }
    Ser s;
    a.save(s);

    IntervalSampler b;
    probed(b);
    Deser d(s.bytes());
    b.restore(d);
    d.expectEnd();
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.sampleCycles(), b.sampleCycles());
    EXPECT_EQ(a.nextSampleAt(), b.nextSampleAt());
    EXPECT_EQ(a.converged(), b.converged());
    EXPECT_EQ(a.convergedAtCycle(), b.convergedAtCycle());

    // Both continue identically: the probes' last values came back too.
    c0 += 7.0;
    a.tick(601 * 64);
    b.tick(601 * 64);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(TimeSeries, PointsAreTheNewestWindowOfTheFullSeries)
{
    // More samples than the rendered window: the engine aggregates the
    // whole series, and its points are a view of the stored tail.
    ExpConfig cfg = lazyConfig();
    cfg.timeseries = true;
    SystemParams sp = makeParams(cfg, 8, 1);
    sp.statsInterval = 64;
    System sys(sp, makeStreams(profileFor("pc"), sp.numCores, sp.seed));
    sys.run(200);
    const Json root = parseJson(statsJsonOf(sys));

    const Json &iv = root.at("intervals");
    const std::vector<Json> &cycles = iv.at("cycles").arr;
    ASSERT_GT(cycles.size(), IntervalSampler::kWindow);
    const Json &ts = root.at("timeseries");
    EXPECT_EQ(ts.at("window").asU64(), IntervalSampler::kWindow);
    const std::size_t first = cycles.size() - IntervalSampler::kWindow;
    ASSERT_EQ(ts.at("metrics").obj.size(), iv.at("series").obj.size());
    for (const auto &[name, m] : ts.at("metrics").obj) {
        const std::vector<Json> &series = iv.at("series").at(name).arr;
        ASSERT_EQ(series.size(), cycles.size()) << name;
        EXPECT_EQ(m.at("count").asU64(), series.size()) << name;
        const std::vector<Json> &pc = m.at("points").at("cycles").arr;
        const std::vector<Json> &pv = m.at("points").at("values").arr;
        ASSERT_EQ(pc.size(), IntervalSampler::kWindow) << name;
        ASSERT_EQ(pv.size(), IntervalSampler::kWindow) << name;
        for (std::size_t i = 0; i < IntervalSampler::kWindow; ++i) {
            EXPECT_EQ(pc[i].asU64(), cycles[first + i].asU64()) << name;
            EXPECT_EQ(pv[i].num, series[first + i].num) << name;
        }
    }
}

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

TEST(IntervalSampler, DisabledByDefault)
{
    IntervalSampler is;
    EXPECT_FALSE(is.enabled());
    is.tick(1000); // no-op
    EXPECT_TRUE(is.sampleCycles().empty());
}

TEST(IntervalSampler, SamplesDeltaProbes)
{
    IntervalSampler is;
    std::uint64_t counter = 0;
    double level = 1.5;
    is.configure(100);
    is.addProbe("count", [&] { return static_cast<double>(counter); });
    is.addProbe("level", [&] { return level; });
    ASSERT_TRUE(is.enabled());
    EXPECT_FALSE(is.engineOn());
    EXPECT_EQ(is.period(), 100u);

    counter = 10;
    is.tick(99); // before the first boundary: nothing
    EXPECT_TRUE(is.sampleCycles().empty());
    is.tick(100);
    EXPECT_EQ(is.nextSampleAt(), 200u);
    counter = 25;
    level = 2.5;
    is.tick(200);

    ASSERT_EQ(is.sampleCycles().size(), 2u);
    EXPECT_EQ(is.sampleCycles()[0], 100u);
    EXPECT_EQ(is.sampleCycles()[1], 200u);
    ASSERT_EQ(is.probes().size(), 2u);
    // 10 in the first interval, 15 in the second.
    EXPECT_EQ(is.probes()[0].series, (std::vector<double>{10.0, 15.0}));
    EXPECT_EQ(is.probes()[1].series, (std::vector<double>{1.5, 1.0}));
    // The engine is off: no online statistics were kept.
    EXPECT_EQ(is.probes()[0].stats.count(), 0u);
}

namespace
{

/** A hand-built stats image for a one-probe sampler (period 64) that
 *  claims @p samples sample cycles and a series of @p seriesLen
 *  entries; at most 4 of each are written, so a larger claim describes
 *  a truncated image. With @p engine, an inactive converge spec and a
 *  metric series of @p count samples follow: @p batches completed
 *  batches of @p batchSize plus an open batch of @p open samples. */
std::vector<std::uint8_t>
samplerImage(std::uint64_t samples, std::uint64_t seriesLen, bool engine,
             std::uint64_t count = 0, std::uint64_t batchSize = 1,
             std::uint64_t batches = 0, std::uint64_t open = 0)
{
    Ser s;
    s.section("interval");
    s.u64(64);                 // period
    s.u64(64 * (samples + 1)); // next sample
    s.u64(1);                  // probes
    s.f64(0);                  // last value
    s.u64(samples);
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(samples, 4); ++i)
        s.u64(64 * (i + 1));
    s.u64(seriesLen);
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(seriesLen, 4);
         ++i)
        s.f64(1.0);
    s.b(engine);
    if (engine) {
        s.section("timeseries");
        s.b(false);
        s.str("");
        s.f64(0);
        s.f64(0.95);
        s.section("mseries");
        s.u64(count);
        for (int i = 0; i < 4; ++i)
            s.f64(0); // mean, m2, prev, crossSum
        s.u64(batchSize);
        s.u64(batches);
        for (std::uint64_t i = 0; i < batches; ++i)
            s.f64(1.0);
        s.f64(0);
        s.u64(open);
        s.b(false);
        s.u64(0);
    }
    return s.bytes();
}

/** Restore @p image into a one-probe sampler; the SnapshotError text,
 *  or "" when the image restored. */
std::string
restoreError(const std::vector<std::uint8_t> &image, bool engine)
{
    IntervalSampler is;
    is.configure(64, engine);
    is.addProbe("x", [] { return 0.0; });
    try {
        Deser d(image);
        is.restore(d);
        d.expectEnd();
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(IntervalSampler, HandBuiltImagesRestore)
{
    // The builder is sound: consistent images restore.
    EXPECT_EQ(restoreError(samplerImage(4, 4, false), false), "");
    EXPECT_EQ(restoreError(samplerImage(4, 4, true, 4, 1, 4), true), "");
    EXPECT_EQ(restoreError(samplerImage(3, 3, true, 3, 2, 1, 1), true),
              "");
}

TEST(IntervalSampler, RestoreRejectsSampleCountBeyondTheImage)
{
    // A count read from the image is bounded by the bytes left before
    // anything is sized by it (a vector length error otherwise).
    const std::string err =
        restoreError(samplerImage(std::uint64_t{1} << 60, 4, false), false);
    EXPECT_NE(err.find("cannot fit"), std::string::npos) << err;
}

TEST(IntervalSampler, RestoreRejectsZeroBatchSize)
{
    // No batch of size 0 ever completes, so the CI would never move.
    for (std::uint64_t batches : {4, 100}) {
        const std::string err =
            restoreError(samplerImage(4, 4, true, 4, 0, batches), true);
        EXPECT_NE(err.find("batch layout"), std::string::npos) << err;
    }
}

TEST(IntervalSampler, RestoreRejectsAFullBatchLayout)
{
    // add() collapses on reaching kMaxBatches completed batches.
    const std::string err = restoreError(
        samplerImage(4, 4, true, 4, 1, MetricSeries::kMaxBatches), true);
    EXPECT_NE(err.find("batch layout"), std::string::npos) << err;
}

TEST(IntervalSampler, RestoreRejectsInconsistentCounts)
{
    // A series shorter than the sample grid.
    std::string err = restoreError(samplerImage(4, 3, false), false);
    EXPECT_NE(err.find("'x' has 3 samples"), std::string::npos) << err;
    // Online statistics over a different number of samples.
    err = restoreError(samplerImage(4, 4, true, 5, 1, 5), true);
    EXPECT_NE(err.find("counts 5 samples"), std::string::npos) << err;
    // An open batch as large as the batch size never closes.
    err = restoreError(samplerImage(4, 4, true, 4, 2, 1, 2), true);
    EXPECT_NE(err.find("open batch"), std::string::npos) << err;
}
