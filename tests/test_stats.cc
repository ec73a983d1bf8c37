/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c++;
    c++;
    EXPECT_EQ(c.value(), 2u);
    c += 40;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, Reset)
{
    Counter c;
    c += 7;
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanMinMax)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(Average, EmptyMeanIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Average, SingleSampleIsMinAndMax)
{
    Average a;
    a.sample(-3.5);
    EXPECT_DOUBLE_EQ(a.min(), -3.5);
    EXPECT_DOUBLE_EQ(a.max(), -3.5);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0, 100, 10);
    h.sample(5);    // bucket 0
    h.sample(95);   // bucket 9
    h.sample(100);  // overflow (hi is exclusive)
    h.sample(-1);   // underflow
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.summary().count(), 4u);
}

TEST(Histogram, RejectsBadBounds)
{
    EXPECT_THROW(Histogram(10, 10, 4), std::logic_error);
    EXPECT_THROW(Histogram(0, 10, 0), std::logic_error);
}

TEST(Histogram, RoundingNearHiStaysInTopBucket)
{
    // Regression: (v - lo) can round up to exactly (hi - lo) in double
    // arithmetic even though v < hi, making the raw bucket index equal
    // to the bucket count (an out-of-bounds write before the clamp).
    // At lo = -1e16 the spacing between doubles is 2, so -0.001 - lo
    // rounds to exactly 1e16.
    Histogram h(-1e16, 0, 4);
    h.sample(-0.001);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Formula, EvaluatesLazily)
{
    StatGroup g("test");
    g.counter("n") += 4;
    g.formula("rate") = [&g] {
        return static_cast<double>(g.counterValue("n")) / 2.0;
    };
    EXPECT_DOUBLE_EQ(g.formulaValue("rate"), 2.0);
    g.counter("n") += 4; // formulas see the *current* counter values
    EXPECT_DOUBLE_EQ(g.formulaValue("rate"), 4.0);
    EXPECT_DOUBLE_EQ(g.formulaValue("missing"), 0.0);
}

TEST(StatGroup, CountersAreNamedAndPersistent)
{
    StatGroup g("test");
    g.counter("a")++;
    g.counter("a")++;
    g.counter("b") += 5;
    EXPECT_EQ(g.counterValue("a"), 2u);
    EXPECT_EQ(g.counterValue("b"), 5u);
    EXPECT_EQ(g.counterValue("missing"), 0u);
}

TEST(StatGroup, AveragesByName)
{
    StatGroup g("test");
    g.average("lat").sample(10);
    g.average("lat").sample(20);
    const Average *a = g.findAverage("lat");
    ASSERT_NE(a, nullptr);
    EXPECT_DOUBLE_EQ(a->mean(), 15.0);
    EXPECT_EQ(g.findAverage("missing"), nullptr);
}

TEST(StatGroup, ResetClearsEverything)
{
    StatGroup g("test");
    g.counter("a") += 3;
    g.average("x").sample(1.0);
    g.reset();
    EXPECT_EQ(g.counterValue("a"), 0u);
    EXPECT_EQ(g.findAverage("x")->count(), 0u);
}

TEST(StatHandle, NeverDereferencedLeavesNoStat)
{
    StatGroup g("test");
    CounterStat hits{g, "hits"};
    AverageStat lat{g, "lat"};
    HistogramStat dist{g, "dist", 0, 10, 5};
    EXPECT_TRUE(g.counters().empty());
    EXPECT_TRUE(g.averages().empty());
    EXPECT_TRUE(g.histograms().empty());

    hits++;
    lat.sample(4);
    EXPECT_EQ(g.counterValue("hits"), 1u);
    ASSERT_NE(g.findAverage("lat"), nullptr);
    EXPECT_EQ(g.findHistogram("dist"), nullptr);
}

TEST(StatHandle, HistogramCarriesItsGeometry)
{
    StatGroup g("test");
    HistogramStat dist{g, "dist", 0, 10, 5};
    dist.sample(3);
    const Histogram *h = g.findHistogram("dist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->lo(), 0);
    EXPECT_EQ(h->hi(), 10);
    ASSERT_EQ(h->buckets().size(), 5u);
    EXPECT_EQ(h->buckets()[1], 1u);
}

TEST(StatHandle, RebindsAfterRestore)
{
    StatGroup g("test");
    CounterStat n{g, "n"};
    AverageStat lat{g, "lat"};
    HistogramStat dist{g, "dist", 0, 10, 5};
    CounterStat late{g, "late"};
    for (int i = 0; i < 3; i++)
        n++;
    lat.sample(2);
    dist.sample(1);
    Ser s;
    g.save(s);

    // Diverge after the image, binding a stat the image lacks.
    for (int i = 0; i < 5; i++)
        n++;
    lat.sample(100);
    dist.sample(9);
    late++;

    Deser d(s.bytes());
    g.restore(d);
    EXPECT_EQ(g.counterValue("n"), 3u);
    EXPECT_EQ(g.counters().count("late"), 0u);

    // Increments land in the restored storage, continuing its values.
    n++;
    lat.sample(4);
    dist.sample(1);
    EXPECT_EQ(g.counterValue("n"), 4u);
    EXPECT_EQ((*n).value(), 4u);
    EXPECT_DOUBLE_EQ(g.findAverage("lat")->mean(), 3.0);
    EXPECT_EQ(g.findHistogram("dist")->buckets()[0], 2u);
    EXPECT_EQ(g.findHistogram("dist")->buckets()[4], 0u);
    EXPECT_EQ(g.counters().count("late"), 0u);
    late++;
    EXPECT_EQ(g.counterValue("late"), 1u);
}

TEST(StatHandle, SystemRestoredMidRunMatchesUninterruptedStatsJson)
{
    const ExpConfig cfg = rowConfig(ContentionDetector::RWDir,
                                    PredictorUpdate::SaturateOnContention);
    const unsigned cores = 4;
    const std::uint64_t seed = 5, quota = 200, warm = 60;
    auto make = [&] {
        return std::make_unique<System>(
            makeParams(cfg, cores, seed),
            makeStreams(profileFor("sps"), cores, seed));
    };

    auto cold = make();
    const Cycle cold_cycles = cold->run(quota);
    const std::string cold_stats = cold->statsJson();

    // A fresh System binds no handle at construction.
    auto sys = make();
    EXPECT_EQ(sys->statsJson().find("\"dispatched\""), std::string::npos);
    EXPECT_EQ(sys->statsJson().find("\"delivered\""), std::string::npos);

    // Save mid-run, run on (every hot handle binds), then restore into
    // the same System: the handles must re-bind to the restored stats.
    sys->runWarmup(quota, warm);
    Ser s;
    sys->save(s);
    sys->run(quota);
    EXPECT_NE(sys->statsJson().find("\"dispatched\""), std::string::npos);
    Deser d(s.bytes());
    sys->restore(d);
    EXPECT_EQ(sys->run(quota), cold_cycles);
    EXPECT_EQ(sys->statsJson(), cold_stats);
}
