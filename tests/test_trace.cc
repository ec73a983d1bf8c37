/**
 * @file
 * Tests for the trace layer: category parsing, runtime gating, text-sink
 * ordering, Chrome trace-event JSON well-formedness, and the end-to-end
 * guarantee that the lock->unlock duration events in the Chrome trace
 * agree with the lockToUnlock metric of the run's report.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/json.hh"
#include "common/trace.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

/** Reset the singleton's sinks and mask after each test. */
struct TraceGuard
{
    ~TraceGuard()
    {
        Trace::instance().configure(0);
        Trace::instance().closeAll();
    }
};

/** Read an entire FILE* (rewinding first). */
std::string
slurp(std::FILE *f)
{
    std::string out;
    std::rewind(f);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    return out;
}

std::string
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return {};
    std::string out = slurp(f);
    std::fclose(f);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Category parsing
// ---------------------------------------------------------------------

TEST(TraceCategories, ParsesNamesAllAndNone)
{
    EXPECT_EQ(parseTraceCategories(""), 0u);
    EXPECT_EQ(parseTraceCategories("none"), 0u);
    EXPECT_EQ(parseTraceCategories("all"), traceCategoryAll);
    EXPECT_EQ(parseTraceCategories("atomic"),
              static_cast<std::uint32_t>(TraceCategory::Atomic));
    EXPECT_EQ(parseTraceCategories("atomic,coherence"),
              static_cast<std::uint32_t>(TraceCategory::Atomic) |
                  static_cast<std::uint32_t>(TraceCategory::Coherence));
    // Whitespace and case are forgiven.
    EXPECT_EQ(parseTraceCategories(" Atomic , NETWORK "),
              static_cast<std::uint32_t>(TraceCategory::Atomic) |
                  static_cast<std::uint32_t>(TraceCategory::Network));
}

TEST(TraceCategories, UnknownNameIsFatal)
{
    EXPECT_THROW(parseTraceCategories("atomic,bogus"), std::runtime_error);
}

TEST(TraceCategories, EveryCategoryRoundTrips)
{
    for (std::uint32_t bit = 1; bit <= traceCategoryAll; bit <<= 1) {
        const auto c = static_cast<TraceCategory>(bit);
        EXPECT_EQ(parseTraceCategories(traceCategoryName(c)), bit)
            << traceCategoryName(c);
    }
}

// ---------------------------------------------------------------------
// Runtime gating + text sink
// ---------------------------------------------------------------------

TEST(TraceGating, DisabledCategoriesEmitNothing)
{
    TraceGuard guard;
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    Trace::instance().setTextSink(tmp, false);
    Trace::instance().configure(
        static_cast<std::uint32_t>(TraceCategory::Atomic));

    EXPECT_TRUE(Trace::anyEnabled());
    EXPECT_TRUE(Trace::enabled(TraceCategory::Atomic));
    EXPECT_FALSE(Trace::enabled(TraceCategory::Coherence));

    ROWSIM_TRACE(TraceCategory::Atomic, 10, "visible %d", 1);
    ROWSIM_TRACE(TraceCategory::Coherence, 20, "invisible %d", 2);

    std::string out = slurp(tmp);
    Trace::instance().setTextSink(nullptr, false);
    std::fclose(tmp);

    EXPECT_NE(out.find("visible 1"), std::string::npos);
    EXPECT_NE(out.find("[atomic]"), std::string::npos);
    EXPECT_EQ(out.find("invisible"), std::string::npos);
}

TEST(TraceGating, MaskOffShortCircuitsArgumentEvaluation)
{
    TraceGuard guard;
    Trace::instance().configure(0);
    int evaluations = 0;
    auto expensive = [&evaluations] {
        evaluations++;
        return 42;
    };
    ROWSIM_TRACE(TraceCategory::Atomic, 1, "never %d", expensive());
    EXPECT_EQ(evaluations, 0);
}

TEST(TraceText, EventsAppearInEmissionOrder)
{
    TraceGuard guard;
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    Trace::instance().setTextSink(tmp, false);
    Trace::instance().configure(traceCategoryAll);

    ROWSIM_TRACE(TraceCategory::Atomic, 100, "first");
    ROWSIM_TRACE(TraceCategory::Network, 200, "second");
    ROWSIM_TRACE(TraceCategory::Directory, 300, "third");

    std::string out = slurp(tmp);
    Trace::instance().setTextSink(nullptr, false);
    std::fclose(tmp);

    auto a = out.find("first");
    auto b = out.find("second");
    auto c = out.find("third");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(c, std::string::npos);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    // Cycle stamps render right-aligned in a fixed-width column.
    EXPECT_NE(out.find("100 [atomic] first"), std::string::npos);
}

// ---------------------------------------------------------------------
// Chrome trace JSON
// ---------------------------------------------------------------------

TEST(TraceJson, EmitsWellFormedChromeTrace)
{
    TraceGuard guard;
    const std::string path = "rowsim_test_trace_events.json";
    Trace &t = Trace::instance();
    t.configure(traceCategoryAll);
    ASSERT_TRUE(t.openJson(path));

    t.nameProcess(0, "core0");
    t.nameThread(0, traceTidAtomics, "atomics");
    t.complete(TraceCategory::Atomic, 0, traceTidAtomics, "lock", 100, 150,
               "{\"seq\":1}");
    t.span(TraceCategory::Directory, tracePidDirBase, 0, "blocked", 0xabc,
           200, 260);
    t.instant(TraceCategory::Coherence, 0, traceTidCache, "lockSteal", 300);
    t.counter(TraceCategory::Pipeline, 0, "occupancy", 400, 17.0);
    t.closeJson();

    Json root = parseJson(slurpFile(path));
    std::remove(path.c_str());

    ASSERT_EQ(root.type, Json::Object);
    const Json &events = root.at("traceEvents");
    ASSERT_EQ(events.type, Json::Array);
    // 2 metadata + 1 X + 2 (b/e) + 1 i + 1 C
    ASSERT_EQ(events.arr.size(), 7u);

    for (const Json &e : events.arr) {
        ASSERT_EQ(e.type, Json::Object);
        EXPECT_EQ(e.at("name").type, Json::String);
        EXPECT_EQ(e.at("ph").type, Json::String);
        EXPECT_EQ(e.at("pid").type, Json::Number);
    }

    const Json &x = events.arr[2];
    EXPECT_EQ(x.at("ph").str, "X");
    EXPECT_EQ(x.at("name").str, "lock");
    EXPECT_DOUBLE_EQ(x.at("ts").num, 100.0);
    EXPECT_DOUBLE_EQ(x.at("dur").num, 50.0);
    EXPECT_DOUBLE_EQ(x.at("args").at("seq").num, 1.0);

    const Json &b = events.arr[3];
    const Json &end = events.arr[4];
    EXPECT_EQ(b.at("ph").str, "b");
    EXPECT_EQ(end.at("ph").str, "e");
    EXPECT_EQ(b.at("id").str, end.at("id").str);
    EXPECT_DOUBLE_EQ(end.at("ts").num - b.at("ts").num, 60.0);

    EXPECT_EQ(events.arr[5].at("ph").str, "i");
    EXPECT_EQ(events.arr[5].at("s").str, "t");
    EXPECT_EQ(events.arr[6].at("ph").str, "C");
    EXPECT_DOUBLE_EQ(events.arr[6].at("args").at("value").num, 17.0);
}

TEST(TraceJson, DisabledCategorySuppressesEvents)
{
    TraceGuard guard;
    const std::string path = "rowsim_test_trace_gated.json";
    Trace &t = Trace::instance();
    t.configure(static_cast<std::uint32_t>(TraceCategory::Atomic));
    ASSERT_TRUE(t.openJson(path));
    t.complete(TraceCategory::Network, tracePidNetwork, 0, "GetX", 0, 10);
    t.complete(TraceCategory::Atomic, 0, traceTidAtomics, "lock", 0, 10);
    t.closeJson();

    Json root = parseJson(slurpFile(path));
    std::remove(path.c_str());
    ASSERT_EQ(root.at("traceEvents").arr.size(), 1u);
    EXPECT_EQ(root.at("traceEvents").arr[0].at("name").str, "lock");
}

// ---------------------------------------------------------------------
// End-to-end: trace a contended-counter run and cross-check the Chrome
// trace against the run report (the ISSUE acceptance criterion).
// ---------------------------------------------------------------------

TEST(TraceIntegration, LockDurationsMatchRunReport)
{
    TraceGuard guard;
    const std::string path = "rowsim_test_trace_counter.json";

    ExpConfig cfg = eagerConfig();
    SystemParams sp = makeParams(cfg, /*num_cores=*/8, /*seed=*/1);
    sp.traceCategories = "atomic,coherence";
    sp.traceJsonPath = path;

    RunResult r =
        runExperimentParams("counter", sp, cfg.label, /*quota=*/40);
    Trace::instance().closeJson();

    ASSERT_GT(r.atomicsUnlocked, 0u);
    ASSERT_GT(r.lockToUnlock, 0.0);

    Json root = parseJson(slurpFile(path));
    std::remove(path.c_str());

    double sum = 0;
    std::uint64_t n = 0;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "X" && e.at("name").str == "lock") {
            sum += e.at("dur").num;
            n++;
        }
    }
    ASSERT_GT(n, 0u);
    // Every lock->unlock interval sampled into the atomicLockToUnlockHist
    // histogram is also emitted as one "lock" complete event (same guard,
    // same operands), so the means agree exactly up to float rounding.
    EXPECT_EQ(n, r.atomicsUnlocked);
    EXPECT_NEAR(sum / static_cast<double>(n), r.lockToUnlock,
                1e-9 * (1.0 + r.lockToUnlock));

    // The JSON knows about the traced categories only.
    bool saw_network = false;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("cat").str == "network")
            saw_network = true;
    }
    EXPECT_FALSE(saw_network);
}

TEST(TraceIntegration, StatsDumpIsValidJsonWithIntervals)
{
    SystemParams sp = makeParams(eagerConfig(), /*num_cores=*/4,
                                 /*seed=*/1);
    sp.statsInterval = 500;
    System sys(sp, makeStreams(profileFor("counter"), sp.numCores,
                               sp.seed));
    sys.run(/*iter_quota=*/10);

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    sys.dumpStatsJson(tmp);
    Json root = parseJson(slurp(tmp));
    std::fclose(tmp);

    EXPECT_GT(root.at("cycles").num, 0.0);
    EXPECT_GT(root.at("instructions").num, 0.0);
    EXPECT_DOUBLE_EQ(root.at("numCores").num, 4.0);

    const Json &groups = root.at("groups");
    ASSERT_EQ(groups.type, Json::Object);
    EXPECT_EQ(groups.at("sim").type, Json::Object);
    EXPECT_GT(groups.at("sim").at("ipc").num, 0.0);
    EXPECT_GT(groups.at("core0").at("dispatched").num, 0.0);
    EXPECT_EQ(groups.at("network").type, Json::Object);

    const Json &iv = root.at("intervals");
    ASSERT_EQ(iv.type, Json::Object);
    EXPECT_DOUBLE_EQ(iv.at("period").num, 500.0);
    ASSERT_FALSE(iv.at("cycles").arr.empty());
    const Json &insts = iv.at("series").at("instructions");
    ASSERT_EQ(insts.type, Json::Array);
    EXPECT_EQ(insts.arr.size(), iv.at("cycles").arr.size());
}

TEST(TraceIntegration, RunReportJsonParsesAndMatchesFields)
{
    ExpConfig cfg = eagerConfig();
    RunResult r = runExperiment("counter", cfg, /*num_cores=*/4,
                                /*quota=*/20);
    Json j = parseJson(r.toJson());
    EXPECT_EQ(j.at("workload").str, "counter");
    EXPECT_EQ(j.at("config").str, "eager");
    EXPECT_DOUBLE_EQ(j.at("cycles").num, static_cast<double>(r.cycles));
    EXPECT_DOUBLE_EQ(j.at("atomicsUnlocked").num,
                     static_cast<double>(r.atomicsUnlocked));
    EXPECT_NEAR(j.at("lockToUnlock").num, r.lockToUnlock, 1e-4);
}

TEST(TraceOffOn, MaskDoesNotLeakIntoTheNextSystem)
{
    TraceGuard guard;
    ::unsetenv("ROWSIM_TRACE");
    ::unsetenv("ROWSIM_TRACE_RING");
    // A System that traces (and, through its checker, keeps the
    // retroactive ring) must not leave the next plain System on this
    // thread tracing: every System re-applies its own trace options.
    SystemParams traced = makeParams(eagerConfig(), 2, 1);
    traced.traceCategories = "atomic";
    traced.checkCategories = "swmr";
    {
        System a(traced, makeStreams(profileFor("pc"), 2, 1));
        EXPECT_TRUE(Trace::anyEnabled());
    }
    const SystemParams plain = makeParams(eagerConfig(), 2, 1);
    System b(plain, makeStreams(profileFor("pc"), 2, 1));
    EXPECT_FALSE(Trace::anyEnabled());
}
