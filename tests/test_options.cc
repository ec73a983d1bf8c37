/**
 * @file
 * Run-options tests: the knob table is complete and documented, every
 * knob resolves explicit value → environment → default, malformed and
 * out-of-range values and unknown ROWSIM_* variables are fatal and name
 * the knob, and the cross-knob rules keep their actions.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/profile.hh"

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

/** The fatal message resolving under the current environment throws;
 *  empty when resolution succeeds. */
std::string
resolveError(const SystemParams &params = {})
{
    try {
        resolveRunOptions(params);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

std::set<std::string>
tableNames()
{
    std::set<std::string> names;
    for (const Knob &k : knobs())
        names.insert(k.name);
    return names;
}

} // namespace

TEST(Options, TableListsEveryKnobOnce)
{
    const std::set<std::string> names = tableNames();
    EXPECT_EQ(names.size(), knobs().size()) << "a knob is listed twice";
    EXPECT_EQ(names.size(), 31u);
    for (const Knob &k : knobs()) {
        EXPECT_EQ(std::string(k.name).rfind("ROWSIM_", 0), 0u) << k.name;
        // Exactly one way to fill the field.
        EXPECT_EQ((k.text != nullptr) + (k.number != nullptr) +
                      (k.flag != nullptr) + (k.parse != nullptr),
                  1)
            << k.name;
        EXPECT_LE(k.lo, k.hi) << k.name;
    }
    EXPECT_TRUE(names.count("ROWSIM_TORTURE_SEEDS"));
}

TEST(Options, DefaultsWithNoEnvironment)
{
    const RunOptions o = resolveRunOptions();
    EXPECT_EQ(o.traceMask, 0u);
    EXPECT_EQ(o.statsInterval, 0u);
    EXPECT_FALSE(o.timeseries);
    EXPECT_EQ(o.checkInterval, 1024u);
    EXPECT_EQ(o.faults.mask, 0u);
    EXPECT_EQ(o.spansTopK, 64u);
    EXPECT_EQ(o.fastForward, FastForwardMode::On);
    EXPECT_FALSE(o.results);
    EXPECT_EQ(o.resultsDir, "rowsim-results");
    EXPECT_FALSE(o.sweepThreads.has_value());
    EXPECT_EQ(o.tortureSeeds, 16u);
}

TEST(Options, ExplicitValueBeatsEnvironmentBeatsDefault)
{
    SystemParams sp;
    EXPECT_EQ(resolveRunOptions(sp).statsInterval, 0u);
    ScopedEnv interval("ROWSIM_STATS_INTERVAL", "500");
    EXPECT_EQ(resolveRunOptions(sp).statsInterval, 500u);
    sp.statsInterval = 100;
    EXPECT_EQ(resolveRunOptions(sp).statsInterval, 100u);

    ScopedEnv profile("ROWSIM_PROFILE", "all");
    EXPECT_EQ(resolveRunOptions().profileMask, profCategoryAll);
    sp.profileCategories = 0u; // explicitly off beats the environment
    EXPECT_EQ(resolveRunOptions(sp).profileMask, 0u);

    ScopedEnv mode("ROWSIM_MODE", "func");
    EXPECT_TRUE(resolveRunOptions().funcMode);
    sp.mode = ExecMode::Detail;
    EXPECT_FALSE(resolveRunOptions(sp).funcMode);
}

TEST(Options, FastForwardEnvironmentOverridesParams)
{
    SystemParams sp;
    sp.idleFastForward = false;
    EXPECT_EQ(resolveRunOptions(sp).fastForward, FastForwardMode::Off);
    ScopedEnv ff("ROWSIM_FF", "check");
    EXPECT_EQ(resolveRunOptions(sp).fastForward, FastForwardMode::Check);
    // Fault injection draws every cycle: no fast-forward under it.
    sp.faultCategories = "netdelay";
    EXPECT_EQ(resolveRunOptions(sp).fastForward, FastForwardMode::Off);
}

TEST(Options, ImplicationsAndDerivedFaultSetup)
{
    SystemParams sp;
    sp.seed = 7;
    sp.converge = ConvergeSpec{true, "instructions", 0.1};
    sp.faultCategories = "evict";
    const RunOptions o = resolveRunOptions(sp);
    EXPECT_TRUE(o.timeseries); // convergence implies the engine
    EXPECT_EQ(o.faults.rate, 50u);
    EXPECT_EQ(o.faults.seed, 7 * 0x9e3779b97f4a7c15ULL + 1);
    {
        ScopedEnv seed("ROWSIM_FAULTS_SEED", "99");
        EXPECT_EQ(resolveRunOptions(sp).faults.seed, 99u);
    }
    // Seed and rate mean nothing without a category.
    ScopedEnv rate("ROWSIM_FAULTS_RATE", "7");
    EXPECT_EQ(resolveRunOptions().faults.rate, 0u);
}

TEST(Options, BadValuesAreFatalAndNameTheKnob)
{
    struct Case
    {
        const char *knob;
        std::string value;
    };
    std::vector<Case> cases = {
        {"ROWSIM_SWEEP_THREADS", "-1"},
        {"ROWSIM_SWEEP_THREADS", "4x"},
        {"ROWSIM_SWEEP_THREADS", "4294967295"},
        {"ROWSIM_PROFILE", "lines"},
        {"ROWSIM_PROFILE", "row"},
        {"ROWSIM_PROFILE", "check"},
        {"ROWSIM_SPANS_TOPK", "-5"},
        {"ROWSIM_FAULTS_RATE", "10001"},
        {"ROWSIM_TORTURE_SEEDS", "0"},
        {"ROWSIM_LOG_LEVEL", "loud"},
        {"ROWSIM_MODE", "fast"},
        {"ROWSIM_FF", "2"},
        {"ROWSIM_RESULTS", "sideways"},
        {"ROWSIM_SPANS", "maybe"},
        {"ROWSIM_TS", "maybe"},
        {"ROWSIM_CONVERGE", "instructions"},
        {"ROWSIM_SAMPLE", "4:2"},
    };
    // Every numeric knob rejects a sign, a unit suffix, an overflow,
    // and a value just past each end of its range.
    for (const Knob &k : knobs()) {
        if (k.hi == 0)
            continue;
        for (const char *bad : {"-1", "10k", "99999999999999999999999"})
            cases.push_back({k.name, bad});
        if (k.lo > 0)
            cases.push_back({k.name, std::to_string(k.lo - 1)});
        if (k.hi < ~std::uint64_t{0})
            cases.push_back({k.name, std::to_string(k.hi + 1)});
    }
    for (const Case &c : cases) {
        ScopedEnv env(c.knob, c.value);
        const std::string error = resolveError();
        EXPECT_NE(error.find(c.knob), std::string::npos)
            << c.knob << "=" << c.value << " gave \"" << error << "\"";
    }
    EXPECT_EQ(resolveError(), "");
}

TEST(Options, CheckedNumericValuesResolve)
{
    ScopedEnv threads("ROWSIM_SWEEP_THREADS", "0");
    ScopedEnv topk("ROWSIM_SPANS_TOPK", "3");
    const RunOptions o = resolveRunOptions();
    EXPECT_EQ(o.sweepThreads, 0u);
    EXPECT_EQ(o.spansTopK, 3u);
    EXPECT_STREQ(o.envText("ROWSIM_SPANS_TOPK"), "3");
    EXPECT_EQ(o.envText("ROWSIM_HEARTBEAT_MS"), nullptr);
}

TEST(Options, MisspeltKnobIsFatalAndListsTheValidKnobs)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            ::setenv("ROWSIM_TRCE", "atomic", 1);
            try {
                resolveRunOptions();
            } catch (const std::exception &) {
                std::abort();
            }
        },
        "unknown environment variable ROWSIM_TRCE .*ROWSIM_TRACE,");
    // A variable that merely shares the prefix of a knob is no knob,
    // and neither is a retired knob.
    for (const char *name :
         {"ROWSIM_TRACE_", "ROWSIM_CKPT", "ROWSIM_CKPT_DIR",
          "ROWSIM_PROFILE_TOPK"}) {
        ScopedEnv env(name, "x");
        const std::string error = resolveError();
        EXPECT_NE(error.find(std::string(name) + " "), std::string::npos)
            << error;
    }
}

TEST(Options, RunRulesKeepTheirActions)
{
    // Fatal: sampling cannot carry the profiler or a convergence bound.
    RunOptions sampled;
    sampled.sample.active = true;
    sampled.profileMask = profCategoryAll;
    EXPECT_THROW(applyRunRules(sampled), std::runtime_error);
    sampled.profileMask = 0;
    sampled.converge = ConvergeSpec{true, "instructions", 0.1};
    EXPECT_THROW(applyRunRules(sampled), std::runtime_error);

    // Fatal: fault injection has no functional equivalent, so neither
    // a sampled run (functional warm-up) nor a functional one takes it.
    RunOptions faulted;
    faulted.faults.mask = faultCategoryAll;
    faulted.sample.active = true;
    EXPECT_THROW(applyRunRules(faulted), std::runtime_error);
    faulted.sample.active = false;
    faulted.funcMode = true;
    EXPECT_THROW(applyRunRules(faulted), std::runtime_error);

    // Silently ignored: the result store of a run with a live sink.
    RunOptions o;
    o.results = true;
    o.heartbeat = "/dev/null";
    ::testing::internal::CaptureStderr();
    applyRunRules(o);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_FALSE(o.results);

    // A plain faulted, stored run passes untouched.
    RunOptions plain;
    plain.faults.mask = faultCategoryAll;
    plain.results = true;
    applyRunRules(plain);
    EXPECT_EQ(plain.faults.mask, faultCategoryAll);
    EXPECT_TRUE(plain.results);
}

TEST(Options, ReadmeConfigurationTableMirrorsTheKnobTable)
{
    std::ifstream in(ROWSIM_README_PATH);
    ASSERT_TRUE(in) << ROWSIM_README_PATH;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string readme = ss.str();

    // Every ROWSIM_* name README mentions is a knob.
    const std::set<std::string> names = tableNames();
    const std::regex knobName("ROWSIM_[A-Z0-9_]*[A-Z0-9]");
    for (auto it = std::sregex_iterator(readme.begin(), readme.end(),
                                        knobName);
         it != std::sregex_iterator(); ++it) {
        EXPECT_TRUE(names.count(it->str()))
            << "README names " << it->str()
            << ", which the knob table lacks";
    }

    // The Configuration table has exactly one row per knob.
    const std::size_t start = readme.find("\n## Configuration");
    ASSERT_NE(start, std::string::npos);
    const std::size_t end = readme.find("\n## ", start + 1);
    const std::string section = readme.substr(start, end - start);
    const std::regex row("\n\\| `(ROWSIM_[A-Z0-9_]+)` \\|");
    std::multiset<std::string> rows;
    for (auto it = std::sregex_iterator(section.begin(), section.end(),
                                        row);
         it != std::sregex_iterator(); ++it) {
        rows.insert((*it)[1].str());
    }
    for (const std::string &n : names)
        EXPECT_EQ(rows.count(n), 1u) << n << " in README's table";
    EXPECT_EQ(rows.size(), names.size());
}
