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
    EXPECT_EQ(names.size(), 40u);
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
    EXPECT_EQ(o.tsWindow, 512u);
    EXPECT_EQ(o.checkInterval, 1024u);
    EXPECT_EQ(o.faults.mask, 0u);
    EXPECT_EQ(o.profileTopK, 16u);
    EXPECT_EQ(o.spansTopK, 64u);
    EXPECT_EQ(o.fastForward, FastForwardMode::On);
    EXPECT_EQ(o.ckpt, CkptMode::Off);
    EXPECT_EQ(o.ckptDir, "rowsim-ckpt");
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
        {"ROWSIM_PROFILE_TOPK", "-5"},
        {"ROWSIM_PROFILE_TOPK", "0"},
        {"ROWSIM_SPANS_TOPK", "-5"},
        {"ROWSIM_SWEEP_RETRIES", "4294967296"},
        {"ROWSIM_TS_WINDOW", "0"},
        {"ROWSIM_FAULTS_RATE", "10001"},
        {"ROWSIM_TORTURE_SEEDS", "0"},
        {"ROWSIM_LOG_LEVEL", "loud"},
        {"ROWSIM_MODE", "fast"},
        {"ROWSIM_FF", "2"},
        {"ROWSIM_CKPT", "sometimes"},
        {"ROWSIM_SWEEP_ISOLATE", "fiber"},
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
    ScopedEnv retries("ROWSIM_SWEEP_RETRIES", "100");
    ScopedEnv topk("ROWSIM_PROFILE_TOPK", "3");
    const RunOptions o = resolveRunOptions();
    EXPECT_EQ(o.sweepThreads, 0u);
    EXPECT_EQ(o.sweepRetries, 100u);
    EXPECT_EQ(o.profileTopK, 3u);
    EXPECT_STREQ(o.envText("ROWSIM_PROFILE_TOPK"), "3");
    EXPECT_EQ(o.envText("ROWSIM_SPANS_TOPK"), nullptr);
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
    // A variable that merely shares the prefix of a knob is no knob.
    ScopedEnv near("ROWSIM_TRACE_", "x");
    EXPECT_NE(resolveError().find("ROWSIM_TRACE_ "), std::string::npos);
}

TEST(Options, RunRulesKeepTheirActions)
{
    // Fatal: sampling cannot carry the profiler or a convergence bound.
    RunOptions sampled;
    sampled.sample.active = true;
    sampled.profileMask = profCategoryAll;
    EXPECT_THROW(applyRunRules(sampled, 100), std::runtime_error);
    sampled.profileMask = 0;
    sampled.converge = ConvergeSpec{true, "instructions", 0.1};
    EXPECT_THROW(applyRunRules(sampled, 100), std::runtime_error);

    // Warn and ignore: the warmup checkpoint under the profiler, under
    // convergence, or outside the quota.
    for (int which = 0; which < 3; which++) {
        RunOptions o;
        o.ckpt = CkptMode::Auto;
        if (which == 0)
            o.profileMask = profCategoryAll;
        if (which == 1)
            o.converge = ConvergeSpec{true, "instructions", 0.1};
        if (which == 2)
            o.ckptAt = 100;
        ::testing::internal::CaptureStderr();
        applyRunRules(o, 100);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(o.ckpt, CkptMode::Off) << which;
        EXPECT_NE(err.find("ROWSIM_CKPT ignored"), std::string::npos)
            << which;
    }

    // Silently ignored: the checkpoint of a sampled or functional run,
    // and the result store of a run with a live sink.
    RunOptions o;
    o.ckpt = CkptMode::Save;
    o.funcMode = true;
    o.results = true;
    o.heartbeat = "/dev/null";
    ::testing::internal::CaptureStderr();
    applyRunRules(o, 100);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(o.ckpt, CkptMode::Off);
    EXPECT_FALSE(o.results);

    // A plain checkpointed, stored run passes untouched.
    RunOptions plain;
    plain.ckpt = CkptMode::Restore;
    plain.results = true;
    applyRunRules(plain, 100);
    EXPECT_EQ(plain.ckpt, CkptMode::Restore);
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
