#include "sim/options.hh"

#include <cstdlib>
#include <cstring>
#include <initializer_list>

#include "common/timeseries.hh"
#include "common/trace.hh"
#include "sim/checker.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"

extern char **environ;

namespace rowsim
{

namespace
{

/** The checked parser every numeric knob goes through. */
std::uint64_t
numeric(const Knob &k, const char *text)
{
    const std::uint64_t v = parseEnvU64(k.name, text);
    if (v < k.lo || v > k.hi) {
        ROWSIM_FATAL("%s: value %llu outside [%llu, %llu]", k.name,
                     static_cast<unsigned long long>(v),
                     static_cast<unsigned long long>(k.lo),
                     static_cast<unsigned long long>(k.hi));
    }
    return v;
}

/** Index of @p text in @p choices; fatal naming the knob otherwise. */
unsigned
choice(const Knob &k, const char *text,
       std::initializer_list<const char *> choices)
{
    unsigned i = 0;
    std::string valid;
    for (const char *c : choices) {
        if (std::strcmp(text, c) == 0)
            return i;
        valid += (i++ ? ", " : "") + std::string(c);
    }
    ROWSIM_FATAL("bad %s '%s' (valid: %s)", k.name, text, valid.c_str());
}

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};

using O = RunOptions;

// The knob table, in README's order (a test keeps the two in step).
const Knob kKnobs[] = {
    {.name = "ROWSIM_LOG_LEVEL",
     .parse = [](O &o, const Knob &, const char *v) {
         o.logLevel = parseLogLevel(v);
     }},
    {.name = "ROWSIM_TRACE",
     .parse = [](O &o, const Knob &, const char *v) {
         o.traceMask = parseTraceCategories(v);
     }},
    {.name = "ROWSIM_TRACE_FILE", .text = &O::traceFile},
    {.name = "ROWSIM_TRACE_JSON", .text = &O::traceJson},
    {.name = "ROWSIM_TRACE_RING", .number = &O::traceRing, .hi = 1u << 20},
    {.name = "ROWSIM_STATS_INTERVAL",
     .number = &O::statsInterval, .hi = std::uint64_t{1} << 40},
    {.name = "ROWSIM_STATS_JSON", .text = &O::statsJson},
    {.name = "ROWSIM_TS", .flag = &O::timeseries},
    {.name = "ROWSIM_CONVERGE",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.converge = parseConvergeSpec(k.name, v);
     }},
    {.name = "ROWSIM_REPORT", .text = &O::report},
    {.name = "ROWSIM_PROFILE",
     .parse = [](O &o, const Knob &, const char *v) {
         o.profileMask = parseProfileCategories(v);
     }},
    {.name = "ROWSIM_PROFILE_JSON", .text = &O::profileJson},
    {.name = "ROWSIM_SPANS", .flag = &O::spans},
    {.name = "ROWSIM_SPANS_JSON", .text = &O::spansJson},
    {.name = "ROWSIM_SPANS_TOPK",
     .number = &O::spansTopK, .lo = 1, .hi = 1'000'000},
    {.name = "ROWSIM_HEARTBEAT", .text = &O::heartbeat},
    {.name = "ROWSIM_HEARTBEAT_MS",
     .number = &O::heartbeatMs, .hi = 3'600'000},
    {.name = "ROWSIM_MODE",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.funcMode = choice(k, v, {"detail", "func"}) == 1;
     }},
    {.name = "ROWSIM_FF",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.fastForward = static_cast<FastForwardMode>(
             choice(k, v, {"0", "1", "check"}));
     }},
    {.name = "ROWSIM_SAMPLE",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.sample = parseSampleSpec(k.name, v);
     }},
    {.name = "ROWSIM_RESULTS", .flag = &O::results},
    {.name = "ROWSIM_RESULTS_DIR", .text = &O::resultsDir},
    {.name = "ROWSIM_SWEEP_THREADS",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.sweepThreads = static_cast<unsigned>(numeric(k, v));
     },
     .hi = 1024},
    {.name = "ROWSIM_CHECK",
     .parse = [](O &o, const Knob &, const char *v) {
         o.checkMask = parseCheckCategories(v);
     }},
    {.name = "ROWSIM_CHECK_INTERVAL",
     .number = &O::checkInterval, .lo = 1, .hi = std::uint64_t{1} << 32},
    {.name = "ROWSIM_FAULTS",
     .parse = [](O &o, const Knob &, const char *v) {
         o.faults.mask = parseFaultCategories(v);
     }},
    {.name = "ROWSIM_FAULTS_SEED",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.faults.seed = numeric(k, v);
     },
     .hi = kU64Max},
    {.name = "ROWSIM_FAULTS_RATE",
     .parse = [](O &o, const Knob &k, const char *v) {
         o.faults.rate = static_cast<unsigned>(numeric(k, v));
     },
     .hi = 10'000},
    {.name = "ROWSIM_CRASH_JSON", .text = &O::crashJson},
    {.name = "ROWSIM_CRASH_CKPT", .text = &O::crashCkpt},
    {.name = "ROWSIM_TORTURE_SEEDS",
     .number = &O::tortureSeeds, .lo = 1, .hi = 65'536},
};

/** Fatal on any ROWSIM_* variable the table does not know. */
void
rejectUnknownKnobs()
{
    for (char **e = environ; e && *e; e++) {
        if (std::strncmp(*e, "ROWSIM_", 7) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        const std::string name(*e, eq ? eq - *e : std::strlen(*e));
        bool known = false;
        for (const Knob &k : kKnobs)
            known = known || name == k.name;
        if (!known) {
            std::string valid;
            for (const Knob &k : kKnobs)
                valid += (valid.empty() ? "" : ", ") + std::string(k.name);
            ROWSIM_FATAL("unknown environment variable %s (valid knobs: %s)",
                         name.c_str(), valid.c_str());
        }
    }
}

/** A cross-knob rule: when it applies, a Fatal rule stops the run
 *  with its message and a Silent one turns off the knob @c ignore
 *  names. */
struct RunRule
{
    enum Action { Fatal, Silent } action;
    bool (*applies)(const O &o);
    void (*ignore)(O &o);
    const char *message;
};

const RunRule kRunRules[] = {
    {RunRule::Fatal,
     [](const O &o) { return o.sample.active && o.profileMask; },
     nullptr,
     "ROWSIM_SAMPLE is incompatible with the attribution profiler "
     "(checkpoints do not carry its state); disable ROWSIM_PROFILE"},
    {RunRule::Fatal,
     [](const O &o) { return o.sample.active && o.converge.active; },
     nullptr,
     "ROWSIM_SAMPLE is incompatible with ROWSIM_CONVERGE (the stop cycle "
     "would depend on the sampling layout)"},
    // Sampling warms up in func mode, and the functional interpreter
    // has no equivalent of the injector's per-tick RNG draws.
    {RunRule::Fatal,
     [](const O &o) {
         return o.faults.mask && (o.sample.active || o.funcMode);
     },
     nullptr,
     "ROWSIM_FAULTS is incompatible with sampled (ROWSIM_SAMPLE) and "
     "functional (ROWSIM_MODE=func) runs: fault injection has no "
     "functional equivalent"},
    // A stored result replays no live sink.
    {RunRule::Silent,
     [](const O &o) { return o.results && o.liveSinks(); },
     [](O &o) { o.results = false; }, ""},
};

} // namespace

const char *
RunOptions::envText(const char *knob) const
{
    for (const auto &[name, text] : envTexts) {
        if (std::strcmp(name, knob) == 0)
            return text.c_str();
    }
    return nullptr;
}

std::span<const Knob>
knobs()
{
    return kKnobs;
}

RunOptions
resolveRunOptions(const SystemParams &params, const std::string &store_dir)
{
    rejectUnknownKnobs();

    RunOptions o;
    // ROWSIM_FF overrides the params value, so that one goes in first.
    o.fastForward = params.idleFastForward ? FastForwardMode::On
                                           : FastForwardMode::Off;
    for (const Knob &k : kKnobs) {
        const char *text = std::getenv(k.name);
        if (!text || !*text)
            continue;
        o.envTexts.emplace_back(k.name, text);
        if (k.text)
            o.*k.text = text;
        else if (k.number)
            o.*k.number = numeric(k, text);
        else if (k.flag)
            o.*k.flag = parseOnOffSpec(k.name, text);
        else
            k.parse(o, k, text);
    }

    // The environment's trace sinks belong to environment-selected
    // tracing; tracing selected by params alone writes its JSON only
    // where params say.
    if (o.traceMask == 0) {
        o.traceFile.clear();
        o.traceJson = params.traceJsonPath;
    } else if (o.traceJson.empty()) {
        o.traceJson = "rowsim.trace.json";
    }

    // Explicit values.
    if (!params.traceCategories.empty())
        o.traceMask = parseTraceCategories(params.traceCategories);
    if (params.statsInterval)
        o.statsInterval = params.statsInterval;
    if (!params.checkCategories.empty())
        o.checkMask = parseCheckCategories(params.checkCategories);
    if (params.checkInterval)
        o.checkInterval = params.checkInterval;
    if (!params.faultCategories.empty())
        o.faults.mask = parseFaultCategories(params.faultCategories);
    if (params.faultSeed)
        o.faults.seed = params.faultSeed;
    if (params.faultRate)
        o.faults.rate = params.faultRate;
    if (params.profileCategories)
        o.profileMask = *params.profileCategories;
    if (params.spans)
        o.spans = *params.spans;
    if (params.timeseries)
        o.timeseries = *params.timeseries;
    if (params.converge)
        o.converge = *params.converge;
    if (params.mode)
        o.funcMode = *params.mode == ExecMode::Func;
    if (!store_dir.empty()) {
        o.results = true;
        o.resultsDir = store_dir;
    }

    // Implications. Fault schedules stay replayable without any seed
    // set (derived from the system seed); the injector draws from its
    // RNG every cycle, so eliding ticks would change the schedule.
    if (o.faults.mask) {
        if (o.faults.seed == 0)
            o.faults.seed = params.seed * 0x9e3779b97f4a7c15ULL + 1;
        if (o.faults.rate == 0)
            o.faults.rate = 50;
        o.fastForward = FastForwardMode::Off;
    } else {
        o.faults = {};
    }
    if (o.converge.active)
        o.timeseries = true;

    setLogLevel(o.logLevel);
    return o;
}

void
applyRunRules(RunOptions &o)
{
    for (const RunRule &rule : kRunRules) {
        if (!rule.applies(o))
            continue;
        if (rule.action == RunRule::Fatal)
            ROWSIM_FATAL("%s", rule.message);
        rule.ignore(o);
    }
}

} // namespace rowsim
