/**
 * @file
 * Run options: every ROWSIM_* environment knob, resolved in one place.
 *
 * The knob table (knobs()) is the only code that reads ROWSIM_*
 * variables; README.md's "Configuration" table documents each knob.
 * resolveRunOptions() fills one typed RunOptions in a single precedence
 * pass per knob: an explicit value (the SystemParams / ExpConfig field
 * naming the knob, when set), else the environment, else the default —
 * except ROWSIM_FF, which overrides SystemParams::idleFastForward. An
 * unknown ROWSIM_* variable, or a malformed or out-of-range value, is
 * fatal and names the knob.
 *
 * Resolution happens per run (each System, runExperiment and sweep),
 * so a variable set between two runs applies to the second. The System,
 * the result-store key, the cross-knob rules and the output sinks of a
 * run all read the same resolved struct.
 */

#ifndef ROWSIM_SIM_OPTIONS_HH
#define ROWSIM_SIM_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "sim/faults.hh"

namespace rowsim
{

/** Idle fast-forward operating mode (ROWSIM_FF): the System's skip of
 *  idle windows and each core's idle sleep (Core::setSleepMode). */
enum class FastForwardMode : std::uint8_t
{
    Off,
    On,
    /** Equivalence-assert mode: tick through each predicted idle
     *  window and each core sleep, and panic if anything acted. */
    Check,
};

/** Parsed ROWSIM_SAMPLE spec: `<n_ckpts>:<warm>:<detail>[:<conf>]`
 *  (iterations per core; confidence defaults to 0.95). */
struct SampleSpec
{
    bool active = false;
    unsigned checkpoints = 0;
    std::uint64_t warmIters = 0;
    std::uint64_t detailIters = 0;
    double confidence = 0.95;
};

/** Every knob of one run, resolved; member defaults are the knob
 *  defaults. */
struct RunOptions
{
    LogLevel logLevel = LogLevel::Info;

    // Tracing: sink categories, text sink (empty = stderr), Chrome
    // trace (empty = none), retroactive ring (0 = off; self-checking
    // runs then keep 256 events).
    std::uint32_t traceMask = 0;
    std::string traceFile;
    std::string traceJson;
    std::uint64_t traceRing = 0;

    // Interval statistics as requested (0 = none; the time-series
    // engine then samples every 8192 cycles), time series, convergence.
    Cycle statsInterval = 0;
    bool timeseries = false; ///< implied by converge
    ConvergeSpec converge;

    // Self-checking and fault injection (faults.mask == 0: none).
    std::uint32_t checkMask = 0;
    Cycle checkInterval = 1024;
    FaultSetup faults;

    // Attribution.
    std::uint32_t profileMask = 0;
    bool spans = false;
    std::uint64_t spansTopK = 64;

    // Execution.
    bool funcMode = false;
    FastForwardMode fastForward = FastForwardMode::On;
    SampleSpec sample;

    // Output sinks (empty = off; "-" = stdout where a sink allows it).
    std::string report;
    std::string profileJson;
    std::string spansJson;
    std::string statsJson;
    std::string crashJson;
    std::string crashCkpt;
    std::string heartbeat;
    std::uint64_t heartbeatMs = 250;

    bool results = false;
    std::string resultsDir = "rowsim-results";

    // Sweep policy (threads unset: hardware concurrency; 0: serial).
    std::optional<unsigned> sweepThreads;

    std::uint64_t tortureSeeds = 16; ///< seeds of the torture tests

    /** The knobs the environment set, with their text as given. */
    std::vector<std::pair<const char *, std::string>> envTexts;

    /** The text the environment gave @p knob; nullptr when unset. */
    const char *envText(const char *knob) const;
    /** A live sink a stored result cannot replay is on. */
    bool
    liveSinks() const
    {
        return !statsJson.empty() || traceMask || traceRing ||
               !heartbeat.empty();
    }
};

/**
 * Resolve every knob for a run of @p params: explicit value, then
 * environment, then default. A non-empty @p store_dir selects the
 * result store explicitly (ROWSIM_RESULTS=on with that directory).
 * Fatal on an unknown ROWSIM_* variable or a malformed value. Also
 * applies the log level, which is process-wide.
 */
RunOptions resolveRunOptions(const SystemParams &params = {},
                             const std::string &store_dir = "");

/**
 * Apply the cross-knob rules to the options of one run (sampling ×
 * profiler / convergence, fault injection × sampling / func mode,
 * result store × live sinks). A fatal rule throws; the others turn the
 * ignored knob off in @p o silently.
 */
void applyRunRules(RunOptions &o);

/** One row of the knob table: the variable and the field it fills —
 *  a text, number or on/off field directly, anything else through
 *  @c parse. */
struct Knob
{
    const char *name;
    std::string RunOptions::*text = nullptr;
    std::uint64_t RunOptions::*number = nullptr;
    bool RunOptions::*flag = nullptr;
    void (*parse)(RunOptions &, const Knob &, const char *) = nullptr;
    /** Numeric knobs (number, or parse through numeric()): the
     *  inclusive range; hi == 0 marks a non-numeric knob. */
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

/** Every ROWSIM_* knob, in documentation order. */
std::span<const Knob> knobs();

} // namespace rowsim

#endif // ROWSIM_SIM_OPTIONS_HH
