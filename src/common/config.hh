/**
 * @file
 * System configuration. Defaults reproduce Table I of the paper
 * (Intel Alder Lake performance-core-like parameters, 32 cores).
 */

#ifndef ROWSIM_COMMON_CONFIG_HH
#define ROWSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"

namespace rowsim
{

/** When is an atomic RMW allowed to issue its memory access? */
enum class AtomicPolicy : std::uint8_t
{
    /** As soon as its operands are ready (the baseline in the paper). */
    Eager,
    /** Once it is the oldest memory instruction in the LQ and the SB has
     *  drained (minimal cache-locking time). */
    Lazy,
    /** Decided per-atomic by the RoW contention predictor. */
    RoW,
    /** Legacy fenced implementation: the atomic additionally blocks the
     *  issue of younger memory instructions until it fully completes
     *  (models pre-Coffee-Lake parts; used by the Fig. 2 microbenchmark). */
    Fenced,
};

/** How does RoW detect that an atomic faced contention? (§IV-A..C) */
enum class ContentionDetector : std::uint8_t
{
    /** Execution Window: external requests hitting a *locked* line. */
    EW,
    /** Ready Window: external requests matching any in-flight atomic's
     *  address from operand-ready time onward. */
    RW,
    /** RW plus the directory/latency heuristic: the fill came from a remote
     *  private cache and took longer than latencyThreshold cycles. */
    RWDir,
    /** RW plus explicit directory notification: the directory marks data
     *  responses of transactions that observed concurrent interest
     *  (queued requesters). This is the alternative design §IV-C
     *  mentions and rejects to keep the coherence protocol intact;
     *  implemented here for comparison. */
    RWDirNotify,
};

/** Saturating-counter update policy of the contention predictor (§IV-D). */
enum class PredictorUpdate : std::uint8_t
{
    /** +1 on contention, -1 otherwise; lazy when counter > threshold(=1). */
    UpDown,
    /** Saturate to max on contention, -1 otherwise; lazy when counter >
     *  threshold(=0). */
    SaturateOnContention,
    /** +2 on contention, -1 otherwise — the alternative the paper
     *  evaluated and found inferior to the two above (§IV-D). Lazy when
     *  counter > threshold(=1). */
    TwoUpOneDown,
};

/** Execution mode of a run. */
enum class ExecMode : std::uint8_t
{
    /** Cycle-accurate out-of-order pipeline. */
    Detail,
    /** Multi-instruction-per-tick functional interpreter that keeps
     *  caches, directory state, and branch/RoW predictors warm while
     *  skipping ROB/LSQ/AQ bookkeeping (src/sim/funcmode.cc). */
    Func,
};

/** Convergence-bounded-run request: stop at the first interval
 *  boundary where the batch-means CI half-width of @c metric, relative
 *  to its mean, is <= relHalfwidth at the given confidence. Implies
 *  the time-series engine; the iteration quota stays the upper bound. */
struct ConvergeSpec
{
    bool active = false;
    std::string metric;
    /** Stop once halfwidth / |mean| <= relHalfwidth. */
    double relHalfwidth = 0;
    double confidence = 0.95;
};

/** Rush-or-Wait mechanism configuration (§IV). */
struct RowConfig
{
    ContentionDetector detector = ContentionDetector::RWDir;
    PredictorUpdate update = PredictorUpdate::SaturateOnContention;

    /** Predictor geometry: 64 entries x 4-bit counters, XOR-indexed. */
    unsigned predictorEntries = 64;
    unsigned counterBits = 4;

    /** Remote-fill latency above which the Dir detector flags contention.
     *  The paper finds 400 cycles optimal (Fig. 10). */
    Cycle latencyThreshold = 400;

    /** Width of the AQ request-issued-cycle timestamp field (§IV-C). */
    unsigned timestampBits = 14;

    /** Promote predicted-lazy atomics to eager when a matching older store
     *  is found in the SB (atomic locality, §IV-E). */
    bool localityPromotion = true;
};

/** Core pipeline parameters (Table I). */
struct CoreParams
{
    unsigned fetchWidth = 6;
    unsigned issueWidth = 12;
    unsigned commitWidth = 12;

    unsigned robEntries = 512;
    unsigned lqEntries = 192;
    /** Unified store queue; the post-commit tail is the architectural SB. */
    unsigned sbEntries = 128;
    unsigned aqEntries = 16;
    unsigned iqEntries = 160;

    /** Branch misprediction redirect penalty (front-end refill). */
    unsigned mispredictPenalty = 14;

    /** Cycles to bring a waiting atomic back through the issue stage
     *  (wakeup + select + issue) when its lazy/store-wait condition is
     *  met. During this window a contended line acquired by an older
     *  store can be stolen — the atomic-locality effect of §IV-E. */
    unsigned atomicReissueDelay = 8;

    /** Whether older stores may forward data to loads (and, when the RoW
     *  locality optimisation is on, to atomics). */
    bool storeToLoadForwarding = true;
    /** Whether forwarding to *atomics* is enabled (Fig. 13 experiments). */
    bool forwardToAtomics = false;

    AtomicPolicy atomicPolicy = AtomicPolicy::Eager;
    RowConfig row;
};

/** Memory hierarchy parameters (Table I). */
struct MemParams
{
    // L1D: 48KB, 12 ways, 5-cycle hit.
    unsigned l1Sets = 64;
    unsigned l1Ways = 12;
    Cycle l1HitLatency = 5;

    // Private L2: 1MB, 8 ways, 12-cycle hit.
    unsigned l2Sets = 2048;
    unsigned l2Ways = 8;
    Cycle l2HitLatency = 12;

    // Shared L3: 4MB per bank, 16 ways, 35-cycle hit. Nominal: the set
    // index aliases with the home-bank bits, so at 32 cores a bank
    // reaches 128 of these sets (DESIGN.md section 5).
    unsigned l3SetsPerBank = 4096;
    unsigned l3Ways = 16;
    Cycle l3HitLatency = 35;

    Cycle memoryLatency = 160;

    unsigned mshrs = 32;

    /** Simple IP-stride style prefetch (next-line on miss) for regular
     *  loads; never prefetches for atomics. */
    bool prefetcher = true;

    /** Stall age beyond which an external request steals a pre-commit
     *  atomic's lock (cross-core deadlock avoidance; see DESIGN.md). */
    Cycle lockStealThreshold = 5000;
};

/** On-chip network parameters (GARNET-substitute mesh). */
struct NetParams
{
    /** Per-hop router+link latency. */
    Cycle hopLatency = 2;
    /** Mesh side length is derived from core count (square-ish mesh). */
};

/** Whole-system configuration. */
struct SystemParams
{
    unsigned numCores = 32;
    CoreParams core;
    MemParams mem;
    NetParams net;

    std::uint64_t seed = 1;

    /** Watchdog: abort if no instruction commits globally for this many
     *  cycles (deadlock detection; invariant #4 in DESIGN.md). */
    Cycle deadlockCycles = 2'000'000;

    /**
     * Idle fast-forward: when every core and memory-side component
     * reports no schedulable work before some future cycle, System::run
     * jumps the clock to that cycle instead of ticking through the idle
     * window. Simulated results are identical by construction (the skip
     * bound is conservative); auto-disabled under fault injection, whose
     * per-cycle RNG draws make the schedule depend on every tick.
     * Unlike the fields below, ROWSIM_FF overrides this one.
     */
    bool idleFastForward = true;

    // ---- run options (src/sim/options.hh) ----
    // Each field below, when set (non-empty, non-zero or engaged),
    // overrides the ROWSIM_* knob it names; an unset field defers to the
    // environment, then to the knob's default. The options module
    // resolves them once per run; its table documents every knob.

    std::string traceCategories;     ///< ROWSIM_TRACE
    /** Chrome trace path of a run traced through traceCategories. */
    std::string traceJsonPath;
    Cycle statsInterval = 0;         ///< ROWSIM_STATS_INTERVAL
    std::string checkCategories;     ///< ROWSIM_CHECK
    Cycle checkInterval = 0;         ///< ROWSIM_CHECK_INTERVAL
    std::string faultCategories;     ///< ROWSIM_FAULTS
    std::uint64_t faultSeed = 0;     ///< ROWSIM_FAULTS_SEED
    unsigned faultRate = 0;          ///< ROWSIM_FAULTS_RATE
    /** ROWSIM_PROFILE, as a ProfCategory mask (sim/profile.hh). */
    std::optional<std::uint32_t> profileCategories;
    std::optional<bool> spans;       ///< ROWSIM_SPANS
    std::optional<bool> timeseries;  ///< ROWSIM_TS
    std::optional<ConvergeSpec> converge; ///< ROWSIM_CONVERGE
    /** ROWSIM_MODE. Deliberately excluded from configFingerprint:
     *  checkpoints written by a functional warm-up restore into a
     *  detail run of the same architectural config. */
    std::optional<ExecMode> mode;
};

} // namespace rowsim

#endif // ROWSIM_COMMON_CONFIG_HH
