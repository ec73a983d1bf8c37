/**
 * @file
 * Whole-chip assembly: cores + private caches + directory banks + network,
 * with the run loop and aggregate statistics used by every experiment.
 */

#ifndef ROWSIM_SIM_SYSTEM_HH
#define ROWSIM_SIM_SYSTEM_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/heartbeat.hh"
#include "common/stats.hh"
#include "common/timeseries.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "cpu/stream.hh"
#include "mem/memsystem.hh"
#include "sim/checker.hh"
#include "sim/faults.hh"
#include "sim/options.hh"
#include "sim/profile.hh"
#include "sim/span.hh"

namespace rowsim
{

/**
 * A simulated multicore running one InstStream per core.
 */
class System
{
  public:
    /** A System configured by @p params and the environment (the run
     *  options @p params resolve to now). */
    System(const SystemParams &params,
           std::vector<std::unique_ptr<InstStream>> streams);
    /** A System under run options already resolved for @p params. */
    System(const SystemParams &params, const RunOptions &opts,
           std::vector<std::unique_ptr<InstStream>> streams);
    ~System();

    /**
     * Run until every core has committed @p iter_quota workload
     * iterations (cores halt individually on reaching the quota, like
     * threads arriving at a final barrier).
     *
     * @return the cycle at which the last core reached the quota — the
     *         "execution time" every figure normalises.
     */
    Cycle run(std::uint64_t iter_quota);

    /**
     * Run like run(), but return as soon as every core has committed at
     * least @p warm_iters iterations, without halting any core: the
     * caller can checkpoint the warmed-up system here and a later
     * restore + run(iter_quota) replays the cold run bit-exactly.
     * @p warm_iters must satisfy 0 < warm_iters < iter_quota.
     */
    Cycle runWarmup(std::uint64_t iter_quota, std::uint64_t warm_iters);

    /** Advance exactly @p cycles (micro-tests). */
    void runCycles(Cycle cycles);

    // ---- functional fast mode (src/sim/funcmode.cc) ----

    /**
     * Run the functional fast-mode interpreter: every cycle each
     * unhalted core architecturally retires a batch of micro-ops —
     * values, caches, directory state, and branch/RoW predictors stay
     * warm via the synchronous funcAccess path — with no out-of-order
     * bookkeeping and nothing ever in flight. Same quota/warmup
     * contract as run()/runWarmup(): when @p warm_iters is non-zero the
     * loop returns (cores unhalted) once every core committed that
     * many iterations, and the state can be checkpointed and resumed
     * in either mode at any cycle boundary. Refused (fatal) under
     * fault injection, whose per-tick RNG draws have no functional
     * equivalent. Must start from a quiesced system (nothing in
     * flight), which construction and drain() both guarantee. Both
     * functional entry points run every enabled checker category
     * once on return.
     */
    Cycle runFunctional(std::uint64_t iter_quota,
                        std::uint64_t warm_iters = 0);

    /**
     * Functionally retire until core @p c has committed exactly
     * @p targets[c] instructions (targets below the current counts are
     * already met). The cross-validation drill runs detail to quota,
     * reads each core's committed count, and replays a func run to the
     * same per-core counts before comparing funcStateDigest()s.
     */
    void runFunctionalToInstCounts(
        const std::vector<std::uint64_t> &targets);

    /**
     * SHA-256 hex digest of the mode-independent architectural facts:
     * config fingerprint, per-core committed instruction / atomic /
     * iteration counts, and the functional memory image. Cache arrays,
     * predictors, and LRU state are deliberately excluded — they are
     * timing-dependent and legitimately differ between modes — so this
     * digest is equal between a detail run and a func run of the same
     * order-insensitive workload stopped at the same per-core counts
     * (see DESIGN.md, functional/detail state contract).
     */
    std::string funcStateDigest() const;

    /** Per-component digests of the architectural pass, in save order
     *  (one entry per snapshot section marker: cycle, core0.., memsys,
     *  faults). CI uses these to turn a bare golden-digest mismatch
     *  into a named-structure diff. */
    std::vector<std::pair<std::string, std::string>> sectionDigests() const;

    // ---- checkpoint / restore (see src/sim/snapshot.hh) ----

    /** Serialize the complete simulation state: the architectural pass
     *  (everything deciding future simulated behaviour — integer-only,
     *  hashed by stateDigest()), the auxiliary pass (watchdog /
     *  fast-forward bookkeeping) and the statistics pass. */
    void save(Ser &s) const;
    /** Restore a state written by save() into this — identically
     *  configured — System; throws SnapshotError naming the first
     *  mismatching structure otherwise. */
    void restore(Deser &d);

    /** 64-bit digest of the architectural configuration (widths, queue
     *  capacities, cache geometry, policies, seed, fault setup).
     *  Embedded in checkpoint files so an image can never be restored
     *  under different parameters; observability knobs are excluded
     *  because they never change simulated behaviour. */
    std::uint64_t configFingerprint() const;

    /** Canonical SHA-256 hex digest over the architectural state (config
     *  fingerprint + the integer-only arch pass). Bit-stable across
     *  compilers and platforms; CI compares these as golden values. */
    std::string stateDigest() const;

    /** Write / read a whole-System checkpoint file (container format in
     *  snapshot.hh). Throws SnapshotError on any failure; refused while
     *  the attribution profiler is active, whose incremental state the
     *  v1 format does not carry. */
    void saveCheckpoint(const std::string &path) const;
    void restoreCheckpoint(const std::string &path);

    /** Halt every core and tick until pipelines and the memory system
     *  fully quiesce (atomicity invariant checks read memory after).
     *  Panics — naming the components that failed to quiesce — when the
     *  system does not settle within the deadlock bound. */
    void drain();

    Core &core(CoreId id) { return *cores[id]; }
    unsigned numCores() const { return static_cast<unsigned>(cores.size()); }
    MemSystem &mem() { return memsys; }
    Cycle now() const { return currentCycle; }
    const SystemParams &params() const { return params_; }
    const RunOptions &options() const { return opts_; }

    /** Dump every statistic group as one machine-readable JSON object:
     *  sim totals, every group's counters/averages/formulas, and the
     *  interval-stats time series when sampling is enabled. */
    void dumpStatsJson(std::FILE *out) const;
    /** dumpStatsJson() rendered into a string. */
    std::string statsJson() const;

    /** System-level derived stats (ipc, contendedPct, ...). */
    StatGroup &simStats() { return simStats_; }

    /** The invariant checker (always constructed; sweeps only when the
     *  static check mask is non-zero). */
    Checker &checker() { return *checker_; }
    /** The fault injector; nullptr unless faults are enabled. */
    FaultInjector *faults() { return faults_.get(); }
    /** The attribution profiler; nullptr unless profiling is enabled. */
    Profiler *profiler() { return profiler_.get(); }
    const Profiler *profiler() const { return profiler_.get(); }
    /** The span tracker; nullptr unless span tracing is enabled. */
    SpanTracker *spans() { return spans_.get(); }
    const SpanTracker *spans() const { return spans_.get(); }
    /** The interval sampler (enabled via ROWSIM_STATS_INTERVAL or the
     *  time-series engine) and its engine (ROWSIM_TS, or implied by
     *  ROWSIM_CONVERGE); see common/timeseries.hh. */
    const IntervalSampler &sampler() const { return sampler_; }

    /**
     * Emit the crash diagnostics snapshot: a human-visible marker pair
     * around one JSON object (per-core pipeline heads and locked lines,
     * per-cache MSHRs/writebacks, directory Blocked entries, in-flight
     * messages, and the last-K trace events from the retroactive ring)
     * to stderr, and to the ROWSIM_CRASH_JSON file when set. Installed
     * as a panic hook, so every panic (checker violation, watchdog,
     * drain failure) dumps before unwinding.
     */
    void dumpCrashDiagnostics(const char *reason);

    /** One-line "what is stuck" summary naming un-quiesced components. */
    std::string stuckSummary();

    /** Cycles elided by the idle fast-forward so far (perf telemetry;
     *  deliberately not a statistic, so stats dumps are bit-identical
     *  with fast-forward on and off). */
    Cycle fastForwardedCycles() const { return ffSkipped_; }

    /** Sum of a per-core counter across all cores. */
    std::uint64_t totalCounter(const std::string &name) const;
    /** Count-weighted mean of a per-core Average across all cores. */
    double meanAverage(const std::string &name) const;
    /** Count-weighted mean of a per-cache Average across all caches. */
    double meanCacheAverage(const std::string &name) const;
    std::uint64_t totalInstructions() const;
    std::uint64_t totalAtomics() const;

  private:
    void tick();
    /** Shared body of run() / runWarmup(): run to @p iter_quota, or —
     *  when @p warm_iters is non-zero — return early (cores unhalted)
     *  once every core has committed warm_iters iterations. */
    Cycle runLoop(std::uint64_t iter_quota, std::uint64_t warm_iters);
    /** The snapshot field list (see save()): the architectural pass
     *  visitArch(), then the auxiliary and statistics passes. */
    template <class Ar> void visit(Ar &ar);
    template <class Ar> void visitArch(Ar &ar);
    /** Call @p f on every statistic group in the one canonical order —
     *  sim, then per core {core, branch predictor, RoW predictor, L1},
     *  then per directory bank, then network — the order snapshots,
     *  stats JSON and the fast-forward check all share. */
    template <typename F>
    void
    forEachStatGroup(F &&f)
    {
        f(simStats_);
        for (CoreId c = 0; c < cores.size(); c++) {
            f(cores[c]->stats());
            f(cores[c]->branchPredictor().stats());
            f(cores[c]->predictor().stats());
            f(memsys.cache(c).stats());
        }
        for (unsigned b = 0; b < memsys.numBanks(); b++)
            f(memsys.directory(b).stats());
        f(memsys.network().stats());
    }
    /** Rare per-tick services (interval sample, checker sweep, watchdog
     *  scan), entered only when currentCycle reaches the precomputed
     *  nextServiceCycle_ — the common-case tick does one comparison. */
    void serviceTick();
    void recomputeNextService();
    /** End of a functional segment: re-anchor the timing-side
     *  bookkeeping at currentCycle and sweep the enabled checks. */
    void finishFunctional();
    /** Earliest cycle anything can happen absent new work; invalidCycle
     *  when fully quiescent. */
    Cycle nextEventCycle() const;
    /** Jump currentCycle to just before the next event when the whole
     *  system is idle (run() only). */
    void maybeFastForward();
    /** Apply trace / interval-stats / time-series options. */
    void setupObservability();
    /** Heartbeat run-progress probe, entered from runLoop on a coarse
     *  cycle grid; emits when the wall-clock period elapsed. */
    void heartbeatProbe(std::uint64_t iter_quota);
    /** Wire the invariant checker and fault injector. */
    void setupSelfChecking();
    /** Wire the Profiler into cores / caches / directory banks. */
    void setupProfiling();
    /** Wire the SpanTracker into cores / caches / banks / network. */
    void setupSpans();
    /** Per-core / per-structure forward-progress watchdog: panics naming
     *  the stuck component instead of a bare global "deadlock?". */
    void watchdogScan();
    /** Body of dumpCrashDiagnostics, reusable per sink. */
    void emitCrashJson(std::FILE *out, const char *reason);

    SystemParams params_;
    RunOptions opts_;
    MemSystem memsys;
    std::vector<std::unique_ptr<InstStream>> streams_;
    std::vector<std::unique_ptr<Core>> cores;

    Cycle currentCycle = 0;

    /** Per-core commit progress for the watchdog. */
    struct CoreProgress
    {
        std::uint64_t insts = 0;
        Cycle cycle = 0;
    };
    std::vector<CoreProgress> coreProgress_;
    Cycle watchdogPeriod_ = 4096;
    Cycle lastWatchdogScan_ = 0;
    Cycle lastStructScan_ = 0;
    bool dumpingCrash_ = false;

    /** Next cycle any rare service (interval sample, checker sweep,
     *  watchdog scan) is due; 0 forces a recompute on the first tick. */
    Cycle nextServiceCycle_ = 0;
    Cycle ffSkipped_ = 0;
    /** Ticks to wait before the next skip attempt. A failed attempt
     *  (something is schedulable next tick) costs an O(cores) scan, so
     *  busy phases back off instead of paying it every tick; skipping
     *  later or less is always result-equivalent. */
    Cycle ffBackoff_ = 0;
    /** Current backoff magnitude; doubles on consecutive failed probes
     *  (capped), resets to 0 on a successful skip. */
    Cycle ffBackoffLen_ = 0;

    std::unique_ptr<Checker> checker_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<Profiler> profiler_;
    std::unique_ptr<SpanTracker> spans_;

    IntervalSampler sampler_;
    StatGroup simStats_{"sim"};

    /** Heartbeat sink state (common/heartbeat.hh). The enable flag is
     *  resolved once per System; the run loop then pays one comparison
     *  per tick until the next coarse-grid probe. */
    Heartbeat hb_;
    bool hbEnabled_ = false;
    std::uint64_t hbStartMs_ = 0;
    std::uint64_t hbLastMs_ = 0;
    Cycle hbLastCycle_ = 0;
    Cycle hbNextProbe_ = 0;

    /** Size of the last image save() wrote: the next save reserves it
     *  (host-side only, never in an image). */
    mutable std::size_t lastImageBytes_ = 0;
};

} // namespace rowsim

#endif // ROWSIM_SIM_SYSTEM_HH
