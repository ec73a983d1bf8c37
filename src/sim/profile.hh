/**
 * @file
 * Runtime-gated attribution profiler.
 *
 * Modelled on the trace (src/common/trace.hh) and checker
 * (src/sim/checker.hh) layers: every profile point compiles to a single
 * branch on a static, thread-local category bitmask, so leaving
 * profiling off costs one predictable branch per hook. With categories
 * enabled (ROWSIM_PROFILE env var or SystemParams::profileCategories)
 * the profiler aggregates — without storing per-event logs — the three
 * attributions the paper's evidence rests on:
 *
 *  - cpi:   per-core CPI stacks. Every commit slot of every cycle is
 *           classified as retired or charged to the reason the commit
 *           head could not retire (frontend starvation, ROB full,
 *           store-queue drain, lazy-atomic wait, atomic execution,
 *           coherence miss, idle), gem5-O3 style, so the lazy-vs-eager
 *           cost of an atomic policy is read directly off the stack.
 *  - lines: per-cacheline contention profiles, keyed by line address:
 *           lock-hold cycles, acquire counts, distinct acquiring cores,
 *           ping-pong ownership transfers, lock steals, directory queue
 *           depth. A top-K dump names the hot lock lines.
 *  - row:   RoW decision audit: per-PC cross-tab of predicted
 *           eager/lazy × observed contended/uncontended (the Fig. 12
 *           accuracy from first principles) plus a mispredict-cost
 *           estimate in cycles.
 *  - check: slot-conservation self-check — at end of run (and at dump)
 *           every core's CPI stack must sum to cycles × commitWidth;
 *           a mismatch panics naming the core (ROWSIM_FF=check style).
 *
 * State is per-System (one Profiler instance), so profiled jobs compose
 * with the parallel sweep engine; only the category mask is static and
 * thread-local, and System::setupProfiling() unconditionally resets it
 * per construction, so a profiled job never leaks its mask into the
 * next job on the same worker thread.
 */

#ifndef ROWSIM_SIM_PROFILE_HH
#define ROWSIM_SIM_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace rowsim
{

/** One bit per attribution family; combined into the runtime mask. */
enum class ProfCategory : std::uint32_t
{
    Cpi   = 1u << 0, ///< per-core commit-slot CPI stacks
    Lines = 1u << 1, ///< per-cacheline contention table
    Row   = 1u << 2, ///< RoW predicted × observed decision audit
    Check = 1u << 3, ///< slot-conservation assertion (implies cpi use)
};

constexpr std::uint32_t profCategoryAll = (1u << 4) - 1;

/** The mask bit of @p c. */
constexpr std::uint32_t
profMask(ProfCategory c)
{
    return static_cast<std::uint32_t>(c);
}

const char *profCategoryName(ProfCategory c);

/**
 * Parse a comma-separated category list ("cpi,lines", "all", "none")
 * into a bitmask. Unknown names are a user error (fatal). An empty
 * string yields 0 (profiling off).
 */
std::uint32_t parseProfileCategories(const std::string &spec);

/** Where each commit slot of each cycle goes. Retired is the useful
 *  slot; the rest are the one reason the commit head was blocked (all
 *  unfilled slots of a cycle are charged to that single reason). */
enum class CpiBucket : unsigned
{
    Retired = 0,    ///< instruction committed in this slot
    FrontendStall,  ///< ROB empty: fetch/decode starvation
    RobFull,        ///< dispatch backpressure (head still executing)
    Exec,           ///< head incomplete in the execution core
    SqDrainWait,    ///< head blocked on store-queue / store-buffer drain
    AtomicLazyWait, ///< lazy atomic waiting to reach LQ/SQ head
    AtomicExecute,  ///< atomic locking / executing at the L1
    CoherenceMiss,  ///< head blocked on an outstanding miss (MSHR live)
    Idle,           ///< core halted (quota reached) or FF-skipped window
    NumBuckets,
};

constexpr unsigned numCpiBuckets =
    static_cast<unsigned>(CpiBucket::NumBuckets);

const char *cpiBucketName(CpiBucket b);

/**
 * The per-System attribution profiler. All aggregation state lives in
 * the instance; the category mask is static thread-local so the hook
 * gates are one branch with no instance lookup.
 */
class Profiler
{
  public:
    Profiler(unsigned num_cores, unsigned commit_width);

    /** Fast inline gates. */
    static bool anyEnabled() { return mask_ != 0; }
    static bool
    enabled(ProfCategory c)
    {
        return (mask_ & static_cast<std::uint32_t>(c)) != 0;
    }

    /** Mask and top-K control (each System applies its run options;
     *  tests). */
    static void
    configure(std::uint32_t mask, std::uint64_t top_k = kDefaultTopK)
    {
        mask_ = mask;
        topK_ = top_k;
    }
    static std::uint32_t mask() { return mask_; }

    /** Mask captured at construction: what this instance collected. */
    std::uint32_t activeMask() const { return activeMask_; }
    bool active() const { return activeMask_ != 0; }

    unsigned numCores() const { return numCores_; }
    unsigned commitWidth() const { return commitWidth_; }

    // --- cpi ---

    /** Charge @p slots commit slots of @p core to @p bucket. */
    void
    cpiSlots(CoreId core, CpiBucket b, std::uint64_t slots)
    {
        cpi_[core][static_cast<unsigned>(b)] += slots;
    }

    /** Credit a fast-forwarded window: every core gains
     *  @p cycles × commitWidth explicit Idle slots. */
    void
    addIdleSlots(std::uint64_t cycles)
    {
        for (auto &stack : cpi_)
            stack[static_cast<unsigned>(CpiBucket::Idle)] +=
                cycles * commitWidth_;
    }

    /** Panic unless every core's stack sums to cycles × commitWidth. */
    void checkConservation(Cycle cycles, const char *where) const;

    using CpiStack = std::array<std::uint64_t, numCpiBuckets>;
    const std::vector<CpiStack> &cpi() const { return cpi_; }

    // --- lines ---

    struct LineProf
    {
        std::uint64_t acquires = 0;        ///< lock acquisitions
        std::uint64_t holdCycles = 0;      ///< Σ lock→unlock
        std::uint64_t contendedUnlocks = 0;///< releases seen contended
        std::uint64_t remoteFills = 0;     ///< fills served cache-to-cache
        std::uint64_t ownerSwaps = 0;      ///< M→M ping-pong transfers
        std::uint64_t lockStalls = 0;      ///< requests stalled on a lock
        std::uint64_t lockStallCycles = 0; ///< Σ stall durations
        std::uint64_t steals = 0;          ///< successful lock steals
        std::uint64_t queuedMax = 0;       ///< max directory queue depth
        std::uint64_t coresMask = 0;       ///< acquiring cores (bit per id)
    };

    void
    lineAcquire(Addr line, CoreId core)
    {
        LineProf &p = lines_[line];
        p.acquires++;
        if (core < 64)
            p.coresMask |= 1ull << core;
    }

    void
    lineRelease(Addr line, std::uint64_t hold_cycles, bool contended)
    {
        LineProf &p = lines_[line];
        p.holdCycles += hold_cycles;
        if (contended)
            p.contendedUnlocks++;
    }

    void lineRemoteFill(Addr line) { lines_[line].remoteFills++; }
    void lineOwnerSwap(Addr line) { lines_[line].ownerSwaps++; }
    void lineSteal(Addr line) { lines_[line].steals++; }

    void
    lineLockStall(Addr line, std::uint64_t cycles)
    {
        LineProf &p = lines_[line];
        p.lockStalls++;
        p.lockStallCycles += cycles;
    }

    void
    lineQueueDepth(Addr line, std::uint64_t depth)
    {
        LineProf &p = lines_[line];
        if (depth > p.queuedMax)
            p.queuedMax = depth;
    }

    const std::unordered_map<Addr, LineProf> &lines() const
    {
        return lines_;
    }

    // --- row ---

    struct RowProf
    {
        /** cell[predictedContended][observedContended] */
        std::uint64_t cell[2][2] = {{0, 0}, {0, 0}};
        /** Σ wasted wait (predicted lazy, turned out uncontended). */
        std::uint64_t lazyWasteCycles = 0;
        /** Σ contended acquisition (predicted eager, was contended). */
        std::uint64_t eagerContendedCycles = 0;
    };

    void
    rowOutcome(Addr pc, bool predicted_contended, bool contended,
               std::uint64_t mispredict_cost)
    {
        RowProf &p = rowAudit_[pc];
        p.cell[predicted_contended ? 1 : 0][contended ? 1 : 0]++;
        if (predicted_contended && !contended)
            p.lazyWasteCycles += mispredict_cost;
        else if (!predicted_contended && contended)
            p.eagerContendedCycles += mispredict_cost;
    }

    const std::unordered_map<Addr, RowProf> &rowAudit() const
    {
        return rowAudit_;
    }

    /** Totals across PCs: updates, per-cell sums, observed-contended. */
    RowProf rowTotals() const;

    /** Single-line JSON of everything collected (top-K lines by
     *  holdCycles; K from ROWSIM_PROFILE_TOPK). */
    std::string toJson() const;

    static constexpr std::uint64_t kDefaultTopK = 16;
    /** Top-K hook (tests); 0 restores the default. */
    static void setTopK(std::uint64_t k) { topK_ = k ? k : kDefaultTopK; }

  private:
    unsigned numCores_;
    unsigned commitWidth_;
    std::uint32_t activeMask_;

    std::vector<CpiStack> cpi_;
    std::unordered_map<Addr, LineProf> lines_;
    std::unordered_map<Addr, RowProf> rowAudit_;

    // Thread-local like the trace/check masks: each sweep worker gates
    // independently; setupProfiling resets it per System construction.
    static inline thread_local std::uint32_t mask_ = 0;
    static inline thread_local std::uint64_t topK_ = kDefaultTopK;
};

} // namespace rowsim

#endif // ROWSIM_SIM_PROFILE_HH
