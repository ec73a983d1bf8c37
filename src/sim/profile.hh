/**
 * @file
 * Runtime-gated CPI-stack profiler.
 *
 * Modelled on the trace (src/common/trace.hh) and checker
 * (src/sim/checker.hh) layers: every profile point compiles to a single
 * branch on a static, thread-local category bitmask, so leaving
 * profiling off costs one predictable branch per hook. With the cpi
 * category enabled (ROWSIM_PROFILE env var or
 * SystemParams::profileCategories) the profiler keeps per-core CPI
 * stacks without storing per-event logs. Every commit slot of every
 * cycle is classified as retired or charged to the reason the commit
 * head could not retire (frontend starvation, ROB full, store-queue
 * drain, lazy-atomic wait, atomic execution, coherence miss, idle),
 * gem5-O3 style, so the lazy-vs-eager cost of an atomic policy is read
 * directly off the stack. At the end of every profiled run each core's
 * stack must sum to cycles × commitWidth; a mismatch panics naming the
 * core (ROWSIM_FF=check style).
 *
 * Per-line contention and the RoW decision audit are the span
 * tracker's line and PC tables (src/sim/span.hh).
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
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace rowsim
{

/** One bit per profiling category; combined into the runtime mask. */
enum class ProfCategory : std::uint32_t
{
    Cpi = 1u << 0, ///< per-core commit-slot CPI stacks
};

/** The mask bit of @p c. */
constexpr std::uint32_t
profMask(ProfCategory c)
{
    return static_cast<std::uint32_t>(c);
}

constexpr std::uint32_t profCategoryAll = profMask(ProfCategory::Cpi);

/**
 * Parse a comma-separated category list ("cpi", "all", "none") into a
 * bitmask. Unknown names, including the retired lines, row, check and
 * pcs, are a user error (fatal). An empty string yields 0 (profiling
 * off).
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
 * The per-System CPI-stack profiler. All aggregation state lives in
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

    /** Mask control (each System applies its run options; tests). */
    static void configure(std::uint32_t mask) { mask_ = mask; }

    /** Mask captured at construction: did this instance collect? */
    bool active() const { return activeMask_ != 0; }

    unsigned numCores() const { return numCores_; }
    unsigned commitWidth() const { return commitWidth_; }

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

    /** Single-line JSON of everything collected. */
    std::string toJson() const;

  private:
    unsigned numCores_;
    unsigned commitWidth_;
    std::uint32_t activeMask_;

    std::vector<CpiStack> cpi_;

    // Thread-local like the trace/check masks: each sweep worker gates
    // independently; setupProfiling resets it per System construction.
    static inline thread_local std::uint32_t mask_ = 0;
};

} // namespace rowsim

#endif // ROWSIM_SIM_PROFILE_HH
