/**
 * @file
 * Causal span tracing for atomic lifetimes.
 *
 * Every atomic RMW opens a *span* at dispatch and closes it at commit.
 * Between those two points the span is always in exactly one *segment*
 * (dispatchWait, sbDrain, aqWait, execute, l1Miss, unblockWait,
 * lockHeld): the core, cache and directory report phase transitions and
 * the tracker charges the elapsed cycles to the segment being left.
 * Because segments are recorded as transitions of one cursor, they tile
 * dispatch→commit *by construction*, and close() asserts the
 * conservation invariant (Σ segments == commit − dispatch) so any
 * missed or reordered transition panics instead of skewing data.
 *
 * On top of the tiling segments, three *overlapping legs* attribute the
 * remote portion of a miss causally: the span ID travels on coherence
 * messages (Msg::spanId), so
 *
 *  - netHops  — Σ per-message network latency of every hop of the
 *               span's transaction (request, forward, data, acks),
 *  - dirBlocked — directory residency charged to the span: its own
 *               transaction's Blocked window plus any wait in a bank's
 *               queue behind another transaction's Blocked window,
 *  - lockStall — cycles the span's request spent stalled at a remote
 *               core against an AQ-locked line
 *
 * are accumulated per span. They overlap the l1Miss segment (and each
 * other), so they are *not* part of the conservation sum; critical-path
 * extraction subtracts them from the miss window instead (the
 * "critical" object on every retained record; rendered by
 * tools/rowsim_report).
 *
 * The tracker is the one per-line and per-PC attribution layer. The
 * line table carries each hot line's acquiring cores, owner swaps
 * (cache-to-cache fills), deepest directory queue, lock steals
 * (replays), lock stalls and contended releases; the PC table carries
 * the RoW decision audit, predicted × observed contention with the
 * mispredict cost in cycles (the Fig. 12 accuracy from first
 * principles). Release outcomes are recorded at the core's unlock
 * site, keyed by line and PC, because a span closes at commit, one
 * cycle before its unlock.
 *
 * Like the CPI-stack profiler (src/sim/profile.hh), state is
 * per-System, the enable gate is a static thread-local flag that
 * System::setupSpans() unconditionally re-applies per construction
 * (ROWSIM_SPANS env, overridden by SystemParams::spans), so parallel
 * sweep jobs never leak the gate across worker threads. Aggregates
 * (per-PC / per-line segment breakdowns, whole-run segment histograms
 * with p50/p90/p99) cover *every* span; full per-span records are
 * bounded by the ROWSIM_SPANS_TOPK retention policy (the K slowest
 * spans are kept, default 64), so fig-scale sweeps stay cheap.
 *
 * Snapshot interaction: span state is never serialized and every
 * restored structure carries spanId = 0. Restoring a checkpoint drops
 * the tracker's open spans and counts atomics in flight inside the
 * image under `truncated` — their lifetime crossed the restore point
 * and cannot be attributed — so a restored run never observes a
 * dangling span ID.
 */

#ifndef ROWSIM_SIM_SPAN_HH
#define ROWSIM_SIM_SPAN_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rowsim
{

/** The tiling segments of an atomic's dispatch→commit lifetime. */
enum class SpanSeg : unsigned
{
    DispatchWait = 0, ///< dispatched, waiting for operands / first issue
    SbDrain,          ///< waiting on store-buffer drain / an older store
    AqWait,           ///< lazy wait to become the oldest memory op (and
                      ///< replay wait after a lock steal)
    Execute,          ///< memory access issued; line present path
    L1Miss,           ///< miss outstanding (GetX in the memory system)
    UnblockWait,      ///< line filled, but an older atomic must lock first
    LockHeld,         ///< line locked until commit
    NumSegs,
};

constexpr unsigned numSpanSegs = static_cast<unsigned>(SpanSeg::NumSegs);

const char *spanSegName(SpanSeg s);

/**
 * The per-System span tracker. All state lives in the instance; only
 * the enable gate is static and thread-local so the hook sites cost one
 * branch with no instance lookup when spans are off.
 */
class SpanTracker
{
  public:
    explicit SpanTracker(unsigned num_cores);

    /** Fast inline gate for every hook site. */
    static bool enabled() { return enabled_; }
    /** Gate and retained-record bound (each System applies its run
     *  options: ROWSIM_SPANS, ROWSIM_SPANS_TOPK; tests). */
    static void
    configure(bool on, std::uint64_t top_k = 64)
    {
        enabled_ = on;
        topK_ = top_k;
    }
    static std::uint64_t topK() { return topK_; }

    /** Gate captured at construction: did this instance collect? */
    bool active() const { return active_; }
    unsigned numCores() const { return numCores_; }

    /** One traced atomic lifetime. */
    struct Record
    {
        std::uint64_t id = 0;
        CoreId core = invalidCore;
        Addr pc = 0;
        Addr line = invalidAddr;
        Cycle dispatch = invalidCycle;
        Cycle commit = invalidCycle;
        bool lazy = false;     ///< eager/lazy decision at dispatch
        unsigned replays = 0;  ///< lock steals suffered
        std::uint64_t segs[numSpanSegs] = {};
        // Overlapping legs (inside the l1Miss window; not in the tiling
        // sum).
        std::uint64_t netCycles = 0;   ///< Σ per-message network latency
        std::uint64_t netHops = 0;     ///< messages attributed
        std::uint64_t dirBlocked = 0;  ///< own Blocked window + queue wait
        std::uint64_t lockStall = 0;   ///< stalled against a remote lock
        /** Fills served cache-to-cache (for an atomic's GetX, each is
         *  one owner swap of the line). */
        std::uint64_t ownerSwaps = 0;
        /** Deepest directory queue the span's request joined. */
        std::uint64_t queuedMax = 0;

        std::uint64_t total() const { return commit - dispatch; }

        // Live-tracking cursor (meaningless once closed).
        SpanSeg cur = SpanSeg::DispatchWait;
        Cycle segStart = invalidCycle;
    };

    // ---- lifecycle (core-side hooks) ----

    /** Open a span at dispatch. @return the span ID (never 0). */
    std::uint64_t open(CoreId core, Addr pc, bool lazy, Cycle now);
    /** Move the span into @p seg, charging [segStart, now) to the
     *  segment being left. Idempotent for seg == current segment. */
    void transition(std::uint64_t id, SpanSeg seg, Cycle now);
    /** Record the effective line address once computed. */
    void setLine(std::uint64_t id, Addr line);
    /** A lock steal forced a replay (decision may flip to lazy). */
    void replay(std::uint64_t id, Cycle now);
    /** Close the span at commit; asserts segment conservation, feeds
     *  the aggregates and the bounded retention heap, and emits the
     *  Chrome-trace events when the "span" trace category is live. */
    void close(std::uint64_t id, Cycle commit);

    // ---- overlapping legs (cache / directory / network hooks) ----

    /** A message carrying this span delivered after @p sent→@p now. */
    void netHop(std::uint64_t id, Cycle sent, Cycle now);
    /** The span's own directory transaction left Blocked. */
    void dirBlockedWindow(std::uint64_t id, Cycle since, Cycle now);
    /** The span's request was queued behind a Blocked line, making the
     *  line's queue @p depth deep. */
    void dirQueued(std::uint64_t id, Cycle now, std::uint64_t depth);
    /** ... and is being processed now. */
    void dirDequeued(std::uint64_t id, Cycle now);
    /** The span's request sat stalled against a remote AQ lock. */
    void lockStall(std::uint64_t id, Cycle arrival, Cycle now);
    /** The span's miss was filled from another private cache. */
    void ownerSwap(std::uint64_t id);

    // ---- release outcomes (core unlock site, after the span closed) ----

    /** An atomic on @p line released its lock; @p contended is the
     *  detector's verdict. Keyed by line, not span: spans close at
     *  commit, one cycle before the unlock. */
    void release(Addr line, bool contended);
    /** The RoW predictor learned @p contended for @p pc after predicting
     *  @p predicted_contended; @p cost is the mispredict's cycles (0 when
     *  the prediction held). Called once per predictor update, so the
     *  cross-tab totals equal the predictor's own counters. */
    void rowOutcome(Addr pc, bool predicted_contended, bool contended,
                    std::uint64_t cost);

    // ---- snapshot interaction ----

    /** Drop every open span (restore crossed their lifetime); adds the
     *  count to `truncated`. */
    void truncateOpen();
    /** Count @p n in-flight atomics restored from a checkpoint image
     *  as truncated (their spans cannot be reconstructed). */
    void noteTruncated(std::uint64_t n) { truncated_ += n; }
    std::uint64_t truncated() const { return truncated_; }

    // ---- results ----

    std::uint64_t opened() const { return nextId_ - 1; }
    std::uint64_t closed() const { return closedCount_; }
    std::uint64_t openCount() const
    {
        return static_cast<std::uint64_t>(open_.size());
    }

    /** The retained (top-K slowest) records, slowest first. */
    std::vector<Record> retained() const;

    /** Per-PC / per-line aggregate of every closed span, plus the
     *  release outcomes recorded at the unlock site. */
    struct Agg
    {
        std::uint64_t count = 0;
        std::uint64_t total = 0;
        std::uint64_t segs[numSpanSegs] = {};
        std::uint64_t netCycles = 0;
        std::uint64_t dirBlocked = 0;
        std::uint64_t lockStall = 0;
        std::uint64_t lazy = 0;
        std::uint64_t replays = 0;   ///< lock steals suffered
        // Per-line view.
        std::uint64_t coreMask = 0;  ///< acquiring cores (bit per id < 64)
        std::uint64_t ownerSwaps = 0;
        std::uint64_t queuedMax = 0;
        std::uint64_t contendedReleases = 0;
        // Per-PC view: the RoW decision audit.
        /** row[predictedContended][observedContended] */
        std::uint64_t row[2][2] = {{0, 0}, {0, 0}};
        /** Σ wasted wait (predicted lazy, turned out uncontended). */
        std::uint64_t lazyWasteCycles = 0;
        /** Σ contended acquisition (predicted eager, was contended). */
        std::uint64_t eagerContendedCycles = 0;
    };

    const std::unordered_map<Addr, Agg> &pcs() const { return pcs_; }
    const std::unordered_map<Addr, Agg> &lines() const { return lines_; }

    /** The RoW audit summed over every PC (row, lazyWasteCycles and
     *  eagerContendedCycles are the fields set). */
    Agg rowTotals() const;

    /** Whole-run total-latency histogram (p50/p90/p99 source). */
    const Histogram &totalHist() const { return totalHist_; }

    /** Single-line JSON: counts, per-segment sums + percentiles, per-PC
     *  and per-line breakdowns, and the retained span records with
     *  their critical-path decomposition. */
    std::string toJson() const;

  private:
    void aggregate(const Record &r);
    void retain(const Record &r);

    unsigned numCores_;
    bool active_;

    std::uint64_t nextId_ = 1;
    std::uint64_t closedCount_ = 0;
    std::uint64_t truncated_ = 0;

    std::unordered_map<std::uint64_t, Record> open_;
    /** Requests queued at a directory bank: span ID -> queue-entry
     *  cycle (a span has at most one outstanding request). */
    std::unordered_map<std::uint64_t, Cycle> dirQueuedAt_;

    /** Bounded retention: the K slowest closed spans. */
    std::vector<Record> retained_;

    std::unordered_map<Addr, Agg> pcs_;
    std::unordered_map<Addr, Agg> lines_;

    /** Global segment sums over every closed span. */
    std::uint64_t segTotals_[numSpanSegs] = {};
    std::uint64_t netTotal_ = 0, dirBlockedTotal_ = 0,
                  lockStallTotal_ = 0, grandTotal_ = 0;

    Histogram totalHist_{0, 8192, 64};
    Histogram missHist_{0, 8192, 64};
    Histogram lockHeldHist_{0, 2048, 64};

    // Thread-local like the trace/profile masks: each sweep worker
    // gates independently; setupSpans resets it per System
    // construction.
    static inline thread_local bool enabled_ = false;
    static inline thread_local std::uint64_t topK_ = 64;
};

} // namespace rowsim

#endif // ROWSIM_SIM_SPAN_HH
