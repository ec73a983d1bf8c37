/**
 * @file
 * Runtime-gated, per-category trace facility.
 *
 * Inspired by gem5's DPRINTF flags and Chrome's trace-event format: every
 * trace point belongs to a TraceCategory and compiles to a single branch
 * on a category bitmask when tracing is off. Two sinks are supported and
 * can be active simultaneously:
 *
 *  - a human-readable, cycle-stamped text log (stderr by default, or a
 *    file via ROWSIM_TRACE_FILE), and
 *  - a Chrome trace-event JSON writer (ROWSIM_TRACE_JSON; loadable in
 *    Perfetto / chrome://tracing) rendering lock hold intervals, AQ
 *    residency, directory Blocked-state windows and mesh message
 *    lifetimes as duration events on named per-component tracks.
 *
 * Categories are selected with the ROWSIM_TRACE environment variable
 * (comma-separated, e.g. ROWSIM_TRACE=atomic,coherence or "all") or
 * programmatically via SystemParams::traceCategories; every System
 * applies its resolved run options through Trace::setup().
 */

#ifndef ROWSIM_COMMON_TRACE_HH
#define ROWSIM_COMMON_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace rowsim
{

/** One bit per subsystem; combined into the runtime trace mask. */
enum class TraceCategory : std::uint32_t
{
    Pipeline  = 1u << 0, ///< dispatch / issue / commit / SB drain
    Atomic    = 1u << 1, ///< atomic lifecycle: decision, lock, unlock
    Coherence = 1u << 2, ///< L1/L2 fills, stalls, forced unlocks
    Directory = 1u << 3, ///< Blocked windows, queued requests
    Network   = 1u << 4, ///< message inject / deliver
    Predictor = 1u << 5, ///< RoW predictions, outcomes, updates
    Queue     = 1u << 6, ///< LQ / SQ / AQ allocate + free
    Span      = 1u << 7, ///< atomic lifetime spans (sim/span.hh)
};

constexpr std::uint32_t traceCategoryAll = (1u << 8) - 1;

const char *traceCategoryName(TraceCategory c);

/**
 * Parse a comma-separated category list ("atomic,coherence", "all",
 * "none") into a bitmask. Unknown names are a user error (fatal).
 * An empty string yields 0 (tracing off).
 */
std::uint32_t parseTraceCategories(const std::string &spec);

/** Chrome-trace process-id conventions (one "process" per component). */
constexpr int tracePidDirBase = 1000; ///< directory bank b -> 1000 + b
constexpr int tracePidNetwork = 2000; ///< the mesh

/** Per-core thread-id conventions within a core's process. */
constexpr int traceTidPipeline = 0;
constexpr int traceTidAtomics = 1;
constexpr int traceTidPredictor = 2;
constexpr int traceTidCache = 3;
constexpr int traceTidSpans = 4;

class Trace
{
  public:
    static Trace &instance();

    /** Fast inline gates: one load + test, no function call. */
    static bool anyEnabled() { return mask_ != 0; }
    static bool
    enabled(TraceCategory c)
    {
        return (mask_ & static_cast<std::uint32_t>(c)) != 0;
    }

    /**
     * Per-System configuration (System's constructor, from its run
     * options). The sink mask and the ring are re-applied on every call,
     * so nothing one System selected leaks into the next on this
     * thread. With a non-zero @p mask, a text sink file (@p text_path;
     * empty = stderr) and a Chrome-trace sink (@p json_path; empty =
     * none) open on first use and stay open for this thread or job
     * scope, so every System of a process traces into one file; both
     * paths carry the job key.
     */
    void setup(std::uint32_t mask, std::size_t ring,
               const std::string &text_path, const std::string &json_path);

    /**
     * Scope this thread's trace sinks to one sweep job: close any open
     * sinks and take @p key as the job key, so the sinks the job's
     * Systems open are suffixed (see suffixJobPath) and concurrent jobs
     * never clobber or interleave one file.
     */
    static void scopeToJob(const std::string &key);

    /** This thread's job key ("" outside a sweep job). Other per-job
     *  sinks (ROWSIM_PROFILE_JSON, ROWSIM_SPANS_JSON) consult it. */
    static const std::string &jobKey();

    /** Programmatic configuration of the *sink* categories (tests,
     *  SystemParams). The effective gate mask also includes the ring
     *  categories, so enabling the ring keeps trace points live even
     *  with every sink off. */
    void
    configure(std::uint32_t mask)
    {
        sinkMask_ = mask;
        mask_ = sinkMask_ | ringMask_;
    }

    /**
     * Retroactive ring buffer for crash diagnostics: keep the last
     * @p capacity formatted text events in memory (all categories, no
     * sink required). A panic dump replays them so the events *leading
     * up to* a violation are visible after the fact. 0 disables.
     * Env: ROWSIM_TRACE_RING=<events>.
     */
    void enableRing(std::size_t capacity);
    std::size_t ringCapacity() const { return ringCap_; }
    /** Oldest-first snapshot of the retained events. */
    std::vector<std::string> ringSnapshot() const;

    /** Redirect the text sink. @p owned: close on replacement/exit. */
    void setTextSink(std::FILE *f, bool owned);

    /** Open the Chrome-trace JSON sink. @return false on I/O error. */
    bool openJson(const std::string &path);
    /** Write the JSON footer and close the sink (idempotent). */
    void closeJson();
    /** Flush + close every sink (called from the destructor). */
    void closeAll();

    /**
     * The current simulated cycle, published by System::tick, so trace
     * points in cycle-less helpers (queue allocate/free, predictors) can
     * still stamp their events.
     */
    static Cycle now() { return now_; }
    static void setNow(Cycle c) { now_ = c; }

    /** Cycle-stamped printf-style text line. */
    void text(TraceCategory cat, Cycle cycle, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

    // ----- Chrome trace-event emission -------------------------------
    // `args_json` is either empty or a complete JSON object, e.g.
    // "{\"seq\":12}". Cycles map 1:1 to trace microseconds.

    /** Complete ("X") duration event — for non-overlapping intervals on
     *  one track (e.g. a core's sequential lock holds). */
    void complete(TraceCategory cat, int pid, int tid, const char *name,
                  Cycle start, Cycle end, const std::string &args_json = "");

    /** Async ("b"/"e") duration pair — for intervals that may overlap on
     *  a track (AQ residency, directory Blocked windows, messages). */
    void span(TraceCategory cat, int pid, int tid, const char *name,
              std::uint64_t id, Cycle start, Cycle end,
              const std::string &args_json = "");

    /** Instant ("i") event. */
    void instant(TraceCategory cat, int pid, int tid, const char *name,
                 Cycle ts, const std::string &args_json = "");

    /** Flow ("s"/"t"/"f") event: arrows between slices on different
     *  tracks (e.g. a span's remote leg crossing core -> network).
     *  @p phase is 's' (start), 't' (step) or 'f' (finish). */
    void flow(TraceCategory cat, int pid, int tid, const char *name,
              std::uint64_t id, Cycle ts, char phase);

    /** Counter ("C") event: one numeric series per (pid, name). */
    void counter(TraceCategory cat, int pid, const char *name, Cycle ts,
                 double value);

    /** Name a Chrome-trace process / thread track (metadata events). */
    void nameProcess(int pid, const std::string &name);
    void nameThread(int pid, int tid, const std::string &name);

    bool jsonOpen() const { return json_ != nullptr; }
    std::uint64_t eventsEmitted() const { return events_; }

    Trace(const Trace &) = delete;
    Trace &operator=(const Trace &) = delete;

  private:
    Trace() = default;
    ~Trace();

    void emitJson(const std::string &record);

    // The mask and cycle are static so the inline gates touch no
    // instance state (and need no instance() call); thread_local so
    // concurrent sweep workers each gate and stamp their own System
    // without racing. mask_ is the union of the sink categories and the
    // ring categories.
    static inline thread_local std::uint32_t mask_ = 0;
    static inline thread_local std::uint32_t sinkMask_ = 0;
    static inline thread_local std::uint32_t ringMask_ = 0;
    static inline thread_local Cycle now_ = 0;
    /** This thread's sweep job key ("" on the main thread). */
    static inline thread_local std::string jobKey_;

    std::FILE *textSink_ = nullptr; ///< nullptr -> stderr
    bool ownTextSink_ = false;
    std::FILE *json_ = nullptr;
    bool jsonFirst_ = true;
    std::uint64_t events_ = 0;

    std::vector<std::string> ring_; ///< ringCap_ slots, circular
    std::size_t ringCap_ = 0;
    std::size_t ringNext_ = 0;
    std::size_t ringCount_ = 0;
};

/**
 * Suffix an output path with a sweep job key: the key is inserted
 * before the last extension ("trace.json" + "j3" -> "trace.j3.json";
 * extensionless paths get a plain suffix). An empty key returns the
 * path unchanged.
 */
std::string suffixJobPath(const std::string &path, const std::string &key);

/**
 * Trace-point macros. All of them compile to one branch on the category
 * mask when tracing is off; argument expressions (including strprintf
 * calls building args) are only evaluated when the category is live.
 */
#define ROWSIM_TRACE(cat, cycle, ...)                                     \
    do {                                                                  \
        if (::rowsim::Trace::enabled(cat))                                \
            ::rowsim::Trace::instance().text((cat), (cycle),              \
                                             __VA_ARGS__);                \
    } while (0)

/** Like ROWSIM_TRACE but stamped with Trace::now() (for call sites with
 *  no cycle in scope). */
#define ROWSIM_TRACE_AT(cat, ...)                                         \
    do {                                                                  \
        if (::rowsim::Trace::enabled(cat))                                \
            ::rowsim::Trace::instance().text(                             \
                (cat), ::rowsim::Trace::now(), __VA_ARGS__);              \
    } while (0)

#define ROWSIM_TRACE_COMPLETE(cat, pid, tid, name, start, end, args)      \
    do {                                                                  \
        if (::rowsim::Trace::enabled(cat))                                \
            ::rowsim::Trace::instance().complete(                         \
                (cat), (pid), (tid), (name), (start), (end), (args));     \
    } while (0)

#define ROWSIM_TRACE_SPAN(cat, pid, tid, name, id, start, end, args)      \
    do {                                                                  \
        if (::rowsim::Trace::enabled(cat))                                \
            ::rowsim::Trace::instance().span((cat), (pid), (tid), (name), \
                                             (id), (start), (end),        \
                                             (args));                     \
    } while (0)

#define ROWSIM_TRACE_INSTANT(cat, pid, tid, name, ts, args)               \
    do {                                                                  \
        if (::rowsim::Trace::enabled(cat))                                \
            ::rowsim::Trace::instance().instant((cat), (pid), (tid),      \
                                                (name), (ts), (args));    \
    } while (0)

#define ROWSIM_TRACE_COUNTER(cat, pid, name, ts, value)                   \
    do {                                                                  \
        if (::rowsim::Trace::enabled(cat))                                \
            ::rowsim::Trace::instance().counter((cat), (pid), (name),     \
                                                (ts), (value));           \
    } while (0)

} // namespace rowsim

#endif // ROWSIM_COMMON_TRACE_HH
