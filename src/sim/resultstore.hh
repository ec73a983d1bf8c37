/**
 * @file
 * Crash-safe, content-addressed result store.
 *
 * Every completed run can be persisted under a key that captures
 * everything the result depends on: the configuration fingerprint
 * (architecture, seed, fault-injection setup), the workload, the
 * resolved per-core quota, the config label, the effective
 * observability knobs that shape the RunResult (profiler mask, span
 * gate, interval-stats period), and the result-schema version. Reruns
 * with an identical key are served from disk — byte-identical, in
 * microseconds — so figure regressions become incremental queries
 * instead of hour-long batches.
 *
 * The store is designed to survive anything the execution layer throws
 * at it: entries are written atomically (tmp + rename via common/io),
 * carry a SHA-256 payload trailer, and are self-describing (magic +
 * schema version + embedded key). A corrupted, truncated, stale, or
 * misplaced entry is detected on load, quarantined aside, and reported
 * as a miss — the caller transparently recomputes; store damage is
 * never fatal and never returns wrong data.
 *
 * Enabled via ROWSIM_RESULTS=on (directory: ROWSIM_RESULTS_DIR,
 * default "rowsim-results"); the experiment layer consults it in
 * runExperiment / runExperimentParams (see ResultStore::open).
 */

#ifndef ROWSIM_SIM_RESULTSTORE_HH
#define ROWSIM_SIM_RESULTSTORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace rowsim
{

struct RunOptions;
struct SystemParams;

/** Version of the serialized RunResult payload. Bumped on any layout
 *  change; it is part of the key preimage, so a bump turns every old
 *  entry into a clean miss instead of a decode error.
 *  v2: time-series blob + convergence outcome fields.
 *  v3: sampling summary blob; the resolved execution mode keys the
 *      store (a func run and a detail run share a fingerprint by
 *      design — checkpoints interchange — but not results).
 *  v4: the Fig. 6 percentiles are filled for every detail run, no
 *      longer only for runs profiled with the retired "pcs" category
 *      (a v3 entry of an unprofiled run holds zero percentiles).
 *  The u32 after the error text held a retry count; it is written as 1
 *  and anything else is damage, so the layout, and v4, stand. */
constexpr std::uint32_t resultSchemaVersion = 4;

/** SHA-256 store key. */
using ResultKey = std::array<std::uint8_t, 32>;

/** Serialize @p r into the canonical little-endian payload (everything
 *  except the transient fromCache flag). */
std::vector<std::uint8_t> encodeResult(const RunResult &r);

/** Decode an encodeResult payload. Throws SnapshotError on any damage
 *  (bounds, section drift, trailing bytes, a status above Failed, an
 *  attempts word other than 1). */
RunResult decodeResult(const std::vector<std::uint8_t> &payload);

class ResultStore
{
  public:
    /** Store rooted at @p dir (created lazily on first write). */
    explicit ResultStore(std::string dir);

    /** The store run options ask for: nullptr unless their result
     *  store is on. */
    static std::unique_ptr<ResultStore> open(const RunOptions &opts);

    /**
     * Key for one (params, workload, label, quota) run with the
     * resolved @p opts the run uses. Serialises the config fingerprint
     * (with the resolved fault setup), the result-schema version, and
     * the options that change what the RunResult contains or when the
     * run stops: profiler mask, span gate, requested interval-stats
     * period, time-series engine and window, convergence spec, and
     * execution mode.
     */
    static ResultKey keyFor(const SystemParams &params,
                            const RunOptions &opts,
                            const std::string &workload,
                            const std::string &label, std::uint64_t quota);
    /** keyFor() with the options @p params resolve to now. */
    static ResultKey keyFor(const SystemParams &params,
                            const std::string &workload,
                            const std::string &label, std::uint64_t quota);

    static std::string keyHex(const ResultKey &key);

    /** Entry path for @p key: `<dir>/<hex>.res`. */
    std::string pathFor(const ResultKey &key) const;

    /**
     * Look up @p key. Returns true and fills @p out on a valid hit.
     * A missing entry or a schema-version skew is a clean miss; a
     * damaged entry (bad magic, wrong embedded key, truncation, digest
     * mismatch, undecodable payload) is quarantined to
     * `<entry>.quarantined` and reported as a miss. Never throws.
     */
    bool load(const ResultKey &key, RunResult &out);

    /**
     * load() for a run that does (@p need_stats) or does not want
     * statsJson. An entry written by a no-stats run cannot serve the
     * former (a miss: the caller recomputes and upgrades the entry);
     * the latter gets statsJson dropped. A served result is marked
     * fromCache.
     */
    bool serve(const ResultKey &key, bool need_stats, RunResult &out);

    /**
     * Persist @p r under @p key (atomic write; concurrent writers on
     * one key are safe — last complete write wins and every read sees
     * a complete entry). Best-effort: failures warn and are counted,
     * never thrown.
     */
    void store(const ResultKey &key, const RunResult &r);

    const std::string &dir() const { return dir_; }

    // Session counters (observability + tests).
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t quarantined() const { return quarantined_; }

  private:
    void quarantine(const std::string &path, const char *why);

    std::string dir_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t quarantined_ = 0;
};

} // namespace rowsim

#endif // ROWSIM_SIM_RESULTSTORE_HH
