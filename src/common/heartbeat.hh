/**
 * @file
 * Live telemetry heartbeat: a JSONL event stream for in-flight runs.
 *
 * ROWSIM_HEARTBEAT=<path> turns the sink on. Three event kinds share
 * the stream (discriminated by "ev"); every line carries a wall-clock
 * stamp in ms ("wall") and the sweep job key ("job", empty outside a
 * sweep):
 *
 *   run    — periodic progress from the System run loop: simulated
 *            cycle, committed iterations vs the total quota ("frac"),
 *            simulation speed in Kcycles/s, a wall-clock ETA, and the
 *            process RSS.
 *   job    — sweep-job lifecycle from the sweep engine (both isolation
 *            modes): state queued/started/retrying/finished, the
 *            attempt number, and the terminal status.
 *   sweep  — one start/end pair per sweep with job totals.
 *
 * Every event is written as one line with a single O_APPEND write, so
 * worker threads and forked worker processes interleave whole lines,
 * never fragments. The sink is live-only telemetry: like ROWSIM_TRACE
 * and ROWSIM_STATS_JSON it bypasses the result store (a cache hit
 * emits no heartbeat), and it never changes simulated behaviour.
 * ROWSIM_HEARTBEAT_MS (default 250) sets the minimum wall-clock gap
 * between run events. tools/rowsim_report renders the stream as a
 * per-job table (--follow tails it live).
 */

#ifndef ROWSIM_COMMON_HEARTBEAT_HH
#define ROWSIM_COMMON_HEARTBEAT_HH

#include <cstdint>
#include <string>
#include <utility>

#include "common/types.hh"

namespace rowsim
{

/** The heartbeat sink of one run or sweep (its path comes from the
 *  run options; an empty path is the sink turned off). */
class Heartbeat
{
  public:
    explicit Heartbeat(std::string path = "") : path_(std::move(path)) {}

    /** True when the sink has a path and has not been disarmed. */
    bool enabled() const;

    /** Wall clock in ms since the Unix epoch. */
    static std::uint64_t wallMs();
    /** Resident set size in KiB; -1 when the platform cannot say. */
    static long rssKb();

    /** Append one complete JSON line (the newline is added here) with a
     *  single O_APPEND write. Best-effort: failures warn once and the
     *  sink disarms for the rest of the process. */
    void emitLine(const std::string &json) const;

    /** Periodic run-progress event. @p etaMs < 0 means unknown. */
    void emitRun(Cycle cycle, std::uint64_t iters,
                 std::uint64_t quotaTotal, double kcps, double etaMs) const;

    /** Sweep-job lifecycle event; @p status may be null (non-terminal
     *  states). */
    void emitJob(std::size_t index, const char *state,
                 const std::string &workload, const std::string &config,
                 unsigned attempt, const char *status) const;

    /** Sweep start/end event; ok/failed only meaningful at "end". */
    void emitSweep(const char *state, std::size_t jobs, std::size_t ok,
                   std::size_t failed, const char *isolation) const;

  private:
    std::string path_;
};

} // namespace rowsim

#endif // ROWSIM_COMMON_HEARTBEAT_HH
