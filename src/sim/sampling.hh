/**
 * @file
 * SMARTS-style checkpointed sampling (ROWSIM_SAMPLE).
 *
 * Detail simulation is the bottleneck of every figure: tens of
 * kilocycles per wall-clock second, for runs whose metrics are
 * near-stationary after warm-up. Sampling replaces one long detail run
 * with (1) a functional fast-mode warm-up that images its state in
 * memory at the marks m_k = floor(Q * k / n), k = 0..n-1, of the
 * per-core iteration quota Q, (2) n short detail windows — restore
 * image k, detail-warm for `warm` iterations, measure `detail`
 * iterations — executed as ordinary sweep jobs, so they run in
 * parallel and are individually kept by the content-addressed result
 * store, and (3) a batch-means aggregation:
 * each metric's window values give a mean, a standard deviation, and a
 * Student-t confidence interval; additive counters are additionally
 * extrapolated by Q / detail to whole-run estimates.
 *
 * The result store is the only rerun cache: windows it already holds
 * are served before any warm-up, and the functional warm-up stops at
 * the last mark still missing. The images never leave the process.
 *
 * The aggregate rides in RunResult::samplingJson (reported as the
 * "sampling" key); the headline RunResult fields carry the estimates,
 * so figure scripts rank policies from sampled runs unchanged.
 *
 * Sampling is incompatible with the attribution profiler (images
 * do not carry its state), convergence-bounded runs (the stop cycle
 * would depend on the sampling layout), and fault injection (no
 * functional equivalent of per-tick fault draws); all three are fatal
 * (the first two are rules of sim/options.cc).
 * Latency-mean metrics (missLatency, phase means) include the short
 * detail warm-up segment of each window — the timing stats are empty
 * in every func-written image, so a window cannot be polluted by
 * anything before its own restore point.
 */

#ifndef ROWSIM_SIM_SAMPLING_HH
#define ROWSIM_SIM_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace rowsim
{

/** Parse a sampling spec; empty = inactive, anything malformed
 *  (n < 1, detail < 1, confidence outside (0, 1), trailing junk) is a
 *  user error (fatal). @p name is the env var for error messages. */
SampleSpec parseSampleSpec(const char *name, const std::string &spec);

/** Image marks m_k = floor(quota * k / n), k = 0..n-1. */
std::vector<std::uint64_t> sampleGrid(std::uint64_t quota, unsigned n);

/**
 * Run one (workload, params) experiment under the sampling spec of
 * @p opts, whose other options every window inherits (the cross-knob
 * rules must already have passed). @p quota must already be resolved
 * (non-zero). Returns the aggregated RunResult —
 * headline counters are whole-run estimates, latency means are window
 * means, and samplingJson holds the full grid / window / CI summary.
 * A failed window fails the whole sampled run.
 */
RunResult runSampled(const std::string &workload,
                     const SystemParams &params, const RunOptions &opts,
                     const std::string &label, std::uint64_t quota);

/** Execute one measurement window (SweepJob::image set) and store its
 *  result; called by the sweep engine's executeJob. A non-empty
 *  @p storeDir selects the result store explicitly
 *  (SweepOptions::storeDir). */
RunResult runDetailWindow(const SweepJob &job, const std::string &storeDir);

} // namespace rowsim

#endif // ROWSIM_SIM_SAMPLING_HH
