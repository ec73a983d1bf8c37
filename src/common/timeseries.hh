/**
 * @file
 * The interval sampler and its metric time-series engine.
 *
 * Every `period` cycles the sampler reads each probe (a monotonically
 * growing counter) and appends the per-interval delta to that probe's
 * series; it keeps every sample. With the engine on it also feeds each
 * delta into a MetricSeries, which maintains in O(1) per sample the
 * online Welford mean/variance, the lag-1 autocorrelation estimate and
 * a batch-means confidence interval. The batch-means CI is the standard
 * remedy for autocorrelated simulation output: consecutive samples are
 * grouped into batches whose means are approximately independent, and
 * a Student-t interval over the batch means bounds the steady-state
 * mean (Law & Kelton).
 *
 * The sampler renders the stored series as the "intervals" stats key
 * (System::dumpStatsJson) and the engine state as the "timeseries" key
 * (dumpStatsJson / RunResult), whose per-metric `points` are a view of
 * the newest kWindow entries of the stored series. It serializes
 * through the snapshot layer and implements convergence-bounded runs:
 * ROWSIM_CONVERGE=<metric>:<rel_hw>[:<conf>] latches a converged flag
 * the System run loop polls, so the run stops deterministically at the
 * interval boundary where the target metric's relative CI half-width
 * first meets the bound.
 *
 * Everything here is pure double arithmetic on sampled values; none of
 * it feeds back into simulated behaviour, so the sampler lives outside
 * the architectural state digest (stats pass only).
 */

#ifndef ROWSIM_COMMON_TIMESERIES_HH
#define ROWSIM_COMMON_TIMESERIES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace rowsim
{

class Ser;
class Deser;

/** Student-t upper quantile t_{df}(p) for p in (0.5, 1); used by the
 *  batch-means CI. Inverse-normal (Acklam) plus a Cornish-Fisher
 *  expansion in 1/df — exact enough for CI work at df >= 2 (< 0.5%
 *  relative error), and deterministic across platforms. */
double tQuantile(double p, std::uint64_t df);

/** Online statistics for one sampled metric. */
class MetricSeries
{
  public:
    /** Number of completed batches the CI requires before it is valid
     *  (fewer batch means make the t interval meaninglessly wide). */
    static constexpr unsigned kMinBatches = 8;
    /** Completed-batch ceiling: when reached, adjacent batches collapse
     *  pairwise and the batch size doubles — bounded, deterministic
     *  memory for any run length. */
    static constexpr unsigned kMaxBatches = 64;

    void add(double v);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 with < 2 samples. */
    double variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }
    double stddev() const;
    /** Lag-1 autocorrelation estimate, clamped to [-1, 1]; 0 with < 3
     *  samples or zero variance. */
    double lag1() const;

    unsigned batchCount() const
    {
        return static_cast<unsigned>(batchSums_.size());
    }
    std::uint64_t batchSize() const { return batchSize_; }

    /** One batch-means confidence interval. */
    struct Ci
    {
        /** False until kMinBatches batches completed (all other fields
         *  are 0 then). */
        bool valid = false;
        double confidence = 0;
        double halfwidth = 0;
        /** halfwidth / |mean of batch means|; infinity at mean 0. */
        double relHalfwidth = 0;
        double lo = 0;
        double hi = 0;
    };
    Ci ci(double confidence) const;

    void save(Ser &s) const;
    /** Throws SnapshotError on a batch layout add() cannot produce. */
    void restore(Deser &d);

  private:
    // Welford accumulators.
    std::uint64_t n_ = 0;
    double mean_ = 0;
    double m2_ = 0;

    // Lag-1 autocorrelation: sum of x_i * x_{i-1} plus the previous
    // sample.
    double prev_ = 0;
    double crossSum_ = 0;

    // Batch means: completed batch sums (each over batchSize_ samples)
    // plus the in-progress batch.
    std::uint64_t batchSize_ = 1;
    std::vector<double> batchSums_;
    double curSum_ = 0;
    std::uint64_t curCount_ = 0;
};

/** Parse "<metric>:<rel_halfwidth>[:<confidence>]"; empty spec returns
 *  an inactive ConvergeSpec, anything malformed is fatal (naming
 *  @p what, e.g. "ROWSIM_CONVERGE"). */
ConvergeSpec parseConvergeSpec(const char *what, const std::string &spec);

/** Parse an on/off spec ("on"/"1"/"yes"/"true" vs "off"/"0"/"no"/
 *  "false"); anything else is fatal naming @p what. */
bool parseOnOffSpec(const char *what, const std::string &spec);

/** Periodic per-interval deltas of named counters, plus (engine on) one
 *  MetricSeries per probe and the convergence monitor. */
class IntervalSampler
{
  public:
    /** Newest points per metric rendered as the engine's `points`. */
    static constexpr unsigned kWindow = 512;

    struct Probe
    {
        std::string name;
        std::function<double()> read;
        double last = 0; ///< counter value at the previous sample
        std::vector<double> series; ///< one delta per sample
        MetricSeries stats;         ///< fed only with the engine on
    };

    /** Set the sampling period (0 disables sampling), whether the
     *  engine runs, and its convergence bound. Call before addProbe. */
    void configure(Cycle period, bool engine = false,
                   ConvergeSpec conv = {});

    bool enabled() const { return period_ != 0; }
    bool engineOn() const { return engine_; }
    Cycle period() const { return period_; }

    /** Register a counter; its samples are per-interval deltas. Call
     *  before the first sample. */
    void addProbe(std::string name, std::function<double()> read);

    /** Called at service cycles; samples when a period boundary
     *  passes. */
    void
    tick(Cycle now)
    {
        if (period_ != 0 && now >= nextAt_)
            sample(now);
    }

    /** Cycle of the next period-boundary sample (service-cycle hoist
     *  and fast-forward bound); meaningless when disabled. */
    Cycle nextSampleAt() const { return nextAt_; }

    const std::vector<Probe> &probes() const { return probes_; }
    const Probe *find(const std::string &name) const;
    /** Cycle stamps of the samples taken so far. */
    const std::vector<Cycle> &sampleCycles() const { return cycles_; }

    const ConvergeSpec &converge() const { return conv_; }
    /** Latched once the target metric's CI meets the bound; the run
     *  loop polls this after each tick, so the stop lands exactly at
     *  the sample cycle that converged. */
    bool converged() const { return converged_; }
    Cycle convergedAtCycle() const { return convergedAt_; }
    /** Relative CI half-width of the converge metric right now (or
     *  infinity while invalid); 0 when no converge spec is active. */
    double achievedRelHalfwidth() const;

    /** The engine state as one JSON object (the "timeseries" key). */
    std::string toJson() const;

    void save(Ser &s) const;
    /** Restore onto an instance configured and probed like the one
     *  saved; throws SnapshotError on any mismatch or impossible
     *  count. */
    void restore(Deser &d);

  private:
    void sample(Cycle now);

    Cycle period_ = 0;
    Cycle nextAt_ = 0;
    bool engine_ = false;
    ConvergeSpec conv_;
    std::vector<Probe> probes_;
    std::vector<Cycle> cycles_;
    std::size_t convIdx_ = SIZE_MAX;
    bool converged_ = false;
    Cycle convergedAt_ = 0;
};

} // namespace rowsim

#endif // ROWSIM_COMMON_TIMESERIES_HH
