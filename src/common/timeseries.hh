/**
 * @file
 * Metric time-series engine: online statistics over interval samples.
 *
 * Each IntervalStats sampling tick feeds one value per metric into a
 * MetricSeries, which maintains — in O(1) per sample and bounded
 * memory — the online Welford mean/variance, the lag-1 autocorrelation
 * estimate, a batch-means confidence interval, and a bounded window of
 * recent (cycle, value) points for rendering. The batch-means CI is the
 * standard remedy for autocorrelated simulation output: consecutive
 * samples are grouped into batches whose means are approximately
 * independent, and a Student-t interval over the batch means bounds the
 * steady-state mean (Law & Kelton; the statistical kernel ROADMAP
 * item 1's SMARTS-style sampling builds on).
 *
 * TimeSeriesEngine bundles one MetricSeries per interval probe, renders
 * the whole state as JSON (the "timeseries" key in dumpStatsJson /
 * RunResult), serializes through the snapshot layer, and implements
 * convergence-bounded runs: ROWSIM_CONVERGE=<metric>:<rel_hw>[:<conf>]
 * latches a converged flag the System run loop polls, so the run stops
 * deterministically at the interval boundary where the target metric's
 * relative CI half-width first meets the bound.
 *
 * Everything here is pure double arithmetic on sampled values; none of
 * it feeds back into simulated behaviour, so the engine lives outside
 * the architectural state digest (stats pass only).
 */

#ifndef ROWSIM_COMMON_TIMESERIES_HH
#define ROWSIM_COMMON_TIMESERIES_HH

#include <cstdint>
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

    explicit MetricSeries(unsigned window = 512) : window_(window) {}

    void add(Cycle cycle, double v);

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

    /** Recent (cycle, value) points, oldest first, at most `window`. */
    std::vector<Cycle> windowCycles() const;
    std::vector<double> windowValues() const;
    unsigned window() const { return window_; }

    void save(Ser &s) const;
    /** Restore onto a same-window instance; throws SnapshotError on a
     *  geometry mismatch. */
    void restore(Deser &d);

  private:
    unsigned window_;

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

    // Bounded ring of recent points.
    std::vector<Cycle> ringCycles_;
    std::vector<double> ringValues_;
    std::size_t ringHead_ = 0;
};

/** Parse "<metric>:<rel_halfwidth>[:<confidence>]"; empty spec returns
 *  an inactive ConvergeSpec, anything malformed is fatal (naming
 *  @p what, e.g. "ROWSIM_CONVERGE"). */
ConvergeSpec parseConvergeSpec(const char *what, const std::string &spec);

/** Parse an on/off spec ("on"/"1"/"yes"/"true" vs "off"/"0"/"no"/
 *  "false"); anything else is fatal naming @p what. */
bool parseOnOffSpec(const char *what, const std::string &spec);

/** One MetricSeries per interval probe plus the convergence monitor. */
class TimeSeriesEngine
{
  public:
    /** Default ROWSIM_TS_WINDOW. */
    static constexpr unsigned kDefaultWindow = 512;

    TimeSeriesEngine(Cycle period, unsigned window, ConvergeSpec conv);

    /** Register a metric; call once per interval probe, in probe order,
     *  before the first observe(). */
    void addMetric(const std::string &name);

    /** Feed one interval sample (values in metric registration order). */
    void observe(Cycle now, const std::vector<double> &values);

    bool hasMetric(const std::string &name) const;
    const MetricSeries *find(const std::string &name) const;
    const std::vector<std::string> &metricNames() const { return names_; }

    const ConvergeSpec &converge() const { return conv_; }
    /** Latched once the target metric's CI meets the bound; the run
     *  loop polls this after each tick, so the stop lands exactly at
     *  the sample cycle that converged. */
    bool converged() const { return converged_; }
    Cycle convergedAtCycle() const { return convergedAt_; }
    /** Relative CI half-width of the converge metric right now (or
     *  infinity while invalid); 0 when no converge spec is active. */
    double achievedRelHalfwidth() const;

    /** The whole engine state as one JSON object. */
    std::string toJson() const;

    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    Cycle period_;
    unsigned window_;
    ConvergeSpec conv_;
    std::vector<std::string> names_;
    std::vector<MetricSeries> series_;
    std::size_t convIdx_ = SIZE_MAX;
    bool converged_ = false;
    Cycle convergedAt_ = 0;
};

} // namespace rowsim

#endif // ROWSIM_COMMON_TIMESERIES_HH
