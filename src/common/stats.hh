/**
 * @file
 * Lightweight statistics package in the spirit of gem5's Stats.
 *
 * Components register named counters/histograms in a StatGroup; the
 * experiment harness reads them by name to build the paper's figures.
 */

#ifndef ROWSIM_COMMON_STATS_HH
#define ROWSIM_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace rowsim
{

class Ser;
class Deser;

/** A scalar event counter. */
class Counter
{
  public:
    void operator++(int) { value_ += 1; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar> void visit(Ar &ar) { ar.u64(value_); }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean / min / max of a sampled quantity (e.g. a latency). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
        if (v < min_ || count_ == 1)
            min_ = v;
        if (v > max_ || count_ == 1)
            max_ = v;
    }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        min_ = 0;
        max_ = 0;
    }

    /** Accumulate another summary (for cross-core aggregation). */
    void
    merge(const Average &other)
    {
        if (!other.count_)
            return;
        if (!count_) {
            *this = other;
            return;
        }
        sum_ += other.sum_;
        count_ += other.count_;
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double min() const { return min_; }
    double max() const { return max_; }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.f64(sum_);
        ar.u64(count_);
        ar.f64(min_);
        ar.f64(max_);
    }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/** Fixed-bucket histogram for distribution statistics. */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned buckets)
        : lo_(lo), hi_(hi), counts_(buckets, 0)
    {
        ROWSIM_ASSERT(hi > lo && buckets > 0, "bad histogram bounds");
    }

    void
    sample(double v)
    {
        avg_.sample(v);
        if (v < lo_) {
            underflow_++;
        } else if (v >= hi_) {
            overflow_++;
        } else {
            auto idx = static_cast<std::size_t>(
                (v - lo_) / (hi_ - lo_) * counts_.size());
            // Float rounding can push v just below hi_ onto idx ==
            // counts_.size() (e.g. when v - lo_ rounds up to hi_ - lo_);
            // clamp into the top bucket instead of writing out of bounds.
            if (idx >= counts_.size())
                idx = counts_.size() - 1;
            counts_[idx]++;
        }
    }

    void
    reset()
    {
        avg_.reset();
        underflow_ = 0;
        overflow_ = 0;
        for (auto &c : counts_)
            c = 0;
    }

    const std::vector<std::uint64_t> &buckets() const { return counts_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const Average &summary() const { return avg_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /**
     * Approximate p-quantile (p in [0,1]) by linear interpolation
     * inside the bucket holding the target rank. Underflow samples
     * resolve to the observed minimum, overflow to the observed
     * maximum (the bucket bounds say nothing about their true values).
     * Returns 0 with no samples.
     */
    double percentile(double p) const;

    /** Accumulate @p other into this histogram (same geometry). */
    void merge(const Histogram &other);

    void save(Ser &s) const;
    /** Restore contents; throws SnapshotError on geometry mismatch. */
    void restore(Deser &d);

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    Average avg_;
};

/**
 * A derived statistic: a closure over other stats, evaluated lazily at
 * dump time (gem5's Formula, minus the expression tree).
 */
class Formula
{
  public:
    Formula &
    operator=(std::function<double()> fn)
    {
        fn_ = std::move(fn);
        return *this;
    }

    bool defined() const { return static_cast<bool>(fn_); }
    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

/**
 * A named bag of statistics. Components own one and register their
 * counters; System aggregates per-core groups for reporting.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Pinned in memory: stat handles (below) point into the group. */
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    Counter &counter(const std::string &name);
    Average &average(const std::string &name);
    Formula &formula(const std::string &name);
    /** Get-or-create a histogram; geometry is fixed on first call. */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         unsigned buckets);

    /** Read a counter by name; 0 if it was never created. */
    std::uint64_t counterValue(const std::string &name) const;
    /** Read an average by name; default-constructed if absent. */
    const Average *findAverage(const std::string &name) const;
    /** Read a histogram by name; nullptr if absent. */
    const Histogram *findHistogram(const std::string &name) const;
    /** Evaluate a formula by name; 0 if absent. */
    double formulaValue(const std::string &name) const;

    void reset();

    /** Serialize every counter/average/histogram by name. Formulas are
     *  closures re-registered at construction and are not serialized. */
    void save(Ser &s) const;
    /** Replace counters/averages/histograms with the saved set (lazy
     *  stat creation is monotonic, so continuing a restored run yields
     *  the same final name set as an uninterrupted one). Bumps
     *  generation(), so every handle re-binds on its next use. Throws
     *  SnapshotError if the group name differs. */
    void restore(Deser &d);

    /** Starts at 1 and changes whenever the stat storage is replaced;
     *  a handle bound under another generation re-binds. */
    std::uint64_t generation() const { return generation_; }

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Average> &averages() const
    {
        return averages_;
    }
    const std::map<std::string, Formula> &formulas() const
    {
        return formulas_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Formula> formulas_;
    std::map<std::string, Histogram> histograms_;
    std::uint64_t generation_ = 1;
};

/**
 * A statistic of one StatGroup, declared once as a member of its owner
 * (gem5 declares its stats the same way) so the hot path pays no
 * string-keyed lookup. A handle binds on its first dereference through
 * the group's get-or-create call, so the stat enters counters(), stats
 * JSON and snapshots exactly when a by-name call would have created it;
 * a handle never dereferenced leaves no trace. It re-binds after
 * StatGroup::restore replaced the storage. The owner holds the group,
 * and both are pinned in memory. @p Self supplies `T &bind()`, the
 * group's get-or-create call for the stat.
 */
template <typename T, typename Self>
class StatHandle
{
  public:
    StatHandle(const StatHandle &) = delete;
    StatHandle &operator=(const StatHandle &) = delete;

    T &
    operator*()
    {
        if (gen_ != group_.generation()) {
            stat_ = &static_cast<Self *>(this)->bind();
            gen_ = group_.generation();
        }
        return *stat_;
    }

  protected:
    StatHandle(StatGroup &group, const char *name)
        : group_(group), name_(name)
    {}

    StatGroup &group_;
    const char *name_;

  private:
    T *stat_ = nullptr;
    std::uint64_t gen_ = 0; ///< generation stat_ was bound under
};

class CounterStat : public StatHandle<Counter, CounterStat>
{
  public:
    CounterStat(StatGroup &group, const char *name)
        : StatHandle(group, name)
    {}

    void operator++(int) { (**this)++; }

  private:
    friend StatHandle;
    Counter &bind() { return group_.counter(name_); }
};

class AverageStat : public StatHandle<Average, AverageStat>
{
  public:
    AverageStat(StatGroup &group, const char *name)
        : StatHandle(group, name)
    {}

    void sample(double v) { (**this).sample(v); }

  private:
    friend StatHandle;
    Average &bind() { return group_.average(name_); }
};

/** A histogram handle carries the geometry its first use fixes. */
class HistogramStat : public StatHandle<Histogram, HistogramStat>
{
  public:
    HistogramStat(StatGroup &group, const char *name, double lo, double hi,
                  unsigned buckets)
        : StatHandle(group, name), lo_(lo), hi_(hi), buckets_(buckets)
    {}

    void sample(double v) { (**this).sample(v); }

  private:
    friend StatHandle;
    Histogram &
    bind()
    {
        return group_.histogram(name_, lo_, hi_, buckets_);
    }

    double lo_, hi_;
    unsigned buckets_;
};

} // namespace rowsim

#endif // ROWSIM_COMMON_STATS_HH
