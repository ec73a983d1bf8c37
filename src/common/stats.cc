#include "common/stats.hh"

#include "sim/snapshot.hh"

namespace rowsim
{

void
Histogram::save(Ser &s) const
{
    s.f64(lo_);
    s.f64(hi_);
    s.u64(counts_.size());
    for (std::uint64_t c : counts_)
        s.u64(c);
    s.u64(underflow_);
    s.u64(overflow_);
    s.io(avg_);
}

void
Histogram::restore(Deser &d)
{
    const double lo = d.f64();
    const double hi = d.f64();
    const std::uint64_t buckets = d.u64();
    if (lo != lo_ || hi != hi_ || buckets != counts_.size()) {
        throw SnapshotError(strprintf(
            "histogram geometry mismatch: image has [%g, %g) x %llu, "
            "this build expects [%g, %g) x %zu",
            lo, hi, static_cast<unsigned long long>(buckets), lo_, hi_,
            counts_.size()));
    }
    for (auto &c : counts_)
        c = d.u64();
    underflow_ = d.u64();
    overflow_ = d.u64();
    d.io(avg_);
}

void
StatGroup::save(Ser &s) const
{
    s.section("statgroup");
    s.str(name_);
    s.u64(counters_.size());
    for (const auto &[name, c] : counters_) {
        s.str(name);
        s.io(c);
    }
    s.u64(averages_.size());
    for (const auto &[name, a] : averages_) {
        s.str(name);
        s.io(a);
    }
    s.u64(histograms_.size());
    for (const auto &[name, h] : histograms_) {
        s.str(name);
        h.save(s);
    }
}

void
StatGroup::restore(Deser &d)
{
    d.section("statgroup");
    const std::string name = d.str();
    if (name != name_) {
        throw SnapshotError(strprintf(
            "stat group mismatch: image has '%s', expected '%s'",
            name.c_str(), name_.c_str()));
    }
    generation_++;
    counters_.clear();
    const std::uint64_t nCounters = d.u64();
    for (std::uint64_t i = 0; i < nCounters; i++) {
        const std::string key = d.str();
        d.io(counters_[key]);
    }
    averages_.clear();
    const std::uint64_t nAverages = d.u64();
    for (std::uint64_t i = 0; i < nAverages; i++) {
        const std::string key = d.str();
        d.io(averages_[key]);
    }
    // Histograms have no default constructor (geometry is fixed at
    // creation); emplace each with the geometry peeked from the stream,
    // then let Histogram::restore re-verify it and fill the contents.
    histograms_.clear();
    const std::uint64_t nHistograms = d.u64();
    for (std::uint64_t i = 0; i < nHistograms; i++) {
        const std::string key = d.str();
        Deser peek = d;
        const double lo = peek.f64();
        const double hi = peek.f64();
        const std::uint64_t buckets = peek.u64();
        if (!(hi > lo) || buckets == 0 || buckets > (1u << 20)) {
            throw SnapshotError(strprintf(
                "corrupted histogram geometry for '%s'", key.c_str()));
        }
        auto it = histograms_
                      .emplace(key, Histogram(lo, hi,
                                              static_cast<unsigned>(buckets)))
                      .first;
        it->second.restore(d);
    }
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Average &
StatGroup::average(const std::string &name)
{
    return averages_[name];
}

Formula &
StatGroup::formula(const std::string &name)
{
    return formulas_[name];
}

Histogram &
StatGroup::histogram(const std::string &name, double lo, double hi,
                     unsigned buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(lo, hi, buckets)).first;
    return it->second;
}

double
StatGroup::formulaValue(const std::string &name) const
{
    auto it = formulas_.find(name);
    return it == formulas_.end() ? 0.0 : it->second.value();
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

const Average *
StatGroup::findAverage(const std::string &name) const
{
    auto it = averages_.find(name);
    return it == averages_.end() ? nullptr : &it->second;
}

const Histogram *
StatGroup::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
StatGroup::reset()
{
    // Formulas are derived values; resetting the inputs resets them.
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : averages_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

double
Histogram::percentile(double p) const
{
    const std::uint64_t n = avg_.count();
    if (n == 0)
        return 0.0;
    // Target rank in [1, n]; walk the distribution in value order.
    const double rank = p * static_cast<double>(n);
    double seen = static_cast<double>(underflow_);
    if (rank <= seen)
        return avg_.min();
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double inBucket = static_cast<double>(counts_[i]);
        if (rank <= seen + inBucket) {
            // Interpolate within [lo_ + i*width, lo_ + (i+1)*width).
            const double frac =
                inBucket > 0 ? (rank - seen) / inBucket : 0.0;
            return lo_ + (static_cast<double>(i) + frac) * width;
        }
        seen += inBucket;
    }
    return avg_.max();
}

void
Histogram::merge(const Histogram &other)
{
    ROWSIM_ASSERT(other.lo_ == lo_ && other.hi_ == hi_ &&
                      other.counts_.size() == counts_.size(),
                  "merging histograms with different geometry");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    avg_.merge(other.avg_);
}

} // namespace rowsim
