#include "common/timeseries.hh"

#include <cmath>
#include <cstdlib>

#include "common/log.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

namespace
{

/** Acklam's rational approximation of the standard-normal inverse CDF
 *  (relative error < 1.15e-9 over (0, 1)). */
double
normQuantile(double p)
{
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00, 2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double plow = 0.02425;
    if (p < plow) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                    q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p <= 1.0 - plow) {
        const double q = p - 0.5;
        const double r = q * q;
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                    r + a[5]) *
               q /
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) *
                    r + 1.0);
    }
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                 q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

} // namespace

double
tQuantile(double p, std::uint64_t df)
{
    ROWSIM_ASSERT(p > 0.5 && p < 1.0 && df >= 1,
                  "tQuantile needs p in (0.5, 1) and df >= 1");
    // Closed forms for the heaviest tails, where the expansion in 1/df
    // is weakest.
    if (df == 1)
        return std::tan(M_PI * (p - 0.5));
    if (df == 2) {
        const double x = 2.0 * p - 1.0;
        return x * std::sqrt(2.0 / (1.0 - x * x));
    }
    // Cornish-Fisher expansion of the t quantile around the normal one.
    const double z = normQuantile(p);
    const double z2 = z * z;
    const double v = static_cast<double>(df);
    double t = z;
    t += (z2 + 1.0) * z / (4.0 * v);
    t += ((5.0 * z2 + 16.0) * z2 + 3.0) * z / (96.0 * v * v);
    t += (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z /
         (384.0 * v * v * v);
    t += ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 -
          945.0) *
         z / (92160.0 * v * v * v * v);
    return t;
}

void
MetricSeries::add(double v)
{
    // Welford.
    n_++;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);

    // Lag-1 cross-product.
    if (n_ > 1)
        crossSum_ += prev_ * v;
    prev_ = v;

    // Batch means with pairwise collapse.
    curSum_ += v;
    curCount_++;
    if (curCount_ == batchSize_) {
        batchSums_.push_back(curSum_);
        curSum_ = 0;
        curCount_ = 0;
        if (batchSums_.size() == kMaxBatches) {
            for (std::size_t i = 0; i < kMaxBatches / 2; i++)
                batchSums_[i] = batchSums_[2 * i] + batchSums_[2 * i + 1];
            batchSums_.resize(kMaxBatches / 2);
            batchSize_ *= 2;
        }
    }
}

double
MetricSeries::stddev() const
{
    return std::sqrt(variance());
}

double
MetricSeries::lag1() const
{
    if (n_ < 3)
        return 0.0;
    const double nd = static_cast<double>(n_);
    const double c0 = m2_ / nd; // population variance
    if (c0 <= 0.0)
        return 0.0;
    const double c1 =
        crossSum_ / (nd - 1.0) - mean_ * mean_; // lag-1 autocovariance
    const double rho = c1 / c0;
    return rho > 1.0 ? 1.0 : (rho < -1.0 ? -1.0 : rho);
}

MetricSeries::Ci
MetricSeries::ci(double confidence) const
{
    Ci out;
    const std::size_t k = batchSums_.size();
    if (k < kMinBatches)
        return out;
    const double kd = static_cast<double>(k);
    const double m = static_cast<double>(batchSize_);
    double center = 0;
    for (double s : batchSums_)
        center += s / m;
    center /= kd;
    double s2 = 0;
    for (double s : batchSums_) {
        const double dev = s / m - center;
        s2 += dev * dev;
    }
    s2 /= kd - 1.0;
    const double p = 1.0 - (1.0 - confidence) / 2.0;
    out.valid = true;
    out.confidence = confidence;
    out.halfwidth = tQuantile(p, k - 1) * std::sqrt(s2 / kd);
    out.lo = center - out.halfwidth;
    out.hi = center + out.halfwidth;
    if (out.halfwidth == 0.0)
        out.relHalfwidth = 0.0;
    else if (center == 0.0)
        out.relHalfwidth = INFINITY;
    else
        out.relHalfwidth = out.halfwidth / std::fabs(center);
    return out;
}

void
MetricSeries::save(Ser &s) const
{
    s.section("mseries");
    s.u64(n_);
    s.f64(mean_);
    s.f64(m2_);
    s.f64(prev_);
    s.f64(crossSum_);
    s.u64(batchSize_);
    s.u64(batchSums_.size());
    for (double b : batchSums_)
        s.f64(b);
    s.f64(curSum_);
    s.u64(curCount_);
}

void
MetricSeries::restore(Deser &d)
{
    d.section("mseries");
    n_ = d.u64();
    mean_ = d.f64();
    m2_ = d.f64();
    prev_ = d.f64();
    crossSum_ = d.f64();
    batchSize_ = d.u64();
    const std::uint64_t batches = d.u64();
    // add() collapses on reaching kMaxBatches and never completes a
    // batch of size 0, so neither layout can come from a saved series.
    if (batchSize_ == 0 || batches >= kMaxBatches) {
        throw SnapshotError(strprintf(
            "metric series batch layout %llu x %llu is impossible "
            "(batch size must be > 0, batches < %u)",
            static_cast<unsigned long long>(batches),
            static_cast<unsigned long long>(batchSize_), kMaxBatches));
    }
    batchSums_.resize(batches);
    for (auto &b : batchSums_)
        b = d.f64();
    curSum_ = d.f64();
    curCount_ = d.u64();
    if (curCount_ >= batchSize_) {
        throw SnapshotError(strprintf(
            "metric series open batch holds %llu samples, batch size "
            "is %llu",
            static_cast<unsigned long long>(curCount_),
            static_cast<unsigned long long>(batchSize_)));
    }
}

ConvergeSpec
parseConvergeSpec(const char *what, const std::string &spec)
{
    ConvergeSpec c;
    if (spec.empty())
        return c;
    const std::size_t first = spec.find(':');
    if (first == std::string::npos || first == 0) {
        ROWSIM_FATAL("bad %s '%s' (expected "
                     "<metric>:<rel_halfwidth>[:<confidence>])",
                     what, spec.c_str());
    }
    c.metric = spec.substr(0, first);
    const std::size_t second = spec.find(':', first + 1);
    const std::string rel =
        spec.substr(first + 1, second == std::string::npos
                                   ? std::string::npos
                                   : second - first - 1);
    auto parseFraction = [&](const std::string &text, const char *field,
                             bool allowGeOne) {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || !end || *end != '\0' || !std::isfinite(v) ||
            v <= 0.0 || (!allowGeOne && v >= 1.0)) {
            ROWSIM_FATAL("bad %s '%s': %s '%s' must be a number in "
                         "(0, 1%s",
                         what, spec.c_str(), field, text.c_str(),
                         allowGeOne ? "e9)" : ")");
        }
        return v;
    };
    c.relHalfwidth = parseFraction(rel, "rel_halfwidth", true);
    if (second != std::string::npos) {
        c.confidence = parseFraction(spec.substr(second + 1), "confidence",
                                     false);
    }
    c.active = true;
    return c;
}

bool
parseOnOffSpec(const char *what, const std::string &spec)
{
    if (spec == "on" || spec == "1" || spec == "yes" || spec == "true")
        return true;
    if (spec == "off" || spec == "0" || spec == "no" || spec == "false")
        return false;
    ROWSIM_FATAL("bad %s '%s' (valid: on, off)", what, spec.c_str());
}

void
IntervalSampler::configure(Cycle period, bool engine, ConvergeSpec conv)
{
    period_ = period;
    nextAt_ = period;
    engine_ = engine;
    conv_ = std::move(conv);
}

void
IntervalSampler::addProbe(std::string name, std::function<double()> read)
{
    if (engine_ && conv_.active && name == conv_.metric)
        convIdx_ = probes_.size();
    Probe p;
    p.name = std::move(name);
    p.read = std::move(read);
    probes_.push_back(std::move(p));
}

void
IntervalSampler::sample(Cycle now)
{
    cycles_.push_back(now);
    for (Probe &p : probes_) {
        const double v = p.read();
        p.series.push_back(v - p.last);
        p.last = v;
        if (engine_)
            p.stats.add(p.series.back());
    }
    while (nextAt_ <= now)
        nextAt_ += period_;
    if (convIdx_ != SIZE_MAX && !converged_) {
        const MetricSeries::Ci c =
            probes_[convIdx_].stats.ci(conv_.confidence);
        if (c.valid && c.relHalfwidth <= conv_.relHalfwidth) {
            converged_ = true;
            convergedAt_ = now;
        }
    }
}

const IntervalSampler::Probe *
IntervalSampler::find(const std::string &name) const
{
    for (const Probe &p : probes_) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

double
IntervalSampler::achievedRelHalfwidth() const
{
    if (convIdx_ == SIZE_MAX)
        return 0.0;
    const MetricSeries::Ci c =
        probes_[convIdx_].stats.ci(conv_.confidence);
    return c.valid ? c.relHalfwidth : INFINITY;
}

std::string
IntervalSampler::toJson() const
{
    // %.6g everywhere, matching dumpStatsJson: enough digits for the
    // renderers, and byte-stable because every input double is
    // bit-reproduced across runs / restores.
    auto num = [](double v) {
        return std::isfinite(v) ? strprintf("%.6g", v)
                                : std::string("null");
    };
    // The rendered points are the newest kWindow samples.
    const std::size_t first =
        cycles_.size() > kWindow ? cycles_.size() - kWindow : 0;
    std::string j = strprintf(
        "{\"period\": %llu, \"window\": %u, \"metrics\": {",
        static_cast<unsigned long long>(period_), kWindow);
    for (std::size_t i = 0; i < probes_.size(); i++) {
        const Probe &p = probes_[i];
        const MetricSeries &m = p.stats;
        const MetricSeries::Ci c = m.ci(
            conv_.active ? conv_.confidence : 0.95);
        j += strprintf(
            "%s\"%s\": {\"count\": %llu, \"mean\": %s, \"stddev\": %s, "
            "\"lag1\": %s, \"batches\": %u, \"batchSize\": %llu, "
            "\"ci\": {\"valid\": %s, \"confidence\": %s, "
            "\"halfwidth\": %s, \"rel\": %s, \"lo\": %s, \"hi\": %s}, "
            "\"points\": {\"cycles\": [",
            i ? ", " : "", p.name.c_str(),
            static_cast<unsigned long long>(m.count()),
            num(m.mean()).c_str(), num(m.stddev()).c_str(),
            num(m.lag1()).c_str(), m.batchCount(),
            static_cast<unsigned long long>(m.batchSize()),
            c.valid ? "true" : "false", num(c.confidence).c_str(),
            num(c.halfwidth).c_str(), num(c.relHalfwidth).c_str(),
            num(c.lo).c_str(), num(c.hi).c_str());
        for (std::size_t s = first; s < cycles_.size(); s++) {
            j += strprintf("%s%llu", s > first ? ", " : "",
                           static_cast<unsigned long long>(cycles_[s]));
        }
        j += "], \"values\": [";
        for (std::size_t s = first; s < p.series.size(); s++) {
            j += strprintf("%s%s", s > first ? ", " : "",
                           num(p.series[s]).c_str());
        }
        j += "]}}";
    }
    j += "}";
    if (conv_.active) {
        j += strprintf(
            ", \"converge\": {\"metric\": \"%s\", \"target\": %s, "
            "\"confidence\": %s, \"achieved\": %s, \"converged\": %s, "
            "\"atCycle\": %llu}",
            conv_.metric.c_str(), num(conv_.relHalfwidth).c_str(),
            num(conv_.confidence).c_str(),
            num(achievedRelHalfwidth()).c_str(),
            converged_ ? "true" : "false",
            static_cast<unsigned long long>(convergedAt_));
    }
    j += "}";
    return j;
}

void
IntervalSampler::save(Ser &s) const
{
    s.section("interval");
    s.u64(period_);
    s.u64(nextAt_);
    s.u64(probes_.size());
    for (const Probe &p : probes_)
        s.f64(p.last);
    s.u64(cycles_.size());
    for (Cycle c : cycles_)
        s.u64(c);
    for (const Probe &p : probes_) {
        s.u64(p.series.size());
        for (double v : p.series)
            s.f64(v);
    }
    s.b(engine_);
    if (!engine_)
        return;
    s.section("timeseries");
    s.b(conv_.active);
    s.str(conv_.metric);
    s.f64(conv_.relHalfwidth);
    s.f64(conv_.confidence);
    for (const Probe &p : probes_)
        p.stats.save(s);
    s.b(converged_);
    s.u64(convergedAt_);
}

void
IntervalSampler::restore(Deser &d)
{
    d.section("interval");
    const Cycle period = d.u64();
    if (period != period_) {
        throw SnapshotError(strprintf(
            "interval sampler period mismatch: image sampled every %llu "
            "cycles, this run every %llu",
            static_cast<unsigned long long>(period),
            static_cast<unsigned long long>(period_)));
    }
    nextAt_ = d.u64();
    const std::uint64_t nProbes = d.u64();
    if (nProbes != probes_.size()) {
        throw SnapshotError(strprintf(
            "interval sampler probe count mismatch: image has %llu, "
            "this run registered %zu",
            static_cast<unsigned long long>(nProbes), probes_.size()));
    }
    for (Probe &p : probes_)
        p.last = d.f64();
    // A sample takes 8 bytes for its cycle plus 8 per probe; bound the
    // count by the bytes left before anything is sized by it.
    const std::uint64_t samples = d.u64();
    if (samples > d.remaining() / (8 * (probes_.size() + 1))) {
        throw SnapshotError(strprintf(
            "interval sampler: %llu samples cannot fit in %zu bytes",
            static_cast<unsigned long long>(samples), d.remaining()));
    }
    cycles_.resize(samples);
    for (Cycle &c : cycles_)
        c = d.u64();
    for (Probe &p : probes_) {
        const std::uint64_t n = d.u64();
        if (n != samples) {
            throw SnapshotError(strprintf(
                "interval sampler: probe '%s' has %llu samples, the "
                "image %llu sample cycles",
                p.name.c_str(), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(samples)));
        }
        p.series.resize(n);
        for (double &v : p.series)
            v = d.f64();
    }

    const bool engine = d.b();
    if (engine != engine_) {
        throw SnapshotError(strprintf(
            "time-series mismatch: image was taken %s the metric "
            "time-series engine, this run is %s it",
            engine ? "with" : "without", engine_ ? "with" : "without"));
    }
    if (!engine_)
        return;
    d.section("timeseries");
    const bool active = d.b();
    const std::string metric = d.str();
    const double rel = d.f64();
    const double conf = d.f64();
    if (active != conv_.active || metric != conv_.metric ||
        rel != conv_.relHalfwidth || conf != conv_.confidence) {
        throw SnapshotError(strprintf(
            "convergence spec mismatch: image ran with '%s', this run "
            "with '%s'",
            active ? strprintf("%s:%g:%g", metric.c_str(), rel, conf)
                         .c_str()
                   : "off",
            conv_.active
                ? strprintf("%s:%g:%g", conv_.metric.c_str(),
                            conv_.relHalfwidth, conv_.confidence)
                      .c_str()
                : "off"));
    }
    for (Probe &p : probes_) {
        p.stats.restore(d);
        if (p.stats.count() != samples) {
            throw SnapshotError(strprintf(
                "time-series metric '%s' counts %llu samples, the image "
                "%llu",
                p.name.c_str(),
                static_cast<unsigned long long>(p.stats.count()),
                static_cast<unsigned long long>(samples)));
        }
    }
    converged_ = d.b();
    convergedAt_ = d.u64();
}

} // namespace rowsim
