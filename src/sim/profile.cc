/**
 * @file
 * Attribution profiler implementation: category parsing, the
 * slot-conservation check, and the single-line JSON dump.
 */

#include "sim/profile.hh"

#include <algorithm>
#include <cstdlib>

namespace rowsim
{

const char *
profCategoryName(ProfCategory c)
{
    switch (c) {
      case ProfCategory::Cpi:   return "cpi";
      case ProfCategory::Lines: return "lines";
      case ProfCategory::Row:   return "row";
      case ProfCategory::Check: return "check";
    }
    return "?";
}

const char *
cpiBucketName(CpiBucket b)
{
    switch (b) {
      case CpiBucket::Retired:        return "retired";
      case CpiBucket::FrontendStall:  return "frontendStall";
      case CpiBucket::RobFull:        return "robFull";
      case CpiBucket::Exec:           return "exec";
      case CpiBucket::SqDrainWait:    return "sqDrainWait";
      case CpiBucket::AtomicLazyWait: return "atomicLazyWait";
      case CpiBucket::AtomicExecute:  return "atomicExecute";
      case CpiBucket::CoherenceMiss:  return "coherenceMiss";
      case CpiBucket::Idle:           return "idle";
      case CpiBucket::NumBuckets:     break;
    }
    return "?";
}

std::uint32_t
parseProfileCategories(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= profCategoryAll;
        } else if (tok == "none") {
            // explicit off; keeps "none" scripts readable
        } else if (tok == "cpi") {
            mask |= static_cast<std::uint32_t>(ProfCategory::Cpi);
        } else if (tok == "lines") {
            mask |= static_cast<std::uint32_t>(ProfCategory::Lines);
        } else if (tok == "row") {
            mask |= static_cast<std::uint32_t>(ProfCategory::Row);
        } else if (tok == "check") {
            // conservation check needs the cpi slots it checks
            mask |= static_cast<std::uint32_t>(ProfCategory::Check) |
                    static_cast<std::uint32_t>(ProfCategory::Cpi);
        } else {
            ROWSIM_FATAL("unknown profile category '%s' (valid: cpi, "
                         "lines, row, check, all, none)",
                         tok.c_str());
        }
    }
    return mask;
}

Profiler::Profiler(unsigned num_cores, unsigned commit_width)
    : numCores_(num_cores), commitWidth_(commit_width),
      activeMask_(mask_), cpi_(num_cores)
{
    for (auto &stack : cpi_)
        stack.fill(0);
}

void
Profiler::checkConservation(Cycle cycles, const char *where) const
{
    const std::uint64_t expect =
        static_cast<std::uint64_t>(cycles) * commitWidth_;
    for (unsigned c = 0; c < numCores_; ++c) {
        std::uint64_t total = 0;
        for (std::uint64_t slots : cpi_[c])
            total += slots;
        if (total != expect) {
            ROWSIM_PANIC("[profile:check] %s: core%u CPI stack has "
                         "%llu slots, expected %llu cycles x %u width "
                         "= %llu",
                         where, c,
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(cycles),
                         commitWidth_,
                         static_cast<unsigned long long>(expect));
        }
    }
}

Profiler::RowProf
Profiler::rowTotals() const
{
    RowProf t;
    for (const auto &kv : rowAudit_) {
        for (int p = 0; p < 2; ++p)
            for (int o = 0; o < 2; ++o)
                t.cell[p][o] += kv.second.cell[p][o];
        t.lazyWasteCycles += kv.second.lazyWasteCycles;
        t.eagerContendedCycles += kv.second.eagerContendedCycles;
    }
    return t;
}

namespace
{

unsigned
popcount64(std::uint64_t v)
{
    unsigned n = 0;
    while (v) {
        v &= v - 1;
        n++;
    }
    return n;
}

} // namespace

std::string
Profiler::toJson() const
{
    std::string out = "{";
    out += strprintf("\"commitWidth\":%u,\"categories\":\"", commitWidth_);
    bool firstCat = true;
    for (std::uint32_t bit = 1; bit & profCategoryAll; bit <<= 1) {
        if (activeMask_ & bit) {
            if (!firstCat)
                out += ",";
            out += profCategoryName(static_cast<ProfCategory>(bit));
            firstCat = false;
        }
    }
    out += "\"";

    if (activeMask_ & static_cast<std::uint32_t>(ProfCategory::Cpi)) {
        out += ",\"cpi\":[";
        for (unsigned c = 0; c < numCores_; ++c) {
            out += strprintf("%s{\"core\":%u", c ? "," : "", c);
            for (unsigned b = 0; b < numCpiBuckets; ++b)
                out += strprintf(
                    ",\"%s\":%llu",
                    cpiBucketName(static_cast<CpiBucket>(b)),
                    static_cast<unsigned long long>(cpi_[c][b]));
            out += "}";
        }
        out += "]";
    }

    if (activeMask_ & static_cast<std::uint32_t>(ProfCategory::Lines)) {
        std::vector<std::pair<Addr, const LineProf *>> sorted;
        sorted.reserve(lines_.size());
        for (const auto &kv : lines_)
            sorted.emplace_back(kv.first, &kv.second);
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second->holdCycles != b.second->holdCycles)
                          return a.second->holdCycles >
                                 b.second->holdCycles;
                      return a.first < b.first; // deterministic ties
                  });
        const std::uint64_t k = topK_;
        if (sorted.size() > k)
            sorted.resize(k);
        out += strprintf(",\"linesTracked\":%zu,\"lines\":[",
                         lines_.size());
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            const LineProf &p = *sorted[i].second;
            out += strprintf(
                "%s{\"line\":\"%#llx\",\"acquires\":%llu,"
                "\"holdCycles\":%llu,\"contendedUnlocks\":%llu,"
                "\"remoteFills\":%llu,\"ownerSwaps\":%llu,"
                "\"lockStalls\":%llu,\"lockStallCycles\":%llu,"
                "\"steals\":%llu,\"queuedMax\":%llu,\"cores\":%u}",
                i ? "," : "",
                static_cast<unsigned long long>(sorted[i].first),
                static_cast<unsigned long long>(p.acquires),
                static_cast<unsigned long long>(p.holdCycles),
                static_cast<unsigned long long>(p.contendedUnlocks),
                static_cast<unsigned long long>(p.remoteFills),
                static_cast<unsigned long long>(p.ownerSwaps),
                static_cast<unsigned long long>(p.lockStalls),
                static_cast<unsigned long long>(p.lockStallCycles),
                static_cast<unsigned long long>(p.steals),
                static_cast<unsigned long long>(p.queuedMax),
                popcount64(p.coresMask));
        }
        out += "]";
    }

    if (activeMask_ & static_cast<std::uint32_t>(ProfCategory::Row)) {
        std::vector<std::pair<Addr, const RowProf *>> sorted;
        sorted.reserve(rowAudit_.size());
        for (const auto &kv : rowAudit_)
            sorted.emplace_back(kv.first, &kv.second);
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        out += ",\"row\":{\"pcs\":[";
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            const RowProf &p = *sorted[i].second;
            out += strprintf(
                "%s{\"pc\":\"%#llx\",\"eagerUncontended\":%llu,"
                "\"eagerContended\":%llu,\"lazyUncontended\":%llu,"
                "\"lazyContended\":%llu,\"lazyWasteCycles\":%llu,"
                "\"eagerContendedCycles\":%llu}",
                i ? "," : "",
                static_cast<unsigned long long>(sorted[i].first),
                static_cast<unsigned long long>(p.cell[0][0]),
                static_cast<unsigned long long>(p.cell[0][1]),
                static_cast<unsigned long long>(p.cell[1][0]),
                static_cast<unsigned long long>(p.cell[1][1]),
                static_cast<unsigned long long>(p.lazyWasteCycles),
                static_cast<unsigned long long>(
                    p.eagerContendedCycles));
        }
        const RowProf t = rowTotals();
        const std::uint64_t total = t.cell[0][0] + t.cell[0][1] +
                                    t.cell[1][0] + t.cell[1][1];
        const std::uint64_t agree = t.cell[0][0] + t.cell[1][1];
        out += strprintf(
            "],\"totals\":{\"eagerUncontended\":%llu,"
            "\"eagerContended\":%llu,\"lazyUncontended\":%llu,"
            "\"lazyContended\":%llu,\"updates\":%llu,"
            "\"contendedOutcomes\":%llu,\"lazyWasteCycles\":%llu,"
            "\"eagerContendedCycles\":%llu},"
            "\"dispatchAccuracy\":%.6f}",
            static_cast<unsigned long long>(t.cell[0][0]),
            static_cast<unsigned long long>(t.cell[0][1]),
            static_cast<unsigned long long>(t.cell[1][0]),
            static_cast<unsigned long long>(t.cell[1][1]),
            static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(t.cell[0][1] +
                                            t.cell[1][1]),
            static_cast<unsigned long long>(t.lazyWasteCycles),
            static_cast<unsigned long long>(t.eagerContendedCycles),
            total ? static_cast<double>(agree) /
                        static_cast<double>(total)
                  : 0.0);
    }

    out += "}";
    return out;
}

} // namespace rowsim
