/**
 * @file
 * CPI-stack profiler implementation: category parsing, the
 * slot-conservation check, and the single-line JSON dump.
 */

#include "sim/profile.hh"

namespace rowsim
{

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
        if (tok == "all" || tok == "cpi") {
            mask |= profMask(ProfCategory::Cpi);
        } else if (tok != "none") {
            // "none" is an explicit off; keeps scripts readable.
            ROWSIM_FATAL("ROWSIM_PROFILE: unknown profile category '%s' "
                         "(valid: cpi, all, none)",
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

std::string
Profiler::toJson() const
{
    std::string out = strprintf(
        "{\"commitWidth\":%u,\"categories\":\"cpi\",\"cpi\":[",
        commitWidth_);
    for (unsigned c = 0; c < numCores_; ++c) {
        out += strprintf("%s{\"core\":%u", c ? "," : "", c);
        for (unsigned b = 0; b < numCpiBuckets; ++b)
            out += strprintf(",\"%s\":%llu",
                             cpiBucketName(static_cast<CpiBucket>(b)),
                             static_cast<unsigned long long>(cpi_[c][b]));
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace rowsim
