#include "sim/faults.hh"

#include <cctype>
#include <vector>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"

namespace rowsim
{

const char *
faultCategoryName(FaultCategory c)
{
    switch (c) {
      case FaultCategory::NetDelay: return "netdelay";
      case FaultCategory::DirStall: return "dirstall";
      case FaultCategory::Evict: return "evict";
      case FaultCategory::UnblockDelay: return "unblockdelay";
    }
    return "?";
}

std::uint32_t
parseFaultCategories(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        while (!tok.empty() && (tok.front() == ' ' || tok.front() == '\t'))
            tok.erase(tok.begin());
        while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t'))
            tok.pop_back();
        for (auto &ch : tok)
            ch = static_cast<char>(std::tolower(ch));
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= faultCategoryAll;
            continue;
        }
        if (tok == "none")
            continue;
        bool known = false;
        for (std::uint32_t bit = 1; bit <= faultCategoryAll; bit <<= 1) {
            if (tok == faultCategoryName(static_cast<FaultCategory>(bit))) {
                mask |= bit;
                known = true;
                break;
            }
        }
        if (!known)
            ROWSIM_FATAL("unknown fault category '%s' (valid: netdelay, "
                         "dirstall, evict, unblockdelay, all, none)",
                         tok.c_str());
    }
    return mask;
}

FaultInjector::FaultInjector(System *system, std::uint32_t mask,
                             std::uint64_t seed, unsigned rate)
    : sys(system), mask_(mask), seed_(seed), rate_(rate), rng(seed),
      stats_("faults")
{
}

Cycle
FaultInjector::extraDelay(const Msg &msg, Cycle now)
{
    Cycle extra = 0;
    if (enabled(FaultCategory::NetDelay) && rng.below(10000) < rate_) {
        extra += 1 + rng.below(16);
        stats_.counter("delayedMessages")++;
    }
    // Unblocks get an aggressive extra-delay multiplier: the window
    // between a transaction finishing at the caches and the directory
    // learning about it is exactly where the Fig. 8 race lives.
    if (enabled(FaultCategory::UnblockDelay) &&
        msg.type == MsgType::Unblock && rng.below(10000) < 8 * rate_) {
        extra += 8 + rng.below(56);
        stats_.counter("delayedUnblocks")++;
    }
    if (extra) {
        ROWSIM_TRACE(TraceCategory::Network, now,
                     "fault: +%llu cycles on %s",
                     static_cast<unsigned long long>(extra),
                     msg.toString().c_str());
    }
    return extra;
}

void
FaultInjector::tick(Cycle now)
{
    if (enabled(FaultCategory::DirStall) && rng.below(40000) < rate_) {
        const unsigned bank =
            static_cast<unsigned>(rng.below(sys->mem().numBanks()));
        const Cycle until = now + 16 + rng.below(112);
        sys->mem().directory(bank).injectStall(until);
        stats_.counter("injectedStalls")++;
        ROWSIM_TRACE(TraceCategory::Coherence, now,
                     "fault: stall dir%u until %llu", bank,
                     static_cast<unsigned long long>(until));
    }
    if (enabled(FaultCategory::Evict) && rng.below(10000) < rate_)
        attemptEviction(now);
}

void
FaultInjector::attemptEviction(Cycle now)
{
    const unsigned n = sys->numCores();

    // Prefer lines the atomics are actually working on: evicting near a
    // locked line forces refetch-while-locked and PutM-crossing traffic.
    std::vector<Addr> targets;
    for (CoreId c = 0; c < n; c++) {
        sys->core(c).atomicQueue().forEach([&](const AqEntry &a) {
            if (a.addr != invalidAddr)
                targets.push_back(a.line());
        });
    }

    Addr victim = invalidAddr;
    if (!targets.empty() && rng.below(4) != 0) {
        victim = targets[rng.below(targets.size())];
    } else {
        // Fall back to any resident line of a random cache.
        const CoreId c = static_cast<CoreId>(rng.below(n));
        std::vector<Addr> resident;
        sys->mem().cache(c).forEachL2Line(
            [&](Addr line, CacheState) { resident.push_back(line); });
        if (resident.empty())
            return;
        victim = resident[rng.below(resident.size())];
    }

    // Try every core's copy starting from a random one; forceEvict
    // refuses locked/in-transit lines, so the first taker is legal.
    const CoreId start = static_cast<CoreId>(rng.below(n));
    for (unsigned i = 0; i < n; i++) {
        const CoreId c = static_cast<CoreId>((start + i) % n);
        if (sys->mem().cache(c).forceEvict(victim, now)) {
            stats_.counter("forcedEvictions")++;
            return;
        }
    }
}

template <class Ar>
void
FaultInjector::visit(Ar &ar)
{
    ar.section("faults");
    ar.expect(mask_, "fault injector mask");
    ar.expect(rate_, "fault injector rate");
    std::uint64_t state[4];
    rng.getState(state);
    for (std::uint64_t &w : state)
        ar.u64(w);
    if constexpr (Ar::loading)
        rng.setState(state);
}

template void FaultInjector::visit(Ser &);
template void FaultInjector::visit(Deser &);

} // namespace rowsim
