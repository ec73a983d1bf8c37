#include "sim/checker.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <unordered_map>

#include "sim/system.hh"

namespace rowsim
{

const char *
checkCategoryName(CheckCategory c)
{
    switch (c) {
      case CheckCategory::Swmr: return "swmr";
      case CheckCategory::Locks: return "locks";
      case CheckCategory::Leaks: return "leaks";
      case CheckCategory::Messages: return "messages";
      case CheckCategory::Occupancy: return "occupancy";
    }
    return "?";
}

std::uint32_t
parseCheckCategories(const std::string &spec)
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
            mask |= checkCategoryAll;
            continue;
        }
        if (tok == "none")
            continue;
        bool known = false;
        for (std::uint32_t bit = 1; bit <= checkCategoryAll; bit <<= 1) {
            if (tok == checkCategoryName(static_cast<CheckCategory>(bit))) {
                mask |= bit;
                known = true;
                break;
            }
        }
        if (!known)
            ROWSIM_FATAL("unknown check category '%s' (valid: swmr, locks, "
                         "leaks, messages, occupancy, all, none)",
                         tok.c_str());
    }
    return mask;
}

Checker::Checker(System *system, Cycle interval)
    : sys(system), interval_(interval ? interval : 1)
{
}

void
Checker::sweep(Cycle now)
{
    lastSweep_ = now;
    sweeps_++;
    if (enabled(CheckCategory::Swmr))
        checkSwmr(now);
    if (enabled(CheckCategory::Locks))
        checkLocks(now);
    if (enabled(CheckCategory::Leaks))
        checkLeaks(now);
    if (enabled(CheckCategory::Messages))
        checkMessages(now);
    if (enabled(CheckCategory::Occupancy))
        checkOccupancy(now);
}

namespace
{

/** Per-line holder summary built from the actual cache arrays. */
struct Holders
{
    std::uint64_t anyMask = 0; ///< cores holding the line in S or M
    CoreId mOwner = invalidCore;
};

} // namespace

void
Checker::checkSwmr(Cycle /* now */)
{
    const unsigned n = sys->numCores();
    MemSystem &mem = sys->mem();

    // Pass 1: summarise actual cache contents and enforce single-writer
    // and L1-subset-of-L2 locally.
    std::unordered_map<Addr, Holders> holders;
    for (CoreId c = 0; c < n; c++) {
        PrivateCache &pc = mem.cache(c);
        pc.forEachL2Line([&](Addr line, CacheState st) {
            Holders &h = holders[line];
            h.anyMask |= 1ULL << c;
            if (st != CacheState::Modified)
                return;
            if (h.mOwner != invalidCore) {
                ROWSIM_PANIC("[check:swmr] line %#llx is Modified in both "
                             "l1d%u and l1d%u (single-writer violated)",
                             static_cast<unsigned long long>(line),
                             h.mOwner, c);
            }
            h.mOwner = c;
        });
        pc.forEachL1Line([&](Addr line, CacheState st) {
            const CacheState l2 = pc.lineState(line);
            if (l2 != st) {
                ROWSIM_PANIC("[check:swmr] l1d%u line %#llx: L1 state %d "
                             "disagrees with L2 state %d",
                             c, static_cast<unsigned long long>(line),
                             static_cast<int>(st), static_cast<int>(l2));
            }
        });
    }

    // Pass 2: each M copy must be known to its home bank. Transactions
    // in flight leave the entry Blocked, which is exempt.
    for (const auto &kv : holders) {
        if (kv.second.mOwner == invalidCore)
            continue;
        const Addr line = kv.first;
        const CoreId owner = kv.second.mOwner;
        const unsigned bank =
            static_cast<unsigned>(mem.network().homeBank(line)) - n;
        const DirState st = mem.directory(bank).lineState(line);
        if (st == DirState::Blocked)
            continue;
        if (st != DirState::Modified) {
            ROWSIM_PANIC("[check:swmr] l1d%u holds line %#llx Modified "
                         "but dir%u records state %d",
                         owner, static_cast<unsigned long long>(line),
                         bank, static_cast<int>(st));
        }
        const CoreId recorded = mem.directory(bank).lineOwner(line);
        if (recorded != owner) {
            ROWSIM_PANIC("[check:swmr] dir%u owner of line %#llx is "
                         "core%u but l1d%u holds the Modified copy",
                         bank, static_cast<unsigned long long>(line),
                         recorded, owner);
        }
    }

    // Pass 3: directory records agree with actual contents for every
    // non-Blocked entry: recorded sharers/owner are a superset of actual
    // holders (silent Shared evictions shrink only the actual set), and
    // a recorded owner can be trusted to produce the data (M copy, or a
    // writeback / refetch in flight). Each visited line leaves
    // `holders`, so what remains afterwards has no entry at all.
    for (unsigned b = 0; b < mem.numBanks(); b++) {
        mem.directory(b).forEachLine([&](const Directory::LineInfo &i) {
            auto it = holders.find(i.line);
            std::uint64_t actual = 0;
            if (it != holders.end()) {
                actual = it->second.anyMask;
                holders.erase(it);
            }
            if (i.state == DirState::Blocked)
                return;
            std::uint64_t recorded = i.sharers;
            if (i.state == DirState::Modified) {
                if (i.owner >= n) {
                    ROWSIM_PANIC("[check:swmr] dir%u line %#llx Modified "
                                 "with invalid owner %u",
                                 b,
                                 static_cast<unsigned long long>(i.line),
                                 i.owner);
                }
                recorded |= 1ULL << i.owner;
                PrivateCache &oc = mem.cache(i.owner);
                const bool evidence =
                    oc.lineState(i.line) == CacheState::Modified ||
                    oc.isEvicting(i.line) || oc.hasMshr(i.line);
                if (!evidence) {
                    ROWSIM_PANIC("[check:swmr] dir%u says core%u owns "
                                 "line %#llx but l1d%u has no Modified "
                                 "copy, writeback, or refetch in flight",
                                 b, i.owner,
                                 static_cast<unsigned long long>(i.line),
                                 i.owner);
                }
            }
            if (actual & ~recorded) {
                ROWSIM_PANIC("[check:swmr] dir%u line %#llx: actual "
                             "holder mask %#llx is not covered by "
                             "recorded sharers/owner %#llx (state %d)",
                             b, static_cast<unsigned long long>(i.line),
                             static_cast<unsigned long long>(actual),
                             static_cast<unsigned long long>(recorded),
                             static_cast<int>(i.state));
            }
        });
    }

    // Pass 4: a private copy of a line its home bank has no entry for
    // is covered by no sharer bit (the lowest such line is named).
    if (!holders.empty()) {
        const auto it = std::min_element(
            holders.begin(), holders.end(),
            [](const auto &a, const auto &b) { return a.first < b.first; });
        const Addr line = it->first;
        ROWSIM_PANIC("[check:swmr] l1d%u holds line %#llx but dir%u has "
                     "no entry for it (holder mask %#llx)",
                     static_cast<CoreId>(
                         std::countr_zero(it->second.anyMask)),
                     static_cast<unsigned long long>(line),
                     static_cast<unsigned>(mem.network().homeBank(line)) -
                         n,
                     static_cast<unsigned long long>(it->second.anyMask));
    }
}

void
Checker::checkLocks(Cycle now)
{
    const unsigned n = sys->numCores();
    const Cycle bound = sys->params().deadlockCycles;
    std::unordered_map<Addr, CoreId> lockedBy;
    for (CoreId c = 0; c < n; c++) {
        Core &core = sys->core(c);
        core.atomicQueue().forEach([&](const AqEntry &a) {
            if (!a.locked)
                return;
            if (a.addr == invalidAddr) {
                ROWSIM_PANIC("[check:locks] core%u AQ seq %llu is locked "
                             "without a resolved address",
                             c, static_cast<unsigned long long>(a.seq));
            }
            const Addr line = a.line();
            if (sys->mem().cache(c).lineState(line) !=
                CacheState::Modified) {
                ROWSIM_PANIC("[check:locks] core%u AQ seq %llu holds the "
                             "lock on line %#llx but l1d%u does not hold "
                             "the line in M",
                             c, static_cast<unsigned long long>(a.seq),
                             static_cast<unsigned long long>(line), c);
            }
            if (!core.seqInFlight(a.seq) && !core.hasPendingUnlock(a.seq)) {
                ROWSIM_PANIC("[check:locks] core%u line %#llx is locked "
                             "by seq %llu which is neither in flight nor "
                             "pending unlock (leaked lock)",
                             c, static_cast<unsigned long long>(line),
                             static_cast<unsigned long long>(a.seq));
            }
            if (a.lockCycle != invalidCycle && now > a.lockCycle &&
                now - a.lockCycle > bound) {
                ROWSIM_PANIC("[check:locks] core%u has held the lock on "
                             "line %#llx for %llu cycles (seq %llu; no "
                             "forced unlock happened)",
                             c, static_cast<unsigned long long>(line),
                             static_cast<unsigned long long>(
                                 now - a.lockCycle),
                             static_cast<unsigned long long>(a.seq));
            }
            auto ins = lockedBy.emplace(line, c);
            if (!ins.second) {
                ROWSIM_PANIC("[check:locks] line %#llx is locked by both "
                             "core%u and core%u",
                             static_cast<unsigned long long>(line),
                             ins.first->second, c);
            }
        });
    }
}

void
Checker::checkLeaks(Cycle now)
{
    const unsigned n = sys->numCores();
    const Cycle bound = sys->params().deadlockCycles;
    MemSystem &mem = sys->mem();
    for (CoreId c = 0; c < n; c++) {
        mem.cache(c).forEachMshr([&](Addr line, const Mshr &m) {
            if (now > m.netIssueCycle && now - m.netIssueCycle > bound) {
                ROWSIM_PANIC("[check:leaks] l1d%u MSHR for line %#llx "
                             "outstanding for %llu cycles (request lost?)",
                             c, static_cast<unsigned long long>(line),
                             static_cast<unsigned long long>(
                                 now - m.netIssueCycle));
            }
        });
        mem.cache(c).forEachEvicting([&](Addr line, Cycle since) {
            if (now > since && now - since > bound) {
                ROWSIM_PANIC("[check:leaks] l1d%u writeback of line "
                             "%#llx unacknowledged for %llu cycles",
                             c, static_cast<unsigned long long>(line),
                             static_cast<unsigned long long>(now - since));
            }
        });
    }
    for (unsigned b = 0; b < mem.numBanks(); b++) {
        mem.directory(b).forEachLine([&](const Directory::LineInfo &i) {
            if (i.state == DirState::Blocked &&
                i.blockedSince != invalidCycle && now > i.blockedSince &&
                now - i.blockedSince > bound) {
                ROWSIM_PANIC("[check:leaks] dir%u line %#llx Blocked for "
                             "%llu cycles (requester core%u, %zu queued; "
                             "Unblock lost?)",
                             b, static_cast<unsigned long long>(i.line),
                             static_cast<unsigned long long>(
                                 now - i.blockedSince),
                             i.txnRequester, i.queued);
            }
            if (i.queued > 4 * static_cast<std::size_t>(n)) {
                ROWSIM_PANIC("[check:leaks] dir%u line %#llx has %zu "
                             "queued requests for %u cores (queue leak)",
                             b, static_cast<unsigned long long>(i.line),
                             i.queued, n);
            }
        });
    }
}

void
Checker::checkMessages(Cycle now)
{
    Network &net = sys->mem().network();
    const std::uint64_t injected = net.stats().counterValue("messages");
    const std::uint64_t delivered = net.stats().counterValue("delivered");
    const std::uint64_t inflight = net.inFlightCount();
    if (injected != delivered + inflight) {
        ROWSIM_PANIC("[check:messages] network message conservation "
                     "violated: %llu injected != %llu delivered + %llu "
                     "in flight",
                     static_cast<unsigned long long>(injected),
                     static_cast<unsigned long long>(delivered),
                     static_cast<unsigned long long>(inflight));
    }
    if (inflight && net.nextDue() < now) {
        ROWSIM_PANIC("[check:messages] network has an overdue message "
                     "(due cycle %llu < now %llu): delivery stuck",
                     static_cast<unsigned long long>(net.nextDue()),
                     static_cast<unsigned long long>(now));
    }
    const unsigned n = sys->numCores();
    for (unsigned b = 0; b < sys->mem().numBanks(); b++) {
        sys->mem().directory(b).forEachLine(
            [&](const Directory::LineInfo &i) {
                if (i.pendingAcks > n) {
                    ROWSIM_PANIC("[check:messages] dir%u line %#llx "
                                 "expects %u InvAcks with only %u cores",
                                 b,
                                 static_cast<unsigned long long>(i.line),
                                 i.pendingAcks, n);
                }
            });
    }
}

void
Checker::checkOccupancy(Cycle now)
{
    (void)now;
    const CoreParams &cp = sys->params().core;
    for (CoreId c = 0; c < sys->numCores(); c++) {
        Core &core = sys->core(c);
        if (core.robOccupancy() > cp.robEntries) {
            ROWSIM_PANIC("[check:occupancy] core%u ROB occupancy %u "
                         "exceeds capacity %u",
                         c, core.robOccupancy(), cp.robEntries);
        }
        if (core.loadQueue().size() > cp.lqEntries) {
            ROWSIM_PANIC("[check:occupancy] core%u LQ occupancy %u "
                         "exceeds capacity %u",
                         c, core.loadQueue().size(), cp.lqEntries);
        }
        if (core.storeQueue().size() > cp.sbEntries) {
            ROWSIM_PANIC("[check:occupancy] core%u SQ occupancy %u "
                         "exceeds capacity %u",
                         c, core.storeQueue().size(), cp.sbEntries);
        }
        if (core.iqOcc() > cp.iqEntries) {
            ROWSIM_PANIC("[check:occupancy] core%u IQ occupancy %u "
                         "exceeds capacity %u",
                         c, core.iqOcc(), cp.iqEntries);
        }
        const AtomicQueue &aq = core.atomicQueue();
        if (aq.size() > cp.aqEntries || aq.entries() != cp.aqEntries) {
            ROWSIM_PANIC("[check:occupancy] core%u AQ occupancy %u / "
                         "capacity %u inconsistent with configured %u",
                         c, aq.size(), aq.entries(), cp.aqEntries);
        }
        unsigned valid = 0;
        aq.forEach([&](const AqEntry &) { valid++; });
        if (valid != aq.size()) {
            ROWSIM_PANIC("[check:occupancy] core%u AQ valid-entry count "
                         "%u disagrees with occupancy %u",
                         c, valid, aq.size());
        }
    }
}

} // namespace rowsim
