/**
 * @file
 * Span tracker implementation: segment accounting, conservation
 * enforcement, bounded retention, aggregation and the JSON dump.
 */

#include "sim/span.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/trace.hh"

namespace rowsim
{

const char *
spanSegName(SpanSeg s)
{
    switch (s) {
      case SpanSeg::DispatchWait: return "dispatchWait";
      case SpanSeg::SbDrain:      return "sbDrain";
      case SpanSeg::AqWait:       return "aqWait";
      case SpanSeg::Execute:      return "execute";
      case SpanSeg::L1Miss:       return "l1Miss";
      case SpanSeg::UnblockWait:  return "unblockWait";
      case SpanSeg::LockHeld:     return "lockHeld";
      case SpanSeg::NumSegs:      break;
    }
    return "?";
}

SpanTracker::SpanTracker(unsigned num_cores)
    : numCores_(num_cores), active_(enabled_)
{
}

std::uint64_t
SpanTracker::open(CoreId core, Addr pc, bool lazy, Cycle now)
{
    const std::uint64_t id = nextId_++;
    Record r;
    r.id = id;
    r.core = core;
    r.pc = pc;
    r.dispatch = now;
    r.lazy = lazy;
    r.cur = SpanSeg::DispatchWait;
    r.segStart = now;
    open_.emplace(id, r);
    return id;
}

void
SpanTracker::transition(std::uint64_t id, SpanSeg seg, Cycle now)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    Record &r = it->second;
    if (r.cur == seg)
        return;
    ROWSIM_ASSERT(now >= r.segStart,
                  "span %llu: segment transition going backwards "
                  "(%llu < %llu)",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(r.segStart));
    if (Trace::enabled(TraceCategory::Span) && now > r.segStart) {
        Trace::instance().complete(
            TraceCategory::Span, static_cast<int>(r.core), traceTidSpans,
            spanSegName(r.cur), r.segStart, now,
            strprintf("{\"span\":%llu,\"pc\":\"%#llx\"}",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(r.pc)));
        // Flow arrows across the remote leg: start when the request
        // leaves for the memory system, finish when the wait ends.
        if (seg == SpanSeg::L1Miss) {
            Trace::instance().flow(TraceCategory::Span,
                                   static_cast<int>(r.core), traceTidSpans,
                                   "miss", id, now, 's');
        } else if (r.cur == SpanSeg::L1Miss) {
            Trace::instance().flow(TraceCategory::Span,
                                   static_cast<int>(r.core), traceTidSpans,
                                   "miss", id, now, 'f');
        }
    }
    r.segs[static_cast<unsigned>(r.cur)] += now - r.segStart;
    r.cur = seg;
    r.segStart = now;
}

void
SpanTracker::setLine(std::uint64_t id, Addr line)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it != open_.end())
        it->second.line = line;
}

void
SpanTracker::replay(std::uint64_t id, Cycle now)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.replays++;
    // The stolen lock sends the atomic back into a wait; the replay
    // window is charged to aqWait.
    transition(id, SpanSeg::AqWait, now);
    // A steal forces the replay to re-issue lazily.
    it->second.lazy = true;
}

void
SpanTracker::close(std::uint64_t id, Cycle commit)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    ROWSIM_ASSERT(it != open_.end(),
                  "span %llu closed twice (or never opened)",
                  static_cast<unsigned long long>(id));
    Record r = it->second;
    open_.erase(it);

    ROWSIM_ASSERT(commit >= r.segStart,
                  "span %llu: commit %llu before last transition %llu",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(commit),
                  static_cast<unsigned long long>(r.segStart));
    r.segs[static_cast<unsigned>(r.cur)] += commit - r.segStart;
    r.commit = commit;
    // Any queue-wait bookkeeping left behind (request satisfied without
    // a dequeue notification) must not leak into a future span ID.
    dirQueuedAt_.erase(id);

    // Conservation: the segments must exactly tile dispatch→commit.
    // Transitions make this structural, so a violation means a hook
    // charged time outside the span or the clock went backwards.
    std::uint64_t sum = 0;
    for (std::uint64_t s : r.segs)
        sum += s;
    if (sum != r.total()) {
        ROWSIM_PANIC("[span] span %llu (core%u pc=%#llx): segments sum "
                     "to %llu cycles, expected commit-dispatch = %llu",
                     static_cast<unsigned long long>(id), r.core,
                     static_cast<unsigned long long>(r.pc),
                     static_cast<unsigned long long>(sum),
                     static_cast<unsigned long long>(r.total()));
    }

    closedCount_++;
    aggregate(r);
    retain(r);

    if (Trace::enabled(TraceCategory::Span)) {
        Trace &t = Trace::instance();
        if (r.commit > r.segStart) {
            t.complete(TraceCategory::Span, static_cast<int>(r.core),
                       traceTidSpans, spanSegName(r.cur), r.segStart,
                       r.commit,
                       strprintf("{\"span\":%llu,\"pc\":\"%#llx\"}",
                                 static_cast<unsigned long long>(id),
                                 static_cast<unsigned long long>(r.pc)));
        }
        t.span(TraceCategory::Span, static_cast<int>(r.core),
               traceTidSpans, "atomic", id, r.dispatch, r.commit,
               strprintf("{\"pc\":\"%#llx\",\"line\":\"%#llx\","
                         "\"lazy\":%s,\"replays\":%u}",
                         static_cast<unsigned long long>(r.pc),
                         static_cast<unsigned long long>(r.line),
                         r.lazy ? "true" : "false", r.replays));
    }
}

void
SpanTracker::netHop(std::uint64_t id, Cycle sent, Cycle now)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it == open_.end())
        return; // e.g. an Unblock delivered after the span committed
    it->second.netCycles += now >= sent ? now - sent : 0;
    it->second.netHops++;
    if (Trace::enabled(TraceCategory::Span)) {
        Trace::instance().flow(TraceCategory::Span, tracePidNetwork, 0,
                               "miss", id, now, 't');
    }
}

void
SpanTracker::dirBlockedWindow(std::uint64_t id, Cycle since, Cycle now)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.dirBlocked += now >= since ? now - since : 0;
}

void
SpanTracker::dirQueued(std::uint64_t id, Cycle now, std::uint64_t depth)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    dirQueuedAt_.emplace(id, now);
    it->second.queuedMax = std::max(it->second.queuedMax, depth);
}

void
SpanTracker::dirDequeued(std::uint64_t id, Cycle now)
{
    if (id == 0)
        return;
    auto q = dirQueuedAt_.find(id);
    if (q == dirQueuedAt_.end())
        return;
    const Cycle since = q->second;
    dirQueuedAt_.erase(q);
    auto it = open_.find(id);
    if (it != open_.end())
        it->second.dirBlocked += now >= since ? now - since : 0;
}

void
SpanTracker::lockStall(std::uint64_t id, Cycle arrival, Cycle now)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.lockStall += now >= arrival ? now - arrival : 0;
}

void
SpanTracker::ownerSwap(std::uint64_t id)
{
    if (id == 0)
        return;
    auto it = open_.find(id);
    if (it != open_.end())
        it->second.ownerSwaps++;
}

void
SpanTracker::release(Addr line, bool contended)
{
    if (contended)
        lines_[line].contendedReleases++;
}

void
SpanTracker::rowOutcome(Addr pc, bool predicted_contended, bool contended,
                        std::uint64_t cost)
{
    Agg &a = pcs_[pc];
    a.row[predicted_contended ? 1 : 0][contended ? 1 : 0]++;
    if (predicted_contended && !contended)
        a.lazyWasteCycles += cost;
    else if (!predicted_contended && contended)
        a.eagerContendedCycles += cost;
}

SpanTracker::Agg
SpanTracker::rowTotals() const
{
    Agg t;
    for (const auto &kv : pcs_) {
        for (int p = 0; p < 2; ++p)
            for (int o = 0; o < 2; ++o)
                t.row[p][o] += kv.second.row[p][o];
        t.lazyWasteCycles += kv.second.lazyWasteCycles;
        t.eagerContendedCycles += kv.second.eagerContendedCycles;
    }
    return t;
}

void
SpanTracker::truncateOpen()
{
    truncated_ += open_.size();
    open_.clear();
    dirQueuedAt_.clear();
}

void
SpanTracker::aggregate(const Record &r)
{
    for (unsigned s = 0; s < numSpanSegs; s++)
        segTotals_[s] += r.segs[s];
    netTotal_ += r.netCycles;
    dirBlockedTotal_ += r.dirBlocked;
    lockStallTotal_ += r.lockStall;
    grandTotal_ += r.total();

    totalHist_.sample(static_cast<double>(r.total()));
    lockHeldHist_.sample(static_cast<double>(
        r.segs[static_cast<unsigned>(SpanSeg::LockHeld)]));
    const std::uint64_t miss =
        r.segs[static_cast<unsigned>(SpanSeg::L1Miss)];
    if (miss)
        missHist_.sample(static_cast<double>(miss));

    auto fold = [&r](Agg &a) {
        a.count++;
        a.total += r.total();
        for (unsigned s = 0; s < numSpanSegs; s++)
            a.segs[s] += r.segs[s];
        a.netCycles += r.netCycles;
        a.dirBlocked += r.dirBlocked;
        a.lockStall += r.lockStall;
        if (r.lazy)
            a.lazy++;
        a.replays += r.replays;
    };
    fold(pcs_[r.pc]);
    if (r.line != invalidAddr) {
        Agg &l = lines_[r.line];
        fold(l);
        if (r.core < 64)
            l.coreMask |= 1ull << r.core;
        l.ownerSwaps += r.ownerSwaps;
        l.queuedMax = std::max(l.queuedMax, r.queuedMax);
    }
}

void
SpanTracker::retain(const Record &r)
{
    const std::uint64_t k = topK();
    if (retained_.size() < k) {
        retained_.push_back(r);
        return;
    }
    // Replace the current fastest retained span when strictly slower;
    // ties keep the earlier span (deterministic).
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < retained_.size(); i++) {
        if (retained_[i].total() < retained_[min_i].total() ||
            (retained_[i].total() == retained_[min_i].total() &&
             retained_[i].id > retained_[min_i].id)) {
            min_i = i;
        }
    }
    if (r.total() > retained_[min_i].total())
        retained_[min_i] = r;
}

std::vector<SpanTracker::Record>
SpanTracker::retained() const
{
    std::vector<Record> out = retained_;
    std::sort(out.begin(), out.end(), [](const Record &a, const Record &b) {
        if (a.total() != b.total())
            return a.total() > b.total();
        return a.id < b.id;
    });
    return out;
}

namespace
{

std::string
histJson(const Histogram &h)
{
    return strprintf(
        "{\"count\":%llu,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,"
        "\"p50\":%.6g,\"p90\":%.6g,\"p99\":%.6g}",
        static_cast<unsigned long long>(h.summary().count()),
        h.summary().mean(), h.summary().min(), h.summary().max(),
        h.percentile(0.50), h.percentile(0.90), h.percentile(0.99));
}

std::string
aggJson(const SpanTracker::Agg &a)
{
    std::string out = strprintf(
        "\"count\":%llu,\"total\":%llu,\"lazy\":%llu,\"replays\":%llu",
        static_cast<unsigned long long>(a.count),
        static_cast<unsigned long long>(a.total),
        static_cast<unsigned long long>(a.lazy),
        static_cast<unsigned long long>(a.replays));
    for (unsigned s = 0; s < numSpanSegs; s++)
        out += strprintf(",\"%s\":%llu",
                         spanSegName(static_cast<SpanSeg>(s)),
                         static_cast<unsigned long long>(a.segs[s]));
    out += strprintf(",\"netCycles\":%llu,\"dirBlocked\":%llu,"
                     "\"lockStall\":%llu",
                     static_cast<unsigned long long>(a.netCycles),
                     static_cast<unsigned long long>(a.dirBlocked),
                     static_cast<unsigned long long>(a.lockStall));
    return out;
}

/** The line table's own columns. */
std::string
lineJson(const SpanTracker::Agg &a)
{
    return strprintf("\"coreMask\":\"%#llx\",\"ownerSwaps\":%llu,"
                     "\"queuedMax\":%llu,\"contendedReleases\":%llu",
                     static_cast<unsigned long long>(a.coreMask),
                     static_cast<unsigned long long>(a.ownerSwaps),
                     static_cast<unsigned long long>(a.queuedMax),
                     static_cast<unsigned long long>(a.contendedReleases));
}

/** The RoW audit columns of a PC row (or of the totals). */
std::string
rowJson(const SpanTracker::Agg &a)
{
    return strprintf("\"eagerUncontended\":%llu,\"eagerContended\":%llu,"
                     "\"lazyUncontended\":%llu,\"lazyContended\":%llu,"
                     "\"lazyWasteCycles\":%llu,"
                     "\"eagerContendedCycles\":%llu",
                     static_cast<unsigned long long>(a.row[0][0]),
                     static_cast<unsigned long long>(a.row[0][1]),
                     static_cast<unsigned long long>(a.row[1][0]),
                     static_cast<unsigned long long>(a.row[1][1]),
                     static_cast<unsigned long long>(a.lazyWasteCycles),
                     static_cast<unsigned long long>(
                         a.eagerContendedCycles));
}

/** Top-K (by total, ties by address) slice of an aggregate map. */
std::vector<std::pair<Addr, const SpanTracker::Agg *>>
topAggs(const std::unordered_map<Addr, SpanTracker::Agg> &m,
        std::uint64_t k)
{
    std::vector<std::pair<Addr, const SpanTracker::Agg *>> sorted;
    sorted.reserve(m.size());
    for (const auto &kv : m)
        sorted.emplace_back(kv.first, &kv.second);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->total != b.second->total)
                      return a.second->total > b.second->total;
                  return a.first < b.first;
              });
    if (sorted.size() > k)
        sorted.resize(k);
    return sorted;
}

} // namespace

std::string
SpanTracker::toJson() const
{
    std::string out = strprintf(
        "{\"cores\":%u,\"opened\":%llu,\"closed\":%llu,"
        "\"openAtEnd\":%llu,\"truncated\":%llu",
        numCores_, static_cast<unsigned long long>(opened()),
        static_cast<unsigned long long>(closed()),
        static_cast<unsigned long long>(openCount()),
        static_cast<unsigned long long>(truncated_));

    out += ",\"segTotals\":{";
    for (unsigned s = 0; s < numSpanSegs; s++)
        out += strprintf("%s\"%s\":%llu", s ? "," : "",
                         spanSegName(static_cast<SpanSeg>(s)),
                         static_cast<unsigned long long>(segTotals_[s]));
    out += strprintf(",\"total\":%llu,\"netCycles\":%llu,"
                     "\"dirBlocked\":%llu,\"lockStall\":%llu}",
                     static_cast<unsigned long long>(grandTotal_),
                     static_cast<unsigned long long>(netTotal_),
                     static_cast<unsigned long long>(dirBlockedTotal_),
                     static_cast<unsigned long long>(lockStallTotal_));

    out += ",\"latency\":" + histJson(totalHist_);
    out += ",\"missLatency\":" + histJson(missHist_);
    out += ",\"lockHeld\":" + histJson(lockHeldHist_);

    const std::uint64_t k = topK();
    out += strprintf(",\"pcsTracked\":%zu,\"pcs\":[", pcs_.size());
    auto pcs = topAggs(pcs_, k);
    for (std::size_t i = 0; i < pcs.size(); i++) {
        out += strprintf("%s{\"pc\":\"%#llx\",", i ? "," : "",
                         static_cast<unsigned long long>(pcs[i].first));
        out += aggJson(*pcs[i].second) + "," + rowJson(*pcs[i].second);
        out += "}";
    }
    const Agg t = rowTotals();
    const std::uint64_t updates =
        t.row[0][0] + t.row[0][1] + t.row[1][0] + t.row[1][1];
    out += strprintf("],\"row\":{%s,\"updates\":%llu,"
                     "\"contendedOutcomes\":%llu,"
                     "\"dispatchAccuracy\":%.6f}",
                     rowJson(t).c_str(),
                     static_cast<unsigned long long>(updates),
                     static_cast<unsigned long long>(t.row[0][1] +
                                                     t.row[1][1]),
                     updates ? static_cast<double>(t.row[0][0] +
                                                   t.row[1][1]) /
                                   static_cast<double>(updates)
                             : 0.0);
    out += strprintf(",\"linesTracked\":%zu,\"lines\":[", lines_.size());
    auto lines = topAggs(lines_, k);
    for (std::size_t i = 0; i < lines.size(); i++) {
        out += strprintf("%s{\"line\":\"%#llx\",", i ? "," : "",
                         static_cast<unsigned long long>(lines[i].first));
        out += aggJson(*lines[i].second) + "," + lineJson(*lines[i].second);
        out += "}";
    }

    out += "],\"spans\":[";
    const std::vector<Record> recs = retained();
    for (std::size_t i = 0; i < recs.size(); i++) {
        const Record &r = recs[i];
        out += strprintf(
            "%s{\"id\":%llu,\"core\":%u,\"pc\":\"%#llx\","
            "\"line\":\"%#llx\",\"dispatch\":%llu,\"commit\":%llu,"
            "\"total\":%llu,\"lazy\":%s,\"replays\":%u,\"segs\":{",
            i ? "," : "", static_cast<unsigned long long>(r.id), r.core,
            static_cast<unsigned long long>(r.pc),
            static_cast<unsigned long long>(r.line),
            static_cast<unsigned long long>(r.dispatch),
            static_cast<unsigned long long>(r.commit),
            static_cast<unsigned long long>(r.total()),
            r.lazy ? "true" : "false", r.replays);
        for (unsigned s = 0; s < numSpanSegs; s++)
            out += strprintf("%s\"%s\":%llu", s ? "," : "",
                             spanSegName(static_cast<SpanSeg>(s)),
                             static_cast<unsigned long long>(r.segs[s]));
        // Critical-path decomposition: the miss window, split into its
        // overlapping remote legs; the residual is local protocol /
        // queuing time none of the legs explain.
        const std::uint64_t miss =
            r.segs[static_cast<unsigned>(SpanSeg::L1Miss)];
        const std::uint64_t legs =
            r.netCycles + r.dirBlocked + r.lockStall;
        const std::uint64_t residual = miss > legs ? miss - legs : 0;
        // The dominant contributor along dispatch→commit, with the miss
        // window replaced by its decomposition.
        const char *dom = "dispatchWait";
        std::uint64_t dom_v = 0;
        for (unsigned s = 0; s < numSpanSegs; s++) {
            if (s == static_cast<unsigned>(SpanSeg::L1Miss))
                continue;
            if (r.segs[s] > dom_v) {
                dom_v = r.segs[s];
                dom = spanSegName(static_cast<SpanSeg>(s));
            }
        }
        const std::pair<const char *, std::uint64_t> parts[] = {
            {"netHops", r.netCycles},
            {"dirBlocked", r.dirBlocked},
            {"lockStall", r.lockStall},
            {"missOther", residual},
        };
        for (const auto &p : parts) {
            if (p.second > dom_v) {
                dom_v = p.second;
                dom = p.first;
            }
        }
        out += strprintf(
            "},\"netHops\":%llu,\"netCycles\":%llu,\"dirBlocked\":%llu,"
            "\"lockStall\":%llu,"
            "\"critical\":{\"missOther\":%llu,\"dominant\":\"%s\"}}",
            static_cast<unsigned long long>(r.netHops),
            static_cast<unsigned long long>(r.netCycles),
            static_cast<unsigned long long>(r.dirBlocked),
            static_cast<unsigned long long>(r.lockStall),
            static_cast<unsigned long long>(residual), dom);
    }
    out += "]}";
    return out;
}

} // namespace rowsim
