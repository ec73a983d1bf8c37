#include "net/network.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"
#include "sim/span.hh"

namespace rowsim
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::PutM: return "PutM";
      case MsgType::Data: return "Data";
      case MsgType::DataExcl: return "DataExcl";
      case MsgType::Inv: return "Inv";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetX: return "FwdGetX";
      case MsgType::WBAck: return "WBAck";
      case MsgType::DataOwner: return "DataOwner";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Unblock: return "Unblock";
    }
    return "?";
}

std::string
Msg::toString() const
{
    return strprintf("%s line=%#lx %u->%u req=%u priv=%d",
                     msgTypeName(type), static_cast<unsigned long>(line),
                     src, dst, requester, fromPrivateCache);
}

namespace
{

/** Initial calendar span: every mesh latency of the modelled sizes fits;
 *  fault delays grow the ring. */
constexpr std::size_t initialRingSize = 64;

template <std::size_t... I>
std::array<HistogramStat, sizeof...(I)>
latencyHists(StatGroup &g, std::index_sequence<I...>)
{
    static const std::string names[] = {
        (std::string("lat") + msgTypeName(static_cast<MsgType>(I)))...};
    return {{HistogramStat(g, names[I].c_str(), 0, 128, 64)...}};
}

} // namespace

Network::Network(unsigned num_cores, const NetParams &p)
    : numCores(num_cores), numNodes(2 * num_cores), params(p),
      handlers(2 * static_cast<std::size_t>(num_cores), nullptr),
      ring_(initialRingSize), stats_("network"),
      latHist_(latencyHists(stats_,
                            std::make_index_sequence<numMsgTypes>{}))
{
    // Square-ish mesh of tiles; each tile has a core and a bank, so the
    // mesh holds numCores tiles.
    meshX = static_cast<unsigned>(std::ceil(std::sqrt(num_cores)));
    meshY = (num_cores + meshX - 1) / meshX;

    // Precompute the per-pair hop/latency tables and the point-to-point
    // ordering fences once; the hot send() path then indexes flat arrays
    // instead of walking a map and redoing Manhattan math per message.
    const std::size_t pairs =
        static_cast<std::size_t>(numNodes) * numNodes;
    lastDelivery.assign(pairs, 0);
    pairHops.resize(pairs);
    pairLatency.resize(pairs);
    for (NodeId s = 0; s < numNodes; s++) {
        unsigned sx, sy;
        coords(s, sx, sy);
        for (NodeId d = 0; d < numNodes; d++) {
            unsigned dx, dy;
            coords(d, dx, dy);
            auto dist = [](unsigned a, unsigned b) {
                return a > b ? a - b : b - a;
            };
            const unsigned h = dist(sx, dx) + dist(sy, dy);
            const std::size_t idx =
                static_cast<std::size_t>(s) * numNodes + d;
            pairHops[idx] = h;
            // Same-tile messages still pay one router traversal.
            pairLatency[idx] = params.hopLatency * (h + 1);
        }
    }
}

void
Network::attach(NodeId node, MsgHandler *handler)
{
    ROWSIM_ASSERT(node < handlers.size(), "node id %u out of range", node);
    handlers[node] = handler;
}

void
Network::coords(NodeId node, unsigned &x, unsigned &y) const
{
    // Core i and bank i live on the same tile.
    unsigned tile = node % numCores;
    x = tile % meshX;
    y = tile / meshX;
}

unsigned
Network::hops(NodeId a, NodeId b) const
{
    ROWSIM_ASSERT(a < numNodes && b < numNodes,
                  "hops(%u, %u): node beyond the %u-node mesh", a, b,
                  numNodes);
    return pairHops[static_cast<std::size_t>(a) * numNodes + b];
}

Cycle
Network::latency(NodeId a, NodeId b) const
{
    ROWSIM_ASSERT(a < numNodes && b < numNodes,
                  "latency(%u, %u): node beyond the %u-node mesh", a, b,
                  numNodes);
    return pairLatency[static_cast<std::size_t>(a) * numNodes + b];
}

NodeId
Network::homeBank(Addr line) const
{
    return numCores + static_cast<NodeId>(lineNum(line) % numCores);
}

void
Network::send(Msg msg, Cycle now)
{
    // A misrouted message (unattached / out-of-range node) must die with
    // a clean panic here, not UB-index the flat tables below.
    ROWSIM_ASSERT(msg.src < numNodes && msg.dst < numNodes,
                  "misrouted message %s: node beyond the %u-node mesh",
                  msg.toString().c_str(), numNodes);
    msg.sent = now;
    const std::size_t pair =
        static_cast<std::size_t>(msg.src) * numNodes + msg.dst;
    Cycle due = now + pairLatency[pair];
    if (delayHook)
        due += delayHook(msg, now);
    if (due < lastDelivery[pair])
        due = lastDelivery[pair]; // preserve point-to-point ordering
    lastDelivery[pair] = due;
    const Pending p{due, nextOrder++, msg};
    if (!draining_) {
        if (inFlight_ == 0)
            lo_ = now; // an idle ring re-anchors at the send cycle
        place(p);
    } else {
        // Handlers send at the tick's cycle, never before the bucket
        // being walked.
        ROWSIM_ASSERT(due >= lo_, "send due %llu during the drain of %llu",
                      static_cast<unsigned long long>(due),
                      static_cast<unsigned long long>(lo_));
        if (deferred_.empty() && due - lo_ < ring_.size())
            ring_[due & (ring_.size() - 1)].push_back(p);
        else
            deferred_.push_back(p);
    }
    inFlight_++;
    messages_++;
    hops_.sample(pairHops[pair]);
    ROWSIM_TRACE(TraceCategory::Network, now, "inject %s due=%llu",
                 msg.toString().c_str(),
                 static_cast<unsigned long long>(due));
}

void
Network::place(const Pending &p)
{
    if (p.due < lo_) {
        // Due before the next drain: a zero-latency send made after this
        // cycle's tick, or a send after a restore.
        Cycle last = p.due;
        for (const auto &bucket : ring_) {
            if (!bucket.empty())
                last = std::max(last, bucket.front().due);
        }
        lo_ = p.due;
        grow(last - lo_ + 1);
    }
    grow(p.due - lo_ + 1);
    ring_[p.due & (ring_.size() - 1)].push_back(p);
}

void
Network::grow(Cycle span)
{
    if (span <= ring_.size())
        return;
    std::vector<std::vector<Pending>> bigger(std::bit_ceil(span));
    const std::size_t mask = bigger.size() - 1;
    // A bucket holds one due cycle, so it moves whole, order intact.
    for (auto &bucket : ring_) {
        if (!bucket.empty())
            bigger[bucket.front().due & mask] = std::move(bucket);
    }
    ring_ = std::move(bigger);
}

Cycle
Network::nextDue() const
{
    if (inFlight_ == 0)
        return invalidCycle;
    for (Cycle c = lo_; c < lo_ + ring_.size(); c++) {
        if (ring_[c & (ring_.size() - 1)].size() > (c == lo_ ? walked_ : 0))
            return c;
    }
    return deferred_.front().due; // only reachable inside a drain
}

void
Network::tick(Cycle now)
{
    // Walk each bucket by index: a delivery may append to the bucket
    // being walked (a send due this cycle), and those arrive this tick.
    draining_ = true;
    for (; lo_ <= now && inFlight_ != 0; lo_++) {
        std::vector<Pending> &bucket = ring_[lo_ & (ring_.size() - 1)];
        while (walked_ < bucket.size()) {
            const Pending p = bucket[walked_++];
            inFlight_--;
            deliver(p, now);
        }
        bucket.clear();
        walked_ = 0;
        if (!deferred_.empty()) {
            // The walked bucket is done, so the ring may grow now.
            std::vector<Pending> late;
            late.swap(deferred_);
            for (const Pending &p : late) {
                grow(p.due - lo_ + 1);
                ring_[p.due & (ring_.size() - 1)].push_back(p);
            }
        }
    }
    draining_ = false;
    if (lo_ <= now)
        lo_ = now + 1;
}

void
Network::deliver(const Pending &p, Cycle now)
{
    MsgHandler *h = handlers[p.msg.dst];
    ROWSIM_ASSERT(h != nullptr, "no handler attached at node %u",
                  p.msg.dst);
    ROWSIM_TRACE(TraceCategory::Network, now, "deliver %s",
                 p.msg.toString().c_str());
    // One async span per message lifetime; the order counter makes a
    // unique id so concurrent messages nest correctly.
    ROWSIM_TRACE_SPAN(TraceCategory::Network, tracePidNetwork, 0,
                      msgTypeName(p.msg.type), p.order, p.msg.sent, now,
                      strprintf("{\"line\":\"%#llx\",\"src\":%u,"
                                "\"dst\":%u}",
                                static_cast<unsigned long long>(p.msg.line),
                                p.msg.src, p.msg.dst));
    delivered_++;
    const Cycle lat = now >= p.msg.sent ? now - p.msg.sent : 0;
    latHist_[static_cast<std::size_t>(p.msg.type)].sample(
        static_cast<double>(lat));
    if (SpanTracker::enabled() && spans_ && p.msg.spanId)
        spans_->netHop(p.msg.spanId, p.msg.sent, now);
    h->deliver(p.msg, now);
}

std::vector<const Network::Pending *>
Network::sortedInFlight() const
{
    std::vector<const Pending *> all;
    all.reserve(inFlight_);
    const std::size_t walking = lo_ & (ring_.size() - 1);
    for (std::size_t b = 0; b < ring_.size(); b++) {
        for (std::size_t i = b == walking ? walked_ : 0;
             i < ring_[b].size(); i++)
            all.push_back(&ring_[b][i]);
    }
    for (const Pending &p : deferred_)
        all.push_back(&p);
    std::sort(all.begin(), all.end(),
              [](const Pending *a, const Pending *b) { return *a < *b; });
    return all;
}

void
Network::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out, "{\"inFlight\":%zu,\"messages\":[", inFlight_);
    const std::vector<const Pending *> byDue = sortedInFlight();
    const std::size_t listed = std::min<std::size_t>(byDue.size(), 64);
    for (std::size_t i = 0; i < listed; i++) {
        const Pending &p = *byDue[i];
        std::fprintf(out,
                     "%s{\"type\":\"%s\",\"line\":\"%#llx\",\"src\":%u,"
                     "\"dst\":%u,\"sent\":%llu,\"due\":%llu,\"age\":%llu}",
                     i ? "," : "", msgTypeName(p.msg.type),
                     static_cast<unsigned long long>(p.msg.line),
                     p.msg.src, p.msg.dst,
                     static_cast<unsigned long long>(p.msg.sent),
                     static_cast<unsigned long long>(p.due),
                     static_cast<unsigned long long>(
                         now >= p.msg.sent ? now - p.msg.sent : 0));
    }
    std::fprintf(out, "]%s}", inFlight_ > 64 ? ",\"truncated\":true" : "");
}

void
Network::save(Ser &s) const
{
    s.section("network");
    s.u32(numNodes);

    // Serialize in full (due, order) order, not ring layout: delivery
    // order is entirely (due, order)-determined (order is unique), so the
    // bucket arrangement is unobservable and must not affect the image.
    const std::vector<const Pending *> sorted = sortedInFlight();
    s.u64(sorted.size());
    for (const Pending *p : sorted) {
        s.u64(p->due);
        s.u64(p->order);
        s.io(p->msg);
    }

    for (Cycle c : lastDelivery)
        s.u64(c);
    s.u64(nextOrder);
}

void
Network::restore(Deser &d)
{
    d.section("network");
    const std::uint32_t nodes = d.u32();
    if (nodes != numNodes) {
        throw SnapshotError(strprintf(
            "network size mismatch: image has %u nodes, configured %u",
            nodes, numNodes));
    }

    // A message takes 49 bytes: due, order and 33 of Msg fields.
    const std::uint64_t n = d.u64();
    if (n > d.remaining() / 49) {
        throw SnapshotError(strprintf(
            "network: %llu in-flight messages cannot fit in %zu bytes",
            static_cast<unsigned long long>(n), d.remaining()));
    }
    std::vector<Pending> image(n);
    for (Pending &p : image) {
        p.due = d.u64();
        p.order = d.u64();
        d.io(p.msg);
    }
    std::sort(image.begin(), image.end());
    for (auto &bucket : ring_)
        bucket.clear();
    deferred_.clear();
    inFlight_ = 0;
    if (!image.empty())
        lo_ = image.front().due;
    for (const Pending &p : image) {
        place(p);
        inFlight_++;
    }

    for (Cycle &c : lastDelivery)
        c = d.u64();
    nextOrder = d.u64();
}

} // namespace rowsim
