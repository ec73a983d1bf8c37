/**
 * @file
 * Latency-accurate 2D-mesh interconnect model (GARNET substitute).
 *
 * Each tile holds one core and one directory/LLC bank. Messages pay a
 * Manhattan-distance hop latency and are delivered in order per
 * (source, destination) pair, matching the in-order virtual-network
 * delivery that directory protocols rely on.
 */

#ifndef ROWSIM_NET_NETWORK_HH
#define ROWSIM_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "net/message.hh"

namespace rowsim
{

class Ser;
class Deser;
class SpanTracker;

/**
 * The on-chip network. Endpoints register themselves by NodeId; send()
 * computes the delivery cycle from mesh distance and enqueues; tick()
 * delivers everything due at the current cycle.
 *
 * In-flight messages sit in a calendar queue: a power-of-two ring of
 * per-cycle FIFO buckets indexed by `due & (size - 1)`. Every in-flight
 * due cycle lies in [lo_, lo_ + size), so a bucket never mixes cycles
 * and delivery runs in (due, injection order) order. A send whose due
 * cycle does not fit (a fault delay) doubles the ring until it does.
 */
class Network
{
  public:
    Network(unsigned num_cores, const NetParams &params);

    /** Attach the handler for @p node (cores first, then banks). */
    void attach(NodeId node, MsgHandler *handler);

    /** Inject a message at cycle @p now. */
    void send(Msg msg, Cycle now);

    /** Deliver all messages due at @p now. */
    void tick(Cycle now);

    /** True when no messages are in flight. */
    bool idle() const { return inFlight_ == 0; }

    /** Messages currently in flight (conservation checks). */
    std::size_t inFlightCount() const { return inFlight_; }
    /** Delivery cycle of the earliest in-flight message; invalidCycle
     *  when the network is idle. */
    Cycle nextDue() const;

    /**
     * Fault injection: extra per-message delay, added on top of the mesh
     * latency before the point-to-point ordering adjustment (so ordering
     * still holds). Return 0 for no fault.
     */
    using DelayHook = std::function<Cycle(const Msg &msg, Cycle now)>;
    void setDelayHook(DelayHook hook) { delayHook = std::move(hook); }

    /** Attach the span tracker (System::setupSpans): messages carrying
     *  a span ID report their delivery latency as a remote leg. */
    void setSpans(SpanTracker *s) { spans_ = s; }

    /** Crash diagnostics: one JSON object listing in-flight messages. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** NodeId of the directory bank homing @p line. */
    NodeId homeBank(Addr line) const;

    /** Hop count between two nodes (exposed for tests). */
    unsigned hops(NodeId a, NodeId b) const;

    /** One-way latency between two nodes (exposed for tests). */
    Cycle latency(NodeId a, NodeId b) const;

    StatGroup &stats() { return stats_; }

    /** Architectural state: in-flight messages (serialized in (due,
     *  order) order so the ring layout never leaks into the image),
     *  point-to-point ordering floors, injection counter. */
    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    struct Pending
    {
        Cycle due;
        std::uint64_t order; ///< global injection order, tie-breaker
        Msg msg;
        bool operator<(const Pending &o) const
        {
            return due != o.due ? due < o.due : order < o.order;
        }
    };

    static constexpr std::size_t numMsgTypes =
        static_cast<std::size_t>(MsgType::Unblock) + 1;

    /** Tile coordinates of a node in the mesh. */
    void coords(NodeId node, unsigned &x, unsigned &y) const;

    /** File @p p into its bucket, lowering lo_ or growing the ring as
     *  needed. Never called while a bucket is being drained. */
    void place(const Pending &p);
    /** Re-file every message into a ring of at least @p span buckets. */
    void grow(Cycle span);
    /** Every in-flight message, sorted by (due, order). */
    std::vector<const Pending *> sortedInFlight() const;
    void deliver(const Pending &p, Cycle now);

    unsigned numCores;
    unsigned numNodes;   ///< 2 * numCores: cores then banks
    unsigned meshX, meshY;
    NetParams params;

    std::vector<MsgHandler *> handlers;
    /** The calendar ring; bucket `due & (ring_.size() - 1)` holds the
     *  messages due that cycle, in injection order. */
    std::vector<std::vector<Pending>> ring_;
    /** No in-flight message is due before lo_. While tick() drains, lo_
     *  is the cycle whose bucket is being walked. */
    Cycle lo_ = 0;
    std::size_t inFlight_ = 0; ///< ring plus deferred_
    bool draining_ = false;
    /** Entries of bucket lo_ already delivered by the drain in progress
     *  (0 outside a drain); they stay in the bucket until it is done. */
    std::size_t walked_ = 0;
    /** Sends made during a drain that need a larger ring. Growing moves
     *  the bucket being walked, so they wait until that bucket is done;
     *  later sends queue behind them to keep injection order. */
    std::vector<Pending> deferred_;
    /** Last delivery cycle per (src,dst), flat-indexed src*numNodes+dst,
     *  enforcing point-to-point order. 0 (never delivered) is a no-op
     *  lower bound, so no occupancy map is needed. */
    std::vector<Cycle> lastDelivery;
    /** Precomputed one-way latency per (src,dst), same flat indexing, so
     *  send() does no Manhattan math. */
    std::vector<Cycle> pairLatency;
    /** Precomputed hop count per (src,dst) for the hops stat. */
    std::vector<unsigned> pairHops;
    std::uint64_t nextOrder = 0;
    DelayHook delayHook;
    SpanTracker *spans_ = nullptr;

    StatGroup stats_;
    CounterStat messages_{stats_, "messages"};
    AverageStat hops_{stats_, "hops"};
    CounterStat delivered_{stats_, "delivered"};
    /** Delivery latency per message type ("lat<Type>"), by MsgType. */
    std::array<HistogramStat, numMsgTypes> latHist_;
};

} // namespace rowsim

#endif // ROWSIM_NET_NETWORK_HH
