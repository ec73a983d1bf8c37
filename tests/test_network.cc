/**
 * @file
 * Unit tests for the mesh interconnect: latency model, in-order delivery,
 * home-bank mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/snapshot.hh"

using namespace rowsim;

namespace
{

struct Recorder : MsgHandler
{
    std::vector<std::pair<Msg, Cycle>> received;
    void
    deliver(const Msg &msg, Cycle now) override
    {
        received.emplace_back(msg, now);
    }
};

Msg
makeMsg(NodeId src, NodeId dst, Addr line = 0x1000)
{
    Msg m;
    m.type = MsgType::GetS;
    m.line = line;
    m.src = src;
    m.dst = dst;
    m.requester = static_cast<CoreId>(src);
    return m;
}

} // namespace

class NetworkTest : public ::testing::Test
{
  protected:
    NetworkTest() : net(16, NetParams{})
    {
        for (NodeId n = 0; n < 32; n++)
            net.attach(n, &recorders[n]);
    }

    NetParams params;
    Network net{16, NetParams{}};
    Recorder recorders[32];
};

TEST_F(NetworkTest, SameTileStillPaysOneHop)
{
    // Core 3 and bank 3 share a tile: latency == hopLatency.
    EXPECT_EQ(net.latency(3, 16 + 3), NetParams{}.hopLatency);
}

TEST_F(NetworkTest, LatencyGrowsWithManhattanDistance)
{
    // 16 cores -> 4x4 mesh. Node 0 at (0,0), node 15 at (3,3).
    EXPECT_EQ(net.hops(0, 15), 6u);
    EXPECT_EQ(net.latency(0, 15), NetParams{}.hopLatency * 7);
    EXPECT_EQ(net.hops(0, 3), 3u);
}

TEST_F(NetworkTest, HopsAreSymmetric)
{
    for (NodeId a = 0; a < 16; a++)
        for (NodeId b = 0; b < 16; b++)
            EXPECT_EQ(net.hops(a, b), net.hops(b, a));
}

TEST_F(NetworkTest, DeliversAtComputedCycle)
{
    net.send(makeMsg(0, 15), 10);
    Cycle due = 10 + net.latency(0, 15);
    for (Cycle c = 0; c <= due; c++)
        net.tick(c);
    ASSERT_EQ(recorders[15].received.size(), 1u);
    EXPECT_EQ(recorders[15].received[0].second, due);
}

TEST_F(NetworkTest, NothingDeliveredEarly)
{
    net.send(makeMsg(0, 15), 10);
    net.tick(10 + net.latency(0, 15) - 1);
    EXPECT_TRUE(recorders[15].received.empty());
    EXPECT_FALSE(net.idle());
}

TEST_F(NetworkTest, PointToPointOrderPreserved)
{
    // A later message with shorter computed latency must not overtake an
    // earlier one on the same (src,dst) pair.
    Msg a = makeMsg(0, 15, 0xAAA);
    Msg b = makeMsg(0, 15, 0xBBB);
    net.send(a, 0);
    net.send(b, 1);
    for (Cycle c = 0; c <= 100; c++)
        net.tick(c);
    ASSERT_EQ(recorders[15].received.size(), 2u);
    EXPECT_EQ(recorders[15].received[0].first.line, 0xAAAu);
    EXPECT_EQ(recorders[15].received[1].first.line, 0xBBBu);
    EXPECT_LE(recorders[15].received[0].second,
              recorders[15].received[1].second);
}

TEST_F(NetworkTest, IndependentPairsCanInterleave)
{
    net.send(makeMsg(0, 1), 0);  // 1 tile apart
    net.send(makeMsg(0, 15), 0); // far
    for (Cycle c = 0; c <= 100; c++)
        net.tick(c);
    ASSERT_EQ(recorders[1].received.size(), 1u);
    ASSERT_EQ(recorders[15].received.size(), 1u);
    EXPECT_LT(recorders[1].received[0].second,
              recorders[15].received[0].second);
}

TEST_F(NetworkTest, HomeBankIsStableAndInRange)
{
    for (Addr line = 0; line < 256 * lineBytes; line += lineBytes) {
        NodeId bank = net.homeBank(line);
        EXPECT_GE(bank, 16u);
        EXPECT_LT(bank, 32u);
        EXPECT_EQ(bank, net.homeBank(line + 7)); // same line, same bank
    }
}

TEST_F(NetworkTest, HomeBanksSpreadAcrossBanks)
{
    std::vector<int> seen(16, 0);
    for (Addr l = 0; l < 64 * lineBytes; l += lineBytes)
        seen[net.homeBank(l) - 16]++;
    for (int count : seen)
        EXPECT_EQ(count, 4); // 64 consecutive lines over 16 banks
}

TEST_F(NetworkTest, IdleAfterAllDelivered)
{
    net.send(makeMsg(2, 9), 0);
    for (Cycle c = 0; c <= 100; c++)
        net.tick(c);
    EXPECT_TRUE(net.idle());
}

TEST_F(NetworkTest, MessageStatsCounted)
{
    net.send(makeMsg(0, 1), 0);
    net.send(makeMsg(1, 2), 0);
    EXPECT_EQ(net.stats().counterValue("messages"), 2u);
}

namespace
{

/** One delivery, as seen by a shared log. */
struct Delivery
{
    NodeId dst;
    Addr line;
    Cycle at;
};

/** Handler appending to a log shared by every node, so tests see the
 *  global delivery order. An optional hook runs after each delivery. */
struct LogHandler : MsgHandler
{
    std::vector<Delivery> *log = nullptr;
    std::function<void(const Msg &, Cycle)> then;
    void
    deliver(const Msg &msg, Cycle now) override
    {
        log->push_back({msg.dst, msg.line, now});
        if (then)
            then(msg, now);
    }
};

/** A 16-core network whose every node logs into one vector. */
struct LoggedNet
{
    explicit LoggedNet(NetParams p = NetParams{}) : net(16, p)
    {
        for (NodeId n = 0; n < 32; n++) {
            handlers[n].log = &log;
            net.attach(n, &handlers[n]);
        }
    }

    void
    tickThrough(Cycle from, Cycle to)
    {
        for (Cycle c = from; c <= to; c++)
            net.tick(c);
    }

    Network net;
    LogHandler handlers[32];
    std::vector<Delivery> log;
};

/** Line tag -> extra delay, via the fault-injection hook. */
Network::DelayHook
delayByLine(std::function<Cycle(Addr)> f)
{
    return [f](const Msg &m, Cycle) { return f(m.line); };
}

} // namespace

TEST(NetworkRing, SameCycleDifferentPairsArriveInSendOrder)
{
    LoggedNet t;
    // Core i -> bank i shares a tile: every pair has the same latency.
    const NodeId order[] = {5, 2, 9, 0, 13};
    for (std::size_t i = 0; i < 5; i++)
        t.net.send(makeMsg(order[i], 16 + order[i], 0x40 * (i + 1)), 0);
    t.tickThrough(0, 10);
    ASSERT_EQ(t.log.size(), 5u);
    for (std::size_t i = 0; i < 5; i++) {
        EXPECT_EQ(t.log[i].dst, 16 + order[i]);
        EXPECT_EQ(t.log[i].line, 0x40 * (i + 1));
        EXPECT_EQ(t.log[i].at, t.net.latency(0, 16));
    }
}

TEST(NetworkRing, LongDelayDeliveredExactlyAtItsDueCycle)
{
    LoggedNet t;
    t.net.setDelayHook(
        delayByLine([](Addr line) { return line == 0x80 ? 5000 : 0; }));
    t.net.send(makeMsg(0, 16, 0x80), 0);
    t.net.send(makeMsg(1, 17, 0x40), 0);
    const Cycle due = t.net.latency(0, 16) + 5000;
    t.tickThrough(0, due - 1);
    ASSERT_EQ(t.log.size(), 1u);
    EXPECT_EQ(t.log[0].line, 0x40u);
    EXPECT_EQ(t.net.nextDue(), due);
    t.net.tick(due);
    ASSERT_EQ(t.log.size(), 2u);
    EXPECT_EQ(t.log[1].line, 0x80u);
    EXPECT_EQ(t.log[1].at, due);
    EXPECT_TRUE(t.net.idle());
}

TEST(NetworkRing, SendsDuringDeliveryForcingGrowthLoseNothing)
{
    LoggedNet t;
    t.net.setDelayHook(delayByLine([](Addr line) -> Cycle {
        return line >= 0x10000 ? (line - 0x10000) / 0x40 * 700 : 0;
    }));
    // The first delivery sends a burst on distinct pairs (no ordering
    // floor between them): a far-future message that no longer fits the
    // ring, then near ones that queue behind it until the bucket drains.
    const Addr delays[] = {10, 0, 3, 0, 1}; // x 700 cycles
    Cycle sentAt = 0;
    t.handlers[16].then = [&](const Msg &, Cycle now) {
        if (sentAt)
            return;
        sentAt = now;
        for (NodeId i = 0; i < 5; i++)
            t.net.send(makeMsg(2 + i, 18 + i, 0x10000 + 0x40 * delays[i]),
                       now);
    };
    t.net.send(makeMsg(0, 16, 0x40), 0);
    t.net.send(makeMsg(1, 17, 0x80), 0); // due with the trigger
    t.tickThrough(0, 8000);
    ASSERT_EQ(t.log.size(), 7u);
    EXPECT_TRUE(t.net.idle());
    EXPECT_EQ(t.net.stats().counterValue("delivered"), 7u);
    EXPECT_EQ(t.log[1].line, 0x80u);

    // Each burst message arrives at its own due cycle, in (due,
    // injection) order.
    struct Expected
    {
        Cycle at;
        Addr line;
    };
    std::vector<Expected> want;
    for (NodeId i = 0; i < 5; i++) {
        want.push_back({sentAt + t.net.latency(2 + i, 18 + i) +
                            700 * delays[i],
                        0x10000 + 0x40 * delays[i]});
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const Expected &a, const Expected &b) {
                         return a.at < b.at;
                     });
    for (std::size_t i = 0; i < 5; i++) {
        EXPECT_EQ(t.log[2 + i].line, want[i].line);
        EXPECT_EQ(t.log[2 + i].at, want[i].at);
    }
}

TEST(NetworkRing, SendDueNowDuringDeliveryArrivesSameTick)
{
    NetParams zero;
    zero.hopLatency = 0;
    LoggedNet t(zero);
    // A chain of zero-latency forwards: each arrives in the tick that
    // sent it, as the heap it replaced did.
    for (NodeId n = 16; n < 20; n++) {
        t.handlers[n].then = [&t, n](const Msg &m, Cycle now) {
            t.net.send(makeMsg(n, n + 1, m.line), now);
        };
    }
    t.net.send(makeMsg(0, 16, 0x40), 5);
    t.net.tick(5);
    ASSERT_EQ(t.log.size(), 5u);
    for (std::size_t i = 0; i < 5; i++) {
        EXPECT_EQ(t.log[i].dst, 16 + i);
        EXPECT_EQ(t.log[i].at, 5u);
    }
    EXPECT_TRUE(t.net.idle());
}

TEST(NetworkRing, SaveRestoreSaveIsByteIdentical)
{
    LoggedNet a;
    a.net.setDelayHook(delayByLine([](Addr line) -> Cycle {
        return (line / 0x40) * 37 % 300;
    }));
    for (Addr k = 0; k < 60; k++) {
        const NodeId src = static_cast<NodeId>(k % 16);
        a.net.send(makeMsg(src, 16 + (k * 7) % 16, 0x40 * k), k / 4);
    }
    a.tickThrough(0, 40);
    ASSERT_GT(a.net.inFlightCount(), 20u);
    Ser first;
    a.net.save(first);

    LoggedNet b;
    Deser d(first.bytes());
    b.net.restore(d);
    Ser second;
    b.net.save(second);
    EXPECT_EQ(first.bytes(), second.bytes());
    EXPECT_EQ(b.net.nextDue(), a.net.nextDue());
    EXPECT_EQ(b.net.inFlightCount(), a.net.inFlightCount());

    // Both deliver the rest identically.
    a.log.clear();
    a.tickThrough(41, 400);
    b.tickThrough(41, 400);
    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t i = 0; i < a.log.size(); i++) {
        EXPECT_EQ(a.log[i].line, b.log[i].line);
        EXPECT_EQ(a.log[i].at, b.log[i].at);
    }
    EXPECT_TRUE(b.net.idle());
}

TEST(NetworkRing, TickAfterGapDeliversNothingEarlyAndDropsNothing)
{
    LoggedNet t;
    t.net.setDelayHook(delayByLine([](Addr line) -> Cycle {
        return line / 0x40 * 10;
    }));
    for (Addr k = 0; k < 12; k++)
        t.net.send(makeMsg(0, 16, 0x40 * k), 0);
    const Cycle base = t.net.latency(0, 16);
    t.net.tick(base + 45); // skips straight over the first five dues
    ASSERT_EQ(t.log.size(), 5u);
    for (const Delivery &dl : t.log)
        EXPECT_EQ(dl.at, base + 45);
    EXPECT_EQ(t.net.nextDue(), base + 50);
    t.net.tick(base + 1000);
    ASSERT_EQ(t.log.size(), 12u);
    for (Addr k = 0; k < 12; k++)
        EXPECT_EQ(t.log[k].line, 0x40 * k);
    EXPECT_TRUE(t.net.idle());
}

TEST(NetworkRing, MidDrainViewListsOnlyUndelivered)
{
    LoggedNet t;
    // Observed from inside the first delivery, as a crash dump would.
    std::size_t inFlight = 0, listed = 0;
    Cycle next = 0;
    t.handlers[16].then = [&](const Msg &, Cycle) {
        inFlight = t.net.inFlightCount();
        next = t.net.nextDue();
        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *mem = open_memstream(&buf, &len);
        t.net.dumpDiag(mem, 0);
        std::fclose(mem);
        const std::string diag(buf, len);
        std::free(buf);
        for (auto at = diag.find("\"type\""); at != std::string::npos;
             at = diag.find("\"type\"", at + 1))
            listed++;
    };
    t.net.send(makeMsg(0, 16, 0x40), 0);
    t.net.send(makeMsg(1, 17, 0x80), 0);
    t.net.send(makeMsg(2, 18, 0xc0), 0);
    t.net.send(makeMsg(0, 31, 0x100), 0); // farther, due later
    t.tickThrough(0, 2);
    EXPECT_EQ(inFlight, 3u);
    EXPECT_EQ(listed, 3u);
    EXPECT_EQ(next, t.net.latency(1, 17));
}
