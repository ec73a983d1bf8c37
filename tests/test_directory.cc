/**
 * @file
 * Protocol unit tests for a directory bank: state transitions, the
 * Blocked window, request queueing, invalidation collection, and the
 * PutM crossing races. Storage tests: the line table across resizes,
 * the transaction records' image shape, and the crash-dump listing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "mem/directory.hh"
#include "net/network.hh"
#include "sim/snapshot.hh"

using namespace rowsim;

namespace
{

struct CoreStub : MsgHandler
{
    std::vector<Msg> inbox;
    void
    deliver(const Msg &msg, Cycle) override
    {
        inbox.push_back(msg);
    }
    bool
    got(MsgType t, Addr line) const
    {
        for (const auto &m : inbox)
            if (m.type == t && m.line == line)
                return true;
        return false;
    }
    bool
    got(MsgType t) const
    {
        for (const auto &m : inbox)
            if (m.type == t)
                return true;
        return false;
    }
    const Msg *
    last(MsgType t) const
    {
        for (auto it = inbox.rbegin(); it != inbox.rend(); ++it)
            if (it->type == t)
                return &*it;
        return nullptr;
    }
};

/** Flag byte of every entry in a directory image, by line. The top
 *  bit marks a quiescent entry (no transaction record follows). */
std::map<Addr, std::uint8_t>
entryFlags(const std::vector<std::uint8_t> &image)
{
    Deser d(image);
    d.section("directory");
    d.u32();
    std::map<Addr, std::uint8_t> flags;
    Addr line = 0;
    for (std::uint64_t n = d.u64(); n > 0; n--) {
        line += d.vu64();
        const std::uint8_t flag = d.u8();
        d.vu64();
        d.vu64();
        flags[line] = flag;
        if (flag & 0x80)
            continue;
        // requester, next state/owner/sharers, acks, data ready/pending
        d.u32();
        d.u8();
        d.u32();
        d.u64();
        d.u32();
        d.u64();
        d.b();
        Msg m;
        restoreMsg(d, m);
        d.u64();
        for (std::uint64_t q = d.u64(); q > 0; q--)
            restoreMsg(d, m);
    }
    return flags;
}

using LineRow = std::tuple<Addr, DirState, std::uint64_t, CoreId, CoreId,
                           unsigned, bool, Cycle, std::size_t>;

/** Everything forEachLine reports, one row per visit, in line order. */
std::vector<LineRow>
lineRows(const Directory &dir)
{
    std::vector<LineRow> rows;
    dir.forEachLine([&](const Directory::LineInfo &i) {
        rows.emplace_back(i.line, i.state, i.sharers, i.owner,
                          i.txnRequester, i.pendingAcks, i.dataPending,
                          i.blockedSince, i.queued);
    });
    std::sort(rows.begin(), rows.end());
    return rows;
}

std::vector<std::uint8_t>
imageOf(const Directory &dir)
{
    Ser s;
    dir.save(s);
    return s.bytes();
}

/** Copies of @p line in the bank's LLC array, read from the array's
 *  section of the bank image. */
unsigned
llcCopies(const Directory &dir, Addr line)
{
    const std::vector<std::uint8_t> image = imageOf(dir);
    Ser marker;
    marker.section("cachearray");
    const std::vector<std::uint8_t> m = marker.bytes();
    const auto at = std::search(image.begin(), image.end(), m.begin(),
                                m.end());
    EXPECT_NE(at, image.end()) << "no LLC array in the bank image";
    if (at == image.end())
        return 0;
    Deser d(&*at, static_cast<std::size_t>(image.end() - at));
    d.section("cachearray");
    d.u32();
    d.u32();
    unsigned copies = 0;
    for (std::uint64_t n = d.u64(); n > 0; n--) {
        d.vu64();
        copies += (d.vu64() << 6) == line;
        d.u8();
        d.vu64();
    }
    return copies;
}

} // namespace

class DirectoryTest : public ::testing::Test
{
  protected:
    static constexpr unsigned cores = 4;

    DirectoryTest()
        : net(cores, NetParams{}), dir(0, cores, MemParams{}, &net)
    {
        for (CoreId c = 0; c < cores; c++)
            net.attach(c, &stubs[c]);
        net.attach(cores + 0, &dir);
        // Pick a line homed at bank 0.
        line = 0;
        EXPECT_EQ(net.homeBank(line), cores + 0);
    }

    /** Advance enough cycles for all latencies to elapse. */
    void
    settle(Cycle upto = 600)
    {
        for (; now <= upto; now++) {
            net.tick(now);
            dir.tick(now);
        }
    }

    void
    sendToDir(MsgType t, CoreId c)
    {
        sendToDir(t, c, line);
    }

    void
    sendToDir(MsgType t, CoreId c, Addr to)
    {
        Msg m;
        m.type = t;
        m.line = to;
        m.src = c;
        m.dst = cores + 0;
        m.requester = c;
        net.send(m, now);
    }

    /** Close a hand-built bank image after its entries: no wake
     *  schedule or stall, an empty LLC array, @p blocked Blocked lines. */
    static void
    endImage(Ser &s, unsigned blocked)
    {
        const MemParams mp;
        s.u64(0); // wake
        s.u64(0); // stall buffer
        s.u64(0); // stalledUntil
        CacheArray(mp.l3SetsPerBank, mp.l3Ways).save(s);
        s.u32(blocked);
    }

    /** The @p k-th line homed at bank 0: line numbers that are multiples
     *  of the core count, the bits homeBank fixes for this bank. */
    static Addr bankLine(unsigned k) { return Addr{k} * cores * lineBytes; }

    Network net;
    Directory dir;
    CoreStub stubs[cores];
    Addr line;
    Cycle now = 1;
};

TEST_F(DirectoryTest, GetSFromInvalidDeliversSharedData)
{
    sendToDir(MsgType::GetS, 0);
    settle();
    ASSERT_TRUE(stubs[0].got(MsgType::Data));
    const Msg *d = stubs[0].last(MsgType::Data);
    EXPECT_FALSE(d->excl);
    EXPECT_TRUE(d->fromMemory); // cold LLC
    EXPECT_FALSE(d->fromPrivateCache);
    // Blocked until the Unblock arrives.
    EXPECT_EQ(dir.lineState(line), DirState::Blocked);
    sendToDir(MsgType::Unblock, 0);
    settle(1200);
    EXPECT_EQ(dir.lineState(line), DirState::Shared);
}

TEST_F(DirectoryTest, SecondGetSHitsLlc)
{
    sendToDir(MsgType::GetS, 0);
    settle();
    sendToDir(MsgType::Unblock, 0);
    settle(1200);
    sendToDir(MsgType::GetS, 1);
    settle(1800);
    const Msg *d = stubs[1].last(MsgType::Data);
    ASSERT_NE(d, nullptr);
    EXPECT_FALSE(d->fromMemory); // LLC now has it
}

TEST_F(DirectoryTest, GetXFromInvalidGrantsExclusive)
{
    sendToDir(MsgType::GetX, 2);
    settle();
    ASSERT_TRUE(stubs[2].got(MsgType::DataExcl));
    sendToDir(MsgType::Unblock, 2);
    settle(1200);
    EXPECT_EQ(dir.lineState(line), DirState::Modified);
    EXPECT_EQ(dir.lineOwner(line), 2u);
}

TEST_F(DirectoryTest, GetXOnSharedInvalidatesSharers)
{
    // Cores 0 and 1 take shared copies.
    for (CoreId c : {0u, 1u}) {
        sendToDir(MsgType::GetS, c);
        settle(now + 600);
        sendToDir(MsgType::Unblock, c);
        settle(now + 600);
    }
    // Core 2 wants exclusive: both sharers must be invalidated.
    sendToDir(MsgType::GetX, 2);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::Inv));
    EXPECT_TRUE(stubs[1].got(MsgType::Inv));
    // Data is withheld until both InvAcks arrive.
    EXPECT_FALSE(stubs[2].got(MsgType::DataExcl));
    sendToDir(MsgType::InvAck, 0);
    settle(now + 600);
    EXPECT_FALSE(stubs[2].got(MsgType::DataExcl));
    sendToDir(MsgType::InvAck, 1);
    settle(now + 600);
    EXPECT_TRUE(stubs[2].got(MsgType::DataExcl));
}

TEST_F(DirectoryTest, GetXOnModifiedForwardsToOwner)
{
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);

    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    ASSERT_TRUE(stubs[0].got(MsgType::FwdGetX));
    EXPECT_EQ(stubs[0].last(MsgType::FwdGetX)->requester, 1u);
    // Ownership transfers at the Unblock.
    sendToDir(MsgType::Unblock, 1);
    settle(now + 600);
    EXPECT_EQ(dir.lineOwner(line), 1u);
}

TEST_F(DirectoryTest, RequestsQueueBehindBlockedLine)
{
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    // Line is Blocked (no Unblock yet); core 1's request must wait.
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    EXPECT_FALSE(stubs[0].got(MsgType::FwdGetX));
    EXPECT_EQ(dir.stats().counterValue("queuedRequests"), 1u);
    // Unblock releases the queue: core 0 becomes owner, then gets the
    // forward for core 1.
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::FwdGetX));
}

TEST_F(DirectoryTest, PutMFromOwnerWritesBack)
{
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    sendToDir(MsgType::PutM, 0);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::WBAck));
    EXPECT_EQ(dir.lineState(line), DirState::Invalid);
    EXPECT_EQ(dir.stats().counterValue("writebacks"), 1u);
}

// The GetX brought the line into the LLC, so the owner's writeback
// finds it there: it refreshes that copy instead of filling a second
// way with the same tag.
TEST_F(DirectoryTest, PutMOfALineInTheLlcKeepsOneCopy)
{
    EXPECT_EQ(llcCopies(dir, line), 0u);
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    ASSERT_EQ(llcCopies(dir, line), 1u);
    sendToDir(MsgType::PutM, 0);
    settle(now + 600);
    ASSERT_EQ(dir.stats().counterValue("writebacks"), 1u);
    EXPECT_EQ(llcCopies(dir, line), 1u);

    // The functional writeback of a line the LLC holds does the same.
    dir.funcSetLine(line, DirState::Modified, 1, 0);
    dir.funcWriteback(line, 1, now);
    EXPECT_EQ(dir.lineState(line), DirState::Invalid);
    EXPECT_EQ(llcCopies(dir, line), 1u);
}

TEST_F(DirectoryTest, StalePutMIsAckedWithoutStateChange)
{
    // Core 0 owns; core 1's GetX is in flight (Blocked, fwd sent); core
    // 0's crossing PutM must be acked as stale.
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    ASSERT_EQ(dir.lineState(line), DirState::Blocked);
    sendToDir(MsgType::PutM, 0);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::WBAck));
    EXPECT_EQ(dir.stats().counterValue("staleWritebacks"), 1u);
    sendToDir(MsgType::Unblock, 1);
    settle(now + 600);
    EXPECT_EQ(dir.lineOwner(line), 1u);
}

TEST_F(DirectoryTest, OracleFiresOnConcurrentInterest)
{
    int overlap_calls = 0, holder_calls = 0;
    dir.setOracleHook([&](Addr, CoreId, CoreId, bool overlap, Cycle) {
        (overlap ? overlap_calls : holder_calls)++;
    });
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    // Queued request while blocked: definite overlap.
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    EXPECT_GT(overlap_calls, 0);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    // The queued GetX is now processed against M-owner 0: holder hint.
    EXPECT_GT(holder_calls, 0);
}

TEST_F(DirectoryTest, IdleReflectsOutstandingTransactions)
{
    EXPECT_TRUE(dir.idle());
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    EXPECT_FALSE(dir.idle());
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    EXPECT_TRUE(dir.idle());
}

TEST_F(DirectoryTest, LineTableKeepsEveryLineAcrossResizes)
{
    // A finished transaction first, so its record index must survive
    // every resize that follows.
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 1);
    settle(now + 600);
    ASSERT_EQ(dir.lineOwner(line), 1u);

    // 3000 more lines of bank 0 grow the table from its minimum through
    // several doublings. The states cycle so every field is checked.
    constexpr unsigned n = 3000;
    const auto sharersOf = [](unsigned k) { return std::uint64_t{k % 15}; };
    for (unsigned k = 1; k <= n; k++) {
        const Addr a = bankLine(k);
        switch (k % 3) {
          case 0:
            dir.funcSetLine(a, DirState::Invalid, invalidCore, 0);
            break;
          case 1:
            dir.funcSetLine(a, DirState::Shared, invalidCore, sharersOf(k));
            break;
          default:
            dir.funcSetLine(a, DirState::Modified, k % cores, 0);
            break;
        }
    }
    // A line only ever written back functionally is present too.
    const Addr writtenBack = bankLine(n + 1);
    dir.funcWriteback(writtenBack, 0, now);

    for (unsigned k = 1; k <= n; k++) {
        const Addr a = bankLine(k);
        const DirState want = k % 3 == 0   ? DirState::Invalid
                              : k % 3 == 1 ? DirState::Shared
                                           : DirState::Modified;
        ASSERT_EQ(dir.lineState(a), want) << "line " << k;
        EXPECT_EQ(dir.lineOwner(a), k % 3 == 2 ? k % cores : invalidCore);
        EXPECT_EQ(dir.stableLine(a).sharers, k % 3 == 1 ? sharersOf(k) : 0u);
        // Any byte address inside the line finds it.
        EXPECT_EQ(dir.lineState(a + lineBytes - 1), want);
    }
    EXPECT_EQ(dir.lineState(line), DirState::Modified);
    EXPECT_EQ(dir.lineOwner(line), 1u);

    // Absent lines: past the inserted range, and homed at another bank.
    for (const Addr a : {bankLine(n + 2), bankLine(10 * n), Addr{lineBytes},
                         bankLine(7) + 2 * lineBytes}) {
        EXPECT_EQ(dir.lineState(a), DirState::Invalid);
        EXPECT_EQ(dir.lineOwner(a), invalidCore);
        EXPECT_EQ(dir.stableLine(a).sharers, 0u);
    }

    // forEachLine visits each line exactly once.
    std::map<Addr, unsigned> visits;
    dir.forEachLine([&](const Directory::LineInfo &i) { visits[i.line]++; });
    EXPECT_EQ(visits.size(), n + 2u);
    for (const auto &[a, count] : visits)
        EXPECT_EQ(count, 1u) << std::hex << a;
    EXPECT_EQ(visits.count(line), 1u);
    EXPECT_EQ(visits.count(writtenBack), 1u);

    // Functionally touched lines carry no transaction record; the
    // transacted line keeps its finished record.
    const auto flags = entryFlags(imageOf(dir));
    ASSERT_EQ(flags.size(), n + 2u);
    for (const auto &[a, flag] : flags) {
        if (a == line)
            EXPECT_EQ(flag & 0x80, 0);
        else
            EXPECT_EQ(flag & 0x80, 0x80) << std::hex << a;
    }
}

TEST_F(DirectoryTest, RecordShapesRoundTripByteExact)
{
    // A: never transacted.
    const Addr never = bankLine(1);
    dir.funcSetLine(never, DirState::Shared, invalidCore, 0b0101);

    // B: one finished transaction.
    const Addr finished = bankLine(2);
    sendToDir(MsgType::GetX, 0, finished);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0, finished);
    settle(now + 600);
    ASSERT_EQ(dir.lineState(finished), DirState::Modified);

    // E: owned by core 0, core 1's GetX Blocked on the forward, two
    // requests queued behind it, and core 0's PutM crossing the forward.
    const Addr queued = bankLine(3);
    sendToDir(MsgType::GetX, 0, queued);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0, queued);
    settle(now + 600);
    sendToDir(MsgType::GetX, 1, queued);
    settle(now + 50);
    sendToDir(MsgType::GetS, 2, queued);
    sendToDir(MsgType::GetX, 3, queued);
    sendToDir(MsgType::PutM, 0, queued);
    settle(now + 50);
    ASSERT_TRUE(stubs[0].got(MsgType::WBAck, queued));
    ASSERT_EQ(dir.stats().counterValue("staleWritebacks"), 1u);

    // C: a GetX on a line shared by cores 0 and 1, one InvAck in.
    const Addr acking = bankLine(4);
    dir.funcSetLine(acking, DirState::Shared, invalidCore, 0b0011);
    sendToDir(MsgType::GetX, 2, acking);
    settle(now + 50);
    sendToDir(MsgType::InvAck, 0, acking);
    settle(now + 50);

    // D: a cold GetS whose data reply waits on the memory latency.
    const Addr waking = bankLine(5);
    sendToDir(MsgType::GetS, 3, waking);
    settle(now + 20);
    ASSERT_EQ(dir.lineState(waking), DirState::Blocked);
    ASSERT_FALSE(stubs[3].got(MsgType::Data, waking));
    ASSERT_NE(dir.nextEventCycle(now), invalidCycle); // on the wake list

    const auto rows = lineRows(dir);
    ASSERT_EQ(rows.size(), 5u);
    for (const LineRow &r : rows) {
        const Addr a = std::get<0>(r);
        if (a == acking) {
            EXPECT_EQ(std::get<5>(r), 1u); // one InvAck outstanding
        } else if (a == queued) {
            EXPECT_EQ(std::get<8>(r), 2u);
        }
    }
    EXPECT_EQ(dir.blockedCount(), 3u);

    const auto image = imageOf(dir);
    Network net2(cores, NetParams{});
    Directory back(0, cores, MemParams{}, &net2);
    Deser d(image);
    back.restore(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(imageOf(back), image);
    EXPECT_EQ(lineRows(back), rows);
    EXPECT_EQ(back.blockedCount(), 3u);
    EXPECT_EQ(back.nextEventCycle(now), dir.nextEventCycle(now));

    // Only the never-transacted line is quiescent. The finished line's
    // record still holds its transaction's next state and data reply,
    // and those leftovers are part of the image (and of every digest).
    const auto flags = entryFlags(image);
    EXPECT_EQ(flags.at(never), 0x80 | static_cast<int>(DirState::Shared));
    EXPECT_EQ(flags.at(finished), static_cast<int>(DirState::Modified));
    for (const Addr a : {queued, acking, waking})
        EXPECT_EQ(flags.at(a), static_cast<int>(DirState::Blocked));
}

TEST_F(DirectoryTest, QueuedPutMDrainsThroughDeliverAfterRestore)
{
    // The protocol answers a PutM on arrival, so a queued one only
    // comes from an image: build one by hand. Core 1's GetX is Blocked
    // (forward out), core 1's own eviction and core 2's GetS wait.
    const Addr a = bankLine(9);
    Ser s;
    s.section("directory");
    s.u32(0);
    s.u64(1);
    s.vu64(a);
    s.u8(static_cast<std::uint8_t>(DirState::Blocked));
    s.vu64(0);
    s.vu64(0 + 1); // owner core 0, +1 coded
    s.u32(1);      // requester
    s.u8(static_cast<std::uint8_t>(DirState::Modified));
    s.u32(1);
    s.u64(0);
    s.u32(0);
    s.u64(invalidCycle);
    s.b(false);
    saveMsg(s, Msg{}); // never built a data reply
    s.u64(40);         // blockedSince
    s.u64(2);
    Msg putm;
    putm.type = MsgType::PutM;
    putm.line = a;
    putm.src = 1;
    putm.dst = cores;
    putm.requester = 1;
    putm.fromPrivateCache = true;
    saveMsg(s, putm);
    Msg gets = putm;
    gets.type = MsgType::GetS;
    gets.src = 2;
    gets.requester = 2;
    saveMsg(s, gets);
    endImage(s, 1);

    Deser d(s.bytes());
    dir.restore(d);
    EXPECT_EQ(imageOf(dir), s.bytes());
    ASSERT_EQ(dir.lineState(a), DirState::Blocked);

    // The Unblock makes core 1 owner; the drain delivers its PutM (a
    // clean writeback into the LLC), then serves the GetS from the LLC.
    sendToDir(MsgType::Unblock, 1, a);
    settle(now + 600);
    EXPECT_TRUE(stubs[1].got(MsgType::WBAck, a));
    EXPECT_EQ(dir.stats().counterValue("writebacks"), 1u);
    const Msg *data = stubs[2].last(MsgType::Data);
    ASSERT_NE(data, nullptr);
    EXPECT_FALSE(data->fromMemory);
    EXPECT_EQ(dir.lineState(a), DirState::Blocked); // core 2's GetS
    sendToDir(MsgType::Unblock, 2, a);
    settle(now + 600);
    EXPECT_EQ(dir.lineState(a), DirState::Shared);
    EXPECT_EQ(dir.stableLine(a).sharers, 0b0100u);
    EXPECT_TRUE(dir.idle());
}

TEST_F(DirectoryTest, DumpDiagListsBlockedLinesInLineOrder)
{
    // Blocked in descending line order, among idle lines.
    for (unsigned k = 1; k <= 40; k++)
        dir.funcSetLine(bankLine(k), DirState::Shared, invalidCore, 1);
    const Addr high = bankLine(33), low = bankLine(6);
    sendToDir(MsgType::GetX, 2, high);
    settle(now + 20);
    sendToDir(MsgType::GetX, 3, low);
    settle(now + 20);
    sendToDir(MsgType::GetS, 1, low);
    settle(now + 20);
    ASSERT_EQ(dir.blockedCount(), 2u);

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    dir.dumpDiag(f, now);
    std::rewind(f);
    std::string text;
    char buf[256];
    for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;)
        text.append(buf, got);
    std::fclose(f);

    const Json j = parseJson(text);
    EXPECT_EQ(j.at("dir").str, "dir0");
    EXPECT_EQ(j.at("blocked").asU64(), 2u);
    const std::vector<Json> &lines = j.at("blockedLines").arr;
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].at("line").asU64(), low);
    EXPECT_EQ(lines[0].at("requester").asU64(), 3u);
    EXPECT_EQ(lines[0].at("queued").asU64(), 1u);
    EXPECT_EQ(lines[1].at("line").asU64(), high);
    EXPECT_EQ(lines[1].at("requester").asU64(), 2u);
    EXPECT_EQ(lines[1].at("queued").asU64(), 0u);
    // Core 0's shared copy of each line is being invalidated.
    EXPECT_EQ(lines[0].at("pendingAcks").asU64(), 1u);
    EXPECT_EQ(lines[1].at("pendingAcks").asU64(), 1u);
}

TEST_F(DirectoryTest, RestoreRejectsImpossibleImages)
{
    // An entry count the remaining bytes cannot hold fails before the
    // table is sized from it.
    Ser huge;
    huge.section("directory");
    huge.u32(0);
    huge.u64(std::uint64_t{1} << 40);
    huge.u64(0);
    Deser hd(huge.bytes());
    EXPECT_THROW(dir.restore(hd), SnapshotError);

    // A data reply the directory could not have built (another line's
    // address) is not representable in a transaction record.
    const Addr a = bankLine(3);
    Ser bad;
    bad.section("directory");
    bad.u32(0);
    bad.u64(1);
    bad.vu64(a);
    bad.u8(static_cast<std::uint8_t>(DirState::Blocked));
    bad.vu64(0);
    bad.vu64(0);
    bad.u32(1);
    bad.u8(static_cast<std::uint8_t>(DirState::Shared));
    bad.u32(invalidCore);
    bad.u64(0b10);
    bad.u32(0);
    bad.u64(100);
    bad.b(true);
    Msg reply;
    reply.type = MsgType::Data;
    reply.line = a + lineBytes * cores;
    reply.src = cores;
    reply.dst = 1;
    reply.requester = 1;
    saveMsg(bad, reply);
    bad.u64(50);
    bad.u64(0);
    endImage(bad, 1);
    Deser bd(bad.bytes());
    EXPECT_THROW(dir.restore(bd), SnapshotError);
}
