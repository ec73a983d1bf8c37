/**
 * @file
 * Tests for the private cache unit wired to real directory banks over a
 * real network, with a scriptable MemClient standing in for the core:
 * hit/miss latencies, upgrades, evictions, cache locking (stalled
 * externals), and the lock-steal timeout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "mem/memsystem.hh"

using namespace rowsim;

namespace
{

struct ScriptClient : MemClient
{
    std::vector<MemResult> done;
    std::vector<std::pair<std::uint64_t, FillSource>> atomicReady;
    std::set<Addr> lockedLines;
    std::vector<Addr> snoops;
    bool allowForceUnlock = false;
    int forceUnlocks = 0;

    void
    accessDone(const MemResult &r) override
    {
        done.push_back(r);
    }
    void
    atomicLineReady(std::uint64_t token, Addr line, FillSource source,
                    Cycle, bool, Cycle) override
    {
        atomicReady.emplace_back(token, source);
        lockedLines.insert(lineAlign(line));
    }
    bool
    lineLocked(Addr line) const override
    {
        return lockedLines.count(lineAlign(line)) > 0;
    }
    void
    externalRequestSnoop(Addr line, Cycle) override
    {
        snoops.push_back(lineAlign(line));
    }
    bool
    tryForceUnlock(Addr line, Cycle) override
    {
        if (!allowForceUnlock)
            return false;
        forceUnlocks++;
        lockedLines.erase(lineAlign(line));
        return true;
    }
};

} // namespace

class PrivateCacheTest : public ::testing::Test
{
  protected:
    PrivateCacheTest()
    {
        params.numCores = 2;
        mem = std::make_unique<MemSystem>(params);
        mem->cache(0).setClient(&client0);
        mem->cache(1).setClient(&client1);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end;) {
            now++;
            mem->tick(now);
        }
    }

    MemAccess
    load(Addr a, std::uint64_t token)
    {
        MemAccess m;
        m.addr = a;
        m.token = token;
        return m;
    }

    MemAccess
    store(Addr a, std::uint64_t v, std::uint64_t token)
    {
        MemAccess m;
        m.addr = a;
        m.token = token;
        m.needExclusive = true;
        m.isWrite = true;
        m.writeValue = v;
        return m;
    }

    MemAccess
    atomic(Addr a, std::uint64_t token)
    {
        MemAccess m;
        m.addr = a;
        m.token = token;
        m.needExclusive = true;
        m.isAtomic = true;
        return m;
    }

    SystemParams params;
    std::unique_ptr<MemSystem> mem;
    ScriptClient client0, client1;
    Cycle now = 0;
};

TEST_F(PrivateCacheTest, ColdLoadMissesToMemory)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    ASSERT_EQ(client0.done.size(), 1u);
    EXPECT_EQ(client0.done[0].source, FillSource::Memory);
    EXPECT_GT(client0.done[0].doneCycle - client0.done[0].requestCycle,
              params.mem.memoryLatency);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Shared);
}

TEST_F(PrivateCacheTest, WarmLoadHitsInL1)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    client0.done.clear();
    mem->cache(0).access(load(0x10008, 2), now);
    run(20);
    ASSERT_EQ(client0.done.size(), 1u);
    EXPECT_EQ(client0.done[0].source, FillSource::L1Hit);
    EXPECT_EQ(client0.done[0].doneCycle - client0.done[0].requestCycle,
              params.mem.l1HitLatency);
}

TEST_F(PrivateCacheTest, StoreUpgradesSharedLine)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Shared);
    mem->cache(0).access(store(0x10000, 42, 2), now);
    run(600);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Modified);
    EXPECT_EQ(mem->functional().read64(0x10000), 42u);
}

TEST_F(PrivateCacheTest, RemoteDirtyLineForwardedFromOwner)
{
    mem->cache(0).access(store(0x10000, 7, 1), now);
    run(600);
    mem->cache(1).access(load(0x10000, 2), now);
    run(600);
    ASSERT_EQ(client1.done.size(), 1u);
    EXPECT_EQ(client1.done[0].source, FillSource::RemoteCache);
    EXPECT_EQ(client1.done[0].value, 7u);
    // Owner downgraded to Shared by the FwdGetS.
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Shared);
}

TEST_F(PrivateCacheTest, RemoteStoreInvalidatesOwner)
{
    mem->cache(0).access(store(0x10000, 7, 1), now);
    run(600);
    mem->cache(1).access(store(0x10000, 9, 2), now);
    run(600);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Invalid);
    EXPECT_EQ(mem->cache(1).lineState(0x10000), CacheState::Modified);
    EXPECT_EQ(mem->functional().read64(0x10000), 9u);
}

TEST_F(PrivateCacheTest, AtomicLocksOnFill)
{
    mem->cache(0).access(atomic(0x10000, 1), now);
    run(600);
    ASSERT_EQ(client0.atomicReady.size(), 1u);
    EXPECT_TRUE(client0.lineLocked(0x10000));
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Modified);
}

TEST_F(PrivateCacheTest, LockedLineStallsExternalRequest)
{
    mem->cache(0).access(atomic(0x10000, 1), now);
    run(600);
    ASSERT_TRUE(client0.lineLocked(0x10000));

    // Core 1 wants the locked line: the forward must stall at core 0.
    mem->cache(1).access(store(0x10000, 5, 2), now);
    run(1000);
    EXPECT_TRUE(client1.done.empty());
    EXPECT_FALSE(client0.snoops.empty()); // RW/EW hook fired
    EXPECT_GT(mem->cache(0).stats().counterValue("lockStalledExternals"),
              0u);

    // Unlock: the stalled forward is serviced and core 1 completes.
    client0.lockedLines.clear();
    mem->cache(0).unlockNotify(0x10000, now);
    run(600);
    EXPECT_EQ(client1.done.size(), 1u);
    EXPECT_EQ(mem->cache(1).lineState(0x10000), CacheState::Modified);
}

TEST_F(PrivateCacheTest, LockStealAfterTimeout)
{
    mem->cache(0).lockStealThreshold = 200;
    mem->cache(0).access(atomic(0x10000, 1), now);
    run(600);
    client0.allowForceUnlock = true;
    mem->cache(1).access(store(0x10000, 5, 2), now);
    run(2000);
    EXPECT_GT(client0.forceUnlocks, 0);
    EXPECT_EQ(client1.done.size(), 1u);
    EXPECT_GT(mem->cache(0).stats().counterValue("lockSteals"), 0u);
}

TEST_F(PrivateCacheTest, MshrCoalescesSameLine)
{
    mem->cache(0).access(load(0x10000, 1), now);
    mem->cache(0).access(load(0x10008, 2), now);
    run(600);
    EXPECT_EQ(client0.done.size(), 2u);
    EXPECT_EQ(mem->cache(0).stats().counterValue("mshrCoalesced"), 1u);
    // Only one demand request went out (plus possibly a prefetch).
    EXPECT_LE(mem->cache(0).stats().counterValue("demandRequests"), 1u);
}

TEST_F(PrivateCacheTest, GetSFillUpgradesForExclusiveWaiter)
{
    // A load and a store to the same cold line: the GetS fill satisfies
    // the load; the store triggers a follow-up GetX.
    mem->cache(0).access(load(0x10000, 1), now);
    mem->cache(0).access(store(0x10000, 3, 2), now);
    run(1200);
    EXPECT_EQ(client0.done.size(), 2u);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Modified);
    EXPECT_EQ(mem->functional().read64(0x10000), 3u);
}

TEST_F(PrivateCacheTest, DirtyEvictionWritesBack)
{
    // Fill way more M lines into one set than its associativity.
    const unsigned sets = params.mem.l2Sets;
    for (unsigned i = 0; i < params.mem.l2Ways + 2; i++) {
        Addr a = 0x10000 + static_cast<Addr>(i) * sets * lineBytes;
        mem->cache(0).access(store(a, i, 100 + i), now);
        run(600);
    }
    EXPECT_GT(mem->cache(0).stats().counterValue("writebacks"), 0u);
    // Values survive eviction through the functional memory + LLC.
    EXPECT_EQ(mem->functional().read64(0x10000), 0u);
    run(2000);
    EXPECT_TRUE(mem->idle());
}

TEST_F(PrivateCacheTest, PrefetcherFetchesNextLine)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(800);
    EXPECT_GT(mem->cache(0).stats().counterValue("prefetchRequests"), 0u);
    // The next line is now present without a demand access.
    EXPECT_NE(mem->cache(0).lineState(0x10000 + lineBytes),
              CacheState::Invalid);
}

TEST_F(PrivateCacheTest, SystemQuiescesAfterTraffic)
{
    for (int i = 0; i < 8; i++) {
        mem->cache(0).access(load(0x20000 + i * 0x1000, i), now);
        mem->cache(1).access(store(0x20000 + i * 0x1000, i, 100 + i), now);
        run(50);
    }
    run(3000);
    EXPECT_TRUE(mem->idle());
}

// A crash dump lists MSHRs and in-flight writebacks in ascending line
// order, whatever order they were allocated in and however the tables
// lay them out.
TEST_F(PrivateCacheTest, DumpDiagListsLinesInAscendingOrder)
{
    // Dirty lines, then all evicted at once: their PutMs are in flight.
    std::vector<Addr> dirty;
    for (unsigned i = 0; i < 6; i++)
        dirty.push_back(0x40000 + (5 - i) * 0x1040);
    for (Addr a : dirty) {
        mem->cache(0).access(store(a, 1, a), now);
        run(600);
    }
    for (Addr a : dirty)
        ASSERT_TRUE(mem->cache(0).forceEvict(a, now));
    // Misses outstanding, issued in descending line order.
    for (unsigned i = 0; i < 16; i++)
        mem->cache(0).access(load(0x80000 + (15 - i) * 0x2040, 200 + i), now);

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    mem->cache(0).dumpDiag(f, now);
    std::rewind(f);
    std::string dump;
    for (int c; (c = std::fgetc(f)) != EOF;)
        dump.push_back(static_cast<char>(c));
    std::fclose(f);

    const auto linesIn = [&](const std::string &from, const std::string &to) {
        const std::size_t begin = dump.find(from);
        const std::size_t end = dump.find(to, begin);
        EXPECT_NE(begin, std::string::npos) << dump;
        EXPECT_NE(end, std::string::npos) << dump;
        std::vector<Addr> out;
        const std::string key = "\"line\":\"";
        for (std::size_t at = dump.find(key, begin); at < end;
             at = dump.find(key, at + 1))
            out.push_back(
                std::stoull(dump.substr(at + key.size()), nullptr, 16));
        return out;
    };
    const std::vector<Addr> mshrs = linesIn("\"mshrs\":[", "\"evicting\"");
    const std::vector<Addr> evicting =
        linesIn("\"evicting\":[", "\"stalledExternals\"");
    EXPECT_EQ(mshrs.size(), mem->cache(0).mshrCount());
    EXPECT_GE(mshrs.size(), 16u);
    EXPECT_TRUE(std::is_sorted(mshrs.begin(), mshrs.end())) << dump;
    std::sort(dirty.begin(), dirty.end());
    EXPECT_EQ(evicting, dirty) << dump;
}
