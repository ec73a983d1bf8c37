/**
 * @file
 * Targeted tests for the core's less-travelled paths: memory-dependence
 * violations and load replay, in-order lock acquisition (WaitLock) and
 * its refetch, the lock-steal replay of a pre-commit atomic, MSHR
 * backpressure, and the stats dump. The WaitTiming tests pin cycle
 * counts and state digests for one body per issue-wait reason, with
 * idle fast-forward off, on and in check mode.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

MicroOp
mkop(OpClass cls, Addr addr = invalidAddr, std::uint64_t value = 0,
     std::uint32_t src0 = 0)
{
    MicroOp op;
    op.cls = cls;
    op.addr = addr;
    op.value = value;
    op.src0 = src0;
    if (cls == OpClass::AtomicRMW) {
        op.aop = AtomicOp::FetchAdd;
        op.value = value ? value : 1;
        op.pc = 0x9000;
    }
    return op;
}

std::unique_ptr<System>
single(std::vector<MicroOp> body, AtomicPolicy policy = AtomicPolicy::Eager,
       SystemParams sp = {})
{
    body.back().endOfIteration = true;
    sp.numCores = 1;
    sp.core.atomicPolicy = policy;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    return std::make_unique<System>(sp, std::move(streams));
}

/** The StoreSetLearnsFromViolations body: a slow ALU chain delays the
 *  store's address, and the same-address load speculates past it. */
std::vector<MicroOp>
storeSetBody()
{
    std::vector<MicroOp> body;
    MicroOp slow = mkop(OpClass::IntAlu);
    slow.execLatency = 24;
    body.push_back(slow);
    MicroOp st = mkop(OpClass::Store, 0x8000, 42);
    st.src0 = 1; // store waits for the slow op
    st.pc = 0x7100;
    body.push_back(st);
    MicroOp ld = mkop(OpClass::Load, 0x8000);
    ld.pc = 0x7200;
    body.push_back(ld);
    body.push_back(mkop(OpClass::IntAlu));
    return body;
}

/**
 * Run @p body for @p quota iterations with idle fast-forward off, on and
 * in check mode (ROWSIM_FF=check ticks through every skipped window and
 * panics on drift); each run must end at @p cycles with state digest
 * @p digest.
 */
void
expectPinned(const std::vector<MicroOp> &body, AtomicPolicy policy,
             SystemParams sp, std::uint64_t quota, Cycle cycles,
             const std::string &digest)
{
    for (const char *mode : {"off", "on", "check"}) {
        SCOPED_TRACE(std::string("fast-forward ") + mode);
        const std::string m = mode;
        sp.idleFastForward = m != "off";
        if (m == "check")
            ::setenv("ROWSIM_FF", "check", 1);
        auto sys = single(body, policy, sp);
        ::unsetenv("ROWSIM_FF");
        EXPECT_EQ(sys->run(quota), cycles);
        EXPECT_EQ(sys->stateDigest(), digest);
    }
}

} // namespace

TEST(CorePaths, StoreSetLearnsFromViolations)
{
    // A slow ALU chain delays the store's address resolution; the
    // dependent-by-address load speculates past it, gets replayed, and
    // the StoreSet learns to make it wait.
    auto sys = single(storeSetBody());
    sys->run(60);
    const StatGroup &st = sys->core(0).stats();
    EXPECT_GT(st.counterValue("loadReplays"), 0u);
    EXPECT_GT(sys->core(0).storeSets().stats().counterValue("violations"),
              0u);
    // After training, replays stop: the warmup burst (in-flight loads
    // dispatched before the first violation trained the SSIT) is bounded
    // regardless of run length.
    EXPECT_LT(st.counterValue("loadReplays"), 300u);
    // The trained StoreSet holds loads back. Each load counts at most
    // once per issue attempt (one per replayGen), never once per cycle
    // held.
    const std::uint64_t held = st.counterValue("loadsPredictedDependent");
    EXPECT_GT(held, 0u);
    EXPECT_LE(held, st.counterValue("loadsDispatchedWithDep") +
                        st.counterValue("loadReplays"));
    sys->drain();
    EXPECT_EQ(sys->mem().functional().read64(0x8000), 42u);
}

TEST(CorePaths, InOrderLockAcquisition)
{
    // Two atomics per iteration: a slow (cold) one then a fast (hot)
    // one. The fast atomic's fill often arrives first and must wait its
    // turn (WaitLock) instead of locking out of order.
    class TwoAtomics : public InstStream
    {
      public:
        MicroOp
        next() override
        {
            switch (idx++ % 3) {
              case 0:
                return mkop(OpClass::AtomicRMW,
                            0x40000000 + (idx / 3) * 0x1000); // cold
              case 1:
                return mkop(OpClass::AtomicRMW, 0x1000); // hot
              default: {
                MicroOp op = mkop(OpClass::IntAlu);
                op.endOfIteration = true;
                return op;
              }
            }
        }

      private:
        std::uint64_t idx = 0;
    };

    SystemParams sp;
    sp.numCores = 1;
    sp.core.atomicPolicy = AtomicPolicy::Eager;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<TwoAtomics>());
    System sys(sp, std::move(streams));
    sys.run(50);
    EXPECT_GT(sys.core(0).stats().counterValue("lockWaits"), 0u);
    sys.drain();
    // The hot counter accumulated one increment per iteration.
    EXPECT_EQ(sys.mem().functional().read64(0x1000),
              sys.core(0).committedAtomics() / 2);
}

TEST(CorePaths, LockStealReplaysPreCommitAtomic)
{
    // Core 0: a long serial ALU chain precedes each FAA on a hot word,
    // so the eagerly-acquired lock is held pre-commit while the chain
    // drains. Core 1 hammers the same line with stores. With a small
    // steal threshold, a stalled forward steals the lock, the atomic
    // replays — and the count stays exact.
    SystemParams sp;
    sp.numCores = 2;
    sp.core.atomicPolicy = AtomicPolicy::Eager;
    sp.mem.lockStealThreshold = 25;

    std::vector<std::unique_ptr<InstStream>> streams;
    {
        std::vector<MicroOp> body;
        for (int i = 0; i < 60; i++) {
            MicroOp op = mkop(OpClass::IntAlu);
            op.execLatency = 5;
            op.src0 = i == 0 ? 0 : 1; // serial chain
            body.push_back(op);
        }
        body.push_back(mkop(OpClass::AtomicRMW, 0x2000));
        body.push_back(mkop(OpClass::IntAlu));
        body.back().endOfIteration = true;
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    {
        std::vector<MicroOp> body = {mkop(OpClass::Store, 0x2008, 7),
                                     mkop(OpClass::IntAlu)};
        body.back().endOfIteration = true;
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    System sys(sp, std::move(streams));
    sys.run(20);
    sys.drain();
    EXPECT_GT(sys.totalCounter("forcedUnlocks"), 0u);
    EXPECT_EQ(sys.mem().functional().read64(0x2000),
              sys.core(0).committedAtomics());
}

TEST(CorePaths, MshrBackpressureDoesNotLoseAccesses)
{
    // Far more independent cold loads per iteration than MSHRs: the
    // overflow queues inside the cache and everything still completes.
    class Flood : public InstStream
    {
      public:
        MicroOp
        next() override
        {
            MicroOp op = mkop(OpClass::Load,
                              0x60000000 + idx * lineBytes);
            idx++;
            op.endOfIteration = idx % 64 == 0;
            return op;
        }

      private:
        std::uint64_t idx = 0;
    };

    SystemParams sp;
    sp.numCores = 1;
    sp.mem.mshrs = 8;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<Flood>());
    System sys(sp, std::move(streams));
    sys.run(20);
    sys.drain();
    EXPECT_GT(sys.mem().cache(0).stats().counterValue("mshrFull"), 0u);
    EXPECT_GE(sys.core(0).committedInstructions(), 20u * 64u);
}

TEST(CorePaths, FencedAtomicBlocksYoungerMemoryIssue)
{
    // Under the Fenced policy a younger load may not issue until the
    // atomic unlocks; with Eager it runs ahead. Compare the younger-
    // started statistic.
    std::vector<MicroOp> body = {mkop(OpClass::Load, 0x70000000),
                                 mkop(OpClass::AtomicRMW, 0x3000),
                                 mkop(OpClass::Load, 0x71000000),
                                 mkop(OpClass::IntAlu)};
    auto fenced = single(body, AtomicPolicy::Fenced);
    auto eager = single(body, AtomicPolicy::Eager);
    Cycle cf = fenced->run(60);
    Cycle ce = eager->run(60);
    EXPECT_GT(cf, ce); // serialisation must cost cycles
}

TEST(CorePaths, DumpStatsEmitsEveryGroup)
{
    auto sys = single({mkop(OpClass::Load, 0x1000),
                       mkop(OpClass::AtomicRMW, 0x2000),
                       mkop(OpClass::IntAlu)});
    sys->run(10);

    const Json stats = parseJson(sys->statsJson());
    const Json &groups = stats.at("groups");
    EXPECT_TRUE(groups.has("sim"));
    EXPECT_TRUE(groups.at("core0").has("atomicsUnlocked"));
    EXPECT_TRUE(groups.at("l1d0").has("accesses"));
    EXPECT_TRUE(groups.at("network").has("messages"));
}

TEST(CorePaths, PrefetcherOffStillCorrect)
{
    SystemParams sp;
    sp.numCores = 1;
    sp.mem.prefetcher = false;
    std::vector<MicroOp> body = {mkop(OpClass::Load, 0x1000),
                                 mkop(OpClass::AtomicRMW, 0x2000),
                                 mkop(OpClass::IntAlu)};
    body.back().endOfIteration = true;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    System sys(sp, std::move(streams));
    sys.run(30);
    sys.drain();
    EXPECT_EQ(sys.mem().cache(0).stats().counterValue("prefetchRequests"),
              0u);
    // In-flight iterations keep committing during drain, so compare
    // against the committed count, not the quota.
    EXPECT_EQ(sys.mem().functional().read64(0x2000),
              sys.core(0).committedAtomics());
}

// ---------------------------------------------------------------------
// Issue-wait timing pins: one body per reason a waiting op can be held
// at issue. Cycle counts and digests were recorded before the issue
// stage moved from per-cycle polling to wakeups, so any change in when
// a held op issues shows up here.
// ---------------------------------------------------------------------

TEST(WaitTiming, LazyAtomicWaitsForOldestAndDrainedSb)
{
    expectPinned({mkop(OpClass::Load, 0x1000),
                  mkop(OpClass::Store, 0x1100, 3),
                  mkop(OpClass::AtomicRMW, 0x2000),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Lazy, {}, 40, 1396,
                 "f5c9eab2f6218732647608f7e79ef957"
                 "b3b2f7ff24b091c4bf16ac2b269b277c");
}

TEST(WaitTiming, AtomicWaitsForOlderSameWordStore)
{
    expectPinned({mkop(OpClass::Store, 0x2000, 5),
                  mkop(OpClass::AtomicRMW, 0x2000),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Eager, {}, 40, 997,
                 "8d644d06ea2c7c240865e89716e805d6"
                 "e77782f88dbd351f162afd8c829f4cab");
}

TEST(WaitTiming, AtomicWaitsForUnresolvedOlderStoreAddress)
{
    MicroOp slow = mkop(OpClass::IntAlu);
    slow.execLatency = 24;
    MicroOp st = mkop(OpClass::Store, 0x8000, 42);
    st.src0 = 1; // address waits for the slow op
    expectPinned({slow, st, mkop(OpClass::AtomicRMW, 0x2000),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Eager, {}, 40, 816,
                 "cd4830b77c2b64ee7cb245cc6abbfa5d"
                 "d832f87d632207ae5468ceadcff1c8b5");
}

TEST(WaitTiming, FencedAtomicBarrierHoldsYoungerMemoryOps)
{
    expectPinned({mkop(OpClass::Load, 0x70000000),
                  mkop(OpClass::AtomicRMW, 0x3000),
                  mkop(OpClass::Load, 0x1000),
                  mkop(OpClass::Store, 0x1200, 9),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Fenced, {}, 40, 1791,
                 "d7c28bedb4daf092637bc4678816770a"
                 "12a2b0c4d9919afefd6778ab7f53c19e");
}

TEST(WaitTiming, MfenceWaitsForOlderLoadsAndStores)
{
    expectPinned({mkop(OpClass::Store, 0x1000, 1),
                  mkop(OpClass::Load, 0x70000000),
                  mkop(OpClass::Fence),
                  mkop(OpClass::Load, 0x1200),
                  mkop(OpClass::Store, 0x1300, 2),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Eager, {}, 40, 1230,
                 "507cc77e53f4aea7bb7c143564d5b8ef"
                 "4b1eab63060170bd67ec1e36ce1a7e86");
}

TEST(WaitTiming, StoreSetPredictedLoadWaitsForStoreIssue)
{
    expectPinned(storeSetBody(), AtomicPolicy::Eager, {}, 60, 81,
                 "47f539014c1711aed80a304ce95b3dd5"
                 "bccf9338be831cbaaf972a6e7ad6f0ef");
}

TEST(WaitTiming, LoadWaitsForOlderAtomicValue)
{
    // The first iteration's atomic misses: the load finds the STU's
    // address but not its value, and forwards once the lock engages.
    expectPinned({mkop(OpClass::AtomicRMW, 0x2000),
                  mkop(OpClass::Load, 0x2000),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Eager, {}, 40, 789,
                 "67cb1f1d826d2c6291d3a14fd6dcbb65"
                 "a99a32bc02cecf175d6c70a00b9399e2");
}

TEST(WaitTiming, UnforwardedLoadWaitsForStoreWrite)
{
    SystemParams sp;
    sp.core.storeToLoadForwarding = false;
    expectPinned({mkop(OpClass::Store, 0x1000, 7),
                  mkop(OpClass::Load, 0x1000),
                  mkop(OpClass::IntAlu)},
                 AtomicPolicy::Eager, sp, 40, 598,
                 "ecabe51e33bbdb0e4ca6ee3895a9dbef"
                 "330ee9897b26ea0a5794f2d338d4d97b");
}
