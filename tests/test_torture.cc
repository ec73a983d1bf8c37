/**
 * @file
 * Multi-seed protocol torture: every run turns on ALL invariant checkers
 * at a tight sweep interval AND all fault categories (random message
 * delays, stalled banks, forced evictions, delayed Unblocks), then
 * asserts the run is checker-clean, quiesces, and that final memory
 * accounts for every committed atomic. Seeds vary the fault schedule,
 * core count, workload shape, and atomic policy, so each instantiation
 * stresses a different interleaving of the protocol's rare windows.
 *
 * Reproduction: every parameter is derived from the seed printed in the
 * test name, and the injector is seeded deterministically, so a failing
 * seed replays cycle-for-cycle (see README "Self-checking & fault
 * injection").
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/options.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

struct TortureConfig
{
    unsigned seed = 0;
    unsigned cores = 0;
    unsigned counters = 0;
    AtomicPolicy policy = AtomicPolicy::Eager;
    bool forwarding = false;
    bool storeBefore = false;
    unsigned faultRate = 0;
};

TortureConfig
configFor(unsigned seed)
{
    TortureConfig tc;
    tc.seed = seed;
    tc.cores = 4 + seed % 5;       // 4..8 cores
    tc.counters = 1 + seed % 3;    // 1..3 hot counters
    tc.policy = (seed % 2) ? AtomicPolicy::RoW : AtomicPolicy::Eager;
    tc.forwarding = (seed % 4) == 1;
    tc.storeBefore = (seed % 2) == 0;
    tc.faultRate = 200 + 100 * (seed % 4);
    return tc;
}

std::unique_ptr<System>
makeTortureSystem(const TortureConfig &tc)
{
    SystemParams sp;
    sp.numCores = tc.cores;
    sp.seed = tc.seed + 1;
    sp.core.atomicPolicy = tc.policy;
    sp.core.forwardToAtomics = tc.forwarding;
    sp.checkCategories = "all";
    sp.checkInterval = 128 + tc.seed;
    sp.faultCategories = "all";
    sp.faultSeed = 1000 + tc.seed;
    sp.faultRate = tc.faultRate;

    std::vector<std::unique_ptr<InstStream>> streams;
    for (CoreId c = 0; c < tc.cores; c++) {
        std::vector<MicroOp> body;
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.addr = addrmap::privateLine(c, (c * 37 + tc.seed) % 512);
        body.push_back(ld);
        MicroOp alu;
        alu.cls = OpClass::IntAlu;
        body.push_back(alu);
        for (unsigned k = 0; k < tc.counters; k++) {
            Addr target =
                addrmap::sharedAtomicWord((c + k) % tc.counters);
            if (tc.storeBefore) {
                MicroOp st;
                st.cls = OpClass::Store;
                st.addr = target + 8;
                st.value = c;
                body.push_back(st);
            }
            MicroOp at;
            at.cls = OpClass::AtomicRMW;
            at.aop = AtomicOp::FetchAdd;
            at.addr = target;
            at.value = 1;
            at.pc = 0x9000 + 4 * k;
            body.push_back(at);
        }
        body.back().endOfIteration = true;
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    return std::make_unique<System>(sp, std::move(streams));
}

} // namespace

class Torture : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Torture, CheckerCleanAndAtomicUnderChaos)
{
    const TortureConfig tc = configFor(GetParam());
    auto sys = makeTortureSystem(tc);
    // Any invariant violation, watchdog fire, or drain failure panics
    // (throws); the run must be completely clean.
    ASSERT_NO_THROW({
        sys->run(12);
        sys->drain();
    }) << "seed " << tc.seed;

    EXPECT_GT(sys->checker().sweepsRun(), 0u);

    // Final-memory atomicity: every committed FetchAdd is accounted for.
    std::uint64_t total = 0;
    for (CoreId c = 0; c < tc.cores; c++)
        total += sys->core(c).committedAtomics();
    std::uint64_t sum = 0;
    for (unsigned k = 0; k < tc.counters; k++)
        sum += sys->mem().functional().read64(addrmap::sharedAtomicWord(k));
    EXPECT_EQ(sum, total) << "seed " << tc.seed;
    EXPECT_GE(total, static_cast<std::uint64_t>(tc.cores) * 12u);
}

/** Seed count: 16 for the PR gate, widened via ROWSIM_TORTURE_SEEDS
 *  (the nightly workflow runs 64). Read once at static-init time, when
 *  gtest instantiates the parameterised suite. */
unsigned
tortureSeedCount()
{
    return resolveRunOptions().tortureSeeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Torture,
                         ::testing::Range(0u, tortureSeedCount()),
                         [](const ::testing::TestParamInfo<unsigned> &i) {
                             return "seed" + std::to_string(i.param);
                         });

TEST(TortureDeterminism, SameSeedSameTrace)
{
    auto run_once = [] {
        auto sys = makeTortureSystem(configFor(5));
        const Cycle done = sys->run(12);
        sys->drain();
        return std::make_pair(
            done,
            sys->mem().network().stats().counterValue("messages"));
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
}
