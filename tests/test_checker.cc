/**
 * @file
 * Invariant-checker tests: category parsing, checker-clean real runs,
 * and death tests proving that deliberately corrupted protocol state is
 * caught, panics with a message naming the guilty structure, and emits
 * the crash-diagnostics dump.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/checker.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

std::unique_ptr<System>
makeCounterSystem(unsigned cores, unsigned counters,
                  const std::string &check, Cycle interval)
{
    SystemParams sp;
    sp.numCores = cores;
    sp.checkCategories = check;
    sp.checkInterval = interval;
    std::vector<std::unique_ptr<InstStream>> streams;
    for (CoreId c = 0; c < cores; c++) {
        std::vector<MicroOp> body;
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.addr = addrmap::privateLine(c, (c * 37) % 512);
        body.push_back(ld);
        for (unsigned k = 0; k < counters; k++) {
            MicroOp at;
            at.cls = OpClass::AtomicRMW;
            at.aop = AtomicOp::FetchAdd;
            at.addr = addrmap::sharedAtomicWord((c + k) % counters);
            at.value = 1;
            at.pc = 0x9000 + 4 * k;
            body.push_back(at);
        }
        body.back().endOfIteration = true;
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    return std::make_unique<System>(sp, std::move(streams));
}

/** The checker mask is static (process-wide); save/restore per test. */
class CheckerTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = Checker::mask(); }
    void TearDown() override { Checker::configure(saved); }
    std::uint32_t saved = 0;
};

} // namespace

TEST(CheckCategories, ParseKnownNames)
{
    EXPECT_EQ(parseCheckCategories("swmr"),
              static_cast<std::uint32_t>(CheckCategory::Swmr));
    EXPECT_EQ(parseCheckCategories("swmr,locks"),
              static_cast<std::uint32_t>(CheckCategory::Swmr) |
                  static_cast<std::uint32_t>(CheckCategory::Locks));
    EXPECT_EQ(parseCheckCategories(" Leaks , MESSAGES "),
              static_cast<std::uint32_t>(CheckCategory::Leaks) |
                  static_cast<std::uint32_t>(CheckCategory::Messages));
    EXPECT_EQ(parseCheckCategories("all"), checkCategoryAll);
    EXPECT_EQ(parseCheckCategories("none"), 0u);
    EXPECT_EQ(parseCheckCategories(""), 0u);
}

TEST(CheckCategories, UnknownNameIsFatal)
{
    EXPECT_THROW(parseCheckCategories("bogus"), std::runtime_error);
}

TEST(CheckCategories, NamesRoundTrip)
{
    for (std::uint32_t bit = 1; bit <= checkCategoryAll; bit <<= 1) {
        const char *name =
            checkCategoryName(static_cast<CheckCategory>(bit));
        EXPECT_EQ(parseCheckCategories(name), bit) << name;
    }
}

TEST_F(CheckerTest, CleanRunIsCheckerClean)
{
    auto sys = makeCounterSystem(8, 2, "all", 64);
    EXPECT_NO_THROW(sys->run(20));
    EXPECT_NO_THROW(sys->drain());
    EXPECT_GT(sys->checker().sweepsRun(), 0u);
    // A final sweep on the quiesced system must also pass.
    EXPECT_NO_THROW(sys->checker().sweep(sys->now()));
}

TEST_F(CheckerTest, IntervalControlsSweepCadence)
{
    auto sys = makeCounterSystem(2, 1, "occupancy", 16);
    EXPECT_EQ(sys->checker().interval(), 16u);
    sys->runCycles(200);
    EXPECT_GE(sys->checker().sweepsRun(), 10u);
}

TEST_F(CheckerTest, CorruptedDirectoryOwnerIsCaughtWithDump)
{
    auto sys = makeCounterSystem(4, 1, "all", 1024);
    sys->run(5);
    sys->drain();

    // Corrupt the directory: claim core1 owns a line no cache holds.
    const Addr line = lineAlign(addrmap::sharedDataLine(99));
    sys->mem().directory(0).testSetLine(line, DirState::Modified, 1, 0);

    ::testing::internal::CaptureStderr();
    std::string what;
    try {
        sys->checker().sweep(sys->now());
        FAIL() << "corrupted directory state was not detected";
    } catch (const std::logic_error &e) {
        what = e.what();
    }
    const std::string err = ::testing::internal::GetCapturedStderr();

    // The panic names the guilty structure, line, and core...
    EXPECT_NE(what.find("[check:swmr]"), std::string::npos) << what;
    EXPECT_NE(what.find("core1"), std::string::npos) << what;
    // ...and the crash dump was emitted with the structured snapshot.
    EXPECT_NE(err.find("=== ROWSIM CRASH DUMP BEGIN ==="),
              std::string::npos);
    EXPECT_NE(err.find("=== ROWSIM CRASH DUMP END ==="),
              std::string::npos);
    EXPECT_NE(err.find("\"directories\":"), std::string::npos);
    EXPECT_NE(err.find("\"recentTrace\":"), std::string::npos);
}

TEST_F(CheckerTest, TwoModifiedCopiesAreCaught)
{
    auto sys = makeCounterSystem(4, 1, "swmr", 1024);
    sys->run(5);
    sys->drain();

    const Addr line = lineAlign(addrmap::sharedDataLine(123));
    sys->mem().cache(0).testSetLineState(line, CacheState::Modified,
                                         sys->now());
    sys->mem().cache(1).testSetLineState(line, CacheState::Modified,
                                         sys->now());

    ::testing::internal::CaptureStderr();
    std::string what;
    try {
        sys->checker().sweep(sys->now());
        FAIL() << "double-Modified line was not detected";
    } catch (const std::logic_error &e) {
        what = e.what();
    }
    ::testing::internal::GetCapturedStderr();
    EXPECT_NE(what.find("[check:swmr]"), std::string::npos) << what;
    EXPECT_NE(what.find("single-writer"), std::string::npos) << what;
}

// A Shared private copy of a line its home bank has no entry for is
// covered by no sharer bit: the functional exclusive path would never
// invalidate it. The sweep must name the line and the holder.
TEST_F(CheckerTest, UntrackedSharedCopyIsCaught)
{
    auto sys = makeCounterSystem(4, 1, "swmr", 1024);
    sys->run(5);
    sys->drain();
    EXPECT_NO_THROW(sys->checker().sweep(sys->now()));

    const Addr line = lineAlign(addrmap::sharedDataLine(77));
    const unsigned bank =
        static_cast<unsigned>(sys->mem().network().homeBank(line)) - 4;
    ASSERT_EQ(sys->mem().directory(bank).lineState(line), DirState::Invalid);
    sys->mem().cache(2).testSetLineState(line, CacheState::Shared,
                                         sys->now());

    ::testing::internal::CaptureStderr();
    std::string what;
    try {
        sys->checker().sweep(sys->now());
        FAIL() << "untracked Shared copy was not detected";
    } catch (const std::logic_error &e) {
        what = e.what();
    }
    ::testing::internal::GetCapturedStderr();
    EXPECT_NE(what.find("[check:swmr]"), std::string::npos) << what;
    EXPECT_NE(what.find("l1d2"), std::string::npos) << what;
    EXPECT_NE(what.find(strprintf("%#llx",
                                  static_cast<unsigned long long>(line))),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("no entry"), std::string::npos) << what;
}

TEST_F(CheckerTest, EventMacroGatesOnCategory)
{
    Checker::configure(
        static_cast<std::uint32_t>(CheckCategory::Locks));
    EXPECT_THROW(
        ROWSIM_CHECK_EVENT(CheckCategory::Locks, false, "forced failure"),
        std::logic_error);
    // Off category: the condition must not even be evaluated.
    Checker::configure(0);
    bool evaluated = false;
    auto probe = [&]() {
        evaluated = true;
        return false;
    };
    EXPECT_NO_THROW(
        ROWSIM_CHECK_EVENT(CheckCategory::Locks, probe(), "gated off"));
    EXPECT_FALSE(evaluated);
}

TEST_F(CheckerTest, MaskDoesNotLeakIntoTheNextSystem)
{
    ::unsetenv("ROWSIM_CHECK");
    // A checked System must not leave the next unchecked System on this
    // thread sweeping: every System re-applies its own checker mask.
    {
        auto checked = makeCounterSystem(2, 1, "swmr", 64);
        EXPECT_TRUE(Checker::anyEnabled());
    }
    auto plain = makeCounterSystem(2, 1, "", 0);
    EXPECT_FALSE(Checker::anyEnabled());
}
