/**
 * @file
 * Result-store tests: codec round trips, cold→warm byte identity
 * through the experiment layer, every damage mode (torn write, bit
 * flip, truncation, misplaced entry, schema skew) detected and
 * recovered without ever being fatal, concurrent writers, key
 * sensitivity, and the job-suffixed crash-dump sinks.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/io.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

/** Fresh per-test store directory under /tmp. */
std::string
testDir(const char *name)
{
    const std::string dir = strprintf("/tmp/rowsim-resultstore-%ld-%s",
                                      static_cast<long>(::getpid()), name);
    std::filesystem::remove_all(dir);
    return dir;
}

/** A RunResult with every field populated (no simulation needed). */
RunResult
sampleResult()
{
    RunResult r;
    r.workload = "pc";
    r.config = "eager";
    r.cycles = 123456;
    r.instructions = 789012;
    r.atomicsCommitted = 345;
    r.atomicsPer10k = 4.375;
    r.atomicsUnlocked = 340;
    r.detectedContended = 12;
    r.oracleContended = 17;
    r.contendedPct = 5.0;
    r.missLatency = 41.25;
    r.dispatchToIssue = 3.5;
    r.issueToLock = 88.875;
    r.lockToUnlock = 12.125;
    r.dispatchToIssueP99 = 17.0;
    r.issueToLockP50 = 60.0;
    r.lockToUnlockP90 = 44.0;
    r.olderUnexecuted = 2.25;
    r.youngerStarted = 6.5;
    r.predAccuracy = 93.75;
    r.atomicsForwarded = 7;
    r.atomicsPromoted = 3;
    r.forcedUnlocks = 1;
    r.eagerIssued = 200;
    r.lazyIssued = 140;
    r.statsJson = "{\"sim\":{\"cycles\":123456}}\n";
    r.profileJson = "{\"cpi\":[]}";
    r.spanJson = "{\"count\":0}";
    r.tsJson = "{\"period\": 2048, \"metrics\": {}}";
    r.convergeMetric = "instructions";
    r.convergeTarget = 0.02;
    r.convergeConfidence = 0.95;
    r.convergeAchieved = 0.0175;
    r.converged = true;
    return r;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.atomicsCommitted, b.atomicsCommitted);
    EXPECT_EQ(a.atomicsPer10k, b.atomicsPer10k);
    EXPECT_EQ(a.missLatency, b.missLatency);
    EXPECT_EQ(a.issueToLock, b.issueToLock);
    EXPECT_EQ(a.issueToLockP50, b.issueToLockP50);
    EXPECT_EQ(a.predAccuracy, b.predAccuracy);
    EXPECT_EQ(a.eagerIssued, b.eagerIssued);
    EXPECT_EQ(a.lazyIssued, b.lazyIssued);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.profileJson, b.profileJson);
    EXPECT_EQ(a.spanJson, b.spanJson);
    EXPECT_EQ(a.tsJson, b.tsJson);
    EXPECT_EQ(a.convergeMetric, b.convergeMetric);
    EXPECT_EQ(a.convergeTarget, b.convergeTarget);
    EXPECT_EQ(a.convergeConfidence, b.convergeConfidence);
    EXPECT_EQ(a.convergeAchieved, b.convergeAchieved);
    EXPECT_EQ(a.converged, b.converged);
}

ResultKey
sampleKey(std::uint64_t quota = 100)
{
    return ResultStore::keyFor(makeParams(eagerConfig(), 8, 1), "pc",
                               "eager", quota);
}

} // namespace

TEST(ResultCodec, RoundTripsEveryField)
{
    const RunResult r = sampleResult();
    expectSameResult(r, decodeResult(encodeResult(r)));

    RunResult failed = sampleResult();
    failed.status = RunStatus::Failed;
    failed.error = "watchdog: \"l1[3]\" made no progress";
    expectSameResult(failed, decodeResult(encodeResult(failed)));
}

TEST(ResultCodec, RejectsDamage)
{
    std::vector<std::uint8_t> payload = encodeResult(sampleResult());
    EXPECT_THROW(decodeResult(std::vector<std::uint8_t>(
                     payload.begin(), payload.begin() + 10)),
                 SnapshotError);
    std::vector<std::uint8_t> trailing = payload;
    trailing.push_back(0);
    EXPECT_THROW(decodeResult(trailing), SnapshotError);

    // The status byte follows the section tag and two strings (each a
    // u64 length and its bytes); the u32 attempts word follows the
    // error string after it, and must read 1.
    const RunResult r = sampleResult();
    const std::size_t statusAt = 1 + 8 + std::string("result").size() +
                                 8 + r.workload.size() + 8 +
                                 r.config.size();
    const std::size_t attemptsAt = statusAt + 1 + 8 + r.error.size();
    ASSERT_EQ(payload[statusAt], 0u);
    ASSERT_EQ(payload[attemptsAt], 1u);
    std::vector<std::uint8_t> status = payload;
    status[statusAt] = 2;
    EXPECT_THROW(decodeResult(status), SnapshotError);
    for (int word : {0, 2, 3}) {
        std::vector<std::uint8_t> attempts = payload;
        attempts[attemptsAt] = static_cast<std::uint8_t>(word);
        EXPECT_THROW(decodeResult(attempts), SnapshotError) << word;
    }
    std::vector<std::uint8_t> high = payload;
    high[attemptsAt + 3] = 1;
    EXPECT_THROW(decodeResult(high), SnapshotError);
}

TEST(ResultStoreSuite, StoreLoadHitAndCounters)
{
    ResultStore store(testDir("hit"));
    const ResultKey key = sampleKey();
    RunResult out;
    EXPECT_FALSE(store.load(key, out)); // empty store: clean miss
    EXPECT_EQ(store.misses(), 1u);

    store.store(key, sampleResult());
    EXPECT_EQ(store.stores(), 1u);
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(sampleResult(), out);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.quarantined(), 0u);
}

TEST(ResultStoreSuite, KeyReactsToEveryInput)
{
    const SystemParams base = makeParams(eagerConfig(), 8, 1);
    const ResultKey k = ResultStore::keyFor(base, "pc", "eager", 100);
    EXPECT_NE(k, ResultStore::keyFor(base, "cq", "eager", 100));
    EXPECT_NE(k, ResultStore::keyFor(base, "pc", "lazy-label", 100));
    EXPECT_NE(k, ResultStore::keyFor(base, "pc", "eager", 101));
    EXPECT_NE(k, ResultStore::keyFor(makeParams(eagerConfig(), 16, 1),
                                     "pc", "eager", 100));
    EXPECT_NE(k, ResultStore::keyFor(makeParams(eagerConfig(), 8, 2),
                                     "pc", "eager", 100));
    EXPECT_NE(k, ResultStore::keyFor(makeParams(lazyConfig(), 8, 1), "pc",
                                     "eager", 100));
    // The profiler mask shapes the RunResult (profileJson), so it must
    // be part of the key even though it does not change the simulated
    // trajectory.
    ExpConfig prof = eagerConfig();
    prof.profile = profMask(ProfCategory::Lines);
    EXPECT_NE(k, ResultStore::keyFor(makeParams(prof, 8, 1), "pc",
                                     "eager", 100));
    // The time-series engine shapes the RunResult (tsJson), and a
    // convergence spec changes the simulated stop cycle itself — both
    // must key the store.
    ExpConfig ts = eagerConfig();
    ts.timeseries = true;
    const ResultKey kTs =
        ResultStore::keyFor(makeParams(ts, 8, 1), "pc", "eager", 100);
    EXPECT_NE(k, kTs);
    ExpConfig conv = eagerConfig();
    conv.converge = ConvergeSpec{true, "instructions", 0.05};
    const ResultKey kConv =
        ResultStore::keyFor(makeParams(conv, 8, 1), "pc", "eager", 100);
    EXPECT_NE(k, kConv);
    EXPECT_NE(kTs, kConv);
    // Every component of the spec is significant: metric, bound,
    // confidence.
    conv.converge = ConvergeSpec{true, "atomics", 0.05};
    EXPECT_NE(kConv, ResultStore::keyFor(makeParams(conv, 8, 1), "pc",
                                         "eager", 100));
    conv.converge = ConvergeSpec{true, "instructions", 0.01};
    EXPECT_NE(kConv, ResultStore::keyFor(makeParams(conv, 8, 1), "pc",
                                         "eager", 100));
    conv.converge = ConvergeSpec{true, "instructions", 0.05, 0.99};
    EXPECT_NE(kConv, ResultStore::keyFor(makeParams(conv, 8, 1), "pc",
                                         "eager", 100));
    // Deterministic: same inputs, same key.
    EXPECT_EQ(k, ResultStore::keyFor(makeParams(eagerConfig(), 8, 1),
                                     "pc", "eager", 100));
}

namespace
{

std::string
keyHexOf(const SystemParams &sp, const char *workload = "pc",
         const char *label = "eager", std::uint64_t quota = 100)
{
    return ResultStore::keyHex(
        ResultStore::keyFor(sp, workload, label, quota));
}

/** Pinned keys of the KeyReactsToEveryInput matrix. */
constexpr const char *kBaseKey =
    "7f8a194da9e7f67b6b272e14fbd75343752ce0afa5192e772072f22ad895c209";
constexpr const char *kProfileKey =
    "a38d597d686b24fde84959e0555199fa9c4a95bc60cdce6aa4b5aa455a1b462f";
constexpr const char *kSpansKey =
    "35b4a6c316845382a2fb68fce86247ca53f75b65668fde90717ba14644cf2e90";
constexpr const char *kTimeSeriesKey =
    "c7d9e3666b43ddbf15670bc00c0ec9589dd1a50998b8314eefea136a3ae8b71b";
constexpr const char *kConvergeKey =
    "037b57fb42413eae09e5189fc03d852fd3241f4a395c3d5d29b0ec7461dc75b2";
constexpr const char *kIntervalKey =
    "da2f73eaae2a3e1e4077c220c9f493fcfa5f325537f138f7079fc2a5f0a6f416";

/**
 * Expect the base configuration's key under the environment @p env to
 * be @p hex. Computed in a fresh process (the threadsafe death-test
 * style re-executes this binary and runs the test body only up to the
 * statement), so no earlier read of the environment can be cached in
 * the key.
 */
void
expectEnvKey(const std::vector<std::pair<const char *, const char *>> &env,
             const char *hex)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            for (const auto &[name, value] : env)
                ::setenv(name, value, 1);
            const std::string got =
                keyHexOf(makeParams(eagerConfig(), 8, 1));
            std::fprintf(stderr, "key %s\n", got.c_str());
            std::_Exit(got == hex ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "")
        << "environment starting " << env.front().first << "="
        << env.front().second;
}

} // namespace

TEST(ResultStoreSuite, KeysArePinned)
{
    // Store keys are persistent names: an entry written by one version
    // must be found by the next. Every key below is pinned by value, so
    // a change to what a key serialises fails here instead of silently
    // turning a warm store cold (or serving the wrong entries).
    const SystemParams base = makeParams(eagerConfig(), 8, 1);
    EXPECT_EQ(keyHexOf(base), kBaseKey);
    EXPECT_EQ(keyHexOf(base, "cq"),
              "b3fd938b6eaf23b3e7e6da1bd84b446fadd6d8d0f5f08b02715551bd35f54cd4");
    EXPECT_EQ(keyHexOf(base, "pc", "lazy-label"),
              "ba5486e8c4421479118693e02a9336d3cb0ed47affdbf8eb4d9eb66d79a95c0e");
    EXPECT_EQ(keyHexOf(base, "pc", "eager", 101),
              "2964af97e87c891e781a4871fda3e01ae19d086e9e4f8646284770b48bb19346");
    EXPECT_EQ(keyHexOf(makeParams(eagerConfig(), 16, 1)),
              "94c8a79666923b020c663122c5efdf1362cab4c728c5065812118ede8c73fc94");
    EXPECT_EQ(keyHexOf(makeParams(eagerConfig(), 8, 2)),
              "e73230c6fc4e805c6a90c1c940191d529163e789be80b8904deb6ad4595430ef");
    EXPECT_EQ(keyHexOf(makeParams(lazyConfig(), 8, 1)),
              "64fc92c886ac071874db2ba67e314b63329b61936f1f96181c11f673e713ac3c");

    ExpConfig prof = eagerConfig();
    prof.profile = profMask(ProfCategory::Lines);
    EXPECT_EQ(keyHexOf(makeParams(prof, 8, 1)), kProfileKey);
    ExpConfig spans = eagerConfig();
    spans.spans = true;
    EXPECT_EQ(keyHexOf(makeParams(spans, 8, 1)), kSpansKey);
    ExpConfig ts = eagerConfig();
    ts.timeseries = true;
    EXPECT_EQ(keyHexOf(makeParams(ts, 8, 1)), kTimeSeriesKey);
    ExpConfig conv = eagerConfig();
    conv.converge = ConvergeSpec{true, "instructions", 0.05};
    EXPECT_EQ(keyHexOf(makeParams(conv, 8, 1)), kConvergeKey);
    conv.converge = ConvergeSpec{true, "atomics", 0.05};
    EXPECT_EQ(keyHexOf(makeParams(conv, 8, 1)),
              "07941755b76f6ea1c7bfa67ebd4f6e09093b8fc0b39f9ca5d326fbcf9d3a3a23");
    conv.converge = ConvergeSpec{true, "instructions", 0.01};
    EXPECT_EQ(keyHexOf(makeParams(conv, 8, 1)),
              "05611ac0057634eec80ab84ad1f3d5b3b7b64c43a893cd0f21a1a4fbe288469d");
    conv.converge = ConvergeSpec{true, "instructions", 0.05, 0.99};
    EXPECT_EQ(keyHexOf(makeParams(conv, 8, 1)),
              "c9b4e2b2c669721962d9748a1b34428f370288feecfad85e338c8a41ae3f5b14");
    SystemParams interval = base;
    interval.statsInterval = 500;
    EXPECT_EQ(keyHexOf(interval), kIntervalKey);
}

TEST(ResultStoreSuite, EnvironmentKeysArePinned)
{
    // The same knobs set through the environment name the same entries
    // as when set explicitly.
    expectEnvKey({{"ROWSIM_PROFILE", "lines"}}, kProfileKey);
    expectEnvKey({{"ROWSIM_SPANS", "on"}}, kSpansKey);
    expectEnvKey({{"ROWSIM_STATS_INTERVAL", "500"}}, kIntervalKey);
    expectEnvKey({{"ROWSIM_TS", "on"}}, kTimeSeriesKey);
    expectEnvKey({{"ROWSIM_CONVERGE", "instructions:0.05"}}, kConvergeKey);
    expectEnvKey({{"ROWSIM_MODE", "func"}},
                 "4440b25e90ab758530a77fd7e0a9992992c48f1f1905eff2efd189a34616cba9");
    expectEnvKey({{"ROWSIM_MODE", "detail"}}, kBaseKey);
    expectEnvKey({{"ROWSIM_FAULTS", "netdelay"}},
                 "dfc04eeea3e92831bf8267b20f9c8c52fb9a0ccfb7bc1965bafe940c8df5faf1");
}

TEST(ResultStoreSuite, BitFlipIsQuarantinedThenRecomputed)
{
    ResultStore store(testDir("bitflip"));
    const ResultKey key = sampleKey();
    store.store(key, sampleResult());

    const std::string path = store.pathFor(key);
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(path, raw));
    raw[raw.size() / 2] ^= 0x40; // flip one payload bit
    atomicWriteFile(path, raw);

    RunResult out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
    EXPECT_FALSE(std::filesystem::exists(path));

    // Recompute path: a fresh store() fills the slot again, and the
    // reread is byte-identical to the original.
    store.store(key, sampleResult());
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(sampleResult(), out);
}

TEST(ResultStoreSuite, TruncationIsQuarantined)
{
    ResultStore store(testDir("trunc"));
    const ResultKey key = sampleKey();
    store.store(key, sampleResult());

    const std::string path = store.pathFor(key);
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(path, raw));

    for (const std::size_t keep :
         {std::size_t{6}, std::size_t{40}, raw.size() - 7}) {
        atomicWriteFile(path, std::vector<std::uint8_t>(
                                  raw.begin(),
                                  raw.begin() +
                                      static_cast<std::ptrdiff_t>(keep)));
        RunResult out;
        EXPECT_FALSE(store.load(key, out)) << keep;
        std::filesystem::remove(path + ".quarantined");
    }
    EXPECT_EQ(store.quarantined(), 3u);
}

TEST(ResultStoreSuite, MisplacedEntryIsQuarantined)
{
    ResultStore store(testDir("misplaced"));
    const ResultKey key = sampleKey();
    const ResultKey other = sampleKey(999);
    store.store(key, sampleResult());

    // Simulate a mis-renamed entry: the bytes are valid, but they sit
    // under another key's path. The embedded key catches it.
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(store.pathFor(key), raw));
    atomicWriteFile(store.pathFor(other), raw);

    RunResult out;
    EXPECT_FALSE(store.load(other, out));
    EXPECT_EQ(store.quarantined(), 1u);
    ASSERT_TRUE(store.load(key, out)); // the rightful entry is untouched
}

TEST(ResultStoreSuite, SchemaVersionSkewIsCleanMissNotQuarantine)
{
    ResultStore store(testDir("schema"));
    const ResultKey key = sampleKey();
    store.store(key, sampleResult());

    // Patch the schema-version field (offset 8, little-endian u32).
    const std::string path = store.pathFor(key);
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(path, raw));
    raw[8] = static_cast<std::uint8_t>(resultSchemaVersion + 1);
    atomicWriteFile(path, raw);

    RunResult out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.quarantined(), 0u); // stale, not damaged
    EXPECT_TRUE(std::filesystem::exists(path)); // left for inspection

    // A current-schema store() overwrites the stale slot in place.
    store.store(key, sampleResult());
    ASSERT_TRUE(store.load(key, out));
}

TEST(ResultStoreSuite, TornWriteLeavesNoPartialEntry)
{
    ResultStore store(testDir("torn"));
    const ResultKey key = sampleKey();

    // Kill a writer mid-write (in a forked child, as the process sweep
    // would): the entry path must stay absent — all-or-nothing.
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        setAtomicWriteKillAfter(24);
        ResultStore child(store.dir());
        child.store(key, sampleResult()); // _Exit(9)s inside the write
        std::_Exit(0);                    // not reached
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 9);

    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    RunResult out;
    EXPECT_FALSE(store.load(key, out)); // clean miss, nothing quarantined
    EXPECT_EQ(store.quarantined(), 0u);

    // The slot still works after the torn write.
    store.store(key, sampleResult());
    EXPECT_TRUE(store.load(key, out));
}

TEST(ResultStoreSuite, ConcurrentWritersOnOneKeyStaySafe)
{
    const std::string dir = testDir("race");
    const ResultKey key = sampleKey();
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < 4; t++) {
        writers.emplace_back([&dir, &key]() {
            ResultStore s(dir);
            for (unsigned i = 0; i < 8; i++)
                s.store(key, sampleResult());
        });
    }
    for (auto &t : writers)
        t.join();

    ResultStore store(dir);
    RunResult out;
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(sampleResult(), out);
    // No stray temporaries survive the race.
    unsigned leftovers = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().string().find(".tmp.") != std::string::npos)
            leftovers++;
    }
    EXPECT_EQ(leftovers, 0u);
}

TEST(ResultStoreSuite, FromEnvGating)
{
    const auto fromEnv = [] { return ResultStore::open(resolveRunOptions()); };
    ::unsetenv("ROWSIM_RESULTS");
    EXPECT_EQ(fromEnv(), nullptr);
    ::setenv("ROWSIM_RESULTS", "off", 1);
    EXPECT_EQ(fromEnv(), nullptr);
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", "/tmp/rowsim-res-env", 1);
    auto store = fromEnv();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->dir(), "/tmp/rowsim-res-env");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    ASSERT_NE(fromEnv(), nullptr);
    EXPECT_EQ(fromEnv()->dir(), "rowsim-results");
    ::setenv("ROWSIM_RESULTS", "sideways", 1);
    EXPECT_THROW(fromEnv(), std::runtime_error);
    ::unsetenv("ROWSIM_RESULTS");
}

TEST(ResultStoreSuite, WarmRerunByteIdenticalThroughExperimentLayer)
{
    const std::string dir = testDir("warm");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);

    const RunResult cold =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_FALSE(cold.fromCache);
    ASSERT_FALSE(cold.statsJson.empty());

    const RunResult warm =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.statsJson, cold.statsJson); // byte-identical
    expectSameResult(cold, warm);

    // A caller that does not want statsJson gets none, even though the
    // entry carries it — warm results must match what a cold run with
    // the same arguments would have returned.
    const RunResult lean =
        runExperiment("pc", eagerConfig(), 8, 30, 1, false);
    EXPECT_TRUE(lean.fromCache);
    EXPECT_TRUE(lean.statsJson.empty());

    // Different quota: a different key, recomputed.
    const RunResult other =
        runExperiment("pc", eagerConfig(), 8, 31, 1, false);
    EXPECT_FALSE(other.fromCache);

    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
}

TEST(ResultStoreSuite, StatsOnlyEntryUpgradedWhenStatsWanted)
{
    const std::string dir = testDir("upgrade");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);

    // Cold run without stats capture stores a lean entry...
    const RunResult lean =
        runExperiment("pc", eagerConfig(), 8, 30, 1, false);
    EXPECT_FALSE(lean.fromCache);

    // ...which cannot serve a capture_stats caller: that run recomputes
    // and upgrades the entry in place.
    const RunResult full =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_FALSE(full.fromCache);
    ASSERT_FALSE(full.statsJson.empty());

    const RunResult warm =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.statsJson, full.statsJson);

    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
}

TEST(ResultStoreSuite, TracedRunsBypassTheStore)
{
    const std::string dir = testDir("bypass");
    const std::string sink = dir + "-trace.log";
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_TRACE", "atomic", 1);
    ::setenv("ROWSIM_TRACE_FILE", sink.c_str(), 1);
    Trace::scopeToJob(""); // re-parse the trace env on this thread

    // A traced run must neither store (its entry would shadow the
    // trace side effects)...
    const RunResult first = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(first.fromCache);
    EXPECT_FALSE(std::filesystem::exists(dir)); // no entry was written

    // ...nor load: even against a populated store, a traced rerun
    // simulates so the trace actually happens.
    ::unsetenv("ROWSIM_TRACE");
    ::unsetenv("ROWSIM_TRACE_FILE");
    Trace::scopeToJob("");
    const RunResult stored = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(stored.fromCache);
    EXPECT_TRUE(std::filesystem::exists(dir));
    ::setenv("ROWSIM_TRACE", "atomic", 1);
    ::setenv("ROWSIM_TRACE_FILE", sink.c_str(), 1);
    Trace::scopeToJob("");
    const RunResult traced = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(traced.fromCache);
    EXPECT_EQ(traced.cycles, stored.cycles);

    ::unsetenv("ROWSIM_TRACE");
    ::unsetenv("ROWSIM_TRACE_FILE");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    Trace::scopeToJob("");
    std::filesystem::remove(sink);
}

TEST(ResultStoreSuite, HeartbeatRunsBypassTheStore)
{
    // The heartbeat is live telemetry: a stored result replayed from
    // disk would emit no progress events, so — exactly like
    // ROWSIM_TRACE — an instrumented run neither loads nor stores.
    const std::string dir = testDir("hb-bypass");
    const std::string sink = dir + "-hb.jsonl";
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_HEARTBEAT", sink.c_str(), 1);

    const RunResult first = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(first.fromCache);
    EXPECT_FALSE(std::filesystem::exists(dir)); // no entry was written

    // Populate the store without the heartbeat, then rerun with it:
    // the run must simulate (so events flow), not serve the cache.
    ::unsetenv("ROWSIM_HEARTBEAT");
    const RunResult stored = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(stored.fromCache);
    EXPECT_TRUE(std::filesystem::exists(dir));
    ::setenv("ROWSIM_HEARTBEAT", sink.c_str(), 1);
    const RunResult live = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(live.fromCache);
    EXPECT_EQ(live.cycles, stored.cycles);

    ::unsetenv("ROWSIM_HEARTBEAT");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    std::filesystem::remove(sink);
}

TEST(ResultStoreSuite, ConvergeMissesThePlainEntryAndCachesItsOwn)
{
    const std::string dir = testDir("converge");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_STATS_INTERVAL", "1024", 1);

    // Warm the plain entry.
    const RunResult plain =
        runExperiment("pc", eagerConfig(), 8, 4000, 1, false);
    EXPECT_FALSE(plain.fromCache);

    // A convergence-bounded run stops at a different cycle, so serving
    // the plain entry would be wrong: it must miss, recompute, and
    // store under its own key.
    ExpConfig conv = eagerConfig();
    conv.converge = ConvergeSpec{true, "instructions", 0.2};
    const RunResult cold =
        runExperiment("pc", conv, 8, 4000, 1, false);
    EXPECT_FALSE(cold.fromCache);
    ASSERT_TRUE(cold.converged);
    EXPECT_LT(cold.cycles, plain.cycles);

    const RunResult warm = runExperiment("pc", conv, 8, 4000, 1, false);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.tsJson, cold.tsJson);
    EXPECT_EQ(warm.converged, cold.converged);
    EXPECT_EQ(warm.convergeAchieved, cold.convergeAchieved);

    // And the plain entry still serves plain reruns.
    const RunResult plainWarm =
        runExperiment("pc", eagerConfig(), 8, 4000, 1, false);
    EXPECT_TRUE(plainWarm.fromCache);
    EXPECT_EQ(plainWarm.cycles, plain.cycles);

    ::unsetenv("ROWSIM_STATS_INTERVAL");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
}

TEST(ResultStoreSuite, CrashDumpsCarryTheJobSuffix)
{
    const std::string base = strprintf("/tmp/rowsim-crash-%ld.json",
                                       static_cast<long>(::getpid()));
    const std::string suffixed = strprintf("/tmp/rowsim-crash-%ld.j7.json",
                                           static_cast<long>(::getpid()));
    std::filesystem::remove(base);
    std::filesystem::remove(suffixed);
    ::setenv("ROWSIM_CRASH_JSON", base.c_str(), 1);

    Trace::scopeToJob("j7");
    SystemParams sp = makeParams(eagerConfig(), 2, 1);
    System sys(sp, makeStreams(profileFor("pc"), 2, 1));
    sys.dumpCrashDiagnostics("suffix test");
    Trace::scopeToJob("");
    ::unsetenv("ROWSIM_CRASH_JSON");

    // The dump landed at the job-suffixed path, not the shared one.
    EXPECT_TRUE(std::filesystem::exists(suffixed));
    EXPECT_FALSE(std::filesystem::exists(base));
    std::filesystem::remove(suffixed);
}
