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
#include "common/json.hh"
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

/** ResultStore::keyFor under the options @p params resolve to now. */
ResultKey
keyOf(const SystemParams &params, const std::string &workload,
      std::uint64_t quota, const std::string &window = {})
{
    return ResultStore::keyFor(params, resolveRunOptions(params), workload,
                               quota, window);
}

ResultKey
sampleKey(std::uint64_t quota = 100)
{
    return keyOf(makeParams(eagerConfig(), 8, 1), "pc", quota);
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
    const ResultKey k = keyOf(base, "pc", 100);
    EXPECT_NE(k, keyOf(base, "cq", 100));
    // A sampling window's layout keys its entry; the label does not.
    EXPECT_NE(k, keyOf(base, "pc", 100, "#s4.1.2.q100.k1"));
    EXPECT_NE(k, keyOf(base, "pc", 101));
    EXPECT_NE(k, keyOf(makeParams(eagerConfig(), 16, 1), "pc", 100));
    EXPECT_NE(k, keyOf(makeParams(eagerConfig(), 8, 2), "pc", 100));
    EXPECT_NE(k, keyOf(makeParams(lazyConfig(), 8, 1), "pc", 100));
    // The profiler mask shapes the RunResult (profileJson), so it must
    // be part of the key even though it does not change the simulated
    // trajectory.
    ExpConfig prof = eagerConfig();
    prof.profile = profMask(ProfCategory::Cpi);
    EXPECT_NE(k, keyOf(makeParams(prof, 8, 1), "pc", 100));
    // The time-series engine shapes the RunResult (tsJson), and a
    // convergence spec changes the simulated stop cycle itself — both
    // must key the store.
    ExpConfig ts = eagerConfig();
    ts.timeseries = true;
    const ResultKey kTs =
        keyOf(makeParams(ts, 8, 1), "pc", 100);
    EXPECT_NE(k, kTs);
    ExpConfig conv = eagerConfig();
    conv.converge = ConvergeSpec{true, "instructions", 0.05};
    const ResultKey kConv =
        keyOf(makeParams(conv, 8, 1), "pc", 100);
    EXPECT_NE(k, kConv);
    EXPECT_NE(kTs, kConv);
    // Every component of the spec is significant: metric, bound,
    // confidence.
    conv.converge = ConvergeSpec{true, "atomics", 0.05};
    EXPECT_NE(kConv, keyOf(makeParams(conv, 8, 1), "pc", 100));
    conv.converge = ConvergeSpec{true, "instructions", 0.01};
    EXPECT_NE(kConv, keyOf(makeParams(conv, 8, 1), "pc", 100));
    conv.converge = ConvergeSpec{true, "instructions", 0.05, 0.99};
    EXPECT_NE(kConv, keyOf(makeParams(conv, 8, 1), "pc", 100));
    // Deterministic: same inputs, same key.
    EXPECT_EQ(k, keyOf(makeParams(eagerConfig(), 8, 1), "pc", 100));
}

namespace
{

std::string
keyHexOf(const SystemParams &sp, const char *workload = "pc",
         std::uint64_t quota = 100, const char *window = "")
{
    return ResultStore::keyHex(keyOf(sp, workload, quota, window));
}

/** Pinned keys of the KeyReactsToEveryInput matrix. */
constexpr const char *kBaseKey =
    "0fdd4aa82fde71473685067482ca76a648e5259702e9f515688ecbea902a7f35";
/** A cpi-profiled run. */
constexpr const char *kProfileKey =
    "509d1b66b9ca52012273e2037436ce4bae95e3f39e5336981501eb9625684b3c";
/** A span-traced run at the default span top-K (64). */
constexpr const char *kSpansKey =
    "2001102cae44c3e2f274444ef3708886417c46e5a209ab937ff6d0124206dab6";
constexpr const char *kTimeSeriesKey =
    "ab8499208a00abd0714744f0ce5f71f6ea7dcb0702bf8c91899d2c9ed7aee1d7";
constexpr const char *kConvergeKey =
    "909ede20d0269dd21a0ec7d9395d92192cb0556046369b871a6174edc2b39f07";
constexpr const char *kIntervalKey =
    "0232e6a3c605c8db41b4404b3a4a903da2d8d38fc25f7a160b40c36ac777c86e";

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
              "e500990245f20293bb9af75767b4d92e34cf37e7192ca3b060b90664dd99b423");
    EXPECT_EQ(keyHexOf(base, "pc", 100, "#s4.1.2.q100.k1"),
              "1276468088190124db75e17b0a7d64b86cd018cb9b5f35d1e4caa1a2e547012d");
    EXPECT_EQ(keyHexOf(base, "pc", 101),
              "7855ef8c68910c2e81e6569c9662b923e41b2ed7d494a103ae188e4762a80876");
    EXPECT_EQ(keyHexOf(makeParams(eagerConfig(), 16, 1)),
              "35f123dc5b01e42dca518ca6fc305b2af7d192c563596594a282c943e2a4ac7c");
    EXPECT_EQ(keyHexOf(makeParams(eagerConfig(), 8, 2)),
              "809bd1a4339d7ad1426d83f75ded25272e361b03946178c8a426d905818c63dd");
    EXPECT_EQ(keyHexOf(makeParams(lazyConfig(), 8, 1)),
              "319aa38482815e6ff0afdea9de38cfed78c315e4bcf34a2cd32d02f5150face0");

    ExpConfig prof = eagerConfig();
    prof.profile = profMask(ProfCategory::Cpi);
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
              "cb4487b1f0565de78143baa53b8db31af1db10138c737ee0f9a7feaf0b86b71a");
    conv.converge = ConvergeSpec{true, "instructions", 0.01};
    EXPECT_EQ(keyHexOf(makeParams(conv, 8, 1)),
              "bbd6c64e1ad7e07162ce35eb0821a7b395cadd5ba64280c7d97440bf696ed24a");
    conv.converge = ConvergeSpec{true, "instructions", 0.05, 0.99};
    EXPECT_EQ(keyHexOf(makeParams(conv, 8, 1)),
              "7dd0ecc1f65d8559f3e8dcacd05e196eb1c6ed01a17564b9cb707ce5258b5f0f");
    SystemParams interval = base;
    interval.statsInterval = 500;
    EXPECT_EQ(keyHexOf(interval), kIntervalKey);
}

TEST(ResultStoreSuite, EnvironmentKeysArePinned)
{
    // The same knobs set through the environment name the same entries
    // as when set explicitly.
    expectEnvKey({{"ROWSIM_PROFILE", "cpi"}}, kProfileKey);
    expectEnvKey({{"ROWSIM_SPANS", "on"}}, kSpansKey);
    expectEnvKey({{"ROWSIM_STATS_INTERVAL", "500"}}, kIntervalKey);
    expectEnvKey({{"ROWSIM_TS", "on"}}, kTimeSeriesKey);
    expectEnvKey({{"ROWSIM_CONVERGE", "instructions:0.05"}}, kConvergeKey);
    expectEnvKey({{"ROWSIM_MODE", "func"}},
                 "519c2d9036af0dd5af51f8747899dc5509b7f0257625725fd7bfdadc1a8b11ef");
    expectEnvKey({{"ROWSIM_MODE", "detail"}}, kBaseKey);
    expectEnvKey({{"ROWSIM_FAULTS", "netdelay"}},
                 "603d2a2eaf000453a62a40b68dea0959609780ce2f916eda0fcc67fe4ac44920");
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

TEST(ResultStoreSuite, SpanTopKKeysTheStore)
{
    // The stored spanJson holds top-K tables and records, so K keys the
    // entry when spans are on; with spans off it shapes nothing and the
    // key does not move.
    const SystemParams base = makeParams(eagerConfig(), 8, 1);
    RunOptions opts = resolveRunOptions(base);
    const ResultKey off = ResultStore::keyFor(base, opts, "pc", 30);
    opts.spansTopK = 2;
    EXPECT_EQ(off, ResultStore::keyFor(base, opts, "pc", 30));
    opts.spans = true;
    const ResultKey two = ResultStore::keyFor(base, opts, "pc", 30);
    opts.spansTopK = 64;
    EXPECT_NE(two, ResultStore::keyFor(base, opts, "pc", 30));

    // A store hit never serves another K's records.
    const std::string dir = testDir("spantopk");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_SPANS", "on", 1);
    auto retained = [](const RunResult &r) {
        return parseJson(r.spanJson).at("spans").arr.size();
    };
    ::setenv("ROWSIM_SPANS_TOPK", "8", 1);
    const RunResult wide = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(wide.fromCache);
    EXPECT_EQ(retained(wide), 8u);
    ::setenv("ROWSIM_SPANS_TOPK", "2", 1);
    const RunResult narrow = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(narrow.fromCache);
    EXPECT_EQ(retained(narrow), 2u);
    EXPECT_TRUE(runExperiment("pc", eagerConfig(), 8, 30, 1).fromCache);
    for (const char *name : {"ROWSIM_RESULTS", "ROWSIM_RESULTS_DIR",
                             "ROWSIM_SPANS", "ROWSIM_SPANS_TOPK"})
        ::unsetenv(name);
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
