/**
 * @file
 * Checkpoint/restore subsystem tests: save → restore → run must be
 * bit-identical to an uninterrupted run (stats tree, cycle counts and
 * state digests) across atomic policies and fast-forward modes; the
 * checkpoint env wiring must short-circuit sweeps without changing any
 * result; damaged or mismatched checkpoint files must be rejected with
 * named errors; the state digest must react to any single perturbed
 * structure; the committed golden digests must match this build; and a
 * digest must hash as it writes, never holding a whole image.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

std::string
statsJsonOf(System &sys)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *mem = open_memstream(&buf, &len);
    EXPECT_NE(mem, nullptr);
    sys.dumpStatsJson(mem);
    std::fclose(mem);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

std::unique_ptr<System>
makeSystem(const std::string &workload, const ExpConfig &cfg,
           unsigned cores, std::uint64_t seed)
{
    return std::make_unique<System>(
        makeParams(cfg, cores, seed),
        makeStreams(profileFor(workload), cores, seed));
}

/** Run the SnapshotError-throwing @p fn and return its message. */
template <typename Fn>
std::string
snapshotErrorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const SnapshotError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a SnapshotError";
    return "";
}

struct ScopedEnv
{
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

/** A fresh per-test scratch directory under the build tree. */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir = "snapshot-scratch-" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(Snapshot, SaveRestoreRunBitIdenticalAcrossPoliciesAndFF)
{
    struct Case
    {
        const char *workload;
        ExpConfig cfg;
    };
    const Case cases[] = {
        {"cq", eagerConfig()},
        {"cq", lazyConfig()},
        {"sps", rowConfig(ContentionDetector::RWDir,
                          PredictorUpdate::SaturateOnContention)},
    };
    const unsigned cores = 4;
    const std::uint64_t seed = 3, quota = 200, warm = 50;

    for (const char *ff : {"0", "1"}) {
        ScopedEnv env("ROWSIM_FF", ff);
        for (const auto &c : cases) {
            SCOPED_TRACE(std::string(c.workload) + "/" + c.cfg.label +
                         " ff=" + ff);

            // Uninterrupted reference run.
            auto cold = makeSystem(c.workload, c.cfg, cores, seed);
            const Cycle cold_cycles = cold->run(quota);
            const std::string cold_stats = statsJsonOf(*cold);
            const std::string cold_digest = cold->stateDigest();

            // Warm up, serialize, restore into a fresh System, finish.
            auto warm_sys = makeSystem(c.workload, c.cfg, cores, seed);
            warm_sys->runWarmup(quota, warm);
            const std::string warm_digest = warm_sys->stateDigest();
            Ser s;
            warm_sys->save(s);
            warm_sys.reset();

            auto resumed = makeSystem(c.workload, c.cfg, cores, seed);
            Deser d(s.bytes());
            resumed->restore(d);
            EXPECT_EQ(resumed->stateDigest(), warm_digest)
                << "restore did not reproduce the saved state";

            EXPECT_EQ(resumed->run(quota), cold_cycles);
            EXPECT_EQ(statsJsonOf(*resumed), cold_stats)
                << "stats tree diverged after restore";
            EXPECT_EQ(resumed->stateDigest(), cold_digest);
        }
    }
}

TEST(Snapshot, CheckpointFileRoundTrip)
{
    const std::string dir = scratchDir("file");
    const std::string path = dir + "/cq.ckpt";
    const ExpConfig cfg = lazyConfig();

    auto a = makeSystem("cq", cfg, 4, 9);
    a->runWarmup(160, 40);
    const std::string saved_digest = a->stateDigest();
    a->saveCheckpoint(path);
    const Cycle a_final = a->run(160);
    const std::string a_stats = statsJsonOf(*a);

    auto b = makeSystem("cq", cfg, 4, 9);
    b->restoreCheckpoint(path);
    EXPECT_EQ(b->stateDigest(), saved_digest);
    EXPECT_EQ(b->run(160), a_final);
    EXPECT_EQ(statsJsonOf(*b), a_stats);

    std::filesystem::remove_all(dir);
}

TEST(Snapshot, DamagedFilesFailWithNamedErrors)
{
    const std::string dir = scratchDir("damage");
    const std::string path = dir + "/img.ckpt";

    auto sys = makeSystem("cq", eagerConfig(), 4, 2);
    sys->runWarmup(80, 20);
    sys->saveCheckpoint(path);

    auto bytesOf = [&](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    };
    auto writeBytes = [&](const std::string &p,
                          const std::vector<char> &b) {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out.write(b.data(), static_cast<std::streamsize>(b.size()));
    };
    const std::vector<char> good = bytesOf(path);
    auto freshRestore = [&](const std::string &p) {
        auto victim = makeSystem("cq", eagerConfig(), 4, 2);
        victim->restoreCheckpoint(p);
    };

    // Not a snapshot at all.
    writeBytes(path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l',
                      'd', '!', '!', '!', '!', '!', '!', '!', '!', '!'});
    EXPECT_NE(snapshotErrorOf([&] { freshRestore(path); })
                  .find("bad magic"),
              std::string::npos);

    // Version skew (byte 8 is the low byte of the format version).
    std::vector<char> skewed = good;
    skewed[8] = static_cast<char>(skewed[8] + 1);
    writeBytes(path, skewed);
    EXPECT_NE(snapshotErrorOf([&] { freshRestore(path); })
                  .find("format version"),
              std::string::npos);

    // Truncation.
    writeBytes(path,
               std::vector<char>(good.begin(), good.end() - 40));
    EXPECT_NE(snapshotErrorOf([&] { freshRestore(path); })
                  .find("truncated"),
              std::string::npos);

    // Payload corruption (flip one byte past the 28-byte header).
    std::vector<char> corrupt = good;
    corrupt[good.size() / 2] =
        static_cast<char>(corrupt[good.size() / 2] ^ 0x40);
    writeBytes(path, corrupt);
    EXPECT_NE(snapshotErrorOf([&] { freshRestore(path); })
                  .find("digest mismatch"),
              std::string::npos);

    // Configuration mismatch: image taken under eager, restored under
    // lazy — rejected by fingerprint before any payload is touched.
    writeBytes(path, good);
    auto other = makeSystem("cq", lazyConfig(), 4, 2);
    EXPECT_NE(snapshotErrorOf([&] { other->restoreCheckpoint(path); })
                  .find("different configuration"),
              std::string::npos);

    std::filesystem::remove_all(dir);
}

TEST(Snapshot, DigestReactsToEverySinglePerturbation)
{
    auto a = makeSystem("cq", lazyConfig(), 4, 11);
    auto b = makeSystem("cq", lazyConfig(), 4, 11);
    a->run(60);
    b->run(60);
    const std::string a_digest = a->stateDigest();
    ASSERT_EQ(a_digest, b->stateDigest())
        << "identical runs must produce identical digests";

    // Each perturbation touches exactly one structure; the digest must
    // move every time.
    std::string last = b->stateDigest();
    auto expectChanged = [&](const char *what) {
        const std::string next = b->stateDigest();
        EXPECT_NE(next, last) << what << " not covered by the digest";
        last = next;
    };

    b->mem().functional().write64(
        0x20000, b->mem().functional().read64(0x20000) + 1);
    expectChanged("functional memory");

    b->core(0).branchPredictor().update(0x1234, true);
    expectChanged("branch predictor");

    b->core(1).predictor().update(0x1234, true);
    expectChanged("RoW contention predictor");

    b->mem().cache(2).testSetLineState(0x40000, CacheState::Shared,
                                       b->now());
    expectChanged("cache line state");

    EXPECT_EQ(a->stateDigest(), a_digest)
        << "perturbing b must not affect a";
}

TEST(Snapshot, GoldenDigestsMatchThisBuild)
{
    const std::string golden_path =
        std::string(ROWSIM_GOLDEN_DIR) + "/digests.json";
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << "missing " << golden_path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();

    auto strField = [&](const std::string &entry, const char *key) {
        const std::string pat = std::string("\"") + key + "\": \"";
        const std::size_t at = entry.find(pat);
        EXPECT_NE(at, std::string::npos) << key;
        const std::size_t begin = at + pat.size();
        return entry.substr(begin, entry.find('"', begin) - begin);
    };
    auto intField = [&](const std::string &entry, const char *key) {
        const std::string pat = std::string("\"") + key + "\": ";
        const std::size_t at = entry.find(pat);
        EXPECT_NE(at, std::string::npos) << key;
        return std::strtoull(entry.c_str() + at + pat.size(), nullptr,
                             10);
    };

    unsigned checked = 0, warmChecked = 0;
    std::size_t pos = json.find('[');
    while ((pos = json.find('{', pos + 1)) != std::string::npos) {
        const std::string entry =
            json.substr(pos, json.find('}', pos) - pos);
        const std::string workload = strField(entry, "workload");
        const std::string config = strField(entry, "config");
        const unsigned cores =
            static_cast<unsigned>(intField(entry, "cores"));
        const std::uint64_t quota = intField(entry, "quota");
        const std::uint64_t seed = intField(entry, "seed");
        const std::string expect = strField(entry, "digest");

        // Mirror of tools/state_digest.cc:configByName.
        ExpConfig cfg;
        if (config == "eager") {
            cfg = eagerConfig();
        } else if (config == "lazy") {
            cfg = lazyConfig();
        } else {
            ASSERT_EQ(config, "row");
            cfg = rowConfig(ContentionDetector::RWDir,
                            PredictorUpdate::SaturateOnContention);
        }
        // A "mark" entry is a functional warm-up digested at the mark.
        const bool warm = entry.find("\"mark\": ") != std::string::npos;
        auto sys = makeSystem(workload, cfg, cores, seed);
        if (warm)
            sys->runFunctional(quota, intField(entry, "mark"));
        else
            sys->run(quota);
        EXPECT_EQ(sys->stateDigest(), expect)
            << workload << "/" << config << (warm ? " (functional)" : "")
            << ": regenerate tests/golden/digests.json with "
               "tools/state_digest if this change is intentional";
        checked++;
        warmChecked += warm;
    }
    EXPECT_GE(checked, 18u) << "golden suite unexpectedly small";
    EXPECT_GE(warmChecked, 3u) << "functional warm-up points missing";
}

TEST(Snapshot, DigestsHoldNoImage)
{
    // A 32-core canneal arch image runs to megabytes; a digest that
    // buffered it would raise this process's peak RSS by about as much.
    // Each test runs in its own process, so the peak is this test's.
    auto sys = makeSystem("canneal",
                          rowConfig(ContentionDetector::RWDir,
                                    PredictorUpdate::SaturateOnContention),
                          32, 1);
    sys->run(20);
    const auto peakKiB = [] {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return ru.ru_maxrss;
    };
    const long before = peakKiB();
    const std::string digest = sys->stateDigest();
    const auto sections = sys->sectionDigests();
    const long grown = peakKiB() - before;
    EXPECT_EQ(digest.size(), 64u);
    EXPECT_EQ(sections.size(), 1u + 32 + 2 + 32 + sys->mem().numBanks());
    EXPECT_LT(grown, 4 * 1024)
        << "stateDigest + sectionDigests raised peak RSS by " << grown
        << " KiB";
}
