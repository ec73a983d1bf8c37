/**
 * @file
 * Golden-state digest generator and cross-validation driver.
 *
 * Default mode runs a small fixed suite of (workload, policy) pairs to
 * a fixed quota and prints each System::stateDigest() as JSON on
 * stdout:
 *
 *   {"format": 1, "entries": [
 *     {"workload": "cq", "config": "eager", "cores": 4, "quota": 120,
 *      "seed": 7, "digest": "<sha256 hex>"}, ...]}
 *
 * After the detail suite come functional warm-up points: a System run
 * with runFunctional(quota, mark) and digested at the mark. Their
 * entries carry a "mark" field. A warm image is made of the encodings
 * a detail run never writes in bulk (one-byte quiescent directory
 * records, the delta-varint value memory of a long warm-up), so these
 * points pin those bytes as the detail suite pins the rest.
 *
 * The digest covers only integer-valued architectural state, so the
 * same source must produce the same digests on every compiler and
 * platform. CI regenerates this suite under gcc and clang and compares
 * both against the committed tests/golden/digests.json; any difference
 * is a determinism regression (or an intentional behaviour change,
 * which must regenerate the golden file in the same commit).
 *
 * --sections prints System::sectionDigests() per suite entry instead —
 * one digest per named state section (cycle, cores, caches, directory
 * banks, fmem, network) — so a golden mismatch in CI can be diffed down
 * to the drifting structure instead of reported as a bare hash
 * inequality.
 *
 * --func-check runs the functional-vs-detail cross-validation drill
 * (the nightly gate): for each order-insensitive workload x policy, a
 * detail run is drained and digested with System::funcStateDigest(),
 * then a fresh functional run replays to the detail run's per-core
 * committed instruction counts and must reproduce the digest exactly.
 * Exit status 1 on any mismatch. Only FetchAdd-only workloads qualify:
 * with shared plain stores or CAS/Swap, the final memory image depends
 * on interleaving, which the two modes legitimately order differently.
 *
 * Usage: state_digest [--sections|--func-check] [workload ...]
 * (naming workloads runs only their detail entries)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

constexpr unsigned kCores = 4;
constexpr std::uint64_t kQuota = 120;
constexpr std::uint64_t kSeed = 7;

/** Diverse golden subset: high-contention (cq, sps), mixed (tatp,
 *  canneal) and low-contention (blackscholes) behaviour. */
const std::vector<std::string> kSuiteWorkloads = {
    "cq", "sps", "tatp", "canneal", "blackscholes",
};

/** Order-insensitive subset for --func-check: FetchAdd-only kernels
 *  whose architectural end state is independent of memory-operation
 *  interleaving across cores. */
const std::vector<std::string> kFuncCheckWorkloads = {
    "counter", "streamcluster", "raytrace", "freqmine", "volrend",
};

const std::vector<std::string> kSuiteConfigs = {"eager", "lazy", "row"};

/** Functional warm-up points, under the suite's RoW config: tpcc (the
 *  sampled benchmark's workload), canneal and pc, the three perfbench
 *  workloads. */
const std::vector<std::string> kFuncSuiteWorkloads = {"tpcc", "canneal",
                                                      "pc"};
constexpr const char *kFuncConfig = "row";
constexpr std::uint64_t kFuncMark = kQuota / 2;

/** Map a golden config key to its ExpConfig (mirrored by
 *  tests/test_snapshot.cc:goldenConfig — keep the two in sync). */
ExpConfig
configByName(const std::string &name)
{
    if (name == "eager")
        return eagerConfig();
    if (name == "lazy")
        return lazyConfig();
    if (name == "row") {
        return rowConfig(ContentionDetector::RWDir,
                         PredictorUpdate::SaturateOnContention);
    }
    ROWSIM_FATAL("unknown golden config '%s' (valid: eager, lazy, row)",
                 name.c_str());
}

std::unique_ptr<System>
systemFor(const std::string &workload, const std::string &config)
{
    const SystemParams sp =
        makeParams(configByName(config), kCores, kSeed);
    return std::make_unique<System>(
        sp, makeStreams(profileFor(workload), kCores, kSeed));
}

/** Print one suite entry: a detail run to the quota, or (when
 *  @p mark is non-zero) a functional warm-up to @p mark. */
void
printEntry(const std::string &w, const std::string &cfg,
           std::uint64_t mark, bool sections, bool first)
{
    auto sys = systemFor(w, cfg);
    if (mark)
        sys->runFunctional(kQuota, mark);
    else
        sys->run(kQuota);
    std::printf("%s  {\"workload\": \"%s\", \"config\": \"%s\", "
                "\"cores\": %u, \"quota\": %llu, \"seed\": %llu, ",
                first ? "" : ",\n", w.c_str(), cfg.c_str(), kCores,
                static_cast<unsigned long long>(kQuota),
                static_cast<unsigned long long>(kSeed));
    if (mark)
        std::printf("\"mark\": %llu, ", static_cast<unsigned long long>(mark));
    if (!sections) {
        std::printf("\"digest\": \"%s\"}", sys->stateDigest().c_str());
        return;
    }
    std::printf("\"sections\": {");
    bool sfirst = true;
    for (const auto &[name, digest] : sys->sectionDigests()) {
        std::printf("%s\"%s\": \"%s\"", sfirst ? "" : ", ", name.c_str(),
                    digest.c_str());
        sfirst = false;
    }
    std::printf("}}");
}

/** The detail suite over @p workloads, then (with @p func_marks) the
 *  functional warm-up points. */
int
runSuite(const std::vector<std::string> &workloads, bool sections,
         bool func_marks)
{
    std::printf("{\"format\": 1, \"entries\": [\n");
    bool first = true;
    for (const auto &w : workloads) {
        for (const auto &cfg : kSuiteConfigs) {
            printEntry(w, cfg, 0, sections, first);
            first = false;
        }
    }
    if (func_marks) {
        for (const auto &w : kFuncSuiteWorkloads) {
            printEntry(w, kFuncConfig, kFuncMark, sections, first);
            first = false;
        }
    }
    std::printf("\n]}\n");
    return 0;
}

int
runFuncCheck(const std::vector<std::string> &workloads)
{
    unsigned mismatches = 0;
    std::printf("{\"format\": 1, \"entries\": [\n");
    bool first = true;
    for (const auto &w : workloads) {
        for (const auto &cfg : kSuiteConfigs) {
            auto detail = systemFor(w, cfg);
            detail->run(kQuota);
            // Detail mode writes plain-store values to the functional
            // memory lazily at cache completion; the comparison is only
            // meaningful once every store buffer has reached it.
            detail->drain();
            std::vector<std::uint64_t> targets;
            std::uint64_t insts = 0;
            for (CoreId c = 0; c < kCores; c++) {
                targets.push_back(
                    detail->core(c).committedInstructions());
                insts += targets.back();
            }
            const std::string want = detail->funcStateDigest();

            auto func = systemFor(w, cfg);
            func->runFunctionalToInstCounts(targets);
            const std::string got = func->funcStateDigest();
            const bool match = got == want;
            if (!match)
                mismatches++;
            std::printf(
                "%s  {\"workload\": \"%s\", \"config\": \"%s\", "
                "\"cores\": %u, \"quota\": %llu, \"seed\": %llu, "
                "\"instructions\": %llu, \"detail\": \"%s\", "
                "\"func\": \"%s\", \"match\": %s}",
                first ? "" : ",\n", w.c_str(), cfg.c_str(), kCores,
                static_cast<unsigned long long>(kQuota),
                static_cast<unsigned long long>(kSeed),
                static_cast<unsigned long long>(insts), want.c_str(),
                got.c_str(), match ? "true" : "false");
            first = false;
        }
    }
    std::printf("\n], \"mismatches\": %u}\n", mismatches);
    if (mismatches) {
        std::fprintf(stderr,
                     "state_digest: %u func-vs-detail mismatches\n",
                     mismatches);
        return 1;
    }
    return 0;
}

} // namespace

int
cliMain(int argc, char **argv)
{
    bool sections = false, funcCheck = false;
    std::vector<std::string> workloads;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--sections")
            sections = true;
        else if (arg == "--func-check")
            funcCheck = true;
        else
            workloads.push_back(arg);
    }
    if (sections && funcCheck) {
        std::fprintf(stderr, "state_digest: --sections and --func-check "
                             "are mutually exclusive\n");
        return 2;
    }
    if (funcCheck) {
        if (workloads.empty())
            workloads = kFuncCheckWorkloads;
        return runFuncCheck(workloads);
    }
    // The golden file is the default output: the whole detail suite
    // and the functional warm-up points.
    const bool func_marks = workloads.empty();
    if (func_marks)
        workloads = kSuiteWorkloads;
    return runSuite(workloads, sections, func_marks);
}

int
main(int argc, char **argv)
{
    return rowsim::runMain(cliMain, argc, argv);
}
