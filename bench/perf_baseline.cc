/**
 * @file
 * Simulator-throughput baseline: time one representative eager run per
 * atomic-intensive workload and emit BENCH_perf.json with
 * {sim_cycles, wall_ms, cycles_per_sec} plus host metadata.
 *
 * This measures the SIMULATOR, not the simulated machine — sim_cycles
 * must be bit-stable across commits (it is a simulated result), while
 * wall_ms / cycles_per_sec track the hot-path cost and are expected to
 * move. CI only checks the schema; the committed file documents the
 * throughput at the commit that produced it.
 *
 * The output file is a history: a JSON array of run entries, appended
 * to on every invocation (so regressions are visible as a series, not
 * just a point). A legacy single-object file is wrapped into a
 * one-entry array before appending.
 *
 * Usage: perf_baseline [output.json [quota [workload ...]]]
 *   output.json  history file (default BENCH_perf.json)
 *   quota        per-core iteration quota (0 = workload default).
 *                The sampled-speedup CI gate needs a quota long enough
 *                for the SMARTS windows to amortize (speedup is bounded
 *                by quota / (n_ckpts x (warm + detail)) — at default
 *                quotas sampling cannot win).
 *   workload...  subset to measure (default: atomicIntensiveWorkloads)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/profiles.hh"

using namespace rowsim;

namespace
{

struct Sample
{
    std::string workload;
    std::uint64_t simCycles = 0;
    double wallMs = 0;
    double cyclesPerSec = 0;
};

Sample
measure(const std::string &workload, std::uint64_t quota)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    RunResult r = runExperiment(workload, eagerConfig(), 32, quota);
    const auto t1 = clock::now();

    Sample s;
    s.workload = workload;
    s.simCycles = r.cycles;
    s.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    s.cyclesPerSec = s.wallMs > 0
                         ? static_cast<double>(r.cycles) * 1e3 / s.wallMs
                         : 0;
    return s;
}

/** Render one history entry (two-space-indented, no trailing newline). */
std::string
renderEntry(const std::vector<Sample> &samples, std::uint64_t quota)
{
    // The host stamp records each knob as the environment gave it.
    const RunOptions opts = resolveRunOptions();
    std::string e = "  {\n    \"host\": {\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "      \"hardware_concurrency\": %u,\n",
                  std::thread::hardware_concurrency());
    e += buf;
    // Each knob that changes what an entry measures, as given (or what
    // unset means). sim_cycles stays bit-stable across fast-forward,
    // profiling, span and result-store modes (a warm run is served far
    // faster); func and sampled runs legitimately report different
    // sim_cycles than detail (functional bookkeeping ticks, an
    // extrapolated estimate), so the stability check groups history
    // entries by mode and sampling — the detail/func/sampled perf
    // triple lives in one file without tripping it.
    struct Stamp
    {
        const char *field, *knob, *unset;
    };
    for (const Stamp &st : {Stamp{"fast_forward", "ROWSIM_FF", "default-on"},
                            Stamp{"profile", "ROWSIM_PROFILE", "off"},
                            Stamp{"spans", "ROWSIM_SPANS", "off"},
                            Stamp{"results", "ROWSIM_RESULTS", "off"},
                            Stamp{"mode", "ROWSIM_MODE", "detail"},
                            Stamp{"sampled", "ROWSIM_SAMPLE", "off"}}) {
        const char *text = opts.envText(st.knob);
        std::snprintf(buf, sizeof(buf), "      \"%s\": \"%s\",\n",
                      st.field, text ? text : st.unset);
        e += buf;
    }
    // The iteration quota changes sim_cycles legitimately (longer run),
    // so the stability check also groups on it.
    if (quota)
        std::snprintf(buf, sizeof(buf), "      \"quota\": \"%llu\",\n",
                      static_cast<unsigned long long>(quota));
    else
        std::snprintf(buf, sizeof(buf),
                      "      \"quota\": \"default\",\n");
    e += buf;
    // Live telemetry (ROWSIM_TS / ROWSIM_HEARTBEAT): the time-series
    // engine samples every stats interval and the heartbeat writes
    // progress lines. Neither may move sim_cycles; the wall_ms delta
    // between an off/on entry pair is the probe overhead.
    const char *ts = opts.envText("ROWSIM_TS");
    const char *hb = opts.envText("ROWSIM_HEARTBEAT");
    const char *telemetry = ts ? (hb ? "ts+heartbeat" : "ts")
                               : (hb ? "heartbeat" : "off");
    std::snprintf(buf, sizeof(buf), "      \"telemetry\": \"%s\",\n",
                  telemetry);
    e += buf;
    std::snprintf(buf, sizeof(buf), "      \"build\": \"%s\"\n",
#ifdef NDEBUG
                  "release"
#else
                  "debug"
#endif
    );
    e += buf;
    e += "    },\n    \"workloads\": {\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        std::snprintf(buf, sizeof(buf),
                      "      \"%s\": {\"sim_cycles\": %llu, "
                      "\"wall_ms\": %.3f, \"cycles_per_sec\": %.0f}%s\n",
                      s.workload.c_str(),
                      static_cast<unsigned long long>(s.simCycles),
                      s.wallMs, s.cyclesPerSec,
                      i + 1 < samples.size() ? "," : "");
        e += buf;
    }
    e += "    }\n  }";
    return e;
}

std::string
readAll(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f)
        return "";
    std::string out;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = argc > 1 ? argv[1] : "BENCH_perf.json";
    const std::uint64_t quota = argc > 2 ? parseEnvU64("quota", argv[2]) : 0;
    std::vector<std::string> workloads(argv + std::min(argc, 3),
                                       argv + argc);
    if (workloads.empty())
        workloads = atomicIntensiveWorkloads();

    std::vector<Sample> samples;
    for (const auto &w : workloads) {
        samples.push_back(measure(w, quota));
        std::printf("%-15s %12llu cycles  %9.1f ms  %11.0f cyc/s\n",
                    samples.back().workload.c_str(),
                    static_cast<unsigned long long>(
                        samples.back().simCycles),
                    samples.back().wallMs, samples.back().cyclesPerSec);
        std::fflush(stdout);
    }

    // Append to the history array. Existing content is either an array
    // (current format: reuse its inner entries) or a single legacy
    // object (wrap it as the first entry).
    std::string prior = trim(readAll(path));
    std::string inner;
    if (!prior.empty() && prior.front() == '[' && prior.back() == ']') {
        inner = trim(prior.substr(1, prior.size() - 2));
    } else if (!prior.empty() && prior.front() == '{') {
        inner = "  " + prior;
    } else if (!prior.empty()) {
        std::fprintf(stderr,
                     "perf_baseline: %s is neither a JSON array nor an "
                     "object; refusing to overwrite\n", path);
        return 1;
    }

    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "perf_baseline: cannot open %s\n", path);
        return 1;
    }
    std::fprintf(out, "[\n");
    if (!inner.empty())
        std::fprintf(out, "%s,\n", inner.c_str());
    std::fprintf(out, "%s\n]\n", renderEntry(samples, quota).c_str());
    std::fclose(out);
    std::printf("appended to %s\n", path);
    return 0;
}
