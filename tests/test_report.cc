/**
 * @file
 * tools/rowsim_report end to end: one case per section kind (profile,
 * spans, time-series, heartbeat stream), each rendered from this
 * toolchain's own sink output, a stats report carrying every simulated
 * section at once, and the tool's exit codes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/profile.hh"
#include "sim/sweep.hh"

using namespace rowsim;

namespace
{

namespace fs = std::filesystem;

/** A per-test scratch directory, removed on destruction. */
struct Scratch
{
    explicit Scratch(const std::string &name)
        : dir("report-scratch-" + name)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~Scratch() { fs::remove_all(dir); }

    std::string
    write(const std::string &file, const std::string &text) const
    {
        const std::string path = dir + "/" + file;
        std::ofstream(path) << text;
        return path;
    }

    std::string
    read(const std::string &file) const
    {
        std::ifstream in(dir + "/" + file);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    /** Run rowsim_report with @p args, stdout to out.txt; the exit code. */
    int
    report(const std::string &args) const
    {
        const std::string cmd = std::string(ROWSIM_REPORT_PATH) + " " +
                                args + " > " + dir + "/out.txt 2> " + dir +
                                "/err.txt";
        const int rc = std::system(cmd.c_str());
        return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    }

    const std::string dir;
};

/** Section banners, in the order a record carrying all of them is
 *  rendered. */
const char *const profileBanner = "CPI stack";
const char *const spansBanner = "Segment breakdown";
const char *const tsBanner = "Sparklines";
const char *const topBanner = "rowsim sweep:";

/** Every banner in @p text other than @p keep is absent. */
void
expectOnly(const std::string &text, const char *keep)
{
    for (const char *b : {profileBanner, spansBanner, tsBanner, topBanner}) {
        if (b == keep)
            EXPECT_NE(text.find(b), std::string::npos) << b;
        else
            EXPECT_EQ(text.find(b), std::string::npos) << b;
    }
}

/** Every banner in @p order is present, in that order. */
void
expectInOrder(const std::string &text,
              std::initializer_list<const char *> order)
{
    std::size_t last = 0;
    for (const char *b : order) {
        const std::size_t at = text.find(b);
        ASSERT_NE(at, std::string::npos) << b;
        EXPECT_GE(at, last) << b;
        last = at;
    }
}

/** One JSONL run record as the ROWSIM_*_JSON sinks write it. */
std::string
runRecord(const RunResult &r, const char *member, const std::string &body)
{
    return "{\"workload\":\"" + r.workload + "\",\"config\":\"" + r.config +
           "\",\"cycles\":" + std::to_string(r.cycles) + ",\"" + member +
           "\":" + body + "}\n";
}

} // namespace

TEST(RowsimReport, RendersProfileRecordsAndFoldedStacks)
{
    Scratch s("profile");
    ExpConfig cfg = lazyConfig();
    cfg.profile = profCategoryAll;
    RunResult r = runExperiment("cq", cfg, 4, 60, 1, false);
    ASSERT_FALSE(r.profileJson.empty());
    const std::string in =
        s.write("profile.jsonl", runRecord(r, "profile", r.profileJson));

    ASSERT_EQ(s.report("--collapsed " + s.dir + "/profile.folded " + in), 0);
    const std::string text = s.read("out.txt");
    EXPECT_NE(text.find("=== cq/lazy (categories:"), std::string::npos);
    EXPECT_NE(text.find("RoW decision audit"), std::string::npos);
    expectOnly(text, profileBanner);
    EXPECT_NE(s.read("profile.folded").find("cq/lazy;core0;"),
              std::string::npos);
}

TEST(RowsimReport, RendersSpanRecords)
{
    Scratch s("spans");
    ExpConfig cfg = lazyConfig();
    cfg.spans = true;
    RunResult r = runExperiment("cq", cfg, 4, 60, 1, false);
    ASSERT_FALSE(r.spanJson.empty());
    const std::string in =
        s.write("spans.jsonl", runRecord(r, "spans", r.spanJson));

    ASSERT_EQ(s.report(in), 0);
    const std::string text = s.read("out.txt");
    EXPECT_NE(text.find("cq/lazy"), std::string::npos);
    EXPECT_NE(text.find("critical path"), std::string::npos);
    EXPECT_NE(text.find("aqWait"), std::string::npos);
    expectOnly(text, spansBanner);
}

TEST(RowsimReport, RendersTimeSeriesRunReport)
{
    Scratch s("timeseries");
    ExpConfig cfg = eagerConfig();
    cfg.converge = ConvergeSpec{true, "instructions", 0.5};
    RunResult r = runExperiment("pc", cfg, 4, 60, 1, false);
    ASSERT_FALSE(r.tsJson.empty());
    // A run-report line (ROWSIM_REPORT) carries "timeseries" itself.
    const std::string in = s.write("report.jsonl", r.toJson() + "\n");

    ASSERT_EQ(s.report(in), 0);
    const std::string text = s.read("out.txt");
    EXPECT_NE(text.find("=== pc/eager (interval"), std::string::npos);
    EXPECT_NE(text.find("instructions"), std::string::npos);
    EXPECT_NE(text.find("Convergence: instructions"), std::string::npos);
    expectOnly(text, tsBanner);
}

TEST(RowsimReport, RendersHeartbeatStream)
{
    Scratch s("heartbeat");
    const std::string sink = s.dir + "/heartbeat.jsonl";
    ::setenv("ROWSIM_HEARTBEAT", sink.c_str(), 1);
    std::vector<SweepJob> jobs(2);
    jobs[0].workload = "cq";
    jobs[0].cfg = eagerConfig();
    jobs[1].workload = "pc";
    jobs[1].cfg = lazyConfig();
    for (SweepJob &j : jobs) {
        j.numCores = 4;
        j.quota = 30;
    }
    SweepEngine(2).run(jobs);
    ::unsetenv("ROWSIM_HEARTBEAT");

    ASSERT_EQ(s.report(sink), 0);
    const std::string text = s.read("out.txt");
    EXPECT_NE(text.find("rowsim sweep: 2 jobs  queued 0  running 0  done 2"),
              std::string::npos);
    EXPECT_NE(text.find("COMPLETE: 2 ok, 0 failed"), std::string::npos);
    EXPECT_NE(text.find("finished"), std::string::npos);
    EXPECT_EQ(text.find("\x1b["), std::string::npos); // no redraw codes
    expectOnly(text, topBanner);
}

TEST(RowsimReport, MixedRecordRendersEverySectionInOrder)
{
    Scratch s("mixed");
    ExpConfig cfg = lazyConfig();
    cfg.profile = profCategoryAll;
    cfg.spans = true;
    cfg.timeseries = true;
    RunResult r = runExperiment("cq", cfg, 4, 60, 1, true);
    ASSERT_FALSE(r.statsJson.empty());

    // A pretty-printed stats report: one record over many lines, with
    // no workload/config, so every section is labelled "run0".
    ASSERT_EQ(s.report(s.write("stats.json", r.statsJson)), 0);
    std::string text = s.read("out.txt");
    expectInOrder(text, {profileBanner, spansBanner, tsBanner});
    EXPECT_NE(text.find("=== run0 (categories:"), std::string::npos);
    EXPECT_NE(text.find("=== run0 (spans:"), std::string::npos);
    EXPECT_NE(text.find("=== run0 (interval"), std::string::npos);
    EXPECT_EQ(text.find(topBanner), std::string::npos);

    // A JSONL stream: one run record carrying every simulated section,
    // then a sweep's heartbeat events.
    const std::string jsonl =
        "{\"workload\":\"cq\",\"config\":\"lazy\",\"profile\":" +
        r.profileJson + ",\"spans\":" + r.spanJson +
        ",\"timeseries\":" + r.tsJson + "}\n" +
        "{\"ev\":\"sweep\",\"wall\":1,\"state\":\"start\",\"jobs\":1}\n"
        "{\"ev\":\"job\",\"wall\":2,\"job\":\"j0\",\"state\":\"finished\","
        "\"workload\":\"cq\",\"config\":\"lazy\",\"status\":\"ok\"}\n"
        "{\"ev\":\"sweep\",\"wall\":3,\"state\":\"end\",\"jobs\":1,"
        "\"ok\":1,\"failed\":0}\n";
    ASSERT_EQ(s.report(s.write("mixed.jsonl", jsonl)), 0);
    text = s.read("out.txt");
    expectInOrder(text, {profileBanner, spansBanner, tsBanner, topBanner});
    EXPECT_NE(text.find("=== cq/lazy (spans:"), std::string::npos);
    EXPECT_NE(text.find("COMPLETE: 1 ok, 0 failed"), std::string::npos);
}

TEST(RowsimReport, ExitCodes)
{
    Scratch s("exit");
    EXPECT_EQ(s.report(""), 2);
    EXPECT_EQ(s.report("--collapsed"), 2);
    EXPECT_EQ(s.report("a b"), 2);
    EXPECT_EQ(s.report("--follow -"), 2);
    EXPECT_EQ(s.report(s.dir + "/missing.json"), 1);
    EXPECT_EQ(s.report(s.write("none.jsonl", "{\"cycles\": 1}\nnot json\n")),
              1);
    EXPECT_NE(s.read("err.txt").find("skipping bad line"), std::string::npos);
}
