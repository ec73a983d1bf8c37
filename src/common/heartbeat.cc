#include "common/heartbeat.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/trace.hh"

namespace rowsim
{

namespace
{

/** One warning, then silence: a heartbeat sink on a full disk must not
 *  spam every event. */
std::atomic<bool> sinkDisarmed{false};

} // namespace

bool
Heartbeat::enabled() const
{
    return !path_.empty() && !sinkDisarmed.load(std::memory_order_relaxed);
}

std::uint64_t
Heartbeat::wallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

long
Heartbeat::rssKb()
{
#ifdef __linux__
    // statm field 2 is the resident page count.
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        long size = 0, resident = 0;
        const int got = std::fscanf(f, "%ld %ld", &size, &resident);
        std::fclose(f);
        if (got == 2) {
            const long page = ::sysconf(_SC_PAGESIZE);
            return resident * (page > 0 ? page : 4096) / 1024;
        }
    }
#endif
    return -1;
}

void
Heartbeat::emitLine(const std::string &json) const
{
    if (!enabled())
        return;
    const std::string &p = path_;
    const std::string line = json + "\n";
    // One O_APPEND write per event: threads and forked sweep workers
    // sharing the sink interleave whole lines, never fragments.
    const int fd =
        ::open(p.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    bool failed = fd < 0;
    if (!failed) {
        failed = ::write(fd, line.data(), line.size()) !=
                 static_cast<ssize_t>(line.size());
        ::close(fd);
    }
    if (failed && !sinkDisarmed.exchange(true)) {
        ROWSIM_WARN("heartbeat: cannot append to '%s': %s; sink "
                    "disabled for this process",
                    p.c_str(), std::strerror(errno));
    }
}

void
Heartbeat::emitRun(Cycle cycle, std::uint64_t iters,
                   std::uint64_t quotaTotal, double kcps,
                   double etaMs) const
{
    const double frac =
        quotaTotal ? static_cast<double>(iters) /
                         static_cast<double>(quotaTotal)
                   : 0.0;
    std::string j = strprintf(
        "{\"ev\":\"run\",\"wall\":%llu,\"job\":\"%s\",\"cycle\":%llu,"
        "\"iters\":%llu,\"quota\":%llu,\"frac\":%.4f,\"kcps\":%.1f,",
        static_cast<unsigned long long>(wallMs()),
        jsonEscape(Trace::jobKey()).c_str(),
        static_cast<unsigned long long>(cycle),
        static_cast<unsigned long long>(iters),
        static_cast<unsigned long long>(quotaTotal), frac, kcps);
    if (etaMs >= 0)
        j += strprintf("\"etaMs\":%.0f,", etaMs);
    j += strprintf("\"rssKb\":%ld}", rssKb());
    emitLine(j);
}

void
Heartbeat::emitJob(std::size_t index, const char *state,
                   const std::string &workload, const std::string &config,
                   const char *status) const
{
    std::string j = strprintf(
        "{\"ev\":\"job\",\"wall\":%llu,\"job\":\"j%zu\",\"state\":\"%s\","
        "\"workload\":\"%s\",\"config\":\"%s\"",
        static_cast<unsigned long long>(wallMs()), index, state,
        jsonEscape(workload).c_str(), jsonEscape(config).c_str());
    if (status)
        j += strprintf(",\"status\":\"%s\"", status);
    j += "}";
    emitLine(j);
}

void
Heartbeat::emitSweep(const char *state, std::size_t jobs, std::size_t ok,
                     std::size_t failed) const
{
    std::string j = strprintf(
        "{\"ev\":\"sweep\",\"wall\":%llu,\"state\":\"%s\",\"jobs\":%zu",
        static_cast<unsigned long long>(wallMs()), state, jobs);
    if (std::strcmp(state, "end") == 0)
        j += strprintf(",\"ok\":%zu,\"failed\":%zu", ok, failed);
    j += "}";
    emitLine(j);
}

} // namespace rowsim
