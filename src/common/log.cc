#include "common/log.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rowsim
{

namespace
{

std::atomic<LogLevel> &
levelStorage()
{
    // Atomic so sweep workers can warn() while another thread resolves
    // run options (which sets the level).
    static std::atomic<LogLevel> level{LogLevel::Info};
    return level;
}

using PanicHook =
    std::pair<const void *, std::function<void(const std::string &)>>;

std::vector<PanicHook> &
panicHooks()
{
    // Thread-local: a System registers its crash-dump hook on the thread
    // it was constructed on, which is the thread that runs it — so a
    // panic on a sweep worker dumps that worker's System only, and never
    // races another thread's registration.
    static thread_local std::vector<PanicHook> hooks;
    return hooks;
}

} // namespace

LogLevel
logLevel()
{
    return levelStorage();
}

void
setLogLevel(LogLevel level)
{
    levelStorage() = level;
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "silent" || name == "error")
        return LogLevel::Silent;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    fatalImpl("bad ROWSIM_LOG_LEVEL '" + name +
              "' (valid: silent, warn, info)");
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    }
    va_end(args2);
    return out;
}

std::uint64_t
parseEnvU64(const char *name, const char *text)
{
    if (!text || !*text)
        ROWSIM_FATAL("%s: empty value (expected a decimal number)", name);
    for (const char *p = text; *p; p++) {
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            ROWSIM_FATAL("%s: malformed value '%s' (expected a decimal "
                         "number)",
                         name, text);
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || (end && *end))
        ROWSIM_FATAL("%s: value '%s' out of range", name, text);
    return static_cast<std::uint64_t>(v);
}

void
pushPanicHook(const void *owner,
              std::function<void(const std::string &)> hook)
{
    panicHooks().emplace_back(owner, std::move(hook));
}

void
removePanicHook(const void *owner)
{
    auto &hooks = panicHooks();
    for (auto it = hooks.begin(); it != hooks.end();) {
        if (it->first == owner)
            it = hooks.erase(it);
        else
            ++it;
    }
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Crash diagnostics: let registered owners (Systems) dump their state
    // before the stack unwinds and destroys it. A panic raised *while*
    // dumping must not recurse into the hooks.
    static thread_local bool inHook = false;
    if (!inHook && !panicHooks().empty()) {
        inHook = true;
        auto hooks = panicHooks(); // copy: a hook may unregister itself
        for (auto it = hooks.rbegin(); it != hooks.rend(); ++it) {
            try {
                it->second(msg);
            } catch (...) {
                std::fprintf(stderr,
                             "panic: crash-diagnostics hook itself failed\n");
            }
        }
        inHook = false;
    }
    // Throw rather than abort so that death-style unit tests can observe
    // invariant violations without killing the test binary.
    throw std::logic_error("rowsim panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(stderr);
    throw FatalError("rowsim fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    // stderr, not stdout: trace text and JSON reports own stdout.
    if (logLevel() >= LogLevel::Info)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace rowsim
