/**
 * @file
 * Minimal gem5-flavoured logging: panic() for internal invariant violations,
 * fatal() for user configuration errors, warn()/inform() for diagnostics.
 */

#ifndef ROWSIM_COMMON_LOG_HH
#define ROWSIM_COMMON_LOG_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

namespace rowsim
{

/** Printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Parse a numeric ROWSIM_* environment value. The full string must be
 * decimal digits: "10k" or "" or an overflowing value is a user error
 * (fatal), never a silent misparse. @p name is only used in the error
 * message.
 */
std::uint64_t parseEnvU64(const char *name, const char *text);

/**
 * Diagnostic verbosity. panic/fatal always print; warn() is emitted at
 * Warn and above, inform() at Info and above. All diagnostics go to
 * stderr so stdout stays machine-parseable (JSON reports, bench tables).
 */
enum class LogLevel : std::uint8_t
{
    Silent = 0, ///< errors only (panic / fatal)
    Warn = 1,
    Info = 2,
};

/** Current level (default info). Every resolution of the run options
 *  sets it from ROWSIM_LOG_LEVEL ("silent"|"warn"|"info"). */
LogLevel logLevel();
void setLogLevel(LogLevel level);
/** Parse a level name; fatal on unknown names. */
LogLevel parseLogLevel(const std::string &name);

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
/** A user error names no source location: the message says what to fix. */
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * Crash-diagnostics hooks: invoked (most recently registered first) with
 * the panic message before panicImpl throws, so a System can dump its
 * state while it is still intact. Re-entrant panics while a hook runs do
 * not re-invoke hooks. @p owner keys deregistration (a System registers
 * in its constructor and must remove the hook in its destructor).
 */
void pushPanicHook(const void *owner,
                   std::function<void(const std::string &)> hook);
void removePanicHook(const void *owner);

/** What ROWSIM_FATAL throws: a user error, already reported on stderr. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The body of a program's main(): run @p body and turn a fatal into
 * exit status 1. fatalImpl has printed the "fatal:" line already, so
 * nothing is printed again. Panics (std::logic_error) and any other
 * exception still escape and abort.
 */
template <class... Args>
int
runMain(int (*body)(Args...), Args... args)
{
    try {
        return body(args...);
    } catch (const FatalError &) {
        return 1;
    }
}

/** Abort on a simulator bug: a condition that must never happen. */
#define ROWSIM_PANIC(...) \
    ::rowsim::panicImpl(__FILE__, __LINE__, ::rowsim::strprintf(__VA_ARGS__))

/** Exit on a user error (bad configuration, invalid parameters). */
#define ROWSIM_FATAL(...) \
    ::rowsim::fatalImpl(::rowsim::strprintf(__VA_ARGS__))

#define ROWSIM_WARN(...) \
    ::rowsim::warnImpl(::rowsim::strprintf(__VA_ARGS__))

#define ROWSIM_INFORM(...) \
    ::rowsim::informImpl(::rowsim::strprintf(__VA_ARGS__))

/** Assert-like helper that survives NDEBUG builds. */
#define ROWSIM_ASSERT(cond, ...)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::rowsim::panicImpl(__FILE__, __LINE__,                        \
                std::string("assertion failed: " #cond " — ") +            \
                ::rowsim::strprintf(__VA_ARGS__));                         \
        }                                                                  \
    } while (0)

} // namespace rowsim

#endif // ROWSIM_COMMON_LOG_HH
