/**
 * @file
 * Status and error reporting, following the gem5 panic/fatal split:
 *
 *  - panic()  — a simulator bug; should never happen regardless of
 *               user input. Aborts (may dump core).
 *  - fatal()  — the user asked for something impossible (bad config,
 *               bad arguments). Exits with status 1.
 *  - warn()   — functionality approximated; results may be affected.
 *  - inform() — normal operating status.
 */

#ifndef SCMP_SIM_LOGGING_HH
#define SCMP_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace scmp
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Build a message from stream-insertable pieces. */
template <typename... Args>
std::string
logFormat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/** Suppress all warn()/inform() output (quiet benches/tests). */
void setLogQuiet(bool quiet);

} // namespace scmp

#define panic(...) \
    ::scmp::panicImpl(__FILE__, __LINE__, ::scmp::logFormat(__VA_ARGS__))

#define fatal(...) \
    ::scmp::fatalImpl(__FILE__, __LINE__, ::scmp::logFormat(__VA_ARGS__))

#define warn(...) \
    ::scmp::warnImpl(::scmp::logFormat(__VA_ARGS__))

#define inform(...) \
    ::scmp::informImpl(::scmp::logFormat(__VA_ARGS__))

/** panic() unless a simulator invariant holds. */
#define panic_if(cond, ...)                                             \
    do {                                                                \
        if (cond)                                                       \
            panic("assertion failure: ", #cond, ": ",                   \
                  ::scmp::logFormat(__VA_ARGS__));                      \
    } while (0)

/** fatal() unless the user-supplied configuration is legal. */
#define fatal_if(cond, ...)                                             \
    do {                                                                \
        if (cond)                                                       \
            fatal(::scmp::logFormat(__VA_ARGS__));                      \
    } while (0)

#endif // SCMP_SIM_LOGGING_HH
