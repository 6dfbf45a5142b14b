#include "logging.hh"

#include <cstdio>
#include <cstdlib>

namespace scmp
{

namespace
{
bool quietFlag = false;
} // namespace

void
setLogQuiet(bool quiet)
{
    quietFlag = quiet;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace scmp
