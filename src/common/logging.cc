#include "common/logging.hh"

#include <atomic>
#include <cstdio>

namespace bpsim {

namespace {
std::atomic<bool> quietFlag{false};
} // namespace

void
setQuiet(bool q)
{
    quietFlag.store(q, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

namespace detail {

void
logMessage(const char *prefix, const std::string &msg, const char *file,
           int line)
{
    if (file) {
        std::fprintf(stderr, "%s: %s (%s:%d)\n", prefix, msg.c_str(), file,
                     line);
    } else {
        std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
    }
    std::fflush(stderr);
}

} // namespace detail

void
panicImpl(const std::string &msg, const char *file, int line)
{
    detail::logMessage("panic", msg, file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    detail::logMessage("fatal", msg, file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg, const char *file, int line)
{
    if (!quiet())
        detail::logMessage("warn", msg, file, line);
}

} // namespace bpsim
