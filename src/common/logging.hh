/**
 * @file
 * Error-reporting helpers in the spirit of gem5's base/logging.hh.
 *
 * panic() flags simulator bugs (conditions that must never happen no
 * matter what the user does) and aborts; fatal() flags user errors
 * (bad configuration, invalid arguments) and exits cleanly; warn() and
 * inform() report status without stopping the simulation.
 */

#ifndef SLPMT_COMMON_LOGGING_HH
#define SLPMT_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace slpmt
{

/** Thrown by panic(): an internal simulator invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the user asked for something unsupported. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Report an internal simulator bug and abort the simulation.
 * Implemented as an exception so tests can assert on invariants.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

[[noreturn]] inline void
panic(const char *msg)
{
    throw PanicError(std::string("panic: ") + msg);
}

/** Report a user-caused unrecoverable condition. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

/** Report suspicious but survivable behaviour to the console. */
inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Report normal operating status to the console. */
inline void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

/**
 * panic() unless a condition holds. Templated on the message type so
 * a string-literal call site costs nothing on the success path — the
 * old `const std::string&` signature heap-allocated the message on
 * every call, which was measurable in the cache hot loops. Callers
 * that build a dynamic message still pay for it eagerly; keep those
 * off hot paths.
 */
template <typename Msg>
inline void
panicIfNot(bool cond, const Msg &msg)
{
    if (!cond)
        panic(msg);
}

/**
 * Audit builds (assertion, ASan and TSan builds) cross-check derived
 * state against a brute-force scan wherever the model keeps some —
 * the cache layout audits, the oracle view's coherence check.
 * Optimised builds skip the scans.
 */
inline constexpr bool auditBuild =
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) ||               \
    defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

} // namespace slpmt

#endif // SLPMT_COMMON_LOGGING_HH
