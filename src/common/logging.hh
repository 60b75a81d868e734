/**
 * @file
 * Status-message and error-reporting helpers, following the gem5
 * fatal()/panic()/warn()/inform() convention.
 *
 * fatal()  -- the run cannot continue because of a user error (bad
 *             configuration, invalid arguments); exits with code 1.
 * panic()  -- something happened that should never happen regardless of
 *             user input (an internal bug); aborts.
 * warn()   -- functionality may be imperfect but the run continues.
 * inform() -- plain status output.
 */

#ifndef INSTANT3D_COMMON_LOGGING_HH
#define INSTANT3D_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace instant3d {

/** Print an informational message to stdout. */
void inform(const std::string &msg);

/** Print a warning message to stderr. */
void warn(const std::string &msg);

/** Report an unrecoverable user-level error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation and abort(). */
[[noreturn]] void panic(const std::string &msg);

/**
 * Assert-like invariant check that survives NDEBUG builds.
 * Calls panic() with the given message when the condition is true.
 * The message is a plain C string so that a passing check builds no
 * std::string: hot loops call this once per sample or entry.
 */
inline void
panicIf(bool condition, const char *msg)
{
    if (condition)
        panic(msg);
}

/** fatal() when the condition holds; allocates only when it does. */
inline void
fatalIf(bool condition, const char *msg)
{
    if (condition)
        fatal(msg);
}

} // namespace instant3d

#endif // INSTANT3D_COMMON_LOGGING_HH
