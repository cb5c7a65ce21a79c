/**
 * @file
 * Runtime invariant checker for the incremental engine —
 * compiled out by default, loud when enabled.
 *
 * The engine keeps its state by deltas (the coupling field through a
 * dirty list, the idle list, the completion list, the integration
 * sums, the penalty snapshot), and their correctness rests on
 * update discipline. This header provides the assertion layer that
 * makes a violated invariant abort the run instead of silently
 * drifting the physics:
 *
 *  - DENSIM_CHECK(cond, msg...): cheap structural/physical
 *    assertions (finite fields, temperatures above absolute zero,
 *    completion-list consistency, every power change marked dirty).
 *    Enabled by the CMake option `DENSIM_CHECKS=ON` (definition
 *    DENSIM_ENABLE_CHECKS).
 *  - DENSIM_PARANOID(cond, msg...): expensive cross-validation
 *    against the reference computation (fresh field evaluation vs
 *    the incremental one, rebuilt integration sums, the nodal heat
 *    residual of an RC solve). Enabled by `DENSIM_PARANOID=ON`
 *    (definition DENSIM_ENABLE_PARANOID, which implies the cheap
 *    checks).
 *
 * Both macros expand to `static_cast<void>(0)` when disabled — the
 * condition is NOT evaluated, so hot paths carry zero cost in normal
 * builds. Failure prints the condition, location and message to
 * stderr and aborts (same contract as panic()), which keeps negative
 * tests expressible as gtest death tests.
 *
 * Check sites live at epoch boundaries of the engine
 * (DenseServerSim::checkEpochInvariants), after the coupling-field
 * flush (DenseServerSim::flushAmbientTargets), inside
 * RCNetwork::steadyState
 * (first-law balance) and CompletionList::checkInvariants (ordering
 * + exactly the busy ids due before the horizon). CI runs the full
 * test suite in the paranoid build (tools/check.sh paranoid).
 */

#ifndef DENSIM_CORE_INVARIANT_HH
#define DENSIM_CORE_INVARIANT_HH

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "util/logging.hh"

#ifndef DENSIM_ENABLE_CHECKS
#define DENSIM_ENABLE_CHECKS 0
#endif
#ifndef DENSIM_ENABLE_PARANOID
#define DENSIM_ENABLE_PARANOID 0
#endif

namespace densim {

/** Whether DENSIM_CHECK assertions are compiled into this build. */
inline constexpr bool kChecksEnabled = DENSIM_ENABLE_CHECKS != 0;

/** Whether DENSIM_PARANOID assertions are compiled into this build. */
inline constexpr bool kParanoidEnabled = DENSIM_ENABLE_PARANOID != 0;

namespace detail {

/** Report a violated invariant and abort. */
[[noreturn]] inline void
invariantFailed(const char *cond, const char *file, int line,
                const std::string &msg)
{
    std::cerr << "invariant violated: " << cond;
    if (!msg.empty())
        std::cerr << " — " << msg;
    std::cerr << " (" << file << ":" << line << ")\n";
    std::abort();
}

} // namespace detail

} // namespace densim

#if DENSIM_ENABLE_CHECKS
#define DENSIM_CHECK(cond, ...)                                           \
    do {                                                                  \
        if (!(cond))                                                      \
            ::densim::detail::invariantFailed(                            \
                #cond, __FILE__, __LINE__,                                \
                ::densim::detail::concat(__VA_ARGS__));                   \
    } while (false)
#else
#define DENSIM_CHECK(cond, ...) static_cast<void>(0)
#endif

#if DENSIM_ENABLE_PARANOID
#define DENSIM_PARANOID(cond, ...) DENSIM_CHECK(cond, __VA_ARGS__)
#else
#define DENSIM_PARANOID(cond, ...) static_cast<void>(0)
#endif

namespace densim {
namespace invariant {

/** Lowest value any Celsius temperature field may contain. */
inline constexpr double kAbsoluteZeroC = -273.15;

/**
 * Assert every entry of a temperature field is finite and above
 * absolute zero. No-op unless checks are compiled in.
 */
inline void
checkTemperatureField(const char *what,
                      const std::vector<double> &temps_c)
{
#if DENSIM_ENABLE_CHECKS
    for (std::size_t i = 0; i < temps_c.size(); ++i) {
        DENSIM_CHECK(std::isfinite(temps_c[i]), what, "[", i,
                     "] is not finite");
        DENSIM_CHECK(temps_c[i] >= kAbsoluteZeroC, what, "[", i,
                     "] = ", temps_c[i], " C is below absolute zero");
    }
#else
    (void)what;
    (void)temps_c;
#endif
}

/**
 * Assert two fields agree entrywise within @p tol — the
 * incremental-vs-reference drift bound. No-op unless checks are
 * compiled in.
 */
inline void
checkFieldsClose(const char *what, const std::vector<double> &got,
                 const std::vector<double> &want, double tol)
{
#if DENSIM_ENABLE_CHECKS
    DENSIM_CHECK(got.size() == want.size(), what, ": ", got.size(),
                 " entries vs ", want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        DENSIM_CHECK(std::fabs(got[i] - want[i]) <= tol, what, "[", i,
                     "]: incremental ", got[i], " vs reference ",
                     want[i], " exceeds drift bound ", tol);
    }
#else
    (void)what;
    (void)got;
    (void)want;
    (void)tol;
#endif
}

} // namespace invariant
} // namespace densim

#endif // DENSIM_CORE_INVARIANT_HH
