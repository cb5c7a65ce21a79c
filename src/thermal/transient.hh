/**
 * @file
 * First-order thermal transient trackers.
 *
 * Dense-server thermals live on two very different time scales
 * (Table III): the chip responds within ~5 ms while the socket /
 * heatsink / air mass responds over ~30 s. The simulator models each
 * as a first-order lag toward a quasi-static target, advanced by the
 * exact exponential update so time steps of any size are
 * unconditionally stable and step-size independent.
 */

#ifndef DENSIM_THERMAL_TRANSIENT_HH
#define DENSIM_THERMAL_TRANSIENT_HH

#include <cstddef>

namespace densim {

/**
 * Response factor 1 - exp(-dt/tau): the fraction of the gap to the
 * target closed in one step. Exposed so analytic tests can check the
 * trackers against the closed form.
 */
double responseFraction(double dt_seconds, double tau_seconds);

/**
 * Advance a whole bank of first-order trackers that share one time
 * constant: values[i] += (targets[i] - values[i]) * response_fraction,
 * the exact integral of dx/dt = (target - x) / tau over one step with
 * a constant target.
 *
 * The engine's per-socket banks (ambient, chip rise, history) are
 * such banks: every tracker in a bank has the same tau and sees the
 * same dt, so the response fraction is computed once per bank
 * instead of one exp() per socket.
 *
 * @param response_fraction responseFraction(dt, tau) for the bank.
 */
void firstOrderStepBatch(double *values, const double *targets,
                         std::size_t n, double response_fraction);

} // namespace densim

#endif // DENSIM_THERMAL_TRANSIENT_HH
