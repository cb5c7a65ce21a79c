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

namespace densim {

/**
 * Response factor 1 - exp(-dt/tau): the fraction of the gap to the
 * target closed in one step. Exposed so analytic tests can check the
 * trackers against the closed form.
 */
double responseFraction(double dt_seconds, double tau_seconds);

/**
 * One step of a first-order tracker:
 * value + (target - value) * response_fraction, the exact integral of
 * dx/dt = (target - x) / tau over one step with a constant target.
 *
 * The engine's per-socket banks (ambient, chip rise, history) share
 * one tau and one dt per bank, so it computes responseFraction once
 * per bank and steps every socket with it.
 *
 * @param response_fraction responseFraction(dt, tau).
 */
inline double
firstOrderStep(double value, double target, double response_fraction)
{
    return value + (target - value) * response_fraction;
}

} // namespace densim

#endif // DENSIM_THERMAL_TRANSIENT_HH
