/**
 * @file
 * First-order thermal transient trackers.
 *
 * Dense-server thermals live on two very different time scales
 * (Table III): the chip responds within ~5 ms while the socket /
 * heatsink / air mass responds over ~30 s. The simulator models each
 * as a first-order lag toward a quasi-static target; FirstOrderTracker
 * performs the exact exponential update so time steps of any size are
 * unconditionally stable and step-size independent.
 */

#ifndef DENSIM_THERMAL_TRANSIENT_HH
#define DENSIM_THERMAL_TRANSIENT_HH

#include <cstddef>

namespace densim {

/**
 * Exact integrator for dx/dt = (target - x) / tau with piecewise-
 * constant target.
 */
class FirstOrderTracker
{
  public:
    /**
     * @param tau_seconds Time constant (> 0).
     * @param initial Initial value.
     */
    explicit FirstOrderTracker(double tau_seconds, double initial = 0.0);

    /** Advance @p dt_seconds toward @p target; returns new value. */
    double step(double target, double dt_seconds);

    /** Current value. */
    double value() const { return value_; }

    /** Force the value (used by warm start). */
    void reset(double value) { value_ = value; }

    /** Time constant in seconds. */
    double tau() const { return tau_; }

  private:
    double tau_;
    double value_;
};

/**
 * Response factor 1 - exp(-dt/tau): the fraction of the gap to the
 * target closed in one step. Exposed so analytic tests can check the
 * tracker against the closed form.
 */
double responseFraction(double dt_seconds, double tau_seconds);

/**
 * Advance a whole bank of first-order trackers that share one time
 * constant: values[i] += (targets[i] - values[i]) * response_fraction.
 *
 * This is the SoA form of FirstOrderTracker::step for the engine's
 * per-socket banks (ambient, chip rise, history), where every tracker
 * in a bank has the same tau and sees the same dt. Computing the
 * response fraction once per bank (instead of one exp() per socket)
 * is bit-identical to stepping each tracker individually because the
 * per-element update is literally the same expression with the same
 * operand values.
 *
 * @param response_fraction responseFraction(dt, tau) for the bank.
 */
void firstOrderStepBatch(double *values, const double *targets,
                         std::size_t n, double response_fraction);

} // namespace densim

#endif // DENSIM_THERMAL_TRANSIENT_HH
