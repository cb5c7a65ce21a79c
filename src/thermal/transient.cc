#include "thermal/transient.hh"

#include <cmath>

#include "util/logging.hh"

namespace densim {

double
responseFraction(double dt_seconds, double tau_seconds)
{
    if (dt_seconds < 0.0)
        panic("negative time step ", dt_seconds);
    return 1.0 - std::exp(-dt_seconds / tau_seconds);
}

void
firstOrderStepBatch(double *values, const double *targets,
                    std::size_t n, double response_fraction)
{
    for (std::size_t i = 0; i < n; ++i)
        values[i] += (targets[i] - values[i]) * response_fraction;
}

} // namespace densim
