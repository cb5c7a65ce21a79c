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

} // namespace densim
