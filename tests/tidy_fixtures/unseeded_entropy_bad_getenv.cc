// Known-bad fixture for densim-unseeded-entropy: the process
// environment is ambient input, so a model that reads it gives
// different results for one config and seed on different hosts.
#include <cstdlib>

double ambientOverride()
{
    const char *v = std::getenv("DENSIM_INLET_C");
    return v ? std::atof(v) : 25.0;
}
