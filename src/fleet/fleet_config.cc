#include "fleet/fleet_config.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace densim {

namespace {

/**
 * Stream tag separating the fleet seed domain from every engine
 * stream; see fleet/fleet_sim.hh for the per-stream tags layered on
 * top of this root.
 */
constexpr std::uint64_t kFleetDomainTag = 0xf1ee7d0a111u;

} // namespace

std::uint64_t
FleetConfig::effectiveSeed(std::uint64_t runSeed) const
{
    // A pinned fleet seed still passes through domainSeed so the
    // value handed to shards is never the raw user seed (which also
    // seeds the engine's own streams via xor-constants).
    return domainSeed(seed != 0 ? seed : runSeed, 0, kFleetDomainTag);
}

void
FleetConfig::validate(double pmEpochS) const
{
    if (!enabled())
        return;
    if (chassis > 4096)
        fatal("FleetConfig: fleet.chassis ", chassis,
              " exceeds the 4096-shard cap");
    if (!(epochS > 0.0))
        fatal("FleetConfig: fleet.epochS ", epochS,
              " must be positive");
    if (!(pmEpochS > 0.0))
        fatal("FleetConfig: pmEpochS ", pmEpochS, " must be positive");
    const double ratio = epochS / pmEpochS;
    // Cast to an integer per window: from 2^53 on a double skips
    // integers, and far past it the cast overflows.
    if (!(ratio < 0x1p53))
        fatal("FleetConfig: fleet.epochS ", epochS,
              " spans 2^53 or more pm epochs of ", pmEpochS, " s");
    const double rounded = std::round(ratio);
    if (rounded < 1.0 || std::abs(ratio - rounded) > 1e-9 * rounded)
        fatal("FleetConfig: fleet.epochS ", epochS,
              " is not an integral multiple of pmEpochS ", pmEpochS,
              " (shards must take a whole number of pm epochs per "
              "exchange window)");
    if (powerBudgetW < 0.0)
        fatal("FleetConfig: fleet.powerBudgetW ", powerBudgetW,
              " must be >= 0 (0 = unlimited)");
    const auto &known = knownFleetDispatchers();
    if (std::find(known.begin(), known.end(), dispatcher) ==
        known.end()) {
        std::string names;
        for (const auto &name : known) {
            if (!names.empty())
                names += ", ";
            names += name;
        }
        fatal("FleetConfig: unknown fleet.dispatcher '", dispatcher,
              "' (known: ", names, ")");
    }
}

const std::vector<std::string> &
knownFleetDispatchers()
{
    static const std::vector<std::string> names = {
        "roundrobin",
        "headroom",
        "locality",
        "power",
    };
    return names;
}

} // namespace densim
