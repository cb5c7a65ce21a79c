#include "sched/min_hr.hh"

#include <limits>

namespace densim {

std::size_t
MinHr::pick(const Job &job, const SchedContext &ctx)
{
    (void)job;
    if (cachedFor_ != ctx.coupling ||
        cachedEpoch_ != ctx.couplingEpoch) {
        // The offline profiling pass: one fixed map per server (per
        // coupling generation — a derated map can reuse a freed
        // one's address, so the epoch is part of the cache key).
        impact_.resize(ctx.coupling->size());
        for (std::size_t s = 0; s < impact_.size(); ++s)
            impact_[s] = ctx.coupling->downstreamImpact(s).value();
        cachedFor_ = ctx.coupling;
        cachedEpoch_ = ctx.couplingEpoch;
    }

    // Least recirculation first; among equal-impact candidates (one
    // zone spans many rows) take the coolest, so the zone's sockets
    // rotate instead of roasting one of them.
    const double best_impact = idleMinOf(ctx, impact_.data());
    double best_temp = std::numeric_limits<double>::infinity();
    std::size_t best = (*ctx.idle)[0];
    for (std::size_t s : *ctx.idle) {
        if (impact_[s] > best_impact + 1e-12)
            continue;
        if (ctx.chipTempC[s] < best_temp) {
            best_temp = ctx.chipTempC[s];
            best = s;
        }
    }
    return best;
}

} // namespace densim
