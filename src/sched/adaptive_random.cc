#include "sched/adaptive_random.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace densim {

AdaptiveRandom::AdaptiveRandom(CelsiusDelta band)
    : bandC_(band.value())
{
    if (bandC_ < 0.0)
        fatal("AdaptiveRandom: band must be non-negative, got ", bandC_);
}

std::size_t
AdaptiveRandom::pick(const Job &job, const SchedContext &ctx)
{
    (void)job;
    const double *now = ctx.chipTempC;
    const double *hist = ctx.histTempC;

    const double min_now = idleMinOf(ctx, now);

    double min_hist = std::numeric_limits<double>::infinity();
    for (std::size_t s : *ctx.idle) {
        if (now[s] <= min_now + bandC_)
            min_hist = std::min(min_hist, hist[s]);
    }

    std::size_t n = 0;
    for (std::size_t s : *ctx.idle) {
        if (now[s] <= min_now + bandC_ && hist[s] <= min_hist + bandC_)
            ++n;
    }
    std::size_t chosen = ctx.rng->nextBounded(n);
    for (std::size_t s : *ctx.idle) {
        if (now[s] <= min_now + bandC_ &&
            hist[s] <= min_hist + bandC_) {
            if (chosen == 0)
                return s;
            --chosen;
        }
    }
    panic("A-Random candidate scan fell through");
}

} // namespace densim
