#include "sched/scheduler.hh"

#include <limits>

#include "util/logging.hh"

namespace densim {

namespace {

/** v if it beats @p best (strictly), else best; a NaN v never does. */
template <bool WantMax>
double
better(double v, double best)
{
    return (WantMax ? v > best : v < best) ? v : best;
}

/**
 * Smallest (WantMax: largest) key over @p idle, NaN keys skipped;
 * +inf (-inf) when no key qualifies. Four accumulators take every
 * fourth socket and are combined after the loop, so the scan is four
 * independent compare chains instead of one. Min and max of non-NaN
 * doubles do not depend on the order, so the value equals the single
 * chain's, except that the sign of a zero may differ; callers use it
 * only in a `best ± eps` threshold, where -0.0 and +0.0 compare
 * equal.
 */
template <bool WantMax>
double
extremeOver(const std::vector<std::size_t> &idle, const double *key)
{
    constexpr double none = WantMax
                                ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
    double a0 = none, a1 = none, a2 = none, a3 = none;
    const std::size_t *ids = idle.data();
    const std::size_t n = idle.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        a0 = better<WantMax>(key[ids[i]], a0);
        a1 = better<WantMax>(key[ids[i + 1]], a1);
        a2 = better<WantMax>(key[ids[i + 2]], a2);
        a3 = better<WantMax>(key[ids[i + 3]], a3);
    }
    for (; i < n; ++i)
        a0 = better<WantMax>(key[ids[i]], a0);
    return better<WantMax>(better<WantMax>(a0, a1),
                           better<WantMax>(a2, a3));
}

template <bool WantMax>
std::size_t
pickExtremeBy(const SchedContext &ctx, const double *key,
              double tie_eps, bool random_tiebreak)
{
    const auto &idle = *ctx.idle;
    if (idle.empty())
        panic("scheduler invoked with no idle sockets");

    const double best = extremeOver<WantMax>(idle, key);
    if (!random_tiebreak) {
        for (std::size_t s : idle) {
            const double v = key[s];
            if (WantMax ? v >= best - tie_eps : v <= best + tie_eps)
                return s;
        }
        panic("tie scan found no candidate");
    }
    std::size_t n_ties = 0;
    for (std::size_t s : idle) {
        const double v = key[s];
        if (WantMax ? v >= best - tie_eps : v <= best + tie_eps)
            ++n_ties;
    }
    std::size_t chosen = ctx.rng->nextBounded(n_ties);
    for (std::size_t s : idle) {
        const double v = key[s];
        if (WantMax ? v >= best - tie_eps : v <= best + tie_eps) {
            if (chosen == 0)
                return s;
            --chosen;
        }
    }
    panic("random tie-break fell through");
}

} // namespace

void
Scheduler::attachObs(obs::Registry &registry)
{
    picks_ = &registry.counter(std::string("sched.") + name() +
                               ".picks");
}

double
idleMinOf(const SchedContext &ctx, const double *key)
{
    return extremeOver<false>(*ctx.idle, key);
}

std::size_t
pickMinBy(const SchedContext &ctx, const double *key, double tie_eps,
          bool random_tiebreak)
{
    return pickExtremeBy<false>(ctx, key, tie_eps, random_tiebreak);
}

std::size_t
pickMaxBy(const SchedContext &ctx, const double *key, double tie_eps,
          bool random_tiebreak)
{
    return pickExtremeBy<true>(ctx, key, tie_eps, random_tiebreak);
}

} // namespace densim
