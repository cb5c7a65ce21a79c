#include "sched/coupling_predictor.hh"

#include <limits>

#include "sched/prediction.hh"
#include "util/logging.hh"

namespace densim {

CouplingPredictor::CouplingPredictor(double downstream_weight,
                                     bool global_search)
    : downstreamWeight_(downstream_weight), globalSearch_(global_search)
{
    if (downstreamWeight_ < 0.0)
        fatal("CouplingPredictor: downstream weight must be "
              "non-negative, got ",
              downstreamWeight_);
}

std::size_t
CouplingPredictor::pickWithin(const Job &job, const SchedContext &ctx,
                              const std::size_t *candidates,
                              std::size_t count)
{
    double best_score = -std::numeric_limits<double>::infinity();
    double best_peak = std::numeric_limits<double>::infinity();
    std::size_t best = candidates[0];
    std::size_t n_best = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t s = candidates[k];
        const DvfsDecision d = predictPlacement(ctx, s, job.set);
        const double penalty =
            downstreamWeight_ == 0.0
                ? 0.0
                : downstreamWeight_ *
                      downstreamPenaltyMhz(ctx, s, d.power);
        const double score = d.freqMhz - penalty;
        // Primary: net frequency benefit. Secondary: most thermal
        // headroom (the placement keeps its frequency longest).
        // Remaining ties: uniform random.
        const double peak_c = d.predictedPeak.value();
        if (score > best_score + 1e-9 ||
            (score > best_score - 1e-9 &&
             peak_c < best_peak - 1e-9)) {
            best_score = score;
            best_peak = peak_c;
            best = s;
            n_best = 1;
        } else if (score > best_score - 1e-9 &&
                   peak_c < best_peak + 1e-9) {
            ++n_best;
            if (ctx.rng->nextBounded(n_best) == 0)
                best = s;
        }
    }
    return best;
}

std::size_t
CouplingPredictor::pick(const Job &job, const SchedContext &ctx)
{
    if (globalSearch_)
        return pickWithin(job, ctx, ctx.idle->data(),
                          ctx.idle->size());

    // Paper mechanics: choose a row with idle sockets at random, then
    // evaluate only that row's idle sockets. Idle ids ascend and are
    // row-major, so each row's idle sockets are one contiguous span of
    // the idle list, located from the per-row idle counts alone: the
    // candidates are a pointer range into the idle array itself — no
    // scan, no copy. Hand-built contexts without engine counts get a
    // tally of the idle list.
    const auto &idle = *ctx.idle;
    const auto rows = static_cast<std::size_t>(ctx.topo->numRows());
    const int *per_row = ctx.idlePerRow;
    if (per_row == nullptr) {
        rowCountsFallback_.assign(rows, 0);
        for (const std::size_t s : idle)
            ++rowCountsFallback_[static_cast<std::size_t>(
                ctx.socketRow != nullptr ? ctx.socketRow[s]
                                         : ctx.topo->rowOf(s))];
        per_row = rowCountsFallback_.data();
    }
    std::size_t n_rows = 0;
    for (std::size_t r = 0; r < rows; ++r)
        n_rows += per_row[r] != 0 ? 1 : 0;
    std::size_t skip = ctx.rng->nextBounded(n_rows);
    std::size_t start = 0;
    std::size_t r = 0;
    for (;; ++r) {
        if (per_row[r] == 0)
            continue;
        if (skip == 0)
            break;
        --skip;
        start += static_cast<std::size_t>(per_row[r]);
    }
    return pickWithin(job, ctx, idle.data() + start,
                      static_cast<std::size_t>(per_row[r]));
}

} // namespace densim
