#include "sched/prediction.hh"

#include <algorithm>

#include "power/pstate.hh"
#include "workload/curves.hh"

namespace densim {

void
FeasibilityTable::build(const PowerManager &pm, const LeakageModel &leak,
                        const std::vector<const HeatSink *> &socket_sinks)
{
    const std::vector<WorkloadSet> &sets = allWorkloadSets();
    const PStateTable &table = pm.pstates();
    npstates_ = table.size();
    freqMhz_.resize(npstates_);
    for (std::size_t i = 0; i < npstates_; ++i)
        freqMhz_[i] = table.at(i).freqMhz;
    leak_ = leak;
    tLimitC_ = pm.temperatureLimit().value();

    // Distinct sinks in first-use order; rows are (sink, set) pairs.
    std::vector<const HeatSink *> sinks;
    rowBase_.resize(socket_sinks.size());
    for (std::size_t s = 0; s < socket_sinks.size(); ++s) {
        const auto it =
            std::find(sinks.begin(), sinks.end(), socket_sinks[s]);
        const auto k = static_cast<std::size_t>(it - sinks.begin());
        if (it == sinks.end())
            sinks.push_back(socket_sinks[s]);
        rowBase_[s] = k * sets.size();
    }
    rows_.resize(sinks.size() * sets.size());
    limitC_.resize(rows_.size() * npstates_);
    states_.resize(limitC_.size());
    for (std::size_t k = 0; k < sinks.size(); ++k) {
        const HeatSink &sink = *sinks[k];
        const KelvinPerWatt r_tot = pm.peakModel().rInt() + sink.rExt;
        for (const WorkloadSet set : sets) {
            const std::size_t r =
                k * sets.size() + static_cast<std::size_t>(set);
            const FreqCurve &curve = freqCurveFor(set);
            rows_[r] = {r_tot.value(), sink.theta.c0.value(),
                        sink.theta.c1.value(),
                        mhzPerCelsius(pm, set, sink)};
            for (std::size_t i = 0; i < npstates_; ++i) {
                const Watts p90(curve.totalPowerAt90C[i]);
                limitC_[r * npstates_ + i] =
                    pm.feasibilityLimit(curve, leak, sink, i).value();
                states_[r * npstates_ + i] = {
                    (p90 * r_tot).value(), sink.theta(p90).value(),
                    pm.dynamicPower(curve, leak, i).value()};
            }
        }
    }
}

DvfsDecision
predictPlacement(const SchedContext &ctx, std::size_t socket,
                 WorkloadSet set)
{
    // The prediction horizon is one (millisecond-scale) job while the
    // ambient field moves with the 30 s socket time constant, so the
    // job's future temperature is Eq. (1) evaluated at the *current*
    // ambient — exactly the paper's "estimate an initial chip
    // temperature using equation 1" step. Leakage compensation is the
    // second pass inside the P-state search.
    const auto &table = ctx.pm->pstates();
    const std::size_t cap = ctx.boostCreditS[socket] > 0.0
                                ? table.size() - 1
                                : table.highestSustainedIndex();
    const Celsius ambient(ctx.ambientC[socket]);
    if (ctx.cache == nullptr)
        return ctx.pm->chooseAtAmbientCapped(
            freqCurveFor(set), *ctx.leak, ambient,
            ctx.topo->sinkOf(socket), cap);
    ctx.pm->countSearch();
    return ctx.cache->feas.decide(socket, set, ambient, cap);
}

double
mhzPerCelsius(const PowerManager &pm, WorkloadSet set,
              const HeatSink &sink)
{
    // Consecutive P-state feasibility edges in ambient space are
    // separated by dP * (R_int + R_ext); crossing one costs 200 MHz.
    const auto &table = pm.pstates();
    const auto &curve = freqCurveFor(set);
    const double p_span =
        curve.totalPowerAt90C.back() - curve.totalPowerAt90C.front();
    const double f_span =
        table.fastest().freqMhz - table.slowest().freqMhz;
    const double r_total = (pm.peakModel().rInt() + sink.rExt).value();
    return f_span / (p_span * r_total);
}

double
downstreamPenaltyMhz(const SchedContext &ctx, std::size_t socket,
                     Watts job_power)
{
    const double extra = job_power.value() - ctx.powerW[socket];
    if (extra <= 0.0)
        return 0.0;

    const PredictionCache *cache = ctx.cache;
    const auto &table = ctx.pm->pstates();
    const std::size_t boost_cap = table.size() - 1;
    const std::size_t sustained_cap = table.highestSustainedIndex();
    const double fastest_mhz = table.fastest().freqMhz;
    const bool snapshot = cache != nullptr && cache->snapshot;

    double penalty = 0.0;
    // Charge downstream socket d for an ambient rise of dt.
    const auto charge = [&](std::size_t d, double dt) {
        const double amb_new = ctx.ambientC[d] + dt;
        if (snapshot) {
            // Most probes keep the socket's state or drop it by one;
            // the snapshot prices both exactly (PredictionCache).
            if (amb_new <= cache->keepC[d]) {
                penalty += dt * cache->keepSlope[d];
                return;
            }
            if (amb_new <= cache->dropC[d]) {
                penalty += cache->dropMhz[d];
                return;
            }
        }
        if (ctx.busy[d] == 0)
            return;
        const WorkloadSet set = ctx.runningSet[d];
        const std::size_t cap =
            ctx.boostCreditS[d] > 0.0 ? boost_cap : sustained_cap;
        // Only the decision *frequency* is needed, a pure function of
        // the chosen state, so the cached path reads the state off the
        // exact feasibility thresholds without evaluating it.
        const double decision_mhz =
            cache != nullptr
                ? cache->feas.freqMhz(PowerManager::highestFeasible(
                      cache->feas.row(d, set), Celsius(amb_new), cap))
                : ctx.pm
                      ->chooseAtAmbientCapped(freqCurveFor(set),
                                              *ctx.leak,
                                              Celsius(amb_new),
                                              ctx.topo->sinkOf(d), cap)
                      .freqMhz;
        const double discrete =
            std::max(0.0, ctx.freqMhz[d] - decision_mhz);
        if (discrete > 0.0) {
            penalty += discrete;
        } else if (decision_mhz < fastest_mhz - 1e-9) {
            // No edge crossed right now != no damage: once the
            // downstream socket is off the boost plateau, charge the
            // time-averaged expectation so upstream heat always has
            // a price. Sockets still boosting after the added heat
            // have genuine headroom and cost nothing.
            penalty += dt * (cache != nullptr
                                 ? cache->feas.mhzPerC(d, set)
                                 : mhzPerCelsius(*ctx.pm, set,
                                                 ctx.topo->sinkOf(d)));
        }
    };
    // Table lookup (Sec. IV-C): the placement's extra heat will raise
    // each downstream socket's ambient by coeff * dP once the field
    // settles. A run's lanes share one coefficient, so one product
    // serves both, charged in ascending socket order.
    for (const CouplingRun &run : ctx.coupling->runs(socket)) {
        const double dt = run.amb * extra;
        charge(run.first, dt);
        if (run.lanes == 2)
            charge(run.first + 1, dt);
    }
    return penalty;
}

} // namespace densim
