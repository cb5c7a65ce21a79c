#include "power/power_manager.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace densim {

PowerManager::PowerManager(const PStateTable &pstate_table,
                           SimplePeakModel peak_model, Celsius t_limit,
                           double gated_frac_tdp)
    : table_(pstate_table), peak_(peak_model),
      tLimitC_(t_limit.value()), gatedFracTdp_(gated_frac_tdp)
{
    if (tLimitC_ <= 0.0)
        fatal("PowerManager: temperature limit must be positive, got ",
              tLimitC_);
    if (gatedFracTdp_ < 0.0 || gatedFracTdp_ > 1.0)
        fatal("PowerManager: gated power fraction ", gatedFracTdp_,
              " outside [0, 1]");
}

void
PowerManager::attachObs(obs::Registry &registry)
{
    searches_ = &registry.counter("power.dvfsSearches");
}

void
PowerManager::checkCurve(const FreqCurve &curve) const
{
    if (curve.totalPowerAt90C.size() != table_.size() ||
        curve.perfRel.size() != table_.size()) {
        panic("FreqCurve has ", curve.totalPowerAt90C.size(), "/",
              curve.perfRel.size(), " entries for ", table_.size(),
              " P-states");
    }
}

Watts
PowerManager::dynamicPower(const FreqCurve &curve,
                           const LeakageModel &leak, std::size_t i) const
{
    checkCurve(curve);
    if (i >= table_.size())
        panic("P-state index ", i, " out of range");
    const double dyn = curve.totalPowerAt90C[i] -
                       leak.at(leak.refTemperature()).value();
    if (dyn < 0.0)
        fatal("FreqCurve power at state ", i, " (",
              curve.totalPowerAt90C[i],
              " W) is below reference leakage (",
              leak.at(leak.refTemperature()).value(), " W)");
    return Watts(dyn);
}

DvfsDecision
PowerManager::chooseAtAmbient(const FreqCurve &curve,
                              const LeakageModel &leak, Celsius ambient,
                              const HeatSink &sink) const
{
    return chooseAtAmbientCapped(curve, leak, ambient, sink,
                                 table_.size() - 1);
}

PowerManager::TwoPass
PowerManager::twoPassPeakC(const FreqCurve &curve,
                           const LeakageModel &leak, Celsius ambient,
                           const HeatSink &sink, std::size_t idx) const
{
    // Two-pass leakage compensation: estimate the peak at the 90 C-
    // characterized power, correct leakage for the estimated
    // temperature, and re-estimate.
    const double p90 = curve.totalPowerAt90C[idx];
    const double t1 = peak_.peak(ambient, Watts(p90), sink).value();
    const double p2 = dynamicPower(curve, leak, idx).value() +
                      leak.at(Celsius(t1)).value();
    const double t2 = peak_.peak(ambient, Watts(p2), sink).value();
    return {p2, t2};
}

DvfsDecision
PowerManager::chooseAtAmbientCapped(const FreqCurve &curve,
                                    const LeakageModel &leak,
                                    Celsius ambient,
                                    const HeatSink &sink,
                                    std::size_t max_pstate) const
{
    checkCurve(curve);
    countSearch();
    if (max_pstate >= table_.size())
        panic("chooseAtAmbientCapped: max P-state ", max_pstate,
              " out of range");
    DvfsDecision decision{};
    for (std::size_t idx = max_pstate + 1; idx-- > 0;) {
        const TwoPass est = twoPassPeakC(curve, leak, ambient, sink, idx);
        if (est.peakC <= tLimitC_ || idx == 0) {
            decision.pstate = idx;
            decision.freqMhz = table_.at(idx).freqMhz;
            decision.power = Watts(est.powerW);
            decision.predictedPeak = Celsius(est.peakC);
            decision.feasible = est.peakC <= tLimitC_;
            return decision;
        }
    }
    panic("unreachable: P-state loop fell through");
}

bool
PowerManager::feasibleAt(const FreqCurve &curve,
                         const LeakageModel &leak, Celsius ambient,
                         const HeatSink &sink, std::size_t pstate) const
{
    return twoPassPeakC(curve, leak, ambient, sink, pstate).peakC <=
           tLimitC_;
}

Celsius
PowerManager::feasibilityLimit(const FreqCurve &curve,
                               const LeakageModel &leak,
                               const HeatSink &sink,
                               std::size_t pstate) const
{
    checkCurve(curve);
    if (pstate >= table_.size())
        panic("feasibilityLimit: P-state ", pstate, " out of range");
    auto peak_at = [&](double amb) {
        return twoPassPeakC(curve, leak, Celsius(amb), sink, pstate)
            .peakC;
    };
    auto feasible = [&](double amb) { return peak_at(amb) <= tLimitC_; };

    // In real arithmetic the two-pass peak is affine in ambient
    // wherever leakage is above its floor, which holds near the edge
    // (the chip runs at the limit there). A unit-slope step back from
    // an ambient at the limit, then one secant step, land on the edge
    // to within rounding (~1e-14 C). Bracket that guess by ~1e-12
    // relative, widening geometrically should the guess miss, then
    // bisect down to adjacent doubles: about 18 evaluations in all.
    const double a1 = tLimitC_;
    const double p1 = peak_at(a1);
    const double a0 = a1 - (p1 - tLimitC_);
    const double p0 = peak_at(a0);
    double guess = a0 + (tLimitC_ - p0) * (a1 - a0) / (p1 - p0);
    if (!std::isfinite(guess))
        guess = a0;
    double width = 1e-12 * std::max(1.0, std::fabs(guess));
    double lo = guess - width;
    double hi = guess + width;
    while (!feasible(lo)) {
        hi = lo;
        width *= 2.0;
        lo -= width;
    }
    while (feasible(hi)) {
        lo = hi;
        width *= 2.0;
        hi += width;
    }
    if (!std::isfinite(lo) || !std::isfinite(hi))
        panic("feasibilityLimit: no finite feasibility edge for state ",
              pstate);
    // Invariant: feasible(lo), !feasible(hi), lo < hi.
    for (;;) {
        const double mid = lo + 0.5 * (hi - lo);
        if (mid <= lo || mid >= hi)
            break;
        if (feasible(mid))
            lo = mid;
        else
            hi = mid;
    }
    return Celsius(lo);
}

Watts
PowerManager::gatedPower(const LeakageModel &leak) const
{
    return Watts(gatedFracTdp_ * leak.tdp().value());
}

} // namespace densim
