/**
 * @file
 * Temperature-dependent leakage power.
 *
 * The paper's methodology (Sec. III-A) estimates leakage as 30 % of
 * TDP at the 90 C characterization temperature and compensates power
 * for chip temperature elsewhere. We model leakage as linear in
 * temperature around that reference — adequate over the 50–95 C range
 * the simulator operates in — with a floor at a small fraction of the
 * reference value.
 */

#ifndef DENSIM_POWER_LEAKAGE_HH
#define DENSIM_POWER_LEAKAGE_HH

#include <algorithm>

#include "core/units.hh"

namespace densim {

/** Leakage model anchored at a reference temperature. */
class LeakageModel
{
  public:
    /**
     * @param tdp Socket TDP (X2150: 22 W).
     * @param frac_at_ref Leakage as a fraction of TDP at the
     *        reference temperature (paper: 0.30).
     * @param ref Reference temperature (paper: 90 C).
     * @param slope_per_c Relative leakage growth per Celsius
     *        (typical planar bulk: ~1.2 %/C).
     */
    explicit LeakageModel(Watts tdp, double frac_at_ref = 0.30,
                          Celsius ref = Celsius(90.0),
                          double slope_per_c = 0.012);

    /** X2150 leakage: 30 % of 22 W TDP at 90 C. */
    static const LeakageModel &x2150();

    /**
     * Leakage power at chip temperature @p t. Inline: every DVFS
     * decision's second pass evaluates it.
     */
    Watts
    at(Celsius t) const
    {
        const double scaled =
            refLeakW_ * (1.0 + slopePerC_ * (t.value() - refC_));
        // Leakage never vanishes entirely; floor at 20 % of the
        // reference value (reached ~65 C below the reference, outside
        // operating range anyway).
        return Watts(std::max(scaled, 0.2 * refLeakW_));
    }

    /** Leakage at the reference temperature. */
    Watts atRef() const { return Watts(refLeakW_); }

    Watts tdp() const { return Watts(tdpW_); }
    Celsius refTemperature() const { return Celsius(refC_); }

  private:
    double tdpW_;
    double refLeakW_;
    double refC_;
    double slopePerC_;
};

} // namespace densim

#endif // DENSIM_POWER_LEAKAGE_HH
