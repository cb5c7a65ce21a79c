/**
 * @file
 * Socket-level power management: DVFS under a temperature limit plus
 * idle power gating.
 *
 * The paper's policy (Table III / Sec. III-D) emphasizes
 * responsiveness: every 1 ms each socket is set to the highest
 * frequency whose predicted peak temperature stays below the 95 C
 * limit, with the two top states being opportunistic boost. Sockets
 * idle for a whole power-management epoch are power gated and still
 * draw 10 % of TDP.
 *
 * Frequency/power behaviour of the running job is supplied as a
 * FreqCurve (per-P-state total power at the 90 C characterization
 * point and relative performance), which the workload library
 * provides per benchmark set (Fig. 7).
 */

#ifndef DENSIM_POWER_POWER_MANAGER_HH
#define DENSIM_POWER_POWER_MANAGER_HH

#include <cstddef>
#include <vector>

#include "core/units.hh"
#include "obs/registry.hh"
#include "power/leakage.hh"
#include "power/pstate.hh"
#include "thermal/heatsink.hh"
#include "thermal/simple_peak_model.hh"

namespace densim {

/**
 * Power and performance versus frequency for one workload class,
 * indexed by P-state (same order as the PStateTable).
 */
struct FreqCurve
{
    std::vector<double> totalPowerAt90C; //!< W at chip temp 90 C.
    std::vector<double> perfRel;         //!< Throughput vs fastest.
};

/** Outcome of a DVFS decision. */
struct DvfsDecision
{
    std::size_t pstate;    //!< Chosen P-state index.
    double freqMhz;        //!< Chosen frequency.
    Watts power;           //!< Predicted total socket power.
    Celsius predictedPeak; //!< Predicted peak chip temperature.
    bool feasible;         //!< False if even the slowest state
                           //!< violates the limit (we still run at
                           //!< the slowest state then).
};

/** DVFS + gating policy engine. */
class PowerManager
{
  public:
    /**
     * @param table P-state table.
     * @param peak Eq. (1) evaluator.
     * @param t_limit Junction temperature limit (Table III: 95 C).
     * @param gated_frac_tdp Power of a gated socket as a fraction of
     *        TDP (paper: 0.10).
     */
    PowerManager(const PStateTable &table, SimplePeakModel peak,
                 Celsius t_limit = Celsius(95.0),
                 double gated_frac_tdp = 0.10);

    /**
     * Pick the highest feasible P-state given the *current* socket
     * ambient temperature, assuming the heatsink has fully soaked
     * (steady P * (R_int + R_ext) rise) — a conservative decision
     * used where no sink-state tracking exists.
     */
    DvfsDecision chooseAtAmbient(const FreqCurve &curve,
                                 const LeakageModel &leak,
                                 Celsius ambient,
                                 const HeatSink &sink) const;

    /**
     * chooseAtAmbient restricted to P-states at or below
     * @p max_pstate — used by the boost-dwell governor: when a
     * socket's boost-residency budget is exhausted the search is
     * capped at the highest sustained state ([36]: a fully loaded
     * X2150 sustains only the highest non-boost frequency).
     */
    DvfsDecision chooseAtAmbientCapped(const FreqCurve &curve,
                                       const LeakageModel &leak,
                                       Celsius ambient,
                                       const HeatSink &sink,
                                       std::size_t max_pstate) const;

    /**
     * Exactly the per-state feasibility test chooseAtAmbientCapped
     * applies: two-pass leakage-compensated peak at @p ambient for
     * P-state @p pstate, compared against the junction limit. The
     * test is monotone in ambient — Eq. (1) is affine in ambient with
     * unit slope and leakage is non-decreasing in temperature — so a
     * `true` at some ambient implies `true` at every cooler one and
     * a `false` implies `false` at every hotter one. That makes the
     * whole test one number per state: see feasibilityLimit.
     */
    bool feasibleAt(const FreqCurve &curve, const LeakageModel &leak,
                    Celsius ambient, const HeatSink &sink,
                    std::size_t pstate) const;

    /**
     * The hottest ambient (as a double, to the last bit) at which
     * feasibleAt(@p curve, @p leak, ambient, @p sink, @p pstate)
     * holds: feasibleAt is true there and false at the next double
     * up. Found by bisection over doubles inside a narrow bracket
     * around the root of the two-pass chain's affine form, so a call
     * costs a few dozen feasibleAt evaluations. The value is
     * time-invariant for a (sink, curve, state), so engines compute
     * it once.
     */
    Celsius feasibilityLimit(const FreqCurve &curve,
                             const LeakageModel &leak,
                             const HeatSink &sink,
                             std::size_t pstate) const;

    /**
     * The P-state chooseAtAmbientCapped picks at @p ambient, read off
     * @p limit_c (per-state feasibilityLimit values for the curve and
     * sink in question, at least @p max_pstate + 1 entries): the
     * highest state at or below @p max_pstate whose limit is not
     * below @p ambient, or 0 when none is. Compares only.
     */
    static std::size_t
    highestFeasible(const double *limit_c, Celsius ambient,
                    std::size_t max_pstate)
    {
        const double amb_c = ambient.value();
        std::size_t idx = max_pstate;
        while (idx > 0 && amb_c > limit_c[idx])
            --idx;
        return idx;
    }

    /** Dynamic (leakage-free) power at state @p i. */
    Watts dynamicPower(const FreqCurve &curve,
                       const LeakageModel &leak, std::size_t i) const;

    /** Power drawn by a power-gated idle socket. */
    Watts gatedPower(const LeakageModel &leak) const;

    const PStateTable &pstates() const { return table_; }
    Celsius temperatureLimit() const { return Celsius(tLimitC_); }
    const SimplePeakModel &peakModel() const { return peak_; }

    /**
     * Register this power manager's instruments into @p registry
     * ("power.dvfsSearches": DVFS decisions made, one per choose*
     * call or countSearch, whichever way the state is found). The
     * registry must outlive the manager; without a registry attached
     * the choose* paths skip accounting entirely.
     */
    void attachObs(obs::Registry &registry);

    /**
     * Count one DVFS decision made outside the choose* calls, i.e.
     * read off this manager's thresholds (FeasibilityTable::decide).
     */
    void
    countSearch() const
    {
        if (searches_ != nullptr)
            searches_->inc();
    }

  private:
    void checkCurve(const FreqCurve &curve) const;

    /** Leakage-compensated power and peak of one P-state. */
    struct TwoPass
    {
        double powerW; //!< Second-pass (leakage-corrected) power.
        double peakC;  //!< Second-pass Eq. (1) peak.
    };

    /** The two-pass estimate every feasibility decision rests on. */
    TwoPass twoPassPeakC(const FreqCurve &curve, const LeakageModel &leak,
                         Celsius ambient, const HeatSink &sink,
                         std::size_t idx) const;

    const PStateTable &table_;
    SimplePeakModel peak_;
    double tLimitC_;
    double gatedFracTdp_;
    obs::Counter *searches_ = nullptr; //!< Owned by the registry.
};

} // namespace densim

#endif // DENSIM_POWER_POWER_MANAGER_HH
