/**
 * @file
 * Placement prediction services shared by the Predictive and
 * CouplingPredictor policies.
 *
 * Both policies reason about what frequency a job would settle at if
 * placed on a candidate socket. Per Sec. IV-C the prediction uses the
 * simple linear machinery only: the socket's current ambient from the
 * coupling field, Eq. (1) with two-pass leakage compensation
 * (PowerManager::chooseAtAmbientCapped, or its exact table form
 * FeasibilityTable::decide), never the detailed models used to
 * evaluate the research.
 */

#ifndef DENSIM_SCHED_PREDICTION_HH
#define DENSIM_SCHED_PREDICTION_HH

#include <limits>
#include <vector>

#include "core/invariant.hh"
#include "sched/scheduler.hh"

namespace densim {

/**
 * Exact P-state feasibility thresholds of one engine. For every
 * (heat sink, workload set, P-state) the table holds the hottest
 * ambient at which the state is feasible
 * (PowerManager::feasibilityLimit). Feasibility depends only on the
 * sink, the workload's power curve, the leakage model and the probed
 * ambient. None of these change during a run: fan derates move the
 * ambient field, not the sinks. So one table built at engine
 * construction answers every DVFS search of every run with compares
 * (PowerManager::highestFeasible); decide() then evaluates only the
 * chosen state, from constants stored next to its limit. Rows are
 * keyed by the sink each socket actually uses, so sink overrides are
 * honoured.
 */
class FeasibilityTable
{
  public:
    /**
     * Build the rows of every distinct sink in @p socket_sinks (one
     * entry per socket) for every workload set.
     */
    void build(const PowerManager &pm, const LeakageModel &leak,
               const std::vector<const HeatSink *> &socket_sinks);

    /** Per-P-state limits of socket @p s running @p set, C. */
    const double *
    row(std::size_t s, WorkloadSet set) const
    {
        return &limitC_[rowIndex(s, set) * npstates_];
    }

    /**
     * PowerManager::chooseAtAmbientCapped for socket @p s running
     * @p set at @p ambient under @p cap, as a table read. The state
     * comes from the limit walk; its two-pass leakage-compensated
     * peak is then evaluated from the stored constants in the exact
     * operand order of SimplePeakModel::peak and LeakageModel::at,
     * so every field of the decision is bit-identical to the full
     * search. The caller counts the decision
     * (PowerManager::countSearch).
     */
    DvfsDecision
    decide(std::size_t s, WorkloadSet set, Celsius ambient,
           std::size_t cap) const
    {
        DENSIM_CHECK(cap < npstates_, "FeasibilityTable::decide: cap ",
                     cap, " out of range");
        const std::size_t r = rowIndex(s, set);
        const std::size_t p = PowerManager::highestFeasible(
            &limitC_[r * npstates_], ambient, cap);
        const Row &k = rows_[r];
        const State &c = states_[r * npstates_ + p];
        const double amb = ambient.value();
        // Eq. (1), amb + P * (R_int + R_ext) + (c0 + c1 * P), first
        // at the 90 C-characterized power, then at the power with
        // leakage corrected for the first estimate.
        const double t1 = (amb + c.riseC) + c.thetaC;
        const double p2 = c.dynW + leak_.at(Celsius(t1)).value();
        const double t2 =
            (amb + p2 * k.rTotCW) + (k.thetaC0 + k.thetaC1 * p2);
        return {p, freqMhz_[p], Watts(p2), Celsius(t2), t2 <= tLimitC_};
    }

    /** mhzPerCelsius for @p set on socket @p s's sink. */
    double
    mhzPerC(std::size_t s, WorkloadSet set) const
    {
        return rows_[rowIndex(s, set)].mhzPerC;
    }

    /** Frequency of P-state @p i (unchecked copy of the table). */
    double freqMhz(std::size_t i) const { return freqMhz_[i]; }

    /** Number of P-states per row. */
    std::size_t size() const { return npstates_; }

  private:
    /** Per-(sink, set) constants. */
    struct Row
    {
        double rTotCW;  //!< (R_int + R_ext).value().
        double thetaC0; //!< sink.theta.c0.value().
        double thetaC1; //!< sink.theta.c1.value().
        double mhzPerC; //!< mhzPerCelsius(pm, set, sink).
    };

    /** Per-(sink, set, state) first-pass terms. */
    struct State
    {
        double riseC;  //!< (p90 * (R_int + R_ext)).value().
        double thetaC; //!< sink.theta(p90).value().
        double dynW;   //!< PowerManager::dynamicPower.
    };

    std::size_t
    rowIndex(std::size_t s, WorkloadSet set) const
    {
        return rowBase_[s] + static_cast<std::size_t>(set);
    }

    std::size_t npstates_ = 0;
    std::vector<std::size_t> rowBase_; //!< Sink index x set count.
    std::vector<double> limitC_;       //!< Per (sink, set, state).
    std::vector<State> states_;        //!< Aligned with limitC_.
    std::vector<Row> rows_;
    std::vector<double> freqMhz_;
    LeakageModel leak_ = LeakageModel::x2150();
    double tLimitC_ = 0.0;
};

/**
 * Engine-owned state for the prediction helpers below: the exact
 * feasibility thresholds and the per-socket penalty snapshot. Every
 * DVFS search is answered exactly from `feas`, so the cached path is
 * bit-identical to the full searches a context without a cache runs
 * (PowerManager::chooseAtAmbientCapped). tests/perf_equivalence_test.cc
 * re-prices every candidate of real runs both ways and compares
 * every field with EXPECT_EQ.
 */
struct PredictionCache
{
    /** Exact feasibility thresholds; built once per engine. */
    FeasibilityTable feas;

    /**
     * Per-socket penalty snapshot, kept by the engine while `snapshot`
     * is set. It rests on one premise: a busy socket's current state
     * was chosen this epoch, with the cap a probe would use, at an
     * ambient no hotter than any probe (a probe only adds heat). Every
     * state above the current one is then infeasible at the probe, so
     *  - at or below `keepC[s]` (the current state's limit) the socket
     *    keeps its state and the probe charges `dt * keepSlope[s]`
     *    (mhzPerCelsius below the fastest state, 0 at it);
     *  - at or below `dropC[s]` (the next state down's limit) it drops
     *    exactly one state and the probe charges `dropMhz[s]`.
     * Both are the values the full search yields. Idle sockets hold
     * keepC = +inf and keepSlope = 0, which subsumes the busy check.
     * Faulted DVFS inputs break the premise, so the engine clears
     * `snapshot` while faults are armed and every probe walks `feas`.
     */
    std::vector<double> keepC;
    std::vector<double> keepSlope;
    std::vector<double> dropC;
    std::vector<double> dropMhz;
    bool snapshot = false;

    /** Size for @p n sockets, every one parked idle. */
    void reset(std::size_t n)
    {
        keepC.assign(n, std::numeric_limits<double>::infinity());
        keepSlope.assign(n, 0.0);
        dropC.assign(n, std::numeric_limits<double>::infinity());
        dropMhz.assign(n, 0.0);
    }

    /** Snapshot of an idle socket: every probe passes, free. */
    void parkIdle(std::size_t s)
    {
        keepC[s] = std::numeric_limits<double>::infinity();
        keepSlope[s] = 0.0;
    }

    /**
     * Snapshot of socket @p s running @p set at P-state @p p. The
     * slowest state is chosen whether feasible or not, so at p == 0
     * every probe keeps the state and the drop pair is never read.
     */
    void snapshotBusy(std::size_t s, std::size_t p, WorkloadSet set)
    {
        const double inf = std::numeric_limits<double>::infinity();
        const double *limit = feas.row(s, set);
        const double mhz = feas.freqMhz(p);
        keepC[s] = p == 0 ? inf : limit[p];
        keepSlope[s] = mhz < feas.freqMhz(feas.size() - 1) - 1e-9
                           ? feas.mhzPerC(s, set)
                           : 0.0;
        if (p > 0) {
            dropC[s] = p == 1 ? inf : limit[p - 1];
            dropMhz[s] = mhz - feas.freqMhz(p - 1);
        }
    }
};

/**
 * Steady-state DVFS decision predicted for placing a job of @p set on
 * idle socket @p socket, given the other sockets' current powers.
 */
DvfsDecision predictPlacement(const SchedContext &ctx,
                              std::size_t socket, WorkloadSet set);

/**
 * Predicted aggregate frequency loss (MHz) across sockets downstream
 * of @p socket if a job drawing @p job_power were placed there.
 * For each busy downstream socket the job's extra heat raises the
 * ambient by coeff * (P_job - P_current); if the re-predicted
 * frequency drops below the current one, that discrete loss is
 * charged. When the extra heat does not cross a P-state edge *right
 * now*, the expected marginal loss is charged instead:
 * dT * (200 MHz / edge spacing) — the time-average of the discrete
 * loss as the downstream socket's ambient drifts across edges. Idle
 * downstream sockets contribute nothing (nothing to slow down).
 */
double downstreamPenaltyMhz(const SchedContext &ctx, std::size_t socket,
                            Watts job_power);

/**
 * Expected frequency sensitivity of a socket with heat sink @p sink
 * running workload @p set: MHz lost per degree of ambient rise,
 * averaged across the P-state ladder.
 */
double mhzPerCelsius(const PowerManager &pm, WorkloadSet set,
                     const HeatSink &sink);

} // namespace densim

#endif // DENSIM_SCHED_PREDICTION_HH
