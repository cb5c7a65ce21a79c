/**
 * @file
 * Inter-socket thermal coupling model — densim's substitute for the
 * paper's Ansys Icepak CFD infrastructure (Sec. III-B).
 *
 * Air flows through each row duct in one direction; a socket's heat
 * raises the temperature of the air arriving at every socket
 * downstream of it in the same duct. Two related quantities are
 * modeled, both linear in upstream power:
 *
 *  - *Air entry temperature* (the Fig. 2/Fig. 4 quantity): duct-mean
 *    air temperature ahead of a socket. The coefficient from socket j
 *    to downstream socket i is the well-mixed first-law rise
 *    (1.76 / ductCfm, C/W) scaled by a mixing factor gamma(d) that
 *    decays with streamwise distance d (heated air leaves a heatsink
 *    as a coherent streamtube; sockets 1.6 in apart inside a
 *    cartridge couple more strongly than across the 3 in cartridge
 *    gaps). gamma at minimum spacing is calibrated so the Fig. 2
 *    cartridge (2 x 15 W upstream) shows its measured 8 C
 *    left-to-right air temperature difference.
 *
 *  - *Socket ambient temperature* (the Icepak quantity Eq. (1)
 *    consumes): the air actually ingested by a socket's heatsink.
 *    It runs hotter than the duct mean because the sink sits in the
 *    upstream sockets' wake — modeled by a wake amplification factor
 *    on the entry coefficients — plus a local recirculation term
 *    kappaLocal * P_self for the socket's own exhaust trapped under
 *    the cartridge lid (Fig. 8).
 *
 * Air transport is fast (tens of ms through a cartridge), so these
 * temperatures respond *instantly* to power changes in the simulator;
 * the slow 30 s socket time constant of Table III lives in the
 * heatsink mass, not here.
 *
 * Calibration of (wakeFactor, kappaLocal) against the paper's stated
 * operating points is recorded in DESIGN.md Sec. 3.1.
 */

#ifndef DENSIM_THERMAL_COUPLING_MAP_HH
#define DENSIM_THERMAL_COUPLING_MAP_HH

#include <cstddef>
#include <vector>

#include "core/effects.hh"
#include "core/units.hh"

namespace densim {

/** Position of one socket within the airflow network. */
struct SocketSite
{
    double streamPosInch; //!< Station along the duct (inlet = 0).
    int duct;             //!< Parallel duct (row) index.
    Cfm ductCfm;          //!< Airflow shared at one duct station.
};

/** Tunable physics of the coupling model. */
struct CouplingParams
{
    /** Streamtube amplification at minimum spacing (>= 1 physical). */
    double mixFactor = 1.9;
    /** e-folding length of the mixing decay, inches. */
    double decayLengthInch = 40.0;
    /**
     * Ratio of ambient coupling to duct-mean entry coupling. Above 1
     * the sink ingests the upstream plume core; below 1 the cartridge
     * geometry and the taller downstream sink partially shield the
     * intake from the plume (the paper notes the two-sink design
     * exists precisely to mitigate coupling).
     */
    double wakeFactor = 1.5;
    /** Local recirculation: C of self ambient rise per W. */
    double kappaLocal = 1.5;
    /** Spacing at which mixFactor applies un-decayed, inches. */
    double minSpacingInch = 1.6;
    /**
     * Cross-row (vertical) leak: rows are stacked with the next
     * cartridge's board as a lid (Fig. 8), so a fraction of an
     * upstream socket's heat reaches the ducts of adjacent rows. The
     * coupling to a socket k rows away is scaled by verticalLeak^k
     * (dropped below 5% of the same-duct value).
     */
    double verticalLeak = 0.45;
};

/**
 * Precomputed socket-to-socket thermal coupling coefficients plus
 * entry/ambient temperature evaluation. Immutable after construction;
 * evaluation is allocation-free for the hot paths.
 */
class CouplingMap
{
  public:
    CouplingMap(std::vector<SocketSite> sites, CouplingParams params);

    /** Number of sockets. */
    std::size_t size() const { return sites_.size(); }

    /**
     * *Ambient* temperature rise at socket @p to per watt dissipated
     * at socket @p from (0 unless @p to is strictly downstream of
     * @p from, in its duct or one the vertical leak reaches).
     * Wake-amplified; this is the scheduling-relevant coefficient.
     * A binary search of @p from's CSR row.
     */
    KelvinPerWatt coeff(std::size_t from, std::size_t to) const;

    /** Duct-mean *air entry* rise at @p to per watt at @p from. */
    KelvinPerWatt airCoeff(std::size_t from, std::size_t to) const;

    /** Self-ambient rise per own watt (kappaLocal). */
    KelvinPerWatt kappaLocal() const
    {
        return KelvinPerWatt(params_.kappaLocal);
    }

    /**
     * Duct-mean air entry temperature of every socket (reporting).
     * Bulk power/temperature fields stay raw doubles across this
     * interface — the engine's hot-path boundary (DESIGN.md Sec. 9).
     */
    std::vector<double> entryTemps(const std::vector<double> &powers_w,
                                   Celsius inlet) const;

    /**
     * Socket ambient temperatures: inlet + wake-amplified upstream
     * rise + kappaLocal * own power. This is what Eq. (1)'s T_amb
     * means for the SUT.
     */
    std::vector<double> ambientTemps(const std::vector<double> &powers_w,
                                     Celsius inlet) const;

    /**
     * Allocation-free form of ambientTemps(): evaluate the whole
     * ambient field in one flat pass over the packed (CSR) coupling
     * coefficients into caller-owned storage. Bit-identical to
     * ambientTemps() — same traversal order, same accumulation order —
     * so the engine's batched refresh path and the legacy vector form
     * are interchangeable.
     */
    void ambientTempsInto(double *out_c, std::size_t n,
                          const double *powers_w, Celsius inlet) const;

    /**
     * Incrementally update an ambientTemps() field for one socket's
     * power change from @p old_p to @p new_p: adds the delta's
     * wake-amplified rise to every downstream socket and the
     * kappaLocal self term. O(downstream) instead of the O(n *
     * downstream) full evaluation — the hot path when only a few
     * sockets change power per power-management epoch. Walks the
     * same packed downstream rows as ambientTempsInto(); agrees with a
     * fresh ambientTemps() to rounding (not bit-) accuracy.
     */
    void
    applyPowerDelta(std::vector<double> &temps, std::size_t socket,
                    double old_p, double new_p) const
    {
        if (socket >= sites_.size() || temps.size() != sites_.size())
            badPowerDelta(temps.size(), socket);
        const double dp = new_p - old_p;
        if (dp == 0.0)
            return;
        const std::size_t end = dsOff_[socket + 1];
        for (std::size_t k = dsOff_[socket]; k < end; ++k)
            temps[dsIdx_[k]] += dsAmb_[k] * dp;
        temps[socket] += params_.kappaLocal * dp;
    }

    /**
     * Total downstream impact of socket @p from: sum of ambient
     * coeff(from, i) over all sockets i. This is exactly the offline
     * "heat recirculation factor" map the MinHR policy consumes.
     */
    KelvinPerWatt downstreamImpact(std::size_t from) const;

    /** Number of sockets strictly downstream of @p from (CSR row). */
    std::size_t downstreamCount(std::size_t from) const
    {
        return dsOff_[from + 1] - dsOff_[from];
    }

    /**
     * Packed downstream indices of @p from (downstreamCount long),
     * ascending: exactly the sockets with a nonzero coeff(from, ·).
     */
    const std::size_t *downstreamIds(std::size_t from) const
    {
        return dsIdx_.data() + dsOff_[from];
    }

    /**
     * Packed ambient coefficients aligned with downstreamIds(from):
     * downstreamAmbCoeffs(from)[k] == coeff(from, downstreamIds(from)[k]).
     */
    const double *downstreamAmbCoeffs(std::size_t from) const
    {
        return dsAmb_.data() + dsOff_[from];
    }

    /**
     * Assert the first-law envelope of an ambient field produced from
     * @p powers_w (DENSIM_CHECK; no-op unless invariant checks are
     * compiled in). Every socket ambient must sit between the inlet
     * and the inlet plus the wake-amplified well-mixed first-law rise
     * of the *entire* server power through that socket's duct plus
     * its own recirculation term — heated air cannot cool below the
     * inlet, and no socket can ingest more enthalpy than the whole
     * server ever put into the air. Catches sign errors and runaway
     * accumulated deltas that the exact drift comparison would only
     * see at its next refresh.
     */
    void checkAmbientFieldPhysics(const std::vector<double> &powers_w,
                                  Celsius inlet,
                                  const std::vector<double> &field_c)
        const;

    const std::vector<SocketSite> &sites() const { return sites_; }
    const CouplingParams &params() const { return params_; }

  private:
    void checkIndex(std::size_t i) const;

    /**
     * Entry (from, to) of the CSR-aligned @p coeffs (dsAir_ or
     * dsAmb_): a binary search of row @p from, 0 when @p to is not in
     * it.
     */
    double lookup(const std::vector<double> &coeffs, std::size_t from,
                  std::size_t to) const;

    /** applyPowerDelta's argument failure (cold, out of line). */
    [[noreturn]] DENSIM_COLD void badPowerDelta(std::size_t temps,
                                                std::size_t socket) const;

    std::vector<SocketSite> sites_;
    CouplingParams params_;
    std::vector<double> impact_; //!< downstream impact per socket.
    // CSR packing of the sparse downstream structure, the map's only
    // copy of its coefficients: row `from` spans
    // [dsOff_[from], dsOff_[from+1]), ids ascending; every pair not in
    // a row has coefficient 0.
    std::vector<std::size_t> dsOff_;
    std::vector<std::size_t> dsIdx_;
    std::vector<double> dsAir_; //!< airCoeff(from, dsIdx_[k]).
    std::vector<double> dsAmb_; //!< coeff(from, dsIdx_[k]).
};

} // namespace densim

#endif // DENSIM_THERMAL_COUPLING_MAP_HH
