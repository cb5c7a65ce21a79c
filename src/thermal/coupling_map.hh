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
#include <cstdint>
#include <span>
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

    bool operator==(const SocketSite &) const = default;
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

    bool operator==(const CouplingParams &) const = default;
};

/**
 * One run of a coupling row: one downstream socket, or the two
 * adjacent sockets `first` and `first + 1` when their coefficients are
 * bit-equal. Sockets side by side in a zone share a duct station, so
 * on the SUT every coupling entry pairs up (DESIGN.md Sec. 12.2).
 */
struct CouplingRun
{
    std::uint32_t first; //!< Lowest downstream socket id of the run.
    std::uint32_t lanes; //!< Sockets in the run: 1 or 2.
    double amb;          //!< coeff(from, first + k) of every lane k.
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
     * A binary search of @p from's runs.
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
     * ambient field into caller-owned storage, source rows in
     * ascending order, one two-lane add per paired run. Bit-identical
     * to ambientTemps().
     */
    void ambientTempsInto(double *out_c, std::size_t n,
                          const double *powers_w, Celsius inlet) const;

    /**
     * Fold the power changes of the listed sockets into an
     * ambientTemps() field, in list order: socket s adds its delta
     * power_w[s] - field_w[s] through its row plus the kappaLocal self
     * term, then field_w[s] becomes power_w[s]. A socket whose delta
     * is 0 adds nothing. O(listed sockets * downstream) instead of
     * the full evaluation; agrees with a fresh ambientTemps() to
     * rounding.
     */
    void applyPowerDeltas(std::vector<double> &temps,
                          const std::vector<std::size_t> &sockets,
                          std::vector<double> &field_w,
                          const std::vector<double> &power_w) const;

    /**
     * Total downstream impact of socket @p from: sum of ambient
     * coeff(from, i) over all sockets i. This is exactly the offline
     * "heat recirculation factor" map the MinHR policy consumes.
     */
    KelvinPerWatt downstreamImpact(std::size_t from) const;

    /**
     * The runs of @p from, ascending: their lanes are exactly the
     * sockets with a nonzero coeff(from, ·), and each run's amb is
     * that coefficient.
     */
    std::span<const CouplingRun> runs(std::size_t from) const
    {
        return {runs_.data() + runOff_[from],
                runs_.data() + runOff_[from + 1]};
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
     * Index into runs_ of the run of row @p from holding @p to, or
     * runs_.size() when @p to is not downstream of @p from.
     */
    std::size_t findRun(std::size_t from, std::size_t to) const;

    /**
     * applyPowerDeltas' argument failure (cold, out of line): socket
     * @p socket out of range, else a field of the wrong size.
     */
    [[noreturn]] DENSIM_COLD void
    badPowerDeltas(std::size_t socket, std::size_t temps,
                   std::size_t field, std::size_t power) const;

    std::vector<SocketSite> sites_;
    CouplingParams params_;
    std::vector<double> impact_; //!< downstream impact per socket.
    // The map's only copy of its coefficients: row `from` is the
    // ascending runs [runOff_[from], runOff_[from+1]); every pair not
    // in a run has coefficient 0.
    std::vector<std::size_t> runOff_;
    std::vector<CouplingRun> runs_;
    std::vector<double> runAir_; //!< airCoeff of runs_[k]'s lanes.
};

} // namespace densim

#endif // DENSIM_THERMAL_COUPLING_MAP_HH
