/**
 * @file
 * HotSpot-class compact chip thermal model.
 *
 * This is densim's stand-in for the paper's "proprietary HotSpot-like
 * model that has been validated with thermal camera measurements"
 * (Sec. III-C). The die is divided into a grid of cells with lateral
 * silicon conduction; each cell conducts vertically (junction-to-case)
 * into a lumped heatsink node that convects to the ambient through the
 * sink's R_ext. Per-application power maps concentrate a fraction of
 * total power in a hot block, producing the 4–7 C lateral spread the
 * paper reports for the ~100 mm^2 X2150 die (Fig. 9a) and playing the
 * reference role in the Eq. (1) validation experiment (Fig. 10).
 *
 * Construction guarantees: with a *uniform* power map the average die
 * temperature is exactly T_amb + P * (R_int + R_ext) — the vertical
 * resistances are exact by construction — so all deviation between
 * this model and Eq. (1) comes from power-map concentration, which is
 * what theta(P, sink) was fitted to absorb.
 */

#ifndef DENSIM_THERMAL_HOTSPOT_MODEL_HH
#define DENSIM_THERMAL_HOTSPOT_MODEL_HH

#include <vector>

#include "core/units.hh"
#include "thermal/heatsink.hh"
#include "thermal/rc_network.hh"

namespace densim {

/** Physical parameters of the die/TIM/spreader/sink stack. */
struct ChipStackParams
{
    int grid = 8;                  //!< Die is grid x grid cells.
    double dieAreaM2 = 100e-6;     //!< X2150 (Kabini) die ~100 mm^2.
    double dieThicknessM = 0.3e-3; //!< Thinned die.
    double siliconK = 110.0;       //!< W/(m*K) at hot temps.
    double siliconVolHeat = 1.63e6; //!< J/(m^3*K).
    double rIntTotal = 0.205;      //!< Junction-to-case total, C/W.
    double socketTauS = 30.0;      //!< Sink/socket time constant, s.
    /**
     * Lateral-conduction multiplier folding in heat spreading through
     * metal layers and the package that a bare 2-D silicon sheet
     * underestimates.
     */
    double lateralSpreadFactor = 1.6;

    // Vertical split of the junction-to-case resistance across the
    // explicit layers (die bulk, TIM, sink base plate). Fractions sum
    // to 1, keeping the uniform-map calibration exact: the parallel
    // combination over all cells equals rIntTotal.
    double dieVertFraction = 0.50;
    double timFraction = 0.35;
    double baseFraction = 0.15;

    // Sink base plate (the lateral heat spreader of this package
    // class: no IHS, the sink base does the spreading).
    double baseK = 200.0;          //!< Aluminum base plate.
    double baseThicknessM = 3e-3;  //!< Plate thickness.
    double baseVolHeat = 2.42e6;   //!< J/(m^3*K), aluminum.
    /**
     * Base plate is larger than the die; lateral conduction per cell
     * scales with thickness * k * overhang factor.
     */
    double baseSpreadFactor = 4.0;
};

/** Placement of a square hot block on the die grid. */
struct HotBlock
{
    int size; //!< Cells per side.
    int row;  //!< Upper-left corner row.
    int col;  //!< Upper-left corner column.
};

/**
 * Normalized per-cell power distribution (fractions sum to 1).
 */
class PowerMap
{
  public:
    /** Uniform distribution over a grid x grid die. */
    static PowerMap uniform(int grid);

    /**
     * Distribution with @p hot_fraction of total power spread over the
     * square hot block @p block; the remainder is uniform over all
     * other cells.
     */
    static PowerMap concentrated(int grid, double hot_fraction,
                                 HotBlock block);

    int grid() const { return grid_; }

    /** Fraction of power in cell (r, c). */
    double at(int r, int c) const;

    /** Flat cell-major access, index r * grid + c. */
    const std::vector<double> &fractions() const { return frac_; }

  private:
    PowerMap(int grid, std::vector<double> frac);

    int grid_;
    std::vector<double> frac_;
};

/** Temperature field summary returned by HotSpotModel queries. */
struct ChipThermalField
{
    std::vector<double> dieTemps; //!< Cell temperatures, C.
    double sinkTemp;              //!< Lumped sink temperature, C.
    double maxT;                  //!< Hottest die cell.
    double minT;                  //!< Coolest die cell.
    double avgT;                  //!< Mean die temperature.

    /** Lateral spread max - min (Fig. 9a metric). */
    double spread() const { return maxT - minT; }
};

/** The gridded chip + sink compact model. */
class HotSpotModel
{
  public:
    HotSpotModel(const ChipStackParams &params, const HeatSink &sink);

    /** Steady field for @p power distributed per @p map. */
    ChipThermalField steady(Watts power, const PowerMap &map,
                            Celsius t_amb) const;

    /**
     * Advance a transient temperature state by @p dt. The
     * state vector layout matches network() nodes; initialize with
     * initialState().
     */
    void transientStep(std::vector<double> &state, Watts power,
                       const PowerMap &map, Celsius t_amb,
                       Seconds dt) const;

    /** All-nodes-at-ambient initial state. */
    std::vector<double> initialState(Celsius t_amb) const;

    /** Summarize a state vector into a ChipThermalField. */
    ChipThermalField summarize(const std::vector<double> &state) const;

    /** Underlying RC network (for inspection/tests). */
    const RCNetwork &network() const { return net_; }

    const ChipStackParams &params() const { return params_; }
    const HeatSink &sink() const { return sink_; }

  private:
    /** Expand a power map into the per-node injection vector. */
    std::vector<double> nodePowers(Watts power,
                                   const PowerMap &map) const;

    ChipStackParams params_;
    HeatSink sink_;
    RCNetwork net_;
    std::vector<NodeId> cellNodes_; //!< Die cells (power inputs).
    std::vector<NodeId> baseNodes_; //!< Sink base plate cells.
    NodeId sinkNode_;               //!< Lumped fin/sink node.
};

/**
 * Default power-map concentration for a workload drawing @p power:
 * low-power (few active units) workloads concentrate power in a small
 * region while high-power workloads light up the whole die. This is
 * the empirical behaviour theta(P, sink)'s negative slope encodes.
 */
double defaultHotFraction(Watts power);

} // namespace densim

#endif // DENSIM_THERMAL_HOTSPOT_MODEL_HH
