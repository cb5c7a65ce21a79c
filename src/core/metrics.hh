/**
 * @file
 * Metrics collected by a simulation run — everything the paper's
 * result figures are built from.
 *
 * - Runtime expansion (Figs. 11, 14): per completed job,
 *   (completion - arrival) / nominal duration; queue wait included.
 *   A scheme's "performance vs CF" is RE_CF / RE_scheme.
 * - Service expansion: (completion - start) / nominal — the pure
 *   slowdown from running below maximum frequency.
 * - Energy and ED^2 (Fig. 15): socket energy integral over the
 *   measurement window; ED^2 = E * (mean runtime expansion)^2.
 * - Regional behaviour (Fig. 13): busy-time-weighted average relative
 *   frequency and share of work done in the front half, back half and
 *   even (better-sink) zones.
 */

#ifndef DENSIM_CORE_METRICS_HH
#define DENSIM_CORE_METRICS_HH

#include <cstddef>
#include <vector>

#include "core/units.hh"
#include "util/stats.hh"

namespace densim {

/** Per-region accumulators (front half / back half / even zones). */
struct RegionMetrics
{
    double busyTimeS = 0.0;  //!< Socket-seconds busy.
    double freqTime = 0.0;   //!< Integral of relative frequency.
    double workDone = 0.0;   //!< Integral of throughput (nominal s).

    /** Busy-time-weighted mean relative frequency. */
    double avgRelFreq() const
    {
        return busyTimeS > 0.0 ? freqTime / busyTimeS : 0.0;
    }
};

/** Results of one simulation run. */
struct SimMetrics
{
    std::size_t jobsArrived = 0;
    std::size_t jobsCompleted = 0;   //!< Post-warmup completions.
    std::size_t jobsUnfinished = 0;  //!< Still queued/running at end.
    std::size_t migrations = 0;      //!< Jobs moved between sockets.

    RunningStats runtimeExpansion;   //!< Queue wait included.
    RunningStats serviceExpansion;   //!< Execution only.
    RunningStats queueDelayS;        //!< Arrival -> start.

    double energyJ = 0.0;            //!< Socket energy, post-warmup.
    double measuredS = 0.0;          //!< Measurement window length.
    double makespanS = 0.0;          //!< Last completion time.

    RegionMetrics front;             //!< Zones 1..3.
    RegionMetrics back;              //!< Zones 4..6.
    RegionMetrics even;              //!< Zones 2, 4, 6.
    double totalWork = 0.0;          //!< Work integral, all sockets.
    double totalBusyTime = 0.0;      //!< Socket-seconds busy.
    double totalFreqTime = 0.0;      //!< Rel-frequency integral.

    /** Zone-ambient timeline (if SimConfig::timelineSampleS > 0):
     *  one row per sample, one column per zone id. */
    std::vector<double> timelineS;
    std::vector<std::vector<double>> zoneAmbientC;

    RunningStats chipTempC;          //!< Epoch samples, busy sockets.
    double maxChipTempC = 0.0;       //!< Hottest observed junction.
    double boostTimeS = 0.0;         //!< Socket-seconds in boost.

    // Typed views of the raw accumulators above (which stay plain
    // doubles: they are integrated in the engine's hot loop and
    // serialized by the benches — the engine's hot-path boundary,
    // DESIGN.md Sec. 9).
    Joules energy() const { return Joules(energyJ); }
    Seconds measured() const { return Seconds(measuredS); }
    Seconds makespan() const { return Seconds(makespanS); }

    /** Energy-delay-squared product. */
    double ed2() const;

    /** Mean relative frequency across all busy socket time. */
    double avgRelFreq() const;

    /** Fraction of work done in a region. */
    double workFraction(const RegionMetrics &region) const;

    /** Fraction of busy time spent in boost states. */
    double boostFraction() const;
};

/**
 * Relative performance of @p scheme against @p baseline:
 * RE_baseline / RE_scheme (> 1 means scheme is faster).
 */
double relativePerformance(const SimMetrics &scheme,
                           const SimMetrics &baseline);

/** ED^2 of @p scheme normalized to @p baseline. */
double relativeEd2(const SimMetrics &scheme, const SimMetrics &baseline);

} // namespace densim

#endif // DENSIM_CORE_METRICS_HH
