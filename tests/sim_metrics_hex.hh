/**
 * @file
 * Every SimMetrics field rendered as hex floats, for the tests that
 * require two runs to agree bit for bit: EXPECT_EQ on the strings
 * means every double is bit-identical. Header-only.
 */

#ifndef DENSIM_TESTS_SIM_METRICS_HEX_HH
#define DENSIM_TESTS_SIM_METRICS_HEX_HH

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "util/stats.hh"

namespace densim {

/** Hexfloat rendering: equal strings iff bit-identical doubles. */
inline void
hex(std::ostringstream &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a ", v);
    out << buf;
}

inline void
hex(std::ostringstream &out, const RunningStats &s)
{
    const RunningStats::Snapshot snap = s.snapshot();
    out << snap.count << ' ';
    hex(out, snap.mean);
    hex(out, snap.m2);
    hex(out, snap.min);
    hex(out, snap.max);
}

/** Every SimMetrics field, hexfloat — EXPECT_EQ means bit-identical. */
inline std::string
serializeSimMetrics(const SimMetrics &m)
{
    std::ostringstream out;
    out << m.jobsArrived << ' ' << m.jobsCompleted << ' '
        << m.jobsUnfinished << ' ' << m.migrations << ' ';
    hex(out, m.runtimeExpansion);
    hex(out, m.serviceExpansion);
    hex(out, m.queueDelayS);
    hex(out, m.energyJ);
    hex(out, m.measuredS);
    hex(out, m.makespanS);
    for (const RegionMetrics *r : {&m.front, &m.back, &m.even}) {
        hex(out, r->busyTimeS);
        hex(out, r->freqTime);
        hex(out, r->workDone);
    }
    hex(out, m.totalWork);
    hex(out, m.totalBusyTime);
    hex(out, m.totalFreqTime);
    out << m.timelineS.size() << ' ';
    for (const double t : m.timelineS)
        hex(out, t);
    for (const std::vector<double> &row : m.zoneAmbientC)
        for (const double c : row)
            hex(out, c);
    hex(out, m.chipTempC);
    hex(out, m.maxChipTempC);
    hex(out, m.boostTimeS);
    return out.str();
}

} // namespace densim

#endif // DENSIM_TESTS_SIM_METRICS_HEX_HH
