/**
 * @file
 * Machine-readable export of simulation results: a JSON object per
 * run and CSV rows for sweeps — what a downstream user pipes into
 * their plotting stack.
 */

#ifndef DENSIM_CORE_METRICS_IO_HH
#define DENSIM_CORE_METRICS_IO_HH

#include <string>

#include "core/metrics.hh"

namespace densim {

namespace obs {
class PhaseProfiler;
class Registry;
} // namespace obs

/**
 * Serialize @p metrics as a single strict-JSON object (no trailing
 * \n). Non-finite values (e.g. runtimeExpansionMax on a run with zero
 * completed jobs) are emitted as `null` — JSON has no nan/inf tokens.
 */
std::string metricsToJson(const SimMetrics &metrics);

/**
 * Serialize an observability registry snapshot:
 * {"counters":{name:value,...},"gauges":{name:{"value":v,"unit":u}}}.
 */
std::string countersToJson(const obs::Registry &registry);

/** Serialize sampled phase wall times, phases in epoch order:
 *  {"sampledEpochs":n,"stride":k,"ns":{phase:ns,...}}. */
std::string phasesToJson(const obs::PhaseProfiler &phases);

/**
 * The zone-ambient timeline of @p metrics as JSONL (one strict-JSON
 * object per sample; empty string when sampling was off). Same format
 * obs::writeTimelineJsonlFile writes for SimConfig::obsTimelinePath.
 */
std::string timelineToJsonl(const SimMetrics &metrics);

/** Header row matching metricsToCsvRow(). */
std::string metricsCsvHeader();

/**
 * One CSV row of the headline metrics, prefixed by the given
 * scheduler/workload/load identification columns. Doubles print as
 * obs::json::appendNumber does: the shortest form that parses back
 * exactly, `null` when non-finite.
 */
std::string metricsToCsvRow(const std::string &scheduler,
                            const std::string &workload, double load,
                            const SimMetrics &metrics);

} // namespace densim

#endif // DENSIM_CORE_METRICS_IO_HH
