/**
 * @file
 * The two files rendered from one run's fault log: the JSONL export
 * and the Chrome trace.
 *
 * JSONL, one strict-JSON object per line:
 *   {"tS":1.0,"kind":"fanDerate","socket":null,"value":0.2}
 * with "socket" null for server-wide events.
 *
 * Chrome trace_event, the JSON object format chrome://tracing and
 * Perfetto's legacy importer accept:
 *   {"traceEvents":[...],"displayTimeUnit":"ms"}
 * holding a process-name row, one complete ("X") event per logged
 * fault on its socket's track (tid -1 for server-wide events), and
 * one counter ("C") sample per registry counter. Timestamps are
 * simulated microseconds; wall-clock time never enters it.
 *
 * The log holds at most kFaultLogCap events; the engine counts the
 * rest, the trace reports that count, and both writers warn of it.
 * Both renderings are built on obs/json.hh, so every number and
 * string obeys the same RFC 8259 discipline as the other exporters.
 */

#ifndef DENSIM_FAULT_FAULT_LOG_HH
#define DENSIM_FAULT_FAULT_LOG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_event.hh"
#include "obs/registry.hh"

namespace densim {

/** Events one run logs; later ones are only counted as dropped. */
inline constexpr std::size_t kFaultLogCap = 100000;

/** Serialize @p events as JSONL (possibly empty). */
std::string faultLogToJsonl(const std::vector<FaultEvent> &events);

/** faultLogToJsonl() to @p path; fatal() on I/O failure, and a
 *  warning when @p dropped events did not fit the log. */
void writeFaultLogFile(const std::string &path,
                       const std::vector<FaultEvent> &events,
                       std::uint64_t dropped);

/**
 * Render @p events and @p counters as a Chrome trace whose process
 * row is named @p process. A nonzero @p dropped is reported as
 * "metadata":{"densimDroppedEvents":dropped}.
 */
std::string faultLogToChromeTrace(
    const std::vector<FaultEvent> &events, std::uint64_t dropped,
    const std::string &process,
    const std::vector<obs::CounterSample> &counters);

/** faultLogToChromeTrace() plus a newline to @p path; fatal() on
 *  I/O failure, and a warning when @p dropped events are missing. */
void writeChromeTraceFile(const std::string &path,
                          const std::vector<FaultEvent> &events,
                          std::uint64_t dropped,
                          const std::string &process,
                          const std::vector<obs::CounterSample> &counters);

} // namespace densim

#endif // DENSIM_FAULT_FAULT_LOG_HH
