#include "fault/fault_log.hh"

#include "obs/json.hh"
#include "util/fs.hh"
#include "util/logging.hh"

namespace densim {
namespace {

/** Atomic replace: a reader must see a complete file or the
 *  previous one, never a torn write. */
void
writeRendered(const std::string &path, const std::string &text,
              std::uint64_t dropped, const char *what)
{
    if (!atomicWriteFile(path, text))
        fatal(what, ": cannot write '", path, "'");
    if (dropped > 0)
        warn(what, " '", path, "' misses ", dropped,
             " fault events past the ", kFaultLogCap, "-event cap");
}

} // namespace

std::string
faultLogToJsonl(const std::vector<FaultEvent> &events)
{
    std::string out;
    for (const FaultEvent &e : events) {
        out += "{\"tS\":";
        obs::json::appendNumber(out, e.timeS);
        out += ",\"kind\":";
        obs::json::appendString(out, faultKindName(e.kind));
        out += ",\"socket\":";
        if (e.socket == kFaultNoSocket)
            out += "null";
        else
            obs::json::appendNumber(out, static_cast<double>(e.socket));
        out += ",\"value\":";
        obs::json::appendNumber(out, e.value);
        out += "}\n";
    }
    return out;
}

void
writeFaultLogFile(const std::string &path,
                  const std::vector<FaultEvent> &events,
                  std::uint64_t dropped)
{
    writeRendered(path, faultLogToJsonl(events), dropped, "fault log");
}

std::string
faultLogToChromeTrace(const std::vector<FaultEvent> &events,
                      std::uint64_t dropped, const std::string &process,
                      const std::vector<obs::CounterSample> &counters)
{
    std::string out;
    out.reserve(128 + (events.size() + counters.size()) * 96);
    // The process-name metadata event first, so the viewer labels
    // the row.
    out += "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"name\":\"process_name\",\"args\":{\"name\":";
    obs::json::appendString(out, process);
    out += "}}";
    for (const FaultEvent &e : events) {
        out += ",{\"ph\":\"X\",\"pid\":0,\"tid\":";
        out += e.socket == kFaultNoSocket ? std::string("-1")
                                          : std::to_string(e.socket);
        out += ",\"ts\":";
        obs::json::appendNumber(out, e.timeS * 1e6);
        out += ",\"name\":";
        obs::json::appendString(out, faultKindName(e.kind));
        out += ",\"dur\":0,\"cat\":\"fault\"}";
    }
    // End-of-run counter tracks: one sample per counter, so the
    // viewer shows the final tallies beside the fault spans.
    for (const obs::CounterSample &c : counters) {
        out += ",{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,\"name\":";
        obs::json::appendString(out, c.name);
        out += ",\"args\":{\"value\":";
        obs::json::appendNumber(out, static_cast<double>(c.value));
        out += "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"";
    if (dropped > 0) {
        out += ",\"metadata\":{\"densimDroppedEvents\":";
        out += std::to_string(dropped);
        out += "}";
    }
    out += "}";
    return out;
}

void
writeChromeTraceFile(const std::string &path,
                     const std::vector<FaultEvent> &events,
                     std::uint64_t dropped, const std::string &process,
                     const std::vector<obs::CounterSample> &counters)
{
    writeRendered(path,
                  faultLogToChromeTrace(events, dropped, process,
                                        counters) +
                      "\n",
                  dropped, "trace");
}

} // namespace densim
