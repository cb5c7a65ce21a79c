#include "core/metrics_io.hh"

#include <sstream>

#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"

namespace densim {

namespace {

/**
 * Strict-JSON object writer. Tracks first-field placement itself so
 * every field goes through one path — the historical overload pair
 * disagreed about who writes the separating comma, which produced
 * objects like {,"a":1} whenever the first field was an integer. All
 * numbers go through obs::json::appendNumber, which emits `null` for
 * non-finite values instead of the bare `nan`/`inf` tokens no JSON
 * parser accepts (e.g. runtimeExpansionMax is -inf on a run that
 * completed zero jobs).
 */
class ObjectWriter
{
  public:
    void
    field(const char *name, double value)
    {
        key(name);
        obs::json::appendNumber(out_, value);
    }

    void
    field(const char *name, std::size_t value)
    {
        key(name);
        out_ += std::to_string(value);
    }

    std::string
    finish()
    {
        out_ += "}";
        return std::move(out_);
    }

  private:
    void
    key(const char *name)
    {
        out_ += first_ ? "\"" : ",\"";
        first_ = false;
        out_ += name;
        out_ += "\":";
    }

    std::string out_ = "{";
    bool first_ = true;
};

} // namespace

std::string
metricsToJson(const SimMetrics &m)
{
    ObjectWriter w;
    w.field("jobsArrived", m.jobsArrived);
    w.field("jobsCompleted", m.jobsCompleted);
    w.field("jobsUnfinished", m.jobsUnfinished);
    w.field("migrations", m.migrations);
    w.field("runtimeExpansionMean", m.runtimeExpansion.mean());
    w.field("runtimeExpansionMax", m.runtimeExpansion.max());
    w.field("serviceExpansionMean", m.serviceExpansion.mean());
    w.field("queueDelayMeanS", m.queueDelayS.mean());
    w.field("energyJ", m.energyJ);
    w.field("ed2", m.ed2());
    w.field("measuredS", m.measuredS);
    w.field("makespanS", m.makespanS);
    w.field("avgRelFreq", m.avgRelFreq());
    w.field("boostFraction", m.boostFraction());
    w.field("workFront", m.workFraction(m.front));
    w.field("workBack", m.workFraction(m.back));
    w.field("workEven", m.workFraction(m.even));
    w.field("freqFront", m.front.avgRelFreq());
    w.field("freqBack", m.back.avgRelFreq());
    w.field("chipTempMeanC", m.chipTempC.mean());
    w.field("maxChipTempC", m.maxChipTempC);
    return w.finish();
}

std::string
countersToJson(const obs::Registry &registry)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &c : registry.counters()) {
        if (!first)
            out += ",";
        first = false;
        obs::json::appendString(out, c.name);
        out += ":";
        out += std::to_string(c.value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &g : registry.gauges()) {
        if (!first)
            out += ",";
        first = false;
        obs::json::appendString(out, g.name);
        out += ":{\"value\":";
        obs::json::appendNumber(out, g.value);
        out += ",\"unit\":";
        obs::json::appendString(out, g.unit);
        out += "}";
    }
    out += "}}";
    return out;
}

std::string
phasesToJson(const obs::PhaseProfiler &phases)
{
    std::string out = "{\"sampledEpochs\":";
    out += std::to_string(phases.sampledEpochs());
    out += ",\"stride\":";
    out += std::to_string(obs::PhaseProfiler::kStride);
    out += ",\"ns\":{";
    for (const obs::Phase phase : obs::kPhases) {
        obs::json::appendString(out, obs::phaseName(phase));
        out += ':';
        out += std::to_string(phases.ns(phase));
        out += ',';
    }
    out.back() = '}';
    return out + "}";
}

std::string
timelineToJsonl(const SimMetrics &m)
{
    std::ostringstream os;
    obs::writeTimelineJsonl(os, m.timelineS, m.zoneAmbientC);
    return os.str();
}

std::string
metricsCsvHeader()
{
    return "scheduler,workload,load,jobsCompleted,runtimeExpansion,"
           "serviceExpansion,energyJ,ed2,avgRelFreq,boostFraction,"
           "workFront,workEven,freqFront,freqBack,maxChipTempC,"
           "migrations";
}

std::string
metricsToCsvRow(const std::string &scheduler,
                const std::string &workload, double load,
                const SimMetrics &m)
{
    // Doubles in the shortest form that parses back exactly, as in
    // the JSON exporters.
    std::string row = scheduler;
    const auto cell = [&row](const std::string &text) {
        row += ',';
        row += text;
    };
    const auto number = [&row](double v) {
        row += ',';
        obs::json::appendNumber(row, v);
    };
    cell(workload);
    number(load);
    cell(std::to_string(m.jobsCompleted));
    for (const double v :
         {m.runtimeExpansion.mean(), m.serviceExpansion.mean(),
          m.energyJ, m.ed2(), m.avgRelFreq(), m.boostFraction(),
          m.workFraction(m.front), m.workFraction(m.even),
          m.front.avgRelFreq(), m.back.avgRelFreq(), m.maxChipTempC})
        number(v);
    cell(std::to_string(m.migrations));
    return row;
}

} // namespace densim
