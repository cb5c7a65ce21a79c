/**
 * @file
 * Chrome trace_event sink.
 *
 * Collects complete ("ph":"X"), counter ("ph":"C") and metadata
 * ("ph":"M") events in memory and serializes them as the JSON object
 * format Chrome's chrome://tracing and Perfetto's legacy importer
 * accept: {"traceEvents":[...],"displayTimeUnit":"ms"}. Timestamps
 * and durations are microseconds, the trace_event convention.
 *
 * The sink is runtime-gated: record() calls on a disabled sink return
 * immediately, and the engine only constructs scopes that feed it
 * when the DENSIM_OBS build option is on (see phase_profiler.hh), so
 * a release build carries no tracing code in the hot loop at all.
 *
 * A soft event cap (default 1M events, ~100 MB of JSON) guards
 * against a paper-length run with tracing left on filling memory:
 * past the cap events are dropped and counted, and toJson() reports
 * the drop in trace metadata instead of failing.
 */

#ifndef DENSIM_OBS_TRACE_HH
#define DENSIM_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace densim::obs {
class TraceCkptAccess; // Checkpoint serializer hook, friend below.

/** In-memory Chrome trace_event buffer. */
class TraceSink
{
  public:
    /** Enable or disable recording; disabled record()s are no-ops. */
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Override the soft event cap (testing / huge captures). */
    void setEventCap(std::size_t cap) { eventCap_ = cap; }

    /** Name the trace's process row in the viewer. */
    void setProcessName(const std::string &name)
    {
        processName_ = name;
    }

    /** Record a complete event: @p ts_us .. @p ts_us + @p dur_us. */
    void addComplete(const std::string &name, const std::string &cat,
                     double ts_us, double dur_us, int tid = 0);

    /** Record a counter track sample. */
    void addCounter(const std::string &name, double ts_us,
                    double value);

    /** Events recorded (excluding dropped ones). */
    std::size_t size() const { return events_.size(); }

    /** Events discarded after the cap was hit. */
    std::size_t dropped() const { return dropped_; }

    /** Drop all recorded events and the drop count. */
    void clear();

    /** Serialize as a Chrome trace_event JSON object. */
    std::string toJson() const;

    /** toJson() to @p path; fatal() on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    // Checkpoints serialize events_ + dropped_ so a restored run's
    // trace file equals the uninterrupted run's byte for byte.
    friend class TraceCkptAccess;

    enum class Kind : std::uint8_t { Complete, CounterSample };

    struct Event
    {
        Kind kind;
        int tid;
        double tsUs;
        double durUs;   //!< Complete only.
        double value;   //!< CounterSample only.
        std::string name;
        std::string cat;
    };

    bool admit();

    bool enabled_ = false;
    std::size_t eventCap_ = 1u << 20;
    std::size_t dropped_ = 0;
    std::string processName_ = "densim";
    std::vector<Event> events_;
};

/**
 * Derive a merge-safe per-run output path: "runs/trace.json" with run
 * index 3 becomes "runs/trace-run3.json". perRunSinks
 * (core/sim_config.hh) applies it to every sink of a grid cell or a
 * fleet shard, so no two runs write the same file.
 */
std::string perRunPath(const std::string &path, std::size_t run);

} // namespace densim::obs

#endif // DENSIM_OBS_TRACE_HH
