/**
 * @file
 * Xperf-style job traces.
 *
 * The paper captures PCMark activity with the Windows Xperf tool and
 * replays it through the simulator (Sec. III-A). densim's equivalent
 * is a plain-text trace of job arrivals (microsecond timestamps,
 * benchmark id, nominal duration) that can be captured from a
 * JobGenerator and replayed into the simulator, so experiments can be
 * reproduced from a fixed artifact rather than a seed.
 *
 * Format (one record per line, '#' comments allowed):
 *
 *     densim-xperf 1
 *     set Computation
 *     <arrival_us> <benchmark_index> <duration_us>
 *
 * Each record field is a whole non-negative decimal integer, and a
 * line holds nothing more; anything else is one fatal error that
 * quotes the line.
 */

#ifndef DENSIM_WORKLOAD_XPERF_TRACE_HH
#define DENSIM_WORKLOAD_XPERF_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/job_generator.hh"

namespace densim {

/** A captured job trace. */
class XperfTrace
{
  public:
    /** Empty trace for @p set. */
    explicit XperfTrace(WorkloadSet set);

    /** Capture @p count jobs from a generator. */
    static XperfTrace capture(JobGenerator &gen, std::size_t count);

    /** Parse from a stream; fails on malformed input. */
    static XperfTrace load(std::istream &in);

    /** Parse from a file path. */
    static XperfTrace loadFile(const std::string &path);

    /** Serialize to a stream. */
    void save(std::ostream &out) const;

    /** Serialize to a file path. */
    void saveFile(const std::string &path) const;

    /** Append one job (arrival must not precede the previous one). */
    void append(const Job &job);

    const std::vector<Job> &jobs() const { return jobs_; }
    WorkloadSet set() const { return set_; }

  private:
    WorkloadSet set_;
    std::vector<Job> jobs_;
};

} // namespace densim

#endif // DENSIM_WORKLOAD_XPERF_TRACE_HH
