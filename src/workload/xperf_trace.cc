#include "workload/xperf_trace.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/fs.hh"
#include "util/logging.hh"

namespace densim {

namespace {

/**
 * One whole record field as a non-negative integer: digits only, as
 * config values are parsed, so a sign, an exponent or trailing junk
 * fails instead of being dropped.
 */
bool
parseField(const std::string &token, std::uint64_t &out)
{
    const char *end = token.data() + token.size();
    const auto res = std::from_chars(token.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

WorkloadSet
parseSetName(const std::string &name)
{
    for (WorkloadSet set : allWorkloadSets()) {
        if (name == workloadSetName(set))
            return set;
    }
    fatal("xperf trace: unknown workload set '", name, "'");
}

} // namespace

XperfTrace::XperfTrace(WorkloadSet trace_set) : set_(trace_set) {}

XperfTrace
XperfTrace::capture(JobGenerator &gen, std::size_t count)
{
    XperfTrace trace(gen.set());
    for (std::size_t i = 0; i < count; ++i)
        trace.append(gen.next());
    return trace;
}

void
XperfTrace::append(const Job &job)
{
    if (!jobs_.empty() && job.arrivalS < jobs_.back().arrivalS)
        fatal("xperf trace: arrivals must be non-decreasing (",
              job.arrivalS, " after ", jobs_.back().arrivalS, ")");
    if (job.benchmark >= pcmarkCatalog().size())
        fatal("xperf trace: benchmark index ", job.benchmark,
              " out of range");
    jobs_.push_back(job);
}

void
XperfTrace::save(std::ostream &out) const
{
    out << "densim-xperf 1\n";
    out << "set " << workloadSetName(set_) << "\n";
    for (const Job &job : jobs_) {
        out << static_cast<long long>(std::llround(job.arrivalS * 1e6))
            << " " << job.benchmark << " "
            << static_cast<long long>(std::llround(job.nominalS * 1e6))
            << "\n";
    }
}

void
XperfTrace::saveFile(const std::string &path) const
{
    // Atomic replace: a capture killed mid-write must never leave a
    // half-written trace where a complete one (or nothing) stood.
    std::ostringstream out;
    save(out);
    if (!atomicWriteFile(path, out.str()))
        fatal("xperf trace: cannot write '", path, "'");
}

XperfTrace
XperfTrace::load(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line) || line != "densim-xperf 1")
        fatal("xperf trace: bad magic line");
    if (!std::getline(in, line))
        fatal("xperf trace: missing set line");
    std::istringstream set_line(line);
    std::string keyword, set_name, extra;
    set_line >> keyword >> set_name;
    if (keyword != "set" || set_line >> extra)
        fatal("xperf trace: expected 'set <name>', got '", line, "'");

    XperfTrace trace(parseSetName(set_name));
    std::uint64_t id = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream record(line);
        std::string fields[3];
        record >> fields[0] >> fields[1] >> fields[2];
        std::uint64_t arrival_us = 0;
        std::uint64_t bench = 0;
        std::uint64_t duration_us = 0;
        if (!record || record >> extra ||
            !parseField(fields[0], arrival_us) ||
            !parseField(fields[1], bench) ||
            !parseField(fields[2], duration_us))
            fatal("xperf trace: malformed record '", line,
                  "' (want <arrival_us> <benchmark_index> <duration_us>, "
                  "each a non-negative integer)");
        if (duration_us == 0)
            fatal("xperf trace: non-positive duration in '", line, "'");
        Job job;
        job.id = id++;
        job.benchmark = static_cast<std::size_t>(bench);
        job.set = trace.set();
        job.arrivalS = static_cast<double>(arrival_us) * 1e-6;
        job.nominalS = static_cast<double>(duration_us) * 1e-6;
        trace.append(job);
    }
    return trace;
}

XperfTrace
XperfTrace::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("xperf trace: cannot open '", path, "'");
    return load(in);
}

} // namespace densim
