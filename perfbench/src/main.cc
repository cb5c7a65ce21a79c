/**
 * @file
 * densbench: one seeded densim workload, timed and checked.
 *
 *   densbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * prints host diagnostics, the metric table and, as its last line, one
 * JSON object {correct, attempted, failed, metrics}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones
 * (perfbench/README.md lists both). Exit status: 0 when every output
 * check passed and no job was left unfinished, 1 otherwise, 2 on a
 * usage error, 3 when the run was refused or aborted (no JSON line).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"
#include "util/logging.hh"

namespace {

using perfbench::Options;
using perfbench::Report;
using perfbench::WorkloadSpec;

// Computation set, socketTauS = 3 and a warm start throughout
// (makeConfig). Horizons are long enough that the simulated figures of
// merit move little from seed to seed.
const WorkloadSpec kWorkloads[] = {
    // Bound by the scheduler: CP scoring and placement DVFS.
    {"cp_load70", "CP", 0.7, 3.0, 0},
    // Bound by the fixed per-epoch thermal and power pass.
    {"cf_load30", "CF", 0.3, 4.0, 0},
    // 16 chassis in lockstep windows, round-robin dispatch.
    {"fleet16_rr", "CF", 0.7, 1.0, 16},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "densbench: %s\n"
                 "usage: densbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "  [--spans FILE] [--horizon S] [--perturb CHECK] "
                 "[--dispatcher NAME]\n"
                 "workloads:",
                 why);
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            opt.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--spans") {
            opt.spansPath = value;
        } else if (flag == "--horizon") {
            opt.horizonS = std::strtod(value.c_str(), &end);
        } else if (flag == "--perturb") {
            opt.perturb = value;
        } else if (flag == "--dispatcher") {
            opt.dispatcher = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    if (!(opt.seconds > 0.0) || opt.horizonS < 0.0)
        usage("--seconds must be positive");
    return opt;
}

void
printResult(const Report &report)
{
    std::printf("%-32s %20s  %s\n", "metric", "value", "unit");
    for (const auto &m : report.metrics)
        std::printf("%-32s %20.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("attempted %llu operations (simulated jobs), failed %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));

    bool finite = true;
    std::string metrics;
    for (const auto &m : report.metrics) {
        finite = finite && std::isfinite(m.value);
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
                   "\": {\"value\": " + value + ", \"unit\": \"" +
                   m.unit + "\"}";
    }
    const bool correct = finite && report.failed == 0;
    const std::string json =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(report.attempted) +
        ", \"failed\": " + std::to_string(report.failed) +
        ", \"metrics\": {" + metrics + "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const auto &w : kWorkloads) {
        if (opt.workload == w.name)
            spec = &w;
    }
    if (spec == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    // Misuse inside densim surfaces as an exception, not an exit.
    densim::ScopedFatalThrows fatalThrows;
    try {
        perfbench::CpuRotation cpus;
        perfbench::printHost(cpus, "start");
        Report report;
        if (spec->chassis > 0)
            perfbench::runFleet(*spec, opt, cpus, report);
        else
            perfbench::runChassis(*spec, opt, cpus, report);
        perfbench::printHost(cpus, "end");
        printResult(report);
        std::fflush(stdout);
        return report.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "densbench: %s\n", e.what());
        return 3;
    }
}
