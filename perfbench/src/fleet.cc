/**
 * @file
 * The fleet workload (fleet16_rr): a FleetSim driven window by window
 * through its streaming API on kFleetWorkers workers.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "ckpt/checkpoint.hh"
#include "fleet/fleet_sim.hh"
#include "workload/job_generator.hh"

namespace perfbench {

namespace {

using densim::FleetMetrics;
using densim::FleetSim;
using densim::SimConfig;

constexpr std::size_t kMinReps = 3;

/** Per-window host figures of one traced repetition. */
struct WindowSample
{
    std::size_t window;
    double wallNs;
    double processCpuNs;
    double mainCpuNs; //!< The calling thread: the serial section.
};

struct RepResult
{
    double setupNs = 0.0;     //!< Construction plus beginRun.
    double constructNs = 0.0; //!< Construction alone.
    FleetMetrics metrics;
    std::size_t windows = 0;
    Counters counters;
};

/**
 * One repetition on a fresh fleet. Set-up is timed on its own, pinned
 * to @p cpu when a rotation is given; the windows then run on the
 * caller's full CPU mask. A block is one exchange window; the final
 * block is the advanceWindow() call that finds no pending work plus
 * finishRun().
 */
RepResult
timedRep(const SimConfig &config, const std::string &scheduler,
         unsigned workers, Tracer *tracer, BlockTimes &times,
         std::vector<WindowSample> *samples, CpuRotation *cpus = nullptr,
         std::size_t cpu = 0)
{
    ScopedSpan rep(tracer, "rep");
    if (cpus != nullptr)
        cpus->pin(cpu);
    const Ns s0 = wallNs();
    std::unique_ptr<FleetSim> fleet;
    {
        ScopedSpan span(tracer, "construct");
        fleet = std::make_unique<FleetSim>(config, scheduler);
    }
    const Ns s1 = wallNs();
    {
        ScopedSpan span(tracer, "beginRun");
        fleet->beginRun();
    }
    const Ns s2 = wallNs();
    if (cpus != nullptr)
        cpus->unpin();
    RepResult out;
    out.setupNs = static_cast<double>(s2 - s0);
    out.constructNs = static_cast<double>(s1 - s0);
    bool more = true;
    while (more) {
        const std::size_t window = fleet->windowsRun();
        const Ns w0 = wallNs();
        const Ns c0 = processCpuNs();
        const Ns m0 = threadCpuNs();
        {
            ScopedSpan span(tracer, "advanceWindow");
            more = fleet->advanceWindow(workers);
        }
        const Ns m1 = threadCpuNs();
        if (more && samples != nullptr) {
            samples->push_back({window, static_cast<double>(wallNs() - w0),
                                static_cast<double>(processCpuNs() - c0),
                                static_cast<double>(m1 - m0)});
        }
        if (!more) {
            ScopedSpan span(tracer, "finishRun");
            out.metrics = fleet->finishRun();
        }
        times.wallNs.push_back(static_cast<double>(wallNs() - w0));
        times.cpuNs.push_back(static_cast<double>(processCpuNs() - c0));
    }
    out.windows = fleet->windowsRun();
    out.counters = fleet->observability().counters();
    return out;
}

double
ed2(const FleetMetrics &m)
{
    const double d = m.runtimeExpansion.mean();
    return m.energyJ * d * d;
}

/** ns per job of the cluster arrival stream, one window at a time. */
double
generatorNsPerJob(const SimConfig &config, std::size_t sockets,
                  CpuRotation &cpus)
{
    std::vector<double> perJob;
    for (std::size_t r = 0; r < 5; ++r) {
        cpus.pin(r);
        densim::JobGenerator gen(config.workload, config.load,
                                 static_cast<int>(sockets), config.seed);
        std::size_t jobs = 0;
        const Ns t0 = wallNs();
        for (std::size_t w = 1;; ++w) {
            const double horizon = std::min(
                static_cast<double>(w) * config.fleet.epochS,
                config.simTimeS);
            jobs += gen.nextWindow(horizon).size();
            if (horizon >= config.simTimeS)
                break;
        }
        perJob.push_back(static_cast<double>(wallNs() - t0) /
                         static_cast<double>(std::max<std::size_t>(jobs, 1)));
    }
    cpus.unpin();
    return median(perJob);
}

} // namespace

void
runFleet(const WorkloadSpec &spec, const Options &opt, CpuRotation &cpus,
         Report &report)
{
    const SimConfig config = makeConfig(spec, opt);
    const std::string scheduler = spec.scheduler;
    const unsigned workers = kFleetWorkers;
    Tracer tracer;
    Tracer *traced = opt.trace ? &tracer : nullptr;

    // Reference run, and the backlog guard on it.
    BlockTimes untimed;
    const RepResult reference =
        timedRep(config, scheduler, workers, nullptr, untimed, nullptr);
    const std::string problem =
        backlogProblem(reference.metrics.jobsUnfinished,
                       reference.metrics.runtimeExpansion.mean());
    if (!problem.empty())
        throw std::runtime_error(std::string("backlog guard: refusing "
                                             "to time ") +
                                 spec.name + " (dispatcher " +
                                 config.fleet.dispatcher + "): " + problem);
    const std::string referenceDigest =
        densim::serializeFleetMetrics(reference.metrics);

    // The checkpoint pair: a fleet left open at mid-horizon, and an
    // already-built closed fleet to restore it into.
    FleetSim open(config, scheduler);
    open.beginRun();
    const auto half = static_cast<std::size_t>(
        std::ceil(config.simTimeS / config.fleet.epochS / 2.0));
    while (open.windowsRun() < half && open.advanceWindow(workers)) {
    }
    FleetSim resumed(config, scheduler);

    // Timed repetitions, each followed by kTrips checkpoint round trips
    // pinned to the next vCPU. The fleet itself is never pinned:
    // parallelFor's workers inherit the caller's CPU mask.
    BlockMin plain;
    BlockMin withSpans;
    std::vector<double> repWallNs, setupNs, constructNs;
    std::vector<double> saveNs, restoreNs, roundTripNs;
    std::size_t imageBytes = 0;
    std::vector<WindowSample> samples;
    const long faults0 = minorFaults();
    const Ns deadline = wallNs() + static_cast<Ns>(opt.seconds * 1e9);
    for (std::size_t r = 0; r < kMinReps || wallNs() < deadline; ++r) {
        const bool tracedRep = traced != nullptr && r % 2 == 1;
        Tracer *repTracer = tracedRep ? traced : nullptr;
        if (tracedRep)
            tracer.newRun();
        BlockTimes times;
        const RepResult rep =
            timedRep(config, scheduler, workers, repTracer, times,
                     tracedRep ? &samples : nullptr, &cpus, r);
        report.attempted += rep.metrics.jobsArrived;
        report.failed += rep.metrics.jobsUnfinished;
        double wall = 0.0;
        for (double t : times.wallNs)
            wall += t;
        repWallNs.push_back(wall);
        setupNs.push_back(rep.setupNs);
        constructNs.push_back(rep.constructNs);
        report.expectSame("repeat", referenceDigest,
                          densim::serializeFleetMetrics(
                              perturbFor(rep.metrics, opt, "repeat")));
        if (!(tracedRep ? withSpans : plain).add(times))
            report.expectSame("repeat", "same block count",
                              "different block count");

        cpus.pin(r);
        for (std::size_t k = 0; k < kTrips; ++k) {
            if (r > 0 || k > 0)
                resumed.finishRun();
            const Ns t0 = wallNs();
            std::string image;
            {
                ScopedSpan span(repTracer, "saveFleet");
                image = densim::ckpt::saveFleet(open);
            }
            const Ns t1 = wallNs();
            {
                ScopedSpan span(repTracer, "restoreFleet");
                densim::ckpt::restoreFleet(resumed, image);
            }
            const Ns t2 = wallNs();
            saveNs.push_back(static_cast<double>(t1 - t0));
            restoreNs.push_back(static_cast<double>(t2 - t1));
            roundTripNs.push_back(static_cast<double>(t2 - t0));
            imageBytes = image.size();
        }
        cpus.unpin();
    }
    const double rssMb = peakRssMb();
    const double faultsPerRep = static_cast<double>(minorFaults() - faults0) /
                                static_cast<double>(repWallNs.size());

    // The last restore resumes: it must reproduce the straight run.
    while (resumed.advanceWindow(workers)) {
    }
    report.expectSame("resume", referenceDigest,
                      densim::serializeFleetMetrics(perturbFor(
                          resumed.finishRun(), opt, "resume")));

    if (opt.trace) {
        // Worker-count determinism: one worker must give the same bits.
        BlockTimes serial;
        const RepResult one =
            timedRep(config, scheduler, 1, nullptr, serial, nullptr);
        report.expectSame("workers", referenceDigest,
                          densim::serializeFleetMetrics(
                              perturbFor(one.metrics, opt, "workers")));
    }

    std::printf("%s: %zu timed repetitions (%zu untraced), horizon "
                "%.3g s, %u workers, median repetition %.2f ms\n",
                spec.name, repWallNs.size(), plain.reps(),
                config.simTimeS, workers, median(repWallNs) * 1e-6);

    const FleetMetrics &ref = reference.metrics;
    std::printf("%s: %.0f minor page faults per repetition\n", spec.name,
                faultsPerRep);
    std::printf("%s: checkpoint image %.1f KB, round trip min %.3f ms, "
                "median %.3f ms; set-up min %.3f ms, median %.3f ms\n",
                spec.name, static_cast<double>(imageBytes) / 1024.0,
                minimum(roundTripNs) * 1e-6,
                median(roundTripNs) * 1e-6, minimum(setupNs) * 1e-6,
                median(setupNs) * 1e-6);
    const double simS = config.simTimeS;
    if (!opt.trace) {
        report.add("host_ms_per_sim_s", plain.wallNs() * 1e-6 / simS,
                   "ms");
        report.add("cpu_ms_per_sim_s", plain.cpuNs() * 1e-6 / simS,
                   "ms");
        report.add("setup_s", median(setupNs) * 1e-9, "s");
        report.add("peak_rss_mb", rssMb, "MB");
        report.add("ckpt_roundtrip_ms", minimum(roundTripNs) * 1e-6,
                   "ms");
        report.add("sim.runtime_expansion", ref.runtimeExpansion.mean(),
                   "x");
        report.add("sim.ed2", ed2(ref), "J");
        report.add("sim.max_chip_c", ref.maxChipTempC, "C");
        return;
    }

    const Counters &counters = reference.counters;
    printCounters(counters);
    const double epochs = counterSum(counters, "engine.epochs");
    report.add("core.epochs", std::max(epochs, 0.0), "count");
    report.add("core.jobs", static_cast<double>(ref.jobsArrived),
               "count");
    report.add("core.decisions",
               std::max(counterSum(counters, "engine.schedDecisions"),
                        0.0),
               "count");
    // Shard epochs and submissions run inside advanceWindow(): the
    // benchmark cannot span them from outside the fleet.
    report.add("core.advance_epoch_us_p50", 0.0, "us");
    report.add("core.advance_epoch_us_p99", 0.0, "us");
    report.add("core.advance_epoch_samples", 0.0, "count");
    report.add("core.begin_run_us",
               median(tracer.durations("beginRun")) * 1e-3, "us");
    report.add("core.submit_ns_per_job", 0.0, "ns");
    report.add("core.finish_run_us",
               median(tracer.durations("finishRun")) * 1e-3, "us");
    report.add("sched.picks_per_epoch",
               perEpoch(counterSum(counters,
                                   "sched." + scheduler + ".picks"),
                        epochs),
               "1/epoch");
    report.add("power.dvfs_searches_per_epoch",
               perEpoch(counterSum(counters, "power.dvfsSearches"),
                        epochs),
               "1/epoch");
    report.add("workload.gen_ns_per_job",
               generatorNsPerJob(config, open.totalSockets(), cpus),
               "ns");

    // Window figures from the traced repetitions. The serial section
    // is the calling thread's CPU inside advanceWindow(); the rest of
    // the window's wall time is the parallel section.
    std::vector<double> windowNs;
    double serialNs = 0.0, workerCpuNs = 0.0, parallelWallNs = 0.0;
    double drainNs = 0.0, allNs = 0.0;
    const auto arrivalWindows = static_cast<std::size_t>(
        std::ceil(config.simTimeS / config.fleet.epochS - 1e-9));
    for (const WindowSample &s : samples) {
        windowNs.push_back(s.wallNs);
        serialNs += s.mainCpuNs;
        workerCpuNs += s.processCpuNs - s.mainCpuNs;
        parallelWallNs += std::max(s.wallNs - s.mainCpuNs, 0.0);
        allNs += s.wallNs;
        if (s.window >= arrivalWindows)
            drainNs += s.wallNs;
    }
    const double n = static_cast<double>(std::max<std::size_t>(
        samples.size(), 1));
    report.add("fleet.windows", static_cast<double>(reference.windows),
               "count");
    report.add("fleet.window_ms_p50", percentile(windowNs, 0.50) * 1e-6,
               "ms");
    report.add("fleet.window_ms_p90", percentile(windowNs, 0.90) * 1e-6,
               "ms");
    report.add("fleet.serial_ms_per_window", serialNs / n * 1e-6, "ms");
    report.add("fleet.worker_util",
               parallelWallNs > 0.0
                   ? workerCpuNs / (workers * parallelWallNs)
                   : 0.0,
               "fraction");
    report.add("fleet.drain_share", allNs > 0.0 ? drainNs / allNs : 0.0,
               "fraction");
    report.add("fleet.construct_ms", median(constructNs) * 1e-6, "ms");
    report.add("ckpt.save_ms", minimum(saveNs) * 1e-6, "ms");
    report.add("ckpt.restore_ms", minimum(restoreNs) * 1e-6, "ms");
    report.add("ckpt.image_kb", static_cast<double>(imageBytes) / 1024.0,
               "KB");
    report.add("trace.overhead_pct",
               100.0 * (withSpans.wallNs() / plain.wallNs() - 1.0), "%");
    probeLayers(config, scheduler, cpus, report);
    printRetiringRates(counters, epochs);
    reportSpans(tracer, opt);
}

} // namespace perfbench
