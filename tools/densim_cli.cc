/**
 * @file
 * densim — the command-line driver.
 *
 * Subcommands:
 *   run            one simulation; table or --json output
 *   sweep          scheduler x load grid; table or --csv output
 *   trace-capture  generate and persist an Xperf-style job trace
 *   trace-replay   run a persisted trace under a policy
 *   topology       dump the configured server geometry
 *   config-dump    print every configuration key with its value
 *
 * Common flags: --config FILE (key = value, see config-dump for the
 * vocabulary), --set key=value (repeatable, applied after --config),
 * plus the convenience flags listed in usage().
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/run_driver.hh"
#include "core/config_io.hh"
#include "core/dense_server_sim.hh"
#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/fleet_sim.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "sched/factory.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/xperf_trace.hh"

using namespace densim;

namespace {

void
usage()
{
    std::cout <<
        "usage: densim <command> [flags]\n"
        "\n"
        "commands:\n"
        "  run            simulate once and report metrics\n"
        "  sweep          grid of schedulers x loads\n"
        "  trace-capture  write an Xperf-style job trace\n"
        "  trace-replay   simulate a persisted trace\n"
        "  topology       print the configured server geometry\n"
        "  config-dump    print the effective configuration\n"
        "\n"
        "common flags:\n"
        "  --config FILE        load key = value configuration\n"
        "  --set key=value      override one key (repeatable)\n"
        "  --scheduler NAME     policy (default CP); sweep accepts\n"
        "                       --schedulers A,B,C\n"
        "  --workload NAME      Computation | GP | Storage\n"
        "  --load X             target utilization (0,1]\n"
        "  --loads A,B,...      sweep loads\n"
        "  --seed N             RNG seed\n"
        "  --set simTimeS=T     arrival window, s (default 6)\n"
        "  --set warmupS=W      unmeasured warmup, s (default\n"
        "                       min(3, simTimeS / 2))\n"
        "  --json / --csv       machine-readable output\n"
        "  --counters           report counters, gauges, phase times\n"
        "  --trace FILE         trace path for trace-* commands\n"
        "  --jobs N             jobs to capture (trace-capture)\n"
        "  --threads N          sweep/fleet worker threads, the\n"
        "                       calling thread included (0 = all\n"
        "                       cores; never more than cells or\n"
        "                       chassis)\n"
        "\n"
        "fleet-scale runs (DESIGN.md Sec. 15):\n"
        "  --fleet N            simulate N chassis shards in lockstep\n"
        "                       (shorthand for --set fleet.chassis=N);\n"
        "                       results are bit-identical for any\n"
        "                       --threads value\n"
        "  --set fleet.dispatcher=P   roundrobin | headroom |\n"
        "                             locality | power\n"
        "  --set fleet.epochS=T       exchange window, simulated s\n"
        "  --set fleet.powerBudgetW=W fleet budget for the power\n"
        "                             dispatcher (0 = unlimited)\n"
        "  --set fleet.seed=N         pin the fleet RNG domain\n"
        "\n"
        "keep-going sweeps (DESIGN.md Sec. 11):\n"
        "  --keep-going         capture per-run failures and finish\n"
        "                       the remaining cells; exit 1 if any\n"
        "                       cell failed\n"
        "  --summary FILE       write the sweep-summary JSON (totals\n"
        "                       plus per-run status and error)\n"
        "  --resume FILE        digest manifest: completed cells are\n"
        "                       skipped, finished cells appended\n"
        "\n"
        "fault injection (DESIGN.md Sec. 11):\n"
        "  --set fault.fanFailS=T        fan derate at T s (speed cap\n"
        "                                fault.fanSpeedFrac)\n"
        "  --set fault.sensorStuckCount=N  freeze N sensors\n"
        "  --set fault.socketFailCount=N   kill N sockets outright\n"
        "  --set fault.logPath=F         applied + response events as\n"
        "                                JSONL\n"
        "\n"
        "crash-safe checkpointing (DESIGN.md Sec. 16):\n"
        "  --checkpoint FILE    write checkpoints to FILE (atomic\n"
        "                       replace); SIGINT/SIGTERM checkpoint,\n"
        "                       flush the obs sinks and exit 3\n"
        "  --ckpt-every S       also checkpoint every S simulated\n"
        "                       seconds (0 = only on signal)\n"
        "  --restore FILE       resume a run from FILE; the resumed\n"
        "                       run is bit-identical to the\n"
        "                       uninterrupted one\n"
        "  --fork ID            with --restore: reseed the RNG\n"
        "                       streams via domainSeed(seed, ID) —\n"
        "                       same state, divergent future\n"
        "  --ckpt-dir DIR       sweep: per-cell checkpoints named by\n"
        "                       run digest in DIR; interrupted cells\n"
        "                       resume mid-run on the next sweep\n"
        "                       (best with --keep-going --resume)\n"
        "\n"
        "observability (DESIGN.md Sec. 10):\n"
        "  --set obs.tracePath=F     write a Chrome trace_event JSON\n"
        "                            of the fault spans and counter\n"
        "                            tracks (chrome://tracing or\n"
        "                            Perfetto)\n"
        "  --set obs.timelinePath=F  write the zone-ambient timeline\n"
        "                            as JSONL; needs --set\n"
        "                            timelineSampleS=X (X > 0)\n";
}

struct Cli
{
    std::string command;
    SimConfig config;
    std::string scheduler = "CP";
    std::vector<std::string> schedulers;
    std::vector<double> loads;
    std::string tracePath;
    std::size_t traceJobs = 100000;
    unsigned threads = 0;
    bool json = false;
    bool csv = false;
    bool counters = false;
    bool keepGoing = false;
    std::string summaryPath;
    std::string resumePath;
    std::string restorePath;
    std::string ckptDir;
    bool fork = false;
    std::uint64_t forkId = 0;
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream stream(s);
    std::string item;
    while (std::getline(stream, item, ','))
        out.push_back(item);
    return out;
}

/** Value of the count flag @p flag: digits only, at most @p max. */
std::uint64_t
parseCount(const std::string &flag, const std::string &value,
           std::uint64_t max)
{
    std::uint64_t out = 0;
    const char *end = value.data() + value.size();
    const auto res = std::from_chars(value.data(), end, out);
    if (res.ec != std::errc() || res.ptr != end || out > max)
        fatal("flag '", flag, "' needs a non-negative integer up to ",
              max, ", got '", value, "'");
    return out;
}

Cli
parseArgs(int argc, char **argv)
{
    Cli cli;
    if (argc < 2) {
        usage();
        std::exit(1);
    }
    cli.command = argv[1];
    if (cli.command == "--help" || cli.command == "-h") {
        usage();
        std::exit(0);
    }
    // Bench-friendly defaults: scaled tau, short horizon. The warmup
    // stays NaN (a given value is always finite) until every flag is
    // read, then follows the horizon: min(3 s, simTimeS / 2).
    cli.config.socketTauS = 3.0;
    cli.config.simTimeS = 6.0;
    cli.config.warmupS = std::numeric_limits<double>::quiet_NaN();

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            fatal("flag '", argv[i], "' needs a value");
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--config") {
            loadConfigFile(cli.config, need(i));
        } else if (flag == "--set") {
            const std::string kv = need(i);
            const auto eq = kv.find('=');
            if (eq == std::string::npos)
                fatal("--set needs key=value, got '", kv, "'");
            applyConfigKey(cli.config, kv.substr(0, eq),
                           kv.substr(eq + 1));
        } else if (flag == "--scheduler") {
            cli.scheduler = need(i);
        } else if (flag == "--schedulers") {
            cli.schedulers = splitCommas(need(i));
        } else if (flag == "--workload") {
            applyConfigKey(cli.config, "workload", need(i));
        } else if (flag == "--load") {
            applyConfigKey(cli.config, "load", need(i));
        } else if (flag == "--loads") {
            for (const std::string &item : splitCommas(need(i))) {
                SimConfig probe;
                applyConfigKey(probe, "load", item);
                cli.loads.push_back(probe.load);
            }
        } else if (flag == "--seed") {
            applyConfigKey(cli.config, "seed", need(i));
        } else if (flag == "--trace") {
            cli.tracePath = need(i);
        } else if (flag == "--jobs") {
            cli.traceJobs = static_cast<std::size_t>(parseCount(
                flag, need(i), std::numeric_limits<std::size_t>::max()));
        } else if (flag == "--threads") {
            cli.threads = static_cast<unsigned>(parseCount(
                flag, need(i), std::numeric_limits<unsigned>::max()));
        } else if (flag == "--fleet") {
            applyConfigKey(cli.config, "fleet.chassis", need(i));
        } else if (flag == "--checkpoint") {
            applyConfigKey(cli.config, "ckpt.path", need(i));
        } else if (flag == "--ckpt-every") {
            applyConfigKey(cli.config, "ckpt.everyS", need(i));
        } else if (flag == "--restore") {
            cli.restorePath = need(i);
        } else if (flag == "--fork") {
            cli.fork = true;
            cli.forkId = parseCount(
                flag, need(i), std::numeric_limits<std::uint64_t>::max());
        } else if (flag == "--ckpt-dir") {
            cli.ckptDir = need(i);
        } else if (flag == "--keep-going") {
            cli.keepGoing = true;
        } else if (flag == "--summary") {
            cli.summaryPath = need(i);
        } else if (flag == "--resume") {
            cli.resumePath = need(i);
        } else if (flag == "--json") {
            cli.json = true;
        } else if (flag == "--csv") {
            cli.csv = true;
        } else if (flag == "--counters") {
            cli.counters = true;
        } else if (flag == "--help" || flag == "-h") {
            usage();
            std::exit(0);
        } else {
            fatal("unknown flag '", flag, "' (try --help)");
        }
    }
    if (std::isnan(cli.config.warmupS))
        cli.config.warmupS = std::min(3.0, cli.config.simTimeS / 2.0);
    return cli;
}

void
printRunTable(const std::string &scheduler, const SimConfig &config,
              const SimMetrics &m)
{
    TableWriter table({"Metric", "Value"});
    table.newRow().cell("scheduler").cell(scheduler);
    table.newRow().cell("workload").cell(
        workloadSetName(config.workload));
    table.newRow().cell("load").cell(config.load, 2);
    table.newRow().cell("jobs completed").cell(
        static_cast<long long>(m.jobsCompleted));
    table.newRow().cell("runtime expansion").cell(
        m.runtimeExpansion.mean(), 4);
    table.newRow().cell("service expansion").cell(
        m.serviceExpansion.mean(), 4);
    table.newRow().cell("mean queue delay (ms)").cell(
        1e3 * m.queueDelayS.mean(), 3);
    table.newRow().cell("avg relative frequency").cell(m.avgRelFreq(),
                                                       3);
    table.newRow().cell("boost fraction").cell(m.boostFraction(), 3);
    table.newRow().cell("energy (kJ)").cell(m.energyJ / 1e3, 2);
    table.newRow().cell("ED^2 (MJ s^2)").cell(m.ed2() / 1e6, 3);
    table.newRow().cell("work in front half").cell(
        m.workFraction(m.front), 3);
    table.newRow().cell("work on even zones").cell(
        m.workFraction(m.even), 3);
    table.newRow().cell("max chip temp (C)").cell(m.maxChipTempC, 1);
    table.newRow().cell("migrations").cell(
        static_cast<long long>(m.migrations));
    table.print(std::cout);
}

void
printObsTables(const obs::Registry &registry,
               const obs::PhaseProfiler &phases)
{
    TableWriter table({"Counter", "Value"});
    for (const auto &c : registry.counters())
        table.newRow().cell(c.name).cell(
            static_cast<long long>(c.value));
    table.print(std::cout);
    TableWriter gauges({"Gauge", "Value", "Unit"});
    for (const auto &g : registry.gauges())
        gauges.newRow().cell(g.name).cell(g.value, 3).cell(g.unit);
    gauges.print(std::cout);
    TableWriter timers({"Phase", "Sampled ns"});
    timers.newRow()
        .cell("epochs timed (1 in " +
              std::to_string(obs::PhaseProfiler::kStride) + ")")
        .cell(static_cast<long long>(phases.sampledEpochs()));
    for (const obs::Phase phase : obs::kPhases)
        timers.newRow().cell(obs::phaseName(phase)).cell(
            static_cast<long long>(phases.ns(phase)));
    timers.print(std::cout);
}

void
report(const Cli &cli, const DenseServerSim &sim, const SimMetrics &m)
{
    // Assemble the full report before emitting a single byte, so a
    // mid-serialization failure can never leave a truncated JSON
    // document (or half a table) on stdout.
    std::ostringstream out;
    if (cli.json) {
        if (cli.counters) {
            out << "{\"metrics\":" << metricsToJson(m) << ",\"obs\":"
                << countersToJson(sim.observability()) << ",\"phases\":"
                << phasesToJson(sim.phaseProfile()) << "}\n";
        } else {
            out << metricsToJson(m) << "\n";
        }
        std::cout << out.str();
        return;
    }
    printRunTable(cli.scheduler, sim.config(), m);
    if (cli.counters)
        printObsTables(sim.observability(), sim.phaseProfile());
}

void
printFleetTable(const Cli &cli, const FleetSim &fleet,
                const FleetMetrics &m)
{
    TableWriter table({"Metric", "Value"});
    table.newRow().cell("chassis").cell(
        static_cast<long long>(m.chassis));
    table.newRow().cell("dispatcher").cell(fleet.dispatcher().name());
    table.newRow().cell("scheduler").cell(cli.scheduler);
    table.newRow().cell("jobs dispatched").cell(
        static_cast<long long>(m.jobsDispatched));
    table.newRow().cell("jobs completed").cell(
        static_cast<long long>(m.jobsCompleted));
    table.newRow().cell("jobs unfinished").cell(
        static_cast<long long>(m.jobsUnfinished));
    table.newRow().cell("runtime expansion").cell(
        m.runtimeExpansion.mean(), 4);
    table.newRow().cell("mean queue delay (ms)").cell(
        1e3 * m.queueDelayS.mean(), 3);
    table.newRow().cell("energy (kJ)").cell(m.energyJ / 1e3, 2);
    table.newRow().cell("makespan (s)").cell(m.makespanS, 3);
    table.newRow().cell("max chip temp (C)").cell(m.maxChipTempC, 1);
    table.print(std::cout);

    TableWriter shards({"Shard", "Dispatched", "Completed",
                        "Energy (kJ)", "Max temp (C)"});
    for (std::size_t s = 0; s < m.perShard.size(); ++s) {
        shards.newRow()
            .cell(static_cast<long long>(s))
            .cell(static_cast<long long>(m.dispatchedPerShard[s]))
            .cell(static_cast<long long>(m.perShard[s].jobsCompleted))
            .cell(m.perShard[s].energyJ / 1e3, 2)
            .cell(m.perShard[s].maxChipTempC, 1);
    }
    shards.print(std::cout);
}

/** Exit code for "checkpointed and stopped by a signal". */
constexpr int kExitCheckpointed = 3;

/**
 * SIGINT/SIGTERM become a graceful stop (checkpoint, flush, exit 3)
 * only for a run that checkpoints or was restored; any other run
 * keeps the default handlers. Armed before the engine or fleet is
 * built: a stop during set-up (loading a trace, a restore) is seen
 * by the drive loop's first poll, which checkpoints the run at its
 * start.
 */
void
armStopSignals(const Cli &cli)
{
    if (!cli.config.ckptPath.empty() || !cli.restorePath.empty())
        ckpt::installSignalHandlers();
}

ckpt::RestoreMode
restoreMode(const Cli &cli)
{
    return cli.fork ? ckpt::RestoreMode::Fork
                    : ckpt::RestoreMode::Exact;
}

int
cmdFleetRun(const Cli &cli)
{
    FleetSim fleet(cli.config, cli.scheduler);
    if (cli.restorePath.empty())
        fleet.beginRun();
    else
        ckpt::restoreFleet(fleet,
                           ckpt::readCheckpointFile(cli.restorePath),
                           restoreMode(cli), cli.forkId);
    const ckpt::DriveOutcome done = ckpt::driveFleet(fleet, cli.threads);
    if (!done.completed) {
        std::cerr << "densim: stopped at window " << fleet.windowsRun()
                  << (done.checkpointed ? "; checkpoint written to '" +
                                              cli.config.ckptPath + "'"
                                        : "")
                  << "\n";
        return kExitCheckpointed;
    }
    const FleetMetrics m = fleet.finishRun();

    std::ostringstream out;
    if (cli.json) {
        if (cli.counters) {
            out << "{\"fleet\":" << fleetMetricsToJson(m)
                << ",\"obs\":"
                << countersToJson(fleet.observability())
                << ",\"phases\":" << phasesToJson(fleet.phaseProfile())
                << "}\n";
        } else {
            out << fleetMetricsToJson(m) << "\n";
        }
        std::cout << out.str();
        return 0;
    }
    printFleetTable(cli, fleet, m);
    if (cli.counters)
        printObsTables(fleet.observability(), fleet.phaseProfile());
    return 0;
}

/**
 * Open the run of @p sim with @p begin, or restore it from
 * --restore; drive it to its end or to a stop; report it.
 */
template <class Begin>
int
runEngine(const Cli &cli, DenseServerSim &sim, Begin begin)
{
    if (cli.restorePath.empty())
        begin();
    else
        ckpt::restoreEngine(sim,
                            ckpt::readCheckpointFile(cli.restorePath),
                            restoreMode(cli), cli.forkId);
    const ckpt::DriveOutcome done = ckpt::driveEngine(sim);
    if (!done.completed) {
        std::cerr << "densim: stopped at t=" << done.nowS << "s"
                  << (done.checkpointed ? "; checkpoint written to '" +
                                              cli.config.ckptPath + "'"
                                        : "")
                  << "\n";
        return kExitCheckpointed;
    }
    report(cli, sim, sim.finishRun());
    return 0;
}

int
cmdRun(const Cli &cli)
{
    armStopSignals(cli);
    if (cli.config.fleet.enabled())
        return cmdFleetRun(cli);
    DenseServerSim sim(cli.config, makeScheduler(cli.scheduler));
    return runEngine(cli, sim, [&] { sim.beginGeneratedRun(); });
}

int
cmdSweep(const Cli &cli)
{
    const std::vector<std::string> schedulers =
        cli.schedulers.empty()
            ? std::vector<std::string>{"CF", "CP"}
            : cli.schedulers;
    const std::vector<double> loads =
        cli.loads.empty() ? std::vector<double>{0.3, 0.5, 0.7, 0.9}
                          : cli.loads;

    SweepOptions options;
    options.threads = cli.threads;
    options.keepGoing = cli.keepGoing;
    options.summaryPath = cli.summaryPath;
    options.resumePath = cli.resumePath;
    if (!cli.ckptDir.empty()) {
        // Checkpoint-aware cells: a SIGINT/SIGTERM makes every
        // in-flight cell checkpoint itself and report "not done"; the
        // next identical sweep resumes each mid-run.
        const std::string dir = cli.ckptDir;
        options.cellRunner = [dir](const RunSpec &spec) {
            return ckpt::runCellCheckpointed(spec, dir);
        };
        ckpt::installSignalHandlers();
    }
    const std::vector<RunOutcome> outcomes = runAllOutcomes(
        makeGrid(schedulers, cli.config.workload, loads, cli.config),
        options);
    std::size_t failed = 0;
    for (const RunOutcome &o : outcomes)
        failed += o.ok ? 0 : 1;
    if (ckpt::stopRequested()) {
        std::cerr << "densim: sweep stopped by signal; " << failed
                  << " of " << outcomes.size()
                  << " cells checkpointed or pending in '" << cli.ckptDir
                  << "'\n";
        return kExitCheckpointed;
    }

    // The whole report is buffered so a failure cannot truncate it.
    std::ostringstream out;
    if (cli.csv) {
        out << metricsCsvHeader() << "\n";
        for (const RunOutcome &o : outcomes) {
            if (o.ok && !o.skipped) {
                out << metricsToCsvRow(
                           o.spec.scheduler,
                           workloadSetName(o.spec.config.workload),
                           o.spec.config.load, o.metrics)
                    << "\n";
            }
        }
    } else if (cli.keepGoing || !cli.summaryPath.empty() ||
               !cli.resumePath.empty() || !cli.ckptDir.empty()) {
        TableWriter table({"Run", "Scheme", "Load", "Status", "Detail"});
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const RunOutcome &o = outcomes[i];
            table.newRow()
                .cell(static_cast<long long>(i))
                .cell(o.spec.scheduler)
                .cell(o.spec.config.load, 2)
                .cell(o.skipped ? "skipped" : (o.ok ? "ok" : "FAILED"))
                .cell(o.error);
        }
        table.print(out);
    } else {
        auto index = indexResults({outcomes.begin(), outcomes.end()});
        std::vector<std::string> headers{"Scheme"};
        for (double load : loads)
            headers.push_back(formatFixed(100 * load, 0) + "%");
        TableWriter table(std::move(headers));
        for (const std::string &scheduler : schedulers) {
            table.newRow().cell(scheduler);
            for (double load : loads) {
                table.cell(
                    relativePerformance(index[scheduler][load],
                                        index[schedulers[0]][load]),
                    3);
            }
        }
        out << "performance vs " << schedulers[0] << ":\n";
        table.print(out);
    }
    std::cout << out.str();
    if (failed != 0) {
        std::cerr << "densim: sweep: " << failed << " of "
                  << outcomes.size() << " runs failed\n";
        return 1;
    }
    return 0;
}

int
cmdTraceCapture(const Cli &cli)
{
    if (cli.tracePath.empty())
        fatal("trace-capture needs --trace FILE");
    JobGenerator gen(cli.config.workload, cli.config.load,
                     static_cast<int>(
                         ServerTopology(cli.config.topo).numSockets()),
                     cli.config.seed);
    XperfTrace trace = XperfTrace::capture(gen, cli.traceJobs);
    trace.saveFile(cli.tracePath);
    std::cout << "wrote " << trace.jobs().size() << " jobs ("
              << workloadSetName(trace.set()) << ", load "
              << cli.config.load << ") to " << cli.tracePath << "\n";
    return 0;
}

int
cmdTraceReplay(const Cli &cli)
{
    if (cli.tracePath.empty())
        fatal("trace-replay needs --trace FILE");
    armStopSignals(cli);
    // A restore reads only the header, whose set enters the config
    // digest: the checkpoint holds every job left to replay.
    const XperfTrace trace =
        XperfTrace::loadFile(cli.tracePath, !cli.restorePath.empty());
    SimConfig config = cli.config;
    config.workload = trace.set();
    DenseServerSim sim(config, makeScheduler(cli.scheduler));
    return runEngine(cli, sim, [&] {
        // The whole list goes in up front, and a checkpoint keeps its
        // unconsumed tail: the trace is input, nothing derives it.
        std::vector<Job> jobs;
        for (const Job &job : trace.jobs()) {
            if (job.arrivalS < config.simTimeS)
                jobs.push_back(job);
        }
        sim.beginRun();
        sim.submitJobs(jobs);
        sim.closeArrivals();
    });
}

int
cmdTopology(const Cli &cli)
{
    const ServerTopology topo(cli.config.topo);
    std::cout << "sockets: " << topo.numSockets() << " ("
              << topo.numRows() << " rows x " << topo.socketsPerRow()
              << ")\nzones per row: " << topo.zonesPerRow()
              << ", degree of coupling: " << topo.degreeOfCoupling()
              << "\n";
    TableWriter table({"Zone", "Pos (in)", "Sink", "Half"});
    for (int zone = 1; zone <= topo.zonesPerRow(); ++zone) {
        const std::size_t probe = topo.socketsInZone(zone).front();
        table.newRow()
            .cell(static_cast<long long>(zone))
            .cell(topo.streamPosOf(probe), 1)
            .cell(topo.sinkOf(probe).name)
            .cell(topo.inFrontHalf(probe) ? "front" : "back");
    }
    table.print(std::cout);
    return 0;
}

int
densimMain(int argc, char **argv)
{
    const Cli cli = parseArgs(argc, argv);
    if (cli.command == "run")
        return cmdRun(cli);
    if (cli.command == "sweep")
        return cmdSweep(cli);
    if (cli.command == "trace-capture")
        return cmdTraceCapture(cli);
    if (cli.command == "trace-replay")
        return cmdTraceReplay(cli);
    if (cli.command == "topology")
        return cmdTopology(cli);
    if (cli.command == "config-dump") {
        std::cout << saveConfig(cli.config);
        return 0;
    }
    usage();
    fatal("unknown command '", cli.command, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    // Nothing may escape main: an uncaught exception (an injected
    // fault.abortRunS, a filesystem error from a sink) becomes one
    // diagnostic line on stderr and a nonzero exit, never a core dump
    // or a partially-written stdout document.
    try {
        return densimMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "densim: error: " << e.what() << "\n";
        return 1;
    } catch (...) {
        std::cerr << "densim: error: unknown failure\n";
        return 1;
    }
}
