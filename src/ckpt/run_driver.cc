#include "ckpt/run_driver.hh"

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "ckpt/checkpoint.hh"
#include "core/dense_server_sim.hh"
#include "fleet/fleet_sim.hh"
#include "sched/factory.hh"
#include "util/logging.hh"

namespace densim::ckpt {

namespace {

// The only state a signal handler may touch: a lock-free flag polled
// by the drive loop at epoch/window boundaries.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

/**
 * Next index on the fixed cadence grid k * every strictly after
 * @p now_s — floor instead of a running increment, so a resumed run
 * lands on exactly the grid points the uninterrupted run would.
 */
std::uint64_t
nextCadenceIndex(double now_s, double every)
{
    return static_cast<std::uint64_t>(std::floor(now_s / every)) + 1;
}

/**
 * The one drive loop, for an engine and a fleet alike: poll for a
 * stop, take one @p step (an epoch or an exchange window; false once
 * nothing is pending) and save on the fixed cadence grid.
 * @p clock is the simulated time at the current boundary, @p save
 * the checkpoint image of @p run.
 */
template <class Run, class Step, class Clock>
DriveOutcome
drive(Run &run, Step step, Clock clock,
      std::string (*save)(const Run &))
{
    const SimConfig &config = run.config();
    const double every = config.ckptEveryS;
    const bool cadence = !config.ckptPath.empty() && every > 0.0;
    std::uint64_t next_idx =
        cadence ? nextCadenceIndex(clock(), every) : 0;
    DriveOutcome out;
    for (;;) {
        if (stopRequested()) {
            out.nowS = clock();
            if (!config.ckptPath.empty()) {
                writeCheckpointFile(config.ckptPath, save(run));
                out.checkpointed = true;
            }
            flushSinks(run);
            return out;
        }
        if (!step())
            break;
        if (cadence && clock() >= static_cast<double>(next_idx) * every) {
            writeCheckpointFile(config.ckptPath, save(run));
            next_idx = nextCadenceIndex(clock(), every);
        }
    }
    out.completed = true;
    out.nowS = clock();
    return out;
}

} // namespace

void
installSignalHandlers()
{
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
}

bool
stopRequested()
{
    return g_stop != 0;
}

void
requestStop()
{
    g_stop = 1;
}

void
clearStopRequest()
{
    g_stop = 0;
}

DriveOutcome
driveEngine(DenseServerSim &sim)
{
    return drive(
        sim,
        [&] {
            if (!sim.epochPending())
                return false;
            sim.advanceEpoch();
            return true;
        },
        [&] { return sim.nowS(); }, &saveEngine);
}

DriveOutcome
driveFleet(FleetSim &fleet, unsigned threads)
{
    // The fleet clock is the window count; between windows every
    // shard sits at window_ * windowS.
    return drive(
        fleet, [&] { return fleet.advanceWindow(threads); },
        [&] {
            return static_cast<double>(fleet.windowsRun()) *
                   fleet.config().fleet.epochS;
        },
        &saveFleet);
}

SimMetrics
runCellCheckpointed(const RunSpec &spec, const std::string &ckpt_dir)
{
    const std::string path =
        ckpt_dir + "/" + runDigest(spec) + ".ckpt";
    SimConfig config = spec.config;
    config.ckptPath = path;
    DenseServerSim sim(config, makeScheduler(spec.scheduler));
    bool resumed = false;
    if (std::ifstream(path, std::ios::binary).good()) {
        try {
            restoreEngine(sim, readCheckpointFile(path));
            resumed = true;
        } catch (const CkptError &err) {
            // A stale or damaged checkpoint must not sink the cell:
            // warn, restart from scratch, overwrite on next cadence.
            warn("ckpt: ignoring unusable checkpoint '", path,
                 "': ", err.what());
        }
    }
    if (!resumed)
        sim.beginGeneratedRun();
    const DriveOutcome out = driveEngine(sim);
    if (!out.completed) {
        throw CkptError(
            "checkpointed and stopped at t=" + std::to_string(out.nowS) +
            "s — re-run the sweep to resume this cell");
    }
    SimMetrics metrics = sim.finishRun();
    std::remove(path.c_str());
    return metrics;
}

} // namespace densim::ckpt
