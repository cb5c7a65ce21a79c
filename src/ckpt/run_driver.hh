/**
 * @file
 * Checkpoint-aware run drivers: the one loop that sits between the
 * CLI (or a sweep cell) and the streaming engine/fleet APIs, adding
 * two behaviours the engine itself deliberately knows nothing about
 * (DESIGN.md Sec. 16):
 *
 *  - cadence checkpoints: when config.ckptPath is set and
 *    config.ckptEveryS > 0, a snapshot is written atomically at every
 *    crossing of the fixed grid k * ckptEveryS (evaluated at epoch /
 *    exchange-window boundaries, the only points where a snapshot is
 *    well-defined);
 *
 *  - graceful shutdown: installSignalHandlers() arms SIGINT/SIGTERM
 *    to set a volatile sig_atomic_t flag — the only thing the handler
 *    does, so it is async-signal-safe — and the drive loop polls it
 *    at each boundary, writing a final checkpoint, flushing the obs
 *    sinks and returning instead of finishing.
 *
 * Checkpointing is read-only with respect to the simulation: a run
 * driven here is bit-identical to sim.run() with the same config (or
 * sim.run(jobs) with the same job list).
 */

#ifndef DENSIM_CKPT_RUN_DRIVER_HH
#define DENSIM_CKPT_RUN_DRIVER_HH

#include <string>

#include "core/experiment.hh"

namespace densim {
class DenseServerSim;
class FleetSim;
} // namespace densim

namespace densim::ckpt {

/**
 * Arm SIGINT/SIGTERM to request a graceful stop. Idempotent. The
 * handler only sets a flag; all real work (checkpoint write, sink
 * flush) happens on the normal control path at the next boundary.
 */
void installSignalHandlers();

/** True once a stop signal arrived (or requestStop() was called). */
bool stopRequested();

/** Programmatic equivalent of a stop signal (tests, embedders). */
void requestStop();

/** Re-arm after a handled stop (tests, multi-run drivers). */
void clearStopRequest();

/** What a drive loop did. */
struct DriveOutcome
{
    /** The run reached its natural end; finishRun() is next. */
    bool completed = false;
    /** A checkpoint was written on the stop path. */
    bool checkpointed = false;
    /** Simulated seconds reached when the loop returned. */
    double nowS = 0.0;
};

/**
 * Drive an open engine run to completion or to a graceful stop.
 * Expects the run already open: beginGeneratedRun() for a generated
 * run, beginRun() + submitJobs() + closeArrivals() for a job list
 * (trace replay), or restoreEngine(). The caller finishes with
 * sim.finishRun() when .completed.
 */
DriveOutcome driveEngine(DenseServerSim &sim);

/**
 * Fleet counterpart of driveEngine() over advanceWindow(): the same
 * loop, stepping exchange windows instead of epochs.
 */
DriveOutcome driveFleet(FleetSim &fleet, unsigned threads = 1);

/**
 * Checkpoint-aware sweep-cell runner for SweepOptions::cellRunner:
 * runs @p spec with its checkpoint at
 * "<ckpt_dir>/<runDigest(spec)>.ckpt", resuming from that file when a
 * previous invocation left one (an unusable file is warned about and
 * ignored — the cell restarts). On completion the checkpoint is
 * deleted and the metrics returned; on a graceful stop a CkptError is
 * thrown so the keep-going harness records the cell as not-done and
 * the next sweep invocation resumes it mid-run.
 */
SimMetrics runCellCheckpointed(const RunSpec &spec,
                               const std::string &ckpt_dir);

} // namespace densim::ckpt

#endif // DENSIM_CKPT_RUN_DRIVER_HH
