/**
 * @file
 * Experiment harness: run (scheduler x workload x load) grids, in
 * parallel, and normalize against the CF baseline — the machinery
 * behind the Fig. 11/13/14/15 benches.
 */

#ifndef DENSIM_CORE_EXPERIMENT_HH
#define DENSIM_CORE_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/dense_server_sim.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"

namespace densim {

/** One cell of an experiment grid. */
struct RunSpec
{
    std::string scheduler;   //!< Policy name (factory.hh).
    SimConfig config;        //!< Full configuration (load, set, ...).
};

/** Result of one cell. */
struct RunResult
{
    RunSpec spec;
    SimMetrics metrics;
};

/** Run one cell synchronously. */
RunResult runOne(const RunSpec &spec);

/**
 * Run all cells, using up to @p threads worker threads, the calling
 * thread included (0 = hardware concurrency). Results are returned
 * in input order; execution order is unspecified but each run is
 * independently seeded and deterministic, so the results are
 * identical for every thread count. An empty @p specs yields an
 * empty result, and the first exception thrown by a worker is
 * rethrown here after the pool drains (util/parallel.hh).
 *
 * Observability sinks are merge-safe: when more than one cell is run
 * and a spec sets obs.tracePath / obs.timelinePath, the path is
 * rewritten to a per-run name ("trace.json" -> "trace-run3.json",
 * obs::perRunPath) so concurrent cells never write the same file.
 */
std::vector<RunResult> runAll(const std::vector<RunSpec> &specs,
                              unsigned threads = 0);

/**
 * Outcome of one cell under the keep-going harness. Exactly one of
 * three states: skipped (resume manifest already had the digest),
 * ok (metrics valid), or failed (error holds the diagnostic).
 */
struct RunOutcome
{
    RunSpec spec;
    SimMetrics metrics;   //!< Valid only when ok and not skipped.
    std::string digest;   //!< runDigest(spec): resume identity.
    bool ok = false;
    bool skipped = false;
    std::string error;    //!< One-line diagnostic when !ok.
};

/** Knobs of runAllOutcomes. */
struct SweepOptions
{
    unsigned threads = 0;    //!< 0 = hardware concurrency.
    bool keepGoing = false;  //!< Capture failures; finish the rest.
    std::string summaryPath; //!< Sweep-summary JSON sink ("" = none).
    std::string resumePath;  //!< Append-as-completed digest manifest.
    /**
     * Optional cell-runner override: invoked instead of runOne() for
     * every non-skipped cell (after per-run sink rewriting).
     * Installed by checkpoint-aware sweeps (ckpt/run_driver.hh,
     * runCellCheckpointed) so an interrupted cell resumes mid-run
     * from its checkpoint instead of restarting; a std::function
     * here rather than a ckpt type keeps core free of an upward
     * dependency. Null = runOne().
     */
    std::function<SimMetrics(const RunSpec &)> cellRunner;
};

/**
 * Stable identity of a cell: FNV-1a 64 over the scheduler name and
 * the full serialized configuration (config_io saveConfig), as 16 hex
 * digits. Any knob that changes the simulation changes the digest, so
 * a resumed sweep re-runs exactly the cells whose meaning changed.
 */
std::string runDigest(const RunSpec &spec);

/**
 * runAll with per-cell fault containment. With keepGoing set, a cell
 * that throws (including fatal() diagnostics, which are converted to
 * exceptions for the workers' duration) is captured as a failed
 * RunOutcome and every other cell still runs; without it the first
 * failure propagates exactly like runAll. When resumePath names a
 * manifest, cells whose digest appears in it are skipped, and every
 * cell that completes is appended, so re-invoking after a crash picks
 * up where the sweep stopped (failed cells are re-attempted). When
 * summaryPath is set the sweepSummaryJson document is written there.
 */
std::vector<RunOutcome>
runAllOutcomes(const std::vector<RunSpec> &specs,
               const SweepOptions &options);

/**
 * The sweep-summary document: totals plus one entry per run with
 * scheduler, load, digest, status ("ok" / "skipped" / "failed") and
 * the error string for failed cells. Strict JSON (obs/json.hh).
 */
std::string sweepSummaryJson(const std::vector<RunOutcome> &outcomes);

/**
 * Build the full grid of @p schedulers x @p loads for one workload
 * set on a base configuration.
 */
std::vector<RunSpec> makeGrid(const std::vector<std::string> &schedulers,
                              WorkloadSet set,
                              const std::vector<double> &loads,
                              const SimConfig &base);

/**
 * Index results as map[scheduler][load] for normalization against a
 * baseline scheme.
 */
std::map<std::string, std::map<double, SimMetrics>>
indexResults(const std::vector<RunResult> &results);

} // namespace densim

#endif // DENSIM_CORE_EXPERIMENT_HH
