/**
 * @file
 * Simulation configuration — Table III of the paper as a struct.
 *
 * Defaults reproduce the paper's SUT: 180-socket M700-class topology,
 * 95 C limit, 1 ms power-management epoch, 5 ms chip and 30 s socket
 * thermal time constants, 18 C inlet, 6.35 CFM per socket, X2150
 * P-states with the top two as boost.
 *
 * Two knobs have no Table III counterpart:
 *  - warmStart initializes the slow (30 s) ambient trackers at the
 *    analytic steady state for the configured load so short runs
 *    measure steady behaviour rather than a cold ramp;
 *  - simTimeS defaults to seconds rather than the paper's 30 minutes
 *    (the engine is happy to run paper-length simulations; benches
 *    use shorter horizons, which the warm start makes representative).
 */

#ifndef DENSIM_CORE_SIM_CONFIG_HH
#define DENSIM_CORE_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/units.hh"
#include "fault/fault_config.hh"
#include "fleet/fleet_config.hh"
#include "server/topology.hh"
#include "thermal/coupling_map.hh"
#include "workload/benchmark.hh"

namespace densim {

/** Full configuration of one simulation run. */
struct SimConfig
{
    // Workload.
    WorkloadSet workload = WorkloadSet::Computation;
    double load = 0.5;          //!< Target utilization (0, 1].

    // Horizon.
    double simTimeS = 15.0;     //!< Arrival window, seconds.
    double warmupS = 3.0;       //!< Excluded from metrics.
    double drainFactor = 3.0;   //!< Run up to drainFactor * simTimeS
                                //!< to let queued jobs finish.

    // Table III timing.
    double pmEpochS = 1e-3;     //!< Power manager interval.
    double chipTauS = 5e-3;     //!< On-chip thermal time constant.
    double socketTauS = 30.0;   //!< Socket thermal time constant.
    double histTauS = 10.0;     //!< History filter for A-Random.

    // Table III thermals/power.
    double tLimitC = 95.0;      //!< Junction temperature limit.
    double rIntCW = 0.205;      //!< Chip internal resistance.
    double gatedFracTdp = 0.10; //!< Gated socket power / TDP.

    // Boost-dwell governor ([36], BKDG Family 16h): boost states are
    // used opportunistically but cannot be sustained — a socket
    // accumulates boost-residency credit while not boosting and
    // spends it while boosting, so a fully loaded socket settles at
    // the highest non-boost frequency while a lightly loaded one can
    // boost for essentially all of its (short) jobs.
    double boostRefillRate = 1.25; //!< Credit gained per non-boost s.
    double boostBurstS = 2.0;     //!< Credit capacity, seconds.

    // Physical build.
    TopologySpec topo{};            //!< Defaults to the SUT.
    CouplingParams coupling{};      //!< Calibrated cartridge physics.

    // Workload migration (Sec. VI: the scheduling strategy can just
    // as easily choose sockets for migration; useful when jobs are
    // long). Disabled by default to match the paper's evaluation.
    bool migrationEnabled = false;
    double migrationIntervalS = 0.1;   //!< Between migration passes.
    double migrationCostS = 2e-3;      //!< Nominal seconds lost/move.
    double migrationMinRemainingS = 0.05; //!< Only move long jobs.
    int migrationMaxPerPass = 8;       //!< Bound per-pass disruption.

    // Temperature sensing. The schedulers act on *sensor* readings,
    // not oracle temperatures; real thermal sensors are noisy and
    // quantized (X2150-class parts report in ~1 C steps). Defaults
    // keep sensing ideal so the paper's experiments are unaffected.
    double sensorNoiseC = 0.0;  //!< Gaussian sigma per reading.
    double sensorQuantC = 0.0;  //!< Reading quantization step; 0=off.

    /**
     * Zone-ambient timeline sampling period, seconds; 0 disables.
     * When enabled, SimMetrics carries the mean ambient temperature
     * of each zone at this cadence — the Fig. 4-style view of the
     * thermal field developing. Samples lie on the exact fixed grid
     * k * timelineSampleS (obs/timeline.hh documents the catch-up/
     * skip semantics when the period is shorter than pmEpochS).
     */
    double timelineSampleS = 0.0;

    // Observability sinks (src/obs, DESIGN.md Sec. 10). Set by the
    // CLI/config keys "obs.tracePath" / "obs.timelinePath"; each run
    // writes its file when the run finishes. Grids and fleets give
    // each run its own names (perRunSinks).
    /**
     * Chrome trace_event JSON output path; "" disables. Phase-timer
     * events require a DENSIM_OBS build — without it the engine
     * warns and writes a trace containing only counter tracks.
     */
    std::string obsTracePath;
    /**
     * Zone-ambient timeline as JSONL (one strict-JSON object per
     * sample); "" disables. Needs timelineSampleS > 0 to produce
     * rows; works in every build.
     */
    std::string obsTimelinePath;

    /**
     * Constant electrical fan power (W) added to the energy integral;
     * 0 excludes cooling energy (the paper's figures are socket-only).
     * A realistic value for the SUT is
     * `Fan(Fan::activeCoolSpec(), 5).powerForCfm(400.0)`.
     */
    double fanPowerW = 0.0;

    // Engine performance knobs. The completion list and the
    // incremental idle list are exact and always on; the knobs below
    // control the remaining hot-path strategies.
    /**
     * Maintain the socket ambient-target field by applying per-socket
     * power deltas through the coupling map (O(changed x downstream)
     * per epoch) instead of re-evaluating the full field (O(n x
     * downstream)). Results agree with the full evaluation to
     * rounding accuracy (~1e-12 C; the field is refreshed
     * periodically to bound drift). Disable to force the historical
     * recompute-from-scratch path — the reference for the
     * differential tests.
     */
    bool incrementalThermal = true;
    /**
     * Answer DVFS searches from the engine's exact feasibility
     * thresholds and hand schedulers the prediction state
     * (sched/prediction.hh): placement and downstream-penalty results
     * are reused within an epoch and dropped the moment any input
     * moves, and the penalty snapshot prices most downstream probes
     * in a compare or two. Decisions are bit-identical either way
     * (pinned by the perf-equivalence bank); off, every search runs
     * PowerManager::chooseAtAmbientCapped in full — the reference
     * the differential tests compare against.
     */
    bool schedPredictionCache = true;

    /**
     * Fault injection and graceful degradation (src/fault, DESIGN.md
     * Sec. 11), set via the "fault.*" config keys. Disarmed by
     * default; with no fault key set the engine takes no fault branch
     * at all and SimMetrics stay bit-identical to the fault-free
     * build (pinned by tests/fault_test.cc).
     */
    FaultConfig fault{};

    /**
     * Fleet-scale sharded simulation (src/fleet, DESIGN.md Sec. 15),
     * set via the "fleet.*" config keys. Off by default
     * (fleet.chassis = 0); a plain run never constructs a FleetSim.
     */
    FleetConfig fleet{};

    // Crash-safe checkpointing (src/ckpt, DESIGN.md Sec. 16), set via
    // the "ckpt.*" config keys / --checkpoint. Both knobs are
    // excluded from the run digest a checkpoint is validated against:
    // where a snapshot is written — or how often — must not make the
    // snapshot refuse to load.
    /**
     * Checkpoint file path; "" disables checkpointing. The file is
     * replaced atomically (temp + fsync + rename) on every cadence
     * hit and on SIGINT/SIGTERM, so it always holds a complete,
     * loadable snapshot.
     */
    std::string ckptPath;
    /**
     * Checkpoint cadence in *simulated* seconds; 0 means only on
     * signal-triggered shutdown. Cadence points lie on the fixed grid
     * k * ckptEveryS, evaluated at epoch (or fleet-window)
     * boundaries. Checkpointing is read-only: a run with it enabled
     * is bit-identical to the same run without.
     */
    double ckptEveryS = 0.0;

    // Run control.
    std::uint64_t seed = 42;    //!< Drives workload and policy RNG.
    bool warmStart = true;      //!< Analytic steady-state init.

    // Typed views of the raw knobs above. The struct itself stays
    // aggregate-initializable plain doubles (it is filled from JSON by
    // config_io and swept numerically by the benches — the engine's
    // hot-path boundary, DESIGN.md Sec. 9); these accessors are the
    // dimension-checked way into the model layer.
    Celsius tLimit() const { return Celsius(tLimitC); }
    KelvinPerWatt rInt() const { return KelvinPerWatt(rIntCW); }

    /** Validate ranges; fatal() on nonsense. */
    void validate() const;
};

/**
 * @p config with every sink path it sets (obs.tracePath,
 * obs.timelinePath, fault.logPath) renamed for run @p run by
 * obs::perRunPath ("faults.jsonl" -> "faults-run2.jsonl"). The one
 * rule for runs that share a configuration: the cells of a grid
 * (Experiment) and the shards of a fleet (FleetSim) never write the
 * same file.
 */
SimConfig perRunSinks(SimConfig config, std::size_t run);

} // namespace densim

#endif // DENSIM_CORE_SIM_CONFIG_HH
