/**
 * @file
 * The dense-server simulator — the paper's overall model
 * (Sec. III-D) as an event-driven engine.
 *
 * Jobs arrive from a probabilistic model (or a captured trace) into a
 * FIFO queue served by a centralized controller. Whenever a job and
 * an idle socket coexist, the active scheduling policy picks the
 * socket (the paper's 1 µs polling is realized exactly: between job
 * arrivals and completions nothing observable changes, so polling at
 * event boundaries is equivalent — a test verifies this). Every 1 ms
 * the power manager sets each socket to the highest frequency whose
 * instantaneous Eq. (1) peak stays under 95 C and gates idle sockets
 * at 10 % TDP.
 *
 * Thermal state is split per Table III's two time constants:
 *  - the socket ambient field tracks the coupling-map steady state of
 *    the current power field with the 30 s socket time constant —
 *    this is what makes boost transiently available while a region
 *    of the server is still cool;
 *  - the chip's own Eq. (1) rise P * (R_int + R_ext) + theta tracks
 *    with the 5 ms chip time constant, i.e. effectively instantly at
 *    the 1 ms power-management epoch.
 * Peak chip temperature is ambient + chip rise, equal to Eq. (1) at
 * steady state.
 *
 * Within an epoch frequencies are constant, so job completions are
 * computed exactly (no time-step quantization of job lengths), and
 * energy/work integrals are accumulated piecewise between events.
 *
 * Engine hot paths are incremental rather than recompute-from-scratch
 * (see DESIGN.md "Performance architecture"): job completions come
 * from a sorted list of the few due inside the current epoch instead
 * of a per-event socket scan, the idle-socket list and the
 * piecewise-integration sums are maintained by delta updates, the
 * ambient-target field is updated through
 * CouplingMap::applyPowerDeltas for the sockets whose power actually
 * changed, and every DVFS decision is read off exact per-(sink,
 * workload set, P-state) feasibility thresholds and two-pass
 * constants computed once at construction.
 */

#ifndef DENSIM_CORE_DENSE_SERVER_SIM_HH
#define DENSIM_CORE_DENSE_SERVER_SIM_HH

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/effects.hh"
#include "core/completion_list.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "fault/fault_state.hh"
#include "fault/fault_timeline.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "power/power_manager.hh"
#include "sched/prediction.hh"
#include "sched/scheduler.hh"
#include "server/topology.hh"
#include "thermal/coupling_map.hh"
#include "thermal/simple_peak_model.hh"
#include "thermal/transient.hh"
#include "util/rng.hh"
#include "workload/job_generator.hh"

namespace densim {

class CkptAccess; // Checkpoint serializer (src/ckpt), friend below.

/** One full simulation of a dense server under one policy. */
class DenseServerSim
{
  public:
    /** Build the server described by @p config under @p policy. */
    DenseServerSim(const SimConfig &config,
                   std::unique_ptr<Scheduler> policy);

    ~DenseServerSim();
    DenseServerSim(const DenseServerSim &) = delete;
    DenseServerSim &operator=(const DenseServerSim &) = delete;

    /** Generate the configured workload and run it. */
    SimMetrics run();

    /** Run a fixed job list (trace replay); arrivals must ascend. */
    SimMetrics run(const std::vector<Job> &jobs);

    // --- streaming (epoch-stepped) interface -------------------------
    // Both run() entry points are a begin, an epoch loop and
    // finishRun() over these, so a streamed run is bit-identical to a
    // one-shot run of the same arrivals (pinned by the fleet suite).
    // beginGeneratedRun() draws the configured workload one epoch at a
    // time, so it holds no future jobs; beginRun() takes arrivals from
    // submitJobs(), as FleetSim does for each exchange window (then
    // advances epochs to the barrier and exchanges summaries) and
    // trace replay does up front.

    /** Reset and (optionally warm-)start a run fed by submitJobs(). */
    void beginRun();

    /**
     * beginRun(), then draw the configured workload (SimConfig's set,
     * load and seed) inside advanceEpoch(): each epoch takes the
     * arrivals before its end, and arrivals close once the next one
     * lies at or past simTimeS.
     */
    void beginGeneratedRun();

    /**
     * Append arrivals to the open run. Must ascend within the batch
     * and from batch to batch; may be called any time between
     * beginRun() and closeArrivals(), never in a generated run. The
     * consumed prefix of the backlog is compacted periodically, so a
     * long-running fleet shard holds O(outstanding), not O(history),
     * jobs.
     */
    void submitJobs(const std::vector<Job> &jobs);

    /**
     * Declare that no further submitJobs() calls will follow (a
     * generated run closes its own arrivals). Until arrivals are
     * closed, epochPending() stays true even when the shard is idle —
     * lockstep shards must keep integrating their thermal state while
     * peers still produce work.
     */
    void closeArrivals();

    /** True while advanceEpoch() still has work (or open arrivals). */
    bool epochPending() const;

    /** Simulated time of the next epoch to run, seconds. */
    double nowS() const { return streamNowS_; }

    /** Jobs queued + running right now (dispatcher headroom input). */
    std::size_t backlog() const { return queue_.size() + sums_.busyTotal; }

    /** Idle (placeable) sockets right now. */
    std::size_t idleSockets() const { return idleList_.size(); }

    /** Instantaneous total socket power, W. */
    double totalPowerW() const { return totalPowerW_; }

    /**
     * Minimum instantaneous thermal headroom over online sockets:
     * tLimitC minus the hottest chip temperature, C. Negative when a
     * socket is over the limit; the cluster dispatcher's primary
     * routing signal.
     */
    double thermalHeadroomC() const;

    /** Post-warmup completions so far (streaming progress signal). */
    std::size_t jobsCompletedSoFar() const
    {
        return metrics_.jobsCompleted;
    }

    /** Run one power-management epoch (arrivals, thermal, DVFS). */
    void advanceEpoch();

    /** Finalize the streamed run and return its metrics. */
    SimMetrics finishRun();

    const ServerTopology &topology() const { return topo_; }
    const CouplingMap &coupling() const { return coupling_; }
    const Scheduler &policy() const { return *policy_; }
    const SimConfig &config() const { return config_; }

    /** Scheduling decisions made during the last run. */
    std::size_t decisions() const
    {
        return count_.schedDecisions->value();
    }

    /**
     * Counters and gauges of the last run (reset at the start of each
     * run). The engine, power manager and the active policy register
     * into this registry at construction.
     */
    const obs::Registry &observability() const { return obsRegistry_; }

    /**
     * Wall time per epoch phase over the sampled epochs since the
     * last beginRun() or restore, in every build (DESIGN.md
     * Sec. 10.2). Never checkpointed, traced or registered.
     */
    const obs::PhaseProfiler &phaseProfile() const { return profiler_; }

  private:
    /**
     * Checkpoint serializer (src/ckpt, DESIGN.md Sec. 16). It reads
     * and writes the engine's mutable state directly at an epoch
     * boundary; everything construction-derived (topology, coupling
     * map, P-state tables, fault timeline) is rebuilt from SimConfig
     * on restore rather than serialized. Keeping access here —
     * instead of a wide public state API — means the streaming
     * interface stays the engine's only behavioral surface.
     */
    friend class CkptAccess;

    // --- run phases -------------------------------------------------
    void resetState();
    void warmStart();
    /** Bring the ambient-target field up to the current powers: the
     *  dirty sockets' deltas, or every kAmbientRefreshEpochs-th epoch
     *  a full refresh. */
    DENSIM_HOT void flushAmbientTargets();
    /** Advance every socket's thermal state by @p dt toward the
     *  flushed field, in one ascending walk. */
    DENSIM_HOT void thermalStep(double dt);
    /** Re-decide every busy socket at @p now and, in the same walk,
     *  re-derive the busy sums and total power and list the
     *  completions due before @p horizon (the epoch end). */
    DENSIM_HOT void powerManage(double now, double horizon);
    DENSIM_HOT DENSIM_ALLOCATES(
        "job admission pushes onto the deque backlog; freed blocks "
        "are reused, so steady state adds no heap traffic")
    void processWindow(const std::vector<Job> &jobs,
                       std::size_t &next_job, double t0, double t1);

    // --- event handlers ----------------------------------------------
    void tryScheduleQueue(double now);
    void placeJob(std::size_t socket, const Job &job, double now);
    void completeJob(std::size_t socket, double now);
    void attemptMigrations(double now);
    void migrateJob(std::size_t from, std::size_t to, double now);

    // --- fault injection & graceful degradation (DESIGN.md Sec. 11) --
    /** Apply every timeline event due at or before @p now. */
    DENSIM_HOT void applyFaultEvents(double now);
    void applyFaultEvent(const FaultEvent &event, double now);
    /** Advance the escalation ladder and act on its verdicts. */
    DENSIM_HOT void emergencyResponse(double now);
    /** Take @p socket offline; its running job goes back in queue. */
    void failSocket(std::size_t socket, double now);
    /** Readmit a failed socket to the idle pool. */
    void recoverSocket(std::size_t socket, double now);
    /** Quarantine an over-temperature socket (escalation stage 2). */
    void quarantineSocket(std::size_t socket, double now);
    /** Push the running job of @p socket back onto the queue front. */
    DENSIM_ALLOCATES(
        "requeue is a rare fault-transition edge; the deque reuses "
        "blocks freed by normal dispatch")
    void requeueJob(std::size_t socket, double now);
    /** Rebuild coupling_ for the fan bank capped at @p flow_frac.
     *  Cold by design: a fan fault rebuilds the whole coupling
     *  operator, deliberately outside the epoch heap contract. */
    DENSIM_COLD void applyFanFlowFraction(double flow_frac);
    /** The coupling map with every duct's flow scaled by
     *  @p flow_frac and the local recirculation by its inverse; at
     *  1.0 the pristine map (x * 1.0 and x / 1.0 are exact). */
    CouplingMap deratedCoupling(double flow_frac) const;
    /** Boost cap for powerManage/placeJob, honoring the throttle. */
    std::size_t dvfsCap(std::size_t socket) const;
    /** Append one fault event to the log, or count it as dropped
     *  past kFaultLogCap. Cold diagnostic endpoint: the log never
     *  feeds back into the model. */
    DENSIM_COLD void recordFault(FaultKind kind, std::size_t socket,
                                 double now, double value);
    /** Deliberate harness escape for fault.abortRunS (cold: the one
     *  sanctioned throw on a hot-reachable path). */
    [[noreturn]] DENSIM_COLD void abortRun(double now);

    // --- bookkeeping -------------------------------------------------
    void syncProgress(std::size_t socket, double now);
    /** Zero the running-job arrays of a socket going idle. */
    void clearJobState(std::size_t socket);
    /** applyRate() for a socket that has just become busy (placement
     *  or migration target), then fold it into the busy sums and the
     *  completion list. */
    void setSocketRate(std::size_t socket, std::size_t pstate,
                       double power_w, double now);
    /**
     * Move a socket to @p pstate at @p power_w, leaving the busy sums
     * and the completion list to the caller (powerManage re-derives
     * both in its walk).
     */
    void applyRate(std::size_t socket, std::size_t pstate,
                   double power_w, double now);
    void setIdlePower(std::size_t socket);
    void accumulate(double to);

    /** Read-only policy view over the current idle list. */
    SchedContext makeSchedContext() const;

    /**
     * The DVFS decision for @p socket running @p set under @p cap:
     * chooseAtAmbientCapped's result, read off the feasibility table
     * (FeasibilityTable::decide).
     */
    DvfsDecision chooseDvfs(std::size_t socket, WorkloadSet set,
                            std::size_t cap);

    /** Re-derive predCache_'s penalty snapshot of @p socket. */
    void refreshPenaltySnapshot(std::size_t socket);

    /** Record that powerW_[socket] diverged from the target field. */
    DENSIM_ALLOCATES(
        "dirty list reaches socket-count capacity in the first "
        "epochs and is clear()ed, never shrunk")
    void markPowerDirty(std::size_t socket);

    /** Recompute the ambient-target field from scratch. */
    void refreshAmbientTargets();

    /** Progress rate of busy socket @p s (nominal seconds per second):
     *  rateBySetState_ at its workload set and P-state. */
    double progressRate(std::size_t s) const
    {
        return rateBySetState_[static_cast<std::size_t>(runningSet_[s]) *
                                   freqByPstate_.size() +
                               pstate_[s]];
    }

    /**
     * Assert the engine's structural and physical invariants at an
     * epoch boundary (DENSIM_CHECK / DENSIM_PARANOID; compiled out by
     * default — see core/invariant.hh).
     */
    void checkEpochInvariants() const;

    /** Keep idleList_ sorted ascending under O(log n) lookup, and
     *  rowIdle_ counting its entries per row. */
    DENSIM_ALLOCATES(
        "idle list capacity reaches socket count during warmup; the "
        "sorted insert then shifts within capacity")
    void idleInsert(std::size_t s);
    void idleRemove(std::size_t s);

    SimConfig config_;
    ServerTopology topo_;
    CouplingMap coupling_;
    SimplePeakModel peak_;
    PowerManager pm_;
    const LeakageModel &leak_;
    std::unique_ptr<Scheduler> policy_;
    Rng policyRng_;
    Rng sensorRng_;

    // Per-socket state — pure structure-of-arrays. Every field the
    // hot loops touch is a contiguous flat array indexed by socket id;
    // the per-epoch walks and the scheduler scoring loops scan them
    // directly.
    std::vector<double> powerW_;
    std::vector<double> freqMhz_;
    std::vector<double> chipTempC_;
    std::vector<double> sensedTempC_; //!< What schedulers see.
    std::vector<double> histTempC_;   //!< First-order bank, histTauS.
    std::vector<WorkloadSet> runningSet_;
    std::vector<std::uint8_t> busyFlag_;
    std::vector<double> ambientC_; //!< First-order bank toward the
        //!< coupling-map field, tau 30 s (Table III).
    std::vector<double> chipRiseC_; //!< Eq. (1) chip-rise bank toward
        //!< P*(R_int+R_ext) + theta, tau 5 ms (Table III).
    std::vector<double> boostCreditS_; //!< Boost-dwell credit, seconds.

    // Running-job bookkeeping (valid while busyFlag_ is set).
    std::vector<std::size_t> jobBenchmark_;
    std::vector<double> jobArrivalS_;   //!< Arrival of the running job.
    std::vector<double> jobStartS_;     //!< Placement time.
    std::vector<double> jobNominalS_;   //!< Job's nominal duration.
    std::vector<double> jobRemainingS_; //!< Nominal seconds left.
    std::vector<double> lastSyncS_;   //!< jobRemainingS valid at this.
    std::vector<double> completionS_; //!< Predicted completion.
    std::vector<std::size_t> pstate_;

    std::vector<std::uint8_t> isFront_;
    std::vector<std::uint8_t> isEven_;
    std::vector<std::vector<std::size_t>> zoneSockets_;

    // Per-socket Eq. (1) constants hoisted out of the thermal loop:
    // chip-rise target = P * rTotCW_ + (thetaC0_ + thetaC1_ * P),
    // evaluated in exactly the typed-quantity order so the raw-double
    // walk is bit-identical to the per-socket unit math.
    std::vector<double> rTotCW_;  //!< (R_int + R_ext).value().
    std::vector<double> thetaC0_; //!< sink.theta.c0.value().
    std::vector<double> thetaC1_; //!< sink.theta.c1.value().

    std::deque<Job> queue_;

    // --- observability (src/obs, DESIGN.md Sec. 10) ------------------
    obs::Registry obsRegistry_;
    obs::PhaseProfiler profiler_;
    obs::TimelineSampler sampler_; //!< Fixed k*timelineSampleS grid.

    /** Cached registry instruments (stable addresses, registered at
     *  construction; incremented from the hot paths). */
    struct EngineCounters
    {
        obs::Counter *epochs = nullptr;
        obs::Counter *jobsPlaced = nullptr;
        obs::Counter *jobsCompleted = nullptr;
        obs::Counter *migrations = nullptr;
        obs::Counter *schedDecisions = nullptr;
        obs::Counter *ambientRefreshes = nullptr;
        obs::Counter *ambientDeltas = nullptr;
        obs::Counter *timelineSamples = nullptr;
    };
    EngineCounters count_;
    /** Server power and hottest chip, set by writeObsOutputs only. */
    obs::TypedGauge<Watts> gaugePowerW_;
    obs::TypedGauge<Celsius> gaugeMaxChipC_;

    /** Take a timeline sample at grid time @p grid_s if one is due. */
    void sampleTimeline(double epoch_end_s);

    /** Register every engine instrument (constructor helper). */
    void registerObs();

    /** Set the end-of-run gauges and write every sink SimConfig
     *  names (trace, timeline, fault log), each rendered from the
     *  run's state as it stands. */
    void writeObsOutputs();

    // --- incremental engine state ------------------------------------
    CompletionList completions_; //!< Busy sockets due this epoch.
    std::vector<std::size_t> idleList_; //!< Idle sockets, ascending.
    std::vector<int> rowIdle_; //!< idleList_ entries per row.

    /**
     * How far, in C, ambTargets_ may sit from a fresh evaluation of
     * targetPowerW_: the refresh cadence keeps the accumulated delta
     * rounding far below it. The paranoid epoch check and the restore
     * audit both hold the field to it.
     */
    static constexpr double kAmbientDriftBoundC = 1e-6;
    std::vector<double> ambTargets_; //!< Coupling-map ambient targets.
    std::vector<double> targetPowerW_; //!< Powers ambTargets_ is for.
    std::vector<char> powerDirty_; //!< Membership flags of dirtySockets_.
    std::vector<std::size_t> dirtySockets_;
    std::size_t epochsSinceAmbientRefresh_ = 0;

    /**
     * Prediction state (sched/prediction.hh): the feasibility
     * thresholds (built at construction) and the per-socket penalty
     * snapshot kept by applyRate. Every SchedContext carries it.
     */
    PredictionCache predCache_;

    // Construction-time lookups for the per-epoch loops.
    std::vector<const HeatSink *> sinkCache_; //!< topo_.sinkOf(s).
    std::vector<int> rowCache_;               //!< topo_.rowOf(s).
    std::vector<double> relFreqByPstate_;
    std::vector<double> freqByPstate_;       //!< table.at(p).freqMhz.
    /** Progress rate perfRel[p] / perfRel[sustained], indexed
     *  set * P-state count + p. */
    std::vector<double> rateBySetState_;
    std::vector<std::uint8_t> boostByPstate_; //!< table.at(p).boost.
    std::size_t sustainedIdx_ = 0;
    std::size_t boostCap_ = 0; //!< Highest P-state index.

    /** Busy-socket sums of the piecewise integration: the whole
     *  server, the front and back halves and the even zones. */
    struct BusySums
    {
        double workRateTotal = 0.0, workRateFront = 0.0,
               workRateBack = 0.0, workRateEven = 0.0;
        double relFreqSumTotal = 0.0, relFreqSumFront = 0.0,
               relFreqSumBack = 0.0, relFreqSumEven = 0.0;
        int busyTotal = 0, busyFront = 0, busyBack = 0, busyEven = 0,
            busyBoost = 0;
    };

    /**
     * Fold busy socket @p s into (@p sign 1) or out of (-1) @p sums,
     * at the rates of its workload set and P-state. Exact for sums_:
     * a socket folds in when it becomes busy and again in each
     * powerManage walk, which alone moves a busy socket's P-state and
     * re-derives the sums from scratch as it does; so folding out
     * reads the values that were folded in.
     */
    void busySumsFold(BusySums &sums, int sign, std::size_t s) const;

    /** The total power, returned, and the busy sums, in @p sums,
     *  summed from scratch in ascending socket order. */
    double sumAfresh(BusySums &sums) const;

    /**
     * Whether a total kept by deltas (totalPowerW_, a sums_ total)
     * lies within 1e-6 relative of @p fresh, its sumAfresh value; the
     * two differ only in rounding. The paranoid epoch check and the
     * restore audit both hold the totals to it.
     */
    static bool sumHolds(double kept, double fresh)
    {
        return std::fabs(kept - fresh) <= 1e-6 * std::max(1.0, fresh);
    }

    // Piecewise integration scalars.
    double tCursor_ = 0.0;
    double totalPowerW_ = 0.0;
    BusySums sums_;

    // --- fault subsystem state (src/fault, DESIGN.md Sec. 11) --------
    // Everything below is inert unless faultsEnabled_: the zero-fault
    // hot path takes no fault branch, draws nothing from faultRng_,
    // and SimMetrics stay bit-identical to the pre-fault engine.
    bool faultsEnabled_ = false;
    FaultTimeline faultTimeline_; //!< Built once at construction.
    std::size_t nextFaultEvent_ = 0; //!< Timeline cursor.
    FaultState faultState_;
    Rng faultRng_; //!< Separate stream: sensor-noise draws.
    std::vector<FaultEvent> faultLog_; //!< Applied + response events.
    std::uint64_t faultLogDropped_ = 0; //!< Events past kFaultLogCap.
    double fanPowerW_ = 0.0; //!< Effective fan power (cube-law derate).
    std::uint64_t couplingEpoch_ = 0; //!< Bumped on each rebuild.

    struct FaultCounters
    {
        obs::Counter *fanEvents = nullptr;
        obs::Counter *sensorFaults = nullptr;
        obs::Counter *dropoutFallbacks = nullptr;
        obs::Counter *socketFailures = nullptr;
        obs::Counter *socketRecoveries = nullptr;
        obs::Counter *jobsRequeued = nullptr;
        obs::Counter *emergencyThrottles = nullptr;
        obs::Counter *throttleReleases = nullptr;
        obs::Counter *quarantines = nullptr;
        obs::Counter *quarantineExits = nullptr;
    };
    FaultCounters fcount_; //!< Registered only when faults are armed.

    SimMetrics metrics_;

    // --- streaming-run state (beginRun .. finishRun) ------------------
    std::vector<Job> streamJobs_; //!< Arrival backlog, ascending.
    std::size_t streamNext_ = 0;  //!< First unconsumed backlog entry.
    double streamNowS_ = 0.0;     //!< Start time of the next epoch.
    bool streamOpen_ = false;      //!< beginRun .. finishRun.
    /** A generated run's arrival stream (beginGeneratedRun); each
     *  epoch refills streamJobs_ from it. */
    std::optional<JobGenerator> arrivals_;
    /** closeArrivals() seen, or the stream's next arrival lies at or
     *  past simTimeS. */
    bool arrivalsClosed_ = false;
};

} // namespace densim

#endif // DENSIM_CORE_DENSE_SERVER_SIM_HH
