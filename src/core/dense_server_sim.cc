#include "core/dense_server_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "airflow/fan.hh"
#include "core/invariant.hh"
#include "fault/fault_log.hh"
#include "power/leakage.hh"
#include "power/pstate.hh"
#include "util/logging.hh"
#include "workload/curves.hh"

namespace densim {

namespace {

/**
 * Epochs between full recomputations of the ambient-target field when
 * the incremental delta path is active. Bounds floating-point drift
 * of the accumulated deltas (each refresh re-derives the field from
 * the power vector, exactly like the reference path) at a cost of one
 * O(n x downstream) evaluation per ~1 simulated second.
 */
constexpr std::size_t kAmbientRefreshEpochs = 1024;

/**
 * Joint delivered-flow and electrical-power fractions of a fan bank
 * whose speed is capped at @p speed_cap (0..1 of full speed). The
 * nominal operating point is the speed that delivers the server's
 * design airflow; a bank too small for the design flow nominally runs
 * flat out. Both fractions follow the affinity laws of airflow/fan.hh:
 * flow is linear in speed, electrical power cubic.
 */
struct FanDerateEffect
{
    double flowFrac;  //!< Delivered / nominal CFM, floored at 2 %.
    double powerFrac; //!< Electrical / nominal power (cube law).
};

FanDerateEffect
fanDerateEffect(double speed_cap, int fan_count, double required_cfm)
{
    const Fan bank(Fan::activeCoolSpec(), fan_count);
    double s_nom = 1.0;
    if (required_cfm < bank.maxDeliveredCfm().value())
        s_nom = bank.speedForCfm(Cfm(required_cfm));
    const double s = std::min(speed_cap, s_nom);
    const double flow =
        bank.deliveredCfm(s).value() / bank.deliveredCfm(s_nom).value();
    const double p_nom = bank.electricalPower(s_nom).value();
    const double power =
        p_nom > 0.0 ? bank.electricalPower(s).value() / p_nom : 1.0;
    // A natural-convection floor: even a dead bank leaks some air
    // through the chassis, and it keeps the 1/CFM coupling
    // coefficients finite.
    return {std::max(flow, 0.02), power};
}

} // namespace

DenseServerSim::DenseServerSim(const SimConfig &sim_config,
                               std::unique_ptr<Scheduler> sim_policy)
    : config_(sim_config), topo_(sim_config.topo),
      coupling_(topo_.sites(), sim_config.coupling),
      peak_(sim_config.rInt()),
      pm_(PStateTable::x2150(), peak_, sim_config.tLimit(),
          sim_config.gatedFracTdp),
      leak_(LeakageModel::x2150()), policy_(std::move(sim_policy)),
      policyRng_(sim_config.seed ^ 0xdeadbeefcafef00dULL),
      sensorRng_(sim_config.seed ^ 0x5ca1ab1e0ddba11ULL)
{
    config_.validate();
    if (!policy_)
        fatal("DenseServerSim: no scheduling policy supplied");

    const std::size_t n = topo_.numSockets();
    isFront_.resize(n);
    isEven_.resize(n);
    sinkCache_.resize(n);
    rowCache_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        isFront_[s] = topo_.inFrontHalf(s);
        isEven_[s] = topo_.inEvenZone(s);
        sinkCache_[s] = &topo_.sinkOf(s);
        rowCache_[s] = topo_.rowOf(s);
    }
    zoneSockets_.resize(topo_.zonesPerRow());
    for (std::size_t s = 0; s < n; ++s)
        zoneSockets_[topo_.zoneIndexOf(s)].push_back(s);

    // Hoist the Eq. (1) per-socket constants once: the batched thermal
    // kernel consumes them as flat arrays.
    rTotCW_.resize(n);
    thetaC0_.resize(n);
    thetaC1_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        const HeatSink &sink = *sinkCache_[s];
        rTotCW_[s] = (peak_.rInt() + sink.rExt).value();
        thetaC0_[s] = sink.theta.c0.value();
        thetaC1_[s] = sink.theta.c1.value();
    }

    const PStateTable &table = PStateTable::x2150();
    sustainedIdx_ = table.highestSustainedIndex();
    boostCap_ = table.size() - 1;
    relFreqByPstate_.resize(table.size());
    for (std::size_t p = 0; p < table.size(); ++p)
        relFreqByPstate_[p] = table.relativeFreq(p);
    freqByPstate_.resize(table.size());
    boostByPstate_.resize(table.size());
    for (std::size_t p = 0; p < table.size(); ++p) {
        freqByPstate_[p] = table.at(p).freqMhz;
        boostByPstate_[p] = table.at(p).boost ? 1 : 0;
    }
    // Progress is measured in nominal (highest-sustained-frequency)
    // seconds: boost states advance a job faster than 1x. This is the
    // design point of the SUT — 100% load is exactly sustainable at
    // 1500 MHz (Sec. III-D).
    rateBySetState_.resize(allWorkloadSets().size() * table.size());
    for (const WorkloadSet set : allWorkloadSets()) {
        const FreqCurve &curve = freqCurveFor(set);
        for (std::size_t p = 0; p < table.size(); ++p) {
            const double rate =
                curve.perfRel[p] / curve.perfRel[sustainedIdx_];
            if (rate <= 0.0)
                panic("workload set ", workloadSetName(set),
                      " has a non-positive progress rate at P-state ",
                      p);
            rateBySetState_[static_cast<std::size_t>(set) *
                                table.size() +
                            p] = rate;
        }
    }
    predCache_.feas.build(pm_, leak_, sinkCache_);

    faultsEnabled_ = config_.fault.enabled();
    faultState_.configure(config_.fault, config_.tLimit());
    faultTimeline_ = FaultTimeline(config_.fault, n, config_.seed);

    registerObs();
}

void
DenseServerSim::registerObs()
{
    count_.epochs = &obsRegistry_.counter("engine.epochs");
    count_.jobsPlaced = &obsRegistry_.counter("engine.jobsPlaced");
    count_.jobsCompleted =
        &obsRegistry_.counter("engine.jobsCompleted");
    count_.migrations = &obsRegistry_.counter("engine.migrations");
    count_.schedDecisions =
        &obsRegistry_.counter("engine.schedDecisions");
    count_.ambientRefreshes =
        &obsRegistry_.counter("thermal.ambientRefreshes");
    count_.ambientDeltas =
        &obsRegistry_.counter("thermal.ambientDeltaUpdates");
    count_.timelineSamples =
        &obsRegistry_.counter("obs.timelineSamples");
    gaugePowerW_ =
        obsRegistry_.typedGauge<Watts>("engine.endPowerW", "W");
    gaugeMaxChipC_ =
        obsRegistry_.typedGauge<Celsius>("engine.maxChipTempC", "C");
    pm_.attachObs(obsRegistry_);
    policy_->attachObs(obsRegistry_);
    sampler_.configure(config_.timelineSampleS);

    // Fault instruments exist only when faults are armed, so a
    // zero-fault run's counter report is byte-identical to the
    // pre-fault engine's.
    if (faultsEnabled_) {
        fcount_.fanEvents = &obsRegistry_.counter("fault.fanEvents");
        fcount_.sensorFaults =
            &obsRegistry_.counter("fault.sensorFaults");
        fcount_.dropoutFallbacks =
            &obsRegistry_.counter("fault.dropoutFallbacks");
        fcount_.socketFailures =
            &obsRegistry_.counter("fault.socketFailures");
        fcount_.socketRecoveries =
            &obsRegistry_.counter("fault.socketRecoveries");
        fcount_.jobsRequeued =
            &obsRegistry_.counter("fault.jobsRequeued");
        fcount_.emergencyThrottles =
            &obsRegistry_.counter("fault.emergencyThrottles");
        fcount_.throttleReleases =
            &obsRegistry_.counter("fault.throttleReleases");
        fcount_.quarantines =
            &obsRegistry_.counter("fault.quarantines");
        fcount_.quarantineExits =
            &obsRegistry_.counter("fault.quarantineExits");
    }
}

DenseServerSim::~DenseServerSim() = default;

void
DenseServerSim::resetState()
{
    const std::size_t n = topo_.numSockets();
    if (couplingDerated_) {
        // A previous run's fan fault left derated coefficients in
        // place; restore the pristine map before any field is derived
        // from it.
        coupling_ = deratedCoupling(1.0);
        couplingDerated_ = false;
        ++couplingEpoch_;
    }
    fanPowerW_ = config_.fanPowerW;
    nextFaultEvent_ = 0;
    faultState_.reset(n);
    faultRng_ = Rng(config_.fault.effectiveSeed(config_.seed) ^
                    0x0badcab1efa57f00ULL);
    faultLog_.clear();
    powerW_.assign(n, pm_.gatedPower(leak_).value());
    freqMhz_.assign(n, 0.0);
    chipTempC_.assign(n, config_.topo.inletC);
    sensedTempC_.assign(n, config_.topo.inletC);
    histTempC_.assign(n, config_.topo.inletC);
    runningSet_.assign(n, config_.workload);
    busyFlag_.assign(n, 0);
    jobBenchmark_.assign(n, 0);
    jobArrivalS_.assign(n, 0.0);
    jobStartS_.assign(n, 0.0);
    jobNominalS_.assign(n, 0.0);
    jobRemainingS_.assign(n, 0.0);
    lastSyncS_.assign(n, 0.0);
    completionS_.assign(n, 0.0);
    pstate_.assign(n, 0);

    const Watts gated = pm_.gatedPower(leak_);
    const std::vector<double> amb0 =
        coupling_.ambientTemps(powerW_, config_.topo.inlet());
    ambientC_ = amb0;
    chipRiseC_.assign(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
        const HeatSink &sink = *sinkCache_[s];
        chipRiseC_[s] = (gated * (peak_.rInt() + sink.rExt) +
                         sink.theta(gated))
                            .value();
        chipTempC_[s] = ambientC_[s] + chipRiseC_[s];
        histTempC_[s] = chipTempC_[s];
    }

    boostCreditS_.assign(n, config_.boostBurstS);

    completions_.reset(n);
    idleList_.resize(n);
    for (std::size_t s = 0; s < n; ++s)
        idleList_[s] = s;
    rowIdle_.assign(static_cast<std::size_t>(topo_.numRows()),
                    topo_.socketsPerRow());

    ambTargets_ = amb0;
    targetPowerW_ = powerW_;
    powerDirty_.assign(n, 0);
    dirtySockets_.clear();
    epochsSinceAmbientRefresh_ = 0;

    chipRiseTarget_.assign(n, 0.0);
    predCache_.reset(n);
    predCache_.snapshot = !faultsEnabled_;

    queue_.clear();
    metrics_ = SimMetrics{};
    decisions_ = 0;
    tCursor_ = 0.0;
    obsRegistry_.resetValues();
    profiler_.reset();
    trace_.clear();
    sampler_.reset();
    policy_->reset();
    policyRng_ = Rng(config_.seed ^ 0xdeadbeefcafef00dULL);
    sensorRng_ = Rng(config_.seed ^ 0x5ca1ab1e0ddba11ULL);
    rebuildScalars();
}

void
DenseServerSim::warmStart()
{
    // Expected average socket power at the configured load: busy at
    // the highest sustained frequency a fraction `load` of the time,
    // gated otherwise. The slow (30 s) ambient field is set to the
    // coupling-map steady state of that power field so short runs
    // start in a representative thermal regime.
    const auto &curve = freqCurveFor(config_.workload);
    const double busy_power = curve.totalPowerAt90C[sustainedIdx_];
    const double gated = pm_.gatedPower(leak_).value();
    const double expected =
        config_.load * busy_power + (1.0 - config_.load) * gated;

    const std::size_t n = topo_.numSockets();
    const std::vector<double> amb = coupling_.ambientTemps(
        std::vector<double>(n, expected), config_.topo.inlet());
    for (std::size_t s = 0; s < n; ++s) {
        ambientC_[s] = amb[s];
        const double chip = ambientC_[s] + chipRiseC_[s];
        chipTempC_[s] = chip;
        histTempC_[s] = chip;
    }
}

SimMetrics
DenseServerSim::run()
{
    JobGenerator gen(config_.workload, config_.load,
                     static_cast<int>(topo_.numSockets()), config_.seed);
    return runJobs(gen.generateUntil(config_.simTimeS));
}

SimMetrics
DenseServerSim::run(const std::vector<Job> &jobs)
{
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        if (jobs[i].arrivalS < jobs[i - 1].arrivalS)
            fatal("DenseServerSim: job arrivals must be sorted");
    }
    return runJobs(jobs);
}

SimMetrics
DenseServerSim::runJobs(const std::vector<Job> &jobs)
{
    // The one-shot run is the streamed run with the full arrival list
    // submitted up front: same epoch bodies, in the same order, so
    // the pre-streaming hex-float goldens still pin this path.
    beginRun();
    submitJobs(jobs);
    closeArrivals();
    while (epochPending())
        advanceEpoch();
    return finishRun();
}

void
DenseServerSim::beginRun()
{
    resetState();
    if (config_.warmStart)
        warmStart();

    if (!config_.obsTracePath.empty()) {
        enableTrace();
#if !DENSIM_ENABLE_OBS
        warn("obs.tracePath is set but this build has no DENSIM_OBS; "
             "the trace will carry counter tracks only (no phase "
             "events)");
#endif
    }

    streamJobs_.clear();
    streamNext_ = 0;
    streamNowS_ = 0.0;
    streamHardStopS_ = config_.simTimeS * config_.drainFactor;
    streamOpen_ = true;
    arrivalsClosed_ = false;
}

void
DenseServerSim::enableTrace()
{
    trace_.enable(true);
    trace_.setProcessName(std::string("densim:") + policy_->name());
#if DENSIM_ENABLE_OBS
    profiler_.setSink(&trace_);
#endif
}

void
DenseServerSim::submitJobs(const std::vector<Job> &jobs)
{
    if (!streamOpen_)
        fatal("DenseServerSim::submitJobs: no open run (beginRun?)");
    if (arrivalsClosed_)
        fatal("DenseServerSim::submitJobs: arrivals already closed");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double prev =
            i > 0 ? jobs[i - 1].arrivalS
                  : (streamJobs_.empty() ? -std::numeric_limits<
                                               double>::infinity()
                                         : streamJobs_.back().arrivalS);
        if (jobs[i].arrivalS < prev)
            fatal("DenseServerSim: job arrivals must be sorted");
    }
    // Compact the consumed backlog prefix before it dominates: a
    // fleet shard streaming millions of arrivals holds only the
    // outstanding tail.
    if (streamNext_ > 4096 && streamNext_ * 2 > streamJobs_.size()) {
        streamJobs_.erase(streamJobs_.begin(),
                          streamJobs_.begin() +
                              static_cast<std::ptrdiff_t>(streamNext_));
        streamNext_ = 0;
    }
    streamJobs_.insert(streamJobs_.end(), jobs.begin(), jobs.end());
}

void
DenseServerSim::closeArrivals()
{
    if (!streamOpen_)
        fatal("DenseServerSim::closeArrivals: no open run");
    arrivalsClosed_ = true;
}

bool
DenseServerSim::epochPending() const
{
    if (!streamOpen_ || streamNowS_ >= streamHardStopS_)
        return false;
    // With arrivals still open the shard must keep integrating: a
    // lockstep peer may dispatch work to it at the next barrier.
    if (!arrivalsClosed_)
        return true;
    return streamNext_ < streamJobs_.size() || !queue_.empty() ||
           sums_.busyTotal != 0;
}

double
DenseServerSim::thermalHeadroomC() const
{
    double hottest = -std::numeric_limits<double>::infinity();
    const std::size_t n = topo_.numSockets();
    for (std::size_t s = 0; s < n; ++s) {
        if (faultsEnabled_ && faultState_.offline(s))
            continue;
        hottest = std::max(hottest, chipTempC_[s]);
    }
    if (hottest == -std::numeric_limits<double>::infinity())
        return 0.0; // Every socket offline: no headroom to offer.
    return config_.tLimitC - hottest;
}

void
DenseServerSim::advanceEpoch()
{
    if (!streamOpen_)
        fatal("DenseServerSim::advanceEpoch: no open run (beginRun?)");
    const double epoch = config_.pmEpochS;
    const double t0 = streamNowS_;
    const double t1 = t0 + epoch;

    count_.epochs->inc();
    if (faultsEnabled_)
        applyFaultEvents(t0);
    thermalStep(epoch);
    sampleTimeline(t0);
    if (faultsEnabled_)
        emergencyResponse(t0);
    powerManage(t0, t1);
    if (config_.migrationEnabled) {
        const auto stride = static_cast<std::size_t>(
            config_.migrationIntervalS / epoch);
        const auto tick = static_cast<std::size_t>(t0 / epoch + 0.5);
        if (stride <= 1 || tick % stride == 0)
            attemptMigrations(t0);
    }
    processWindow(streamJobs_, streamNext_, t0, t1);
    checkEpochInvariants();
    streamNowS_ = t1;
}

SimMetrics
DenseServerSim::finishRun()
{
    if (!streamOpen_)
        fatal("DenseServerSim::finishRun: no open run (beginRun?)");
    accumulate(streamNowS_);

    metrics_.measuredS = std::max(streamNowS_ - config_.warmupS, 0.0);
    metrics_.jobsUnfinished = queue_.size() + sums_.busyTotal;
    writeObsOutputs();
    streamOpen_ = false;
    return metrics_;
}

void
DenseServerSim::sampleTimeline(double epoch_end_s)
{
    // The fixed-grid replacement for the historical drifting sampler
    // (obs/timeline.hh documents the grid and skip semantics; the obs
    // regression tests pin the emitted timestamps).
    double grid_s = 0.0;
    if (!sampler_.due(epoch_end_s, &grid_s))
        return;
    metrics_.timelineS.push_back(grid_s);
    std::vector<double> zones;
    zones.reserve(zoneSockets_.size());
    for (const auto &members : zoneSockets_) {
        double acc = 0.0;
        for (std::size_t s : members)
            acc += ambientC_[s];
        zones.push_back(acc / static_cast<double>(members.size()));
    }
    metrics_.zoneAmbientC.push_back(std::move(zones));
    count_.timelineSamples->inc();
}

void
DenseServerSim::writeObsOutputs()
{
    gaugePowerW_.set(Watts(totalPowerW_));
    gaugeMaxChipC_.set(Celsius(metrics_.maxChipTempC));

    if (!config_.obsTracePath.empty()) {
        // End-of-run counter tracks: one sample per counter so the
        // viewer shows final tallies alongside the phase events.
        for (const auto &c : obsRegistry_.counters()) {
            trace_.addCounter(c.name, 0.0,
                              static_cast<double>(c.value));
        }
        trace_.writeFile(config_.obsTracePath);
        trace_.enable(false);
        profiler_.setSink(nullptr);
    }
    if (!config_.obsTimelinePath.empty()) {
        obs::writeTimelineJsonlFile(config_.obsTimelinePath,
                                    metrics_.timelineS,
                                    metrics_.zoneAmbientC);
    }
    if (!config_.fault.logPath.empty())
        writeFaultLogFile(config_.fault.logPath, faultLog_);
}

void
DenseServerSim::markPowerDirty(std::size_t socket)
{
    if (!powerDirty_[socket]) {
        powerDirty_[socket] = 1;
        dirtySockets_.push_back(socket);
    }
}

void
DenseServerSim::refreshAmbientTargets()
{
    count_.ambientRefreshes->inc();
    coupling_.ambientTempsInto(ambTargets_.data(), ambTargets_.size(),
                               powerW_.data(), config_.topo.inlet());
    targetPowerW_ = powerW_;
    for (std::size_t s : dirtySockets_)
        powerDirty_[s] = 0;
    dirtySockets_.clear();
    epochsSinceAmbientRefresh_ = 0;
}

void
DenseServerSim::thermalStep(double dt)
{
    DENSIM_OBS_PHASE(profiler_, obs::Phase::ThermalStep);
    // The ambient field lags the power field with the 30 s socket
    // time constant; the chip's own Eq. (1) rise follows with the
    // 5 ms chip time constant. The target field is the coupling-map
    // steady state of the current powers, maintained by per-socket
    // deltas (or recomputed in full in the reference mode).
    if (!config_.incrementalThermal ||
        ++epochsSinceAmbientRefresh_ >= kAmbientRefreshEpochs) {
        refreshAmbientTargets();
    } else if (!dirtySockets_.empty()) {
        count_.ambientDeltas->inc(dirtySockets_.size());
        for (std::size_t s : dirtySockets_) {
            coupling_.applyPowerDelta(ambTargets_, s, targetPowerW_[s],
                                      powerW_[s]);
            targetPowerW_[s] = powerW_[s];
            powerDirty_[s] = 0;
        }
        dirtySockets_.clear();
    }
    const std::size_t n = topo_.numSockets();
    const bool measure = tCursor_ >= config_.warmupS;

    // Boost-dwell accounting: drain while boosting, refill otherwise
    // (busy-sustained or idle).
    const double refill = config_.boostRefillRate * dt;
    for (std::size_t s = 0; s < n; ++s) {
        if (busyFlag_[s] && boostByPstate_[pstate_[s]]) {
            boostCreditS_[s] = std::max(0.0, boostCreditS_[s] - dt);
        } else {
            boostCreditS_[s] = std::min(config_.boostBurstS,
                                        boostCreditS_[s] + refill);
        }
    }

    // Bank 1: socket ambient toward the coupling-map field (tau 30 s,
    // Table III). One shared response fraction per bank: every
    // tracker in a bank has the same tau, so one exp() serves all.
    const double amb_alpha = responseFraction(dt, config_.socketTauS);
    firstOrderStepBatch(ambientC_.data(), ambTargets_.data(), n,
                        amb_alpha);

    // Bank 2: Eq. (1) chip rise (tau 5 ms). The expression mirrors
    // the typed-quantity evaluation order exactly:
    // P * (R_int + R_ext) + (theta.c0 + theta.c1 * P).
    for (std::size_t s = 0; s < n; ++s) {
        const double p = powerW_[s];
        chipRiseTarget_[s] =
            p * rTotCW_[s] + (thetaC0_[s] + thetaC1_[s] * p);
    }
    const double rise_alpha = responseFraction(dt, config_.chipTauS);
    firstOrderStepBatch(chipRiseC_.data(), chipRiseTarget_.data(), n,
                        rise_alpha);

    for (std::size_t s = 0; s < n; ++s)
        chipTempC_[s] = ambientC_[s] + chipRiseC_[s];

    // What the scheduler's sensor reports: noisy, quantized. The
    // pristine configuration is a straight copy.
    if (config_.sensorNoiseC <= 0.0 && config_.sensorQuantC <= 0.0 &&
        !faultsEnabled_) {
        std::copy(chipTempC_.begin(), chipTempC_.end(),
                  sensedTempC_.begin());
    } else {
        for (std::size_t s = 0; s < n; ++s) {
            double sensed = chipTempC_[s];
            if (config_.sensorNoiseC > 0.0)
                sensed += sensorRng_.normal(0.0, config_.sensorNoiseC);
            if (config_.sensorQuantC > 0.0) {
                sensed =
                    config_.sensorQuantC *
                    std::floor(sensed / config_.sensorQuantC + 0.5);
            }
            if (faultsEnabled_) {
                sensed = faultState_.schedSensedC(
                    s, Celsius(sensed), Celsius(sensedTempC_[s]),
                    faultRng_);
            }
            sensedTempC_[s] = sensed;
        }
    }

    // Bank 3: the scheduler's slow history of the sensed temperature.
    const double hist_alpha = responseFraction(dt, config_.histTauS);
    firstOrderStepBatch(histTempC_.data(), sensedTempC_.data(), n,
                        hist_alpha);

    if (measure) {
        for (std::size_t s = 0; s < n; ++s) {
            if (!busyFlag_[s])
                continue;
            metrics_.chipTempC.add(chipTempC_[s]);
            metrics_.maxChipTempC =
                std::max(metrics_.maxChipTempC, chipTempC_[s]);
        }
    }
}

DvfsDecision
DenseServerSim::chooseDvfs(std::size_t socket, WorkloadSet set,
                           std::size_t cap)
{
    double ambient_c = ambientC_[socket];
    if (faultsEnabled_) {
        if (faultState_.sensorMode(socket) == SensorMode::Dropout)
            fcount_.dropoutFallbacks->inc();
        ambient_c = faultState_.dvfsAmbientC(socket, Celsius(ambient_c),
                                             faultRng_);
    }
    // The thresholds stay exact under faults too: fan derates and
    // sensor faults perturb the ambient *input*, never the sink,
    // curve and leakage the thresholds describe.
    if (!config_.schedPredictionCache)
        return pm_.chooseAtAmbientCapped(freqCurveFor(set), leak_,
                                         Celsius(ambient_c),
                                         *sinkCache_[socket], cap);
    pm_.countSearch();
    return predCache_.feas.decide(socket, set, Celsius(ambient_c), cap);
}

void
DenseServerSim::powerManage(double now, double horizon)
{
    DENSIM_OBS_PHASE(profiler_, obs::Phase::PowerManage);
    const std::size_t n = topo_.numSockets();
    for (std::size_t s = 0; s < n; ++s) {
        if (!busyFlag_[s])
            continue;
        syncProgress(s, now);
        const DvfsDecision d =
            chooseDvfs(s, runningSet_[s], dvfsCap(s));
        applyRate(s, d.pstate, d.power.value(), now);
    }
    // The loop leaves the busy sums and the completion list alone
    // (nothing reads them in it): re-derive both once here, which also
    // pins any incremental floating-point drift of the sums to at most
    // one epoch's worth of updates.
    rebuildScalars();
    completions_.fill(horizon, completionS_, busyFlag_);
}

void
DenseServerSim::processWindow(const std::vector<Job> &jobs,
                              std::size_t &next_job, double t0, double t1)
{
    DENSIM_OBS_PHASE(profiler_, obs::Phase::ProcessWindow);
    (void)t0;
    const double inf = std::numeric_limits<double>::infinity();
    for (;;) {
        const double next_arrival =
            next_job < jobs.size() ? jobs[next_job].arrivalS : inf;
        const double next_completion = completions_.topKey();

        const double t_event = std::min(next_arrival, next_completion);
        if (t_event >= t1) {
            accumulate(t1);
            return;
        }
        accumulate(std::max(t_event, tCursor_));

        if (next_completion <= next_arrival) {
            completeJob(completions_.top(), next_completion);
        } else {
            ++metrics_.jobsArrived;
            queue_.push_back(jobs[next_job]);
            ++next_job;
            tryScheduleQueue(next_arrival);
        }
    }
}

void
DenseServerSim::syncProgress(std::size_t socket, double now)
{
    if (!busyFlag_[socket])
        return;
    const double dt = now - lastSyncS_[socket];
    if (dt > 0.0) {
        jobRemainingS_[socket] = std::max(
            0.0, jobRemainingS_[socket] - dt * progressRate(socket));
        lastSyncS_[socket] = now;
    }
}

void
DenseServerSim::clearJobState(std::size_t socket)
{
    jobBenchmark_[socket] = 0;
    jobArrivalS_[socket] = 0.0;
    jobStartS_[socket] = 0.0;
    jobNominalS_[socket] = 0.0;
    jobRemainingS_[socket] = 0.0;
    lastSyncS_[socket] = 0.0;
    completionS_[socket] = 0.0;
    pstate_[socket] = 0;
    // Idle sockets contribute nothing downstream.
    predCache_.parkIdle(socket);
}

void
DenseServerSim::setSocketRate(std::size_t socket, std::size_t new_pstate,
                              double power_w, double now)
{
    applyRate(socket, new_pstate, power_w, now);
    busySumsFold(sums_, 1, socket);
    completions_.upsert(socket, completionS_[socket]);
}

void
DenseServerSim::applyRate(std::size_t socket, std::size_t new_pstate,
                          double power_w, double now)
{
    pstate_[socket] = new_pstate;
    freqMhz_[socket] = freqByPstate_[new_pstate];
    if (powerW_[socket] != power_w) {
        totalPowerW_ -= powerW_[socket];
        powerW_[socket] = power_w;
        totalPowerW_ += power_w;
        markPowerDirty(socket);
    }
    completionS_[socket] = now + jobRemainingS_[socket] / progressRate(socket);
    refreshPenaltySnapshot(socket);
}

void
DenseServerSim::refreshPenaltySnapshot(std::size_t socket)
{
    // A pure function of the socket's busy flag, P-state and workload
    // set, so a restored engine re-derives it (ckpt finalizeRestore).
    if (predCache_.snapshot && busyFlag_[socket])
        predCache_.snapshotBusy(socket, pstate_[socket],
                                runningSet_[socket]);
    else
        predCache_.parkIdle(socket);
}

void
DenseServerSim::setIdlePower(std::size_t socket)
{
    const double gated = pm_.gatedPower(leak_).value();
    if (powerW_[socket] != gated) {
        totalPowerW_ -= powerW_[socket];
        powerW_[socket] = gated;
        totalPowerW_ += gated;
        markPowerDirty(socket);
    }
    freqMhz_[socket] = 0.0;
    // An idle socket contributes nothing to downstream penalties.
    predCache_.parkIdle(socket);
}

SchedContext
DenseServerSim::makeSchedContext() const
{
    SchedContext ctx;
    ctx.topo = &topo_;
    ctx.coupling = &coupling_;
    ctx.couplingEpoch = couplingEpoch_;
    ctx.pm = &pm_;
    ctx.leak = &leak_;
    ctx.inletC = config_.topo.inletC;
    ctx.idle = &idleList_;
    ctx.idlePerRow = rowIdle_.data();
    ctx.nSockets = topo_.numSockets();
    ctx.chipTempC = sensedTempC_.data();
    ctx.histTempC = histTempC_.data();
    ctx.ambientC = ambientC_.data();
    ctx.boostCreditS = boostCreditS_.data();
    ctx.powerW = powerW_.data();
    ctx.freqMhz = freqMhz_.data();
    ctx.runningSet = runningSet_.data();
    ctx.busy = busyFlag_.data();
    ctx.socketRow = rowCache_.data();
    ctx.rng = const_cast<Rng *>(&policyRng_);
    ctx.cache = config_.schedPredictionCache ? &predCache_ : nullptr;
    return ctx;
}

void
DenseServerSim::idleInsert(std::size_t socket)
{
    const auto it =
        std::lower_bound(idleList_.begin(), idleList_.end(), socket);
    idleList_.insert(it, socket);
    ++rowIdle_[static_cast<std::size_t>(rowCache_[socket])];
}

void
DenseServerSim::idleRemove(std::size_t socket)
{
    const auto it =
        std::lower_bound(idleList_.begin(), idleList_.end(), socket);
    if (it == idleList_.end() || *it != socket)
        panic("socket ", socket, " missing from the idle list");
    idleList_.erase(it);
    --rowIdle_[static_cast<std::size_t>(rowCache_[socket])];
}

void
DenseServerSim::tryScheduleQueue(double now)
{
    if (queue_.empty() || idleList_.empty())
        return;
    const SchedContext ctx = makeSchedContext();
    while (!queue_.empty() && !idleList_.empty()) {
        const Job &job = queue_.front();
        const std::size_t pick = policy_->pickCounted(job, ctx);
        ++decisions_;
        count_.schedDecisions->inc();
        if (pick >= topo_.numSockets() || busyFlag_[pick])
            panic("policy '", policy_->name(),
                  "' picked an invalid socket ", pick);
        placeJob(pick, job, now);
        queue_.pop_front();
    }
}

void
DenseServerSim::placeJob(std::size_t socket, const Job &job, double now)
{
    busyFlag_[socket] = 1;
    runningSet_[socket] = job.set;
    jobBenchmark_[socket] = job.benchmark;
    jobArrivalS_[socket] = job.arrivalS;
    jobStartS_[socket] = now;
    jobNominalS_[socket] = job.nominalS;
    jobRemainingS_[socket] = job.nominalS;
    lastSyncS_[socket] = now;
    idleRemove(socket);

    // A freshly placed job gets its frequency immediately (the power
    // manager would confirm it within at most one epoch anyway).
    const DvfsDecision d = chooseDvfs(socket, job.set, dvfsCap(socket));
    setSocketRate(socket, d.pstate, d.power.value(), now);

    if (job.arrivalS >= config_.warmupS)
        metrics_.queueDelayS.add(now - job.arrivalS);
    count_.jobsPlaced->inc();
}

void
DenseServerSim::completeJob(std::size_t socket, double now)
{
    DENSIM_CHECK(!faultsEnabled_ || !faultState_.offline(socket),
                 "job completion on offline socket ", socket);
    syncProgress(socket, now);
    if (jobArrivalS_[socket] >= config_.warmupS) {
        ++metrics_.jobsCompleted;
        metrics_.runtimeExpansion.add((now - jobArrivalS_[socket]) /
                                      jobNominalS_[socket]);
        metrics_.serviceExpansion.add((now - jobStartS_[socket]) /
                                      jobNominalS_[socket]);
    }
    metrics_.makespanS = now;

    busySumsFold(sums_, -1, socket);
    busyFlag_[socket] = 0;
    completions_.erase(socket);
    setIdlePower(socket);
    idleInsert(socket);
    count_.jobsCompleted->inc();
    tryScheduleQueue(now);
}

void
DenseServerSim::migrateJob(std::size_t from, std::size_t to, double now)
{
    busySumsFold(sums_, -1, from);
    jobBenchmark_[to] = jobBenchmark_[from];
    jobArrivalS_[to] = jobArrivalS_[from];
    jobStartS_[to] = jobStartS_[from];
    jobNominalS_[to] = jobNominalS_[from];
    // The move costs work: checkpoint/transfer/warm-up, expressed in
    // nominal seconds.
    jobRemainingS_[to] = jobRemainingS_[from] + config_.migrationCostS;
    lastSyncS_[to] = now;
    completionS_[to] = completionS_[from];
    pstate_[to] = pstate_[from];
    busyFlag_[to] = 1;
    runningSet_[to] = runningSet_[from];
    idleRemove(to);

    clearJobState(from);
    busyFlag_[from] = 0;
    completions_.erase(from);
    setIdlePower(from);
    idleInsert(from);

    const DvfsDecision d = chooseDvfs(to, runningSet_[to], dvfsCap(to));
    setSocketRate(to, d.pstate, d.power.value(), now);
    ++metrics_.migrations;
    count_.migrations->inc();
}

void
DenseServerSim::attemptMigrations(double now)
{
    DENSIM_OBS_PHASE(profiler_, obs::Phase::Migration);
    // Move long-running, throttled jobs to sockets where the active
    // policy would place them now — if that destination actually runs
    // faster. This is the paper's Sec. VI suggestion of reusing the
    // placement policy for migration decisions.
    int moved = 0;
    const SchedContext ctx = makeSchedContext();
    for (std::size_t s = 0;
         s < topo_.numSockets() && moved < config_.migrationMaxPerPass;
         ++s) {
        if (!busyFlag_[s] || pstate_[s] >= sustainedIdx_)
            continue;
        syncProgress(s, now);
        if (jobRemainingS_[s] < config_.migrationMinRemainingS)
            continue;
        if (idleList_.empty())
            break;

        Job remainder;
        remainder.id = 0;
        remainder.benchmark = jobBenchmark_[s];
        remainder.set = runningSet_[s];
        remainder.arrivalS = jobArrivalS_[s];
        remainder.nominalS = jobRemainingS_[s];
        const std::size_t dest = policy_->pickCounted(remainder, ctx);
        if (dest >= topo_.numSockets() || busyFlag_[dest])
            panic("policy '", policy_->name(),
                  "' picked an invalid migration target ", dest);

        const DvfsDecision d =
            chooseDvfs(dest, runningSet_[s], dvfsCap(dest));
        if (d.pstate <= pstate_[s])
            continue; // Not actually faster there.

        migrateJob(s, dest, now);
        ++moved;
    }
}

void
DenseServerSim::busySumsFold(BusySums &sums, int sign, std::size_t s) const
{
    // Folding out adds -rate, which is exactly subtracting rate.
    const double r = sign * progressRate(s);
    const double f = sign * relFreqByPstate_[pstate_[s]];
    sums.busyTotal += sign;
    sums.workRateTotal += r;
    sums.relFreqSumTotal += f;
    if (boostByPstate_[pstate_[s]])
        sums.busyBoost += sign;
    if (isFront_[s]) {
        sums.busyFront += sign;
        sums.workRateFront += r;
        sums.relFreqSumFront += f;
    } else {
        sums.busyBack += sign;
        sums.workRateBack += r;
        sums.relFreqSumBack += f;
    }
    if (isEven_[s]) {
        sums.busyEven += sign;
        sums.workRateEven += r;
        sums.relFreqSumEven += f;
    }
}

void
DenseServerSim::rebuildScalars()
{
    // Summed in locals in ascending socket order, exactly as a
    // busySumsFold sequence from empty sums would, and stored once.
    double power = 0.0;
    BusySums sums;
    for (std::size_t s = 0; s < topo_.numSockets(); ++s) {
        power += powerW_[s];
        if (busyFlag_[s])
            busySumsFold(sums, 1, s);
    }
    totalPowerW_ = power;
    sums_ = sums;
}

void
DenseServerSim::checkEpochInvariants() const
{
#if DENSIM_ENABLE_CHECKS
    const std::size_t n = topo_.numSockets();

    // Physical sanity of every temperature field the engine maintains.
    invariant::checkTemperatureField("ambientC", ambientC_);
    invariant::checkTemperatureField("chipTempC", chipTempC_);
    invariant::checkTemperatureField("ambTargets", ambTargets_);
    for (std::size_t s = 0; s < n; ++s) {
        DENSIM_CHECK(std::isfinite(powerW_[s]) && powerW_[s] >= 0.0,
                     "socket ", s, " draws unphysical power ",
                     powerW_[s], " W");
    }

    // Structural consistency of the incremental event engine: the
    // completion list holds exactly the busy sockets due before its
    // horizon, the idle list holds the idle ones, and no listed
    // completion lies in the simulated past.
    completions_.checkInvariants(completionS_, busyFlag_);
    const std::size_t offline = faultState_.offlineCount();
    DENSIM_CHECK(idleList_.size() + static_cast<std::size_t>(sums_.busyTotal)
                     + offline == n,
                 idleList_.size(), " idle + ", sums_.busyTotal, " busy + ",
                 offline, " offline sockets on a ", n,
                 "-socket server");
    if (faultsEnabled_) {
        for (std::size_t s = 0; s < n; ++s) {
            DENSIM_CHECK(!(busyFlag_[s] && faultState_.offline(s)),
                         "offline socket ", s, " is running a job");
        }
    }
    // rowIdle_ counts the idle list's row spans (CP locates its
    // candidate span by them).
    std::size_t idle_at = 0;
    for (std::size_t r = 0; r < rowIdle_.size(); ++r) {
        std::size_t run = 0;
        while (idle_at < idleList_.size() &&
               static_cast<std::size_t>(rowCache_[idleList_[idle_at]]) ==
                   r) {
            ++idle_at;
            ++run;
        }
        DENSIM_CHECK(run == static_cast<std::size_t>(rowIdle_[r]), "row ",
                     r, " holds ", run, " idle sockets, rowIdle_ says ",
                     rowIdle_[r]);
    }
    DENSIM_CHECK(idle_at == idleList_.size(),
                 "idle list is not row-major ascending");
    DENSIM_CHECK(completions_.topKey() >= tCursor_,
                 "next completion ", completions_.topKey(),
                 " s lies before the integration cursor ", tCursor_,
                 " s");

#if DENSIM_ENABLE_PARANOID
    // Re-derive the piecewise-integration scalars from scratch; the
    // incremental adds/removes must agree within rounding.
    double power = 0.0;
    double work_rate = 0.0;
    double rel_sum = 0.0;
    int busy = 0;
    for (std::size_t s = 0; s < n; ++s) {
        power += powerW_[s];
        if (!busyFlag_[s])
            continue;
        ++busy;
        work_rate += progressRate(s);
        rel_sum += relFreqByPstate_[pstate_[s]];
    }
    DENSIM_PARANOID(busy == sums_.busyTotal, "incremental busy count ",
                    sums_.busyTotal, " vs rebuilt ", busy);
    DENSIM_PARANOID(std::fabs(power - totalPowerW_) <=
                        1e-6 * std::max(1.0, power),
                    "incremental total power ", totalPowerW_,
                    " W vs rebuilt ", power, " W");
    DENSIM_PARANOID(std::fabs(work_rate - sums_.workRateTotal) <=
                        1e-6 * std::max(1.0, work_rate),
                    "incremental work rate ", sums_.workRateTotal,
                    " vs rebuilt ", work_rate);
    DENSIM_PARANOID(std::fabs(rel_sum - sums_.relFreqSumTotal) <=
                        1e-6 * std::max(1.0, rel_sum),
                    "incremental rel-freq sum ", sums_.relFreqSumTotal,
                    " vs rebuilt ", rel_sum);

    // The delta-maintained ambient-target field must match a fresh
    // batched evaluation of the powers it claims to represent —
    // the batched-vs-incremental drift bound (the refresh cadence
    // keeps accumulated delta rounding under 1e-6) — and must sit
    // inside the coupling map's first-law envelope.
    const std::vector<double> reference =
        coupling_.ambientTemps(targetPowerW_, config_.topo.inlet());
    invariant::checkFieldsClose("ambient-target field", ambTargets_,
                                reference, 1e-6);
    coupling_.checkAmbientFieldPhysics(
        targetPowerW_, config_.topo.inlet(), ambTargets_);
#endif
#endif
}

void
DenseServerSim::applyFaultEvents(double now)
{
    const std::vector<FaultEvent> &events = faultTimeline_.events();
    while (nextFaultEvent_ < events.size() &&
           events[nextFaultEvent_].timeS <= now) {
        // Advance the cursor first: AbortRun throws, and a hypothetical
        // retry must not re-apply the same event.
        const FaultEvent &event = events[nextFaultEvent_++];
        applyFaultEvent(event, now);
    }
}

void
DenseServerSim::applyFaultEvent(const FaultEvent &event, double now)
{
    const auto s = static_cast<std::size_t>(event.socket);
    switch (event.kind) {
    case FaultKind::FanDerate: {
        const FanDerateEffect effect = fanDerateEffect(
            event.value, config_.fault.fanCount,
            config_.topo.perSocketCfm *
                static_cast<double>(topo_.numSockets()));
        applyFanFlowFraction(effect.flowFrac);
        fanPowerW_ = config_.fanPowerW * effect.powerFrac;
        fcount_.fanEvents->inc();
        recordFault(FaultKind::FanDerate, kFaultNoSocket, now,
                    effect.flowFrac);
        break;
    }
    case FaultKind::FanRestore:
        applyFanFlowFraction(1.0);
        fanPowerW_ = config_.fanPowerW;
        fcount_.fanEvents->inc();
        recordFault(FaultKind::FanRestore, kFaultNoSocket, now, 1.0);
        break;
    case FaultKind::SensorStuck:
        faultState_.stickSensor(s, Celsius(ambientC_[s]),
                                Celsius(sensedTempC_[s]));
        fcount_.sensorFaults->inc();
        recordFault(FaultKind::SensorStuck, s, now, sensedTempC_[s]);
        break;
    case FaultKind::SensorNoisy:
        faultState_.noisySensor(s, CelsiusDelta(event.value));
        fcount_.sensorFaults->inc();
        recordFault(FaultKind::SensorNoisy, s, now, event.value);
        break;
    case FaultKind::SensorDropout:
        faultState_.dropSensor(s, Celsius(ambientC_[s]));
        fcount_.sensorFaults->inc();
        recordFault(FaultKind::SensorDropout, s, now, ambientC_[s]);
        break;
    case FaultKind::SensorRestore:
        faultState_.restoreSensor(s);
        recordFault(FaultKind::SensorRestore, s, now, 0.0);
        break;
    case FaultKind::SocketFail:
        failSocket(s, now);
        break;
    case FaultKind::SocketRecover:
        recoverSocket(s, now);
        break;
    case FaultKind::AbortRun:
        abortRun(now);
        break;
    default:
        // Response kinds never appear in a timeline.
        break;
    }
}

void
DenseServerSim::abortRun(double now)
{
    recordFault(FaultKind::AbortRun, kFaultNoSocket, now, 0.0);
    throw std::runtime_error(
        "fault.abortRunS: injected harness fault at t=" +
        std::to_string(now) + " s");
}

CouplingMap
DenseServerSim::deratedCoupling(double flow_frac) const
{
    std::vector<SocketSite> sites = topo_.sites();
    for (SocketSite &site : sites)
        site.ductCfm = Cfm(site.ductCfm.value() * flow_frac);
    CouplingParams params = config_.coupling;
    // The first-law rise per watt scales as 1/CFM; the local
    // recirculation term grows by the same factor.
    params.kappaLocal /= flow_frac;
    return CouplingMap(std::move(sites), params);
}

void
DenseServerSim::applyFanFlowFraction(double flow_frac)
{
    coupling_ = deratedCoupling(flow_frac);
    couplingDerated_ = flow_frac != 1.0;
    ++couplingEpoch_;
    faultState_.setFlowFrac(flow_frac);
    // Retarget the slow ambient field; the trackers then converge to
    // the hotter (or restored) steady state with the 30 s tau.
    refreshAmbientTargets();
}

std::size_t
DenseServerSim::dvfsCap(std::size_t socket) const
{
    if (faultsEnabled_ && faultState_.throttled(socket))
        return 0; // Emergency: pin to the lowest P-state.
    return boostCreditS_[socket] > 0.0 ? boostCap_ : sustainedIdx_;
}

void
DenseServerSim::failSocket(std::size_t socket, double now)
{
    if (faultState_.failed(socket))
        return;
    if (faultState_.quarantined(socket)) {
        // Already out of every pool; only the label escalates.
        faultState_.markFailed(socket);
    } else {
        if (busyFlag_[socket])
            requeueJob(socket, now);
        else
            idleRemove(socket);
        faultState_.markFailed(socket);
    }
    // Electrically dead: not even the gated draw.
    if (powerW_[socket] != 0.0) {
        totalPowerW_ -= powerW_[socket];
        powerW_[socket] = 0.0;
        markPowerDirty(socket);
    }
    freqMhz_[socket] = 0.0;
    fcount_.socketFailures->inc();
    recordFault(FaultKind::SocketFail, socket, now, 0.0);
    // The displaced job may fit on another idle socket right away.
    tryScheduleQueue(now);
}

void
DenseServerSim::recoverSocket(std::size_t socket, double now)
{
    if (!faultState_.failed(socket))
        return;
    faultState_.markOnline(socket);
    setIdlePower(socket);
    idleInsert(socket);
    fcount_.socketRecoveries->inc();
    recordFault(FaultKind::SocketRecover, socket, now, 0.0);
    tryScheduleQueue(now);
}

void
DenseServerSim::quarantineSocket(std::size_t socket, double now)
{
    if (faultState_.offline(socket))
        return;
    if (busyFlag_[socket])
        requeueJob(socket, now);
    else
        idleRemove(socket);
    faultState_.markQuarantined(socket);
    // Quarantined silicon keeps its gated draw while it cools.
    setIdlePower(socket);
    fcount_.quarantines->inc();
    recordFault(FaultKind::Quarantine, socket, now,
                chipTempC_[socket]);
    tryScheduleQueue(now);
}

void
DenseServerSim::requeueJob(std::size_t socket, double now)
{
    syncProgress(socket, now);
    Job job;
    job.id = 0;
    job.benchmark = jobBenchmark_[socket];
    job.set = runningSet_[socket];
    job.arrivalS = jobArrivalS_[socket];
    // The remaining work plus the checkpoint/restore cost of the
    // forced move, floored so a job caught at the instant of its
    // completion still re-runs for a representable duration.
    job.nominalS =
        std::max(jobRemainingS_[socket] + config_.migrationCostS, 1e-9);
    busySumsFold(sums_, -1, socket);
    clearJobState(socket);
    busyFlag_[socket] = 0;
    completions_.erase(socket);
    queue_.push_front(job);
    fcount_.jobsRequeued->inc();
    recordFault(FaultKind::JobRequeue, socket, now, job.nominalS);
}

void
DenseServerSim::emergencyResponse(double now)
{
    const std::size_t n = topo_.numSockets();
    for (std::size_t s = 0; s < n; ++s) {
        if (faultState_.failed(s))
            continue;
        if (faultState_.quarantined(s)) {
            if (faultState_.readmit(s, Celsius(chipTempC_[s]))) {
                faultState_.markOnline(s);
                idleInsert(s);
                fcount_.quarantineExits->inc();
                recordFault(FaultKind::QuarantineExit, s, now,
                            chipTempC_[s]);
                tryScheduleQueue(now);
            }
            continue;
        }
        switch (faultState_.escalate(s, Celsius(chipTempC_[s]),
                                     Seconds(now))) {
        case EscalationAction::Throttle:
            fcount_.emergencyThrottles->inc();
            recordFault(FaultKind::EmergencyThrottle, s, now,
                        chipTempC_[s]);
            break;
        case EscalationAction::Quarantine:
            quarantineSocket(s, now);
            break;
        case EscalationAction::Release:
            fcount_.throttleReleases->inc();
            recordFault(FaultKind::ThrottleRelease, s, now,
                        chipTempC_[s]);
            break;
        case EscalationAction::None:
            break;
        }
    }
}

void
DenseServerSim::recordFault(FaultKind kind, std::size_t socket,
                            double now, double value)
{
    // Cap the in-memory log so a pathological throttle/release
    // oscillation cannot grow it without bound.
    constexpr std::size_t kFaultLogCap = 100000;
    if (faultLog_.size() < kFaultLogCap) {
        FaultEvent e;
        e.timeS = now;
        e.kind = kind;
        e.socket = socket >= static_cast<std::size_t>(kFaultNoSocket)
                       ? kFaultNoSocket
                       : static_cast<std::uint32_t>(socket);
        e.value = value;
        faultLog_.push_back(e);
    }
    if (trace_.enabled()) {
        trace_.addComplete(faultKindName(kind), "fault", now * 1e6,
                           0.0,
                           socket >= static_cast<std::size_t>(
                                         kFaultNoSocket)
                               ? -1
                               : static_cast<int>(socket));
    }
}

void
DenseServerSim::accumulate(double to)
{
    // Split any interval straddling the warmup boundary so only the
    // post-warmup part is measured.
    if (tCursor_ < config_.warmupS)
        tCursor_ = std::min(to, config_.warmupS);
    const double dt = to - tCursor_;
    if (dt <= 0.0)
        return;
    {
        metrics_.energyJ += (totalPowerW_ + fanPowerW_) * dt;
        metrics_.totalBusyTime += sums_.busyTotal * dt;
        metrics_.totalFreqTime += sums_.relFreqSumTotal * dt;
        metrics_.totalWork += sums_.workRateTotal * dt;
        metrics_.boostTimeS += sums_.busyBoost * dt;

        metrics_.front.busyTimeS += sums_.busyFront * dt;
        metrics_.front.freqTime += sums_.relFreqSumFront * dt;
        metrics_.front.workDone += sums_.workRateFront * dt;

        metrics_.back.busyTimeS += sums_.busyBack * dt;
        metrics_.back.freqTime += sums_.relFreqSumBack * dt;
        metrics_.back.workDone += sums_.workRateBack * dt;

        metrics_.even.busyTimeS += sums_.busyEven * dt;
        metrics_.even.freqTime += sums_.relFreqSumEven * dt;
        metrics_.even.workDone += sums_.workRateEven * dt;
    }
    tCursor_ = to;
}

} // namespace densim
