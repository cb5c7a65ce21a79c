#include "fleet/fleet_sim.hh"

#include <algorithm>
#include <cmath>

#include "core/invariant.hh"
#include "sched/factory.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "workload/job_generator.hh"

namespace densim {

FleetSim::FleetSim(const SimConfig &config,
                   const std::string &scheduler)
    : base_(config)
{
    if (!config.fleet.enabled())
        fatal("FleetSim: fleet.chassis is 0 — fleet mode is off "
              "(set fleet.chassis or run DenseServerSim directly)");
    config.fleet.validate(config.pmEpochS);
    fleetSeed_ = config.fleet.effectiveSeed(config.seed);

    shards_.reserve(config.fleet.chassis);
    for (std::size_t shard = 0; shard < config.fleet.chassis;
         ++shard) {
        // One set of sink files per shard.
        SimConfig shardConfig = perRunSinks(config, shard);
        // Every shard stream descends from domainSeed, never from
        // xor-ing a shard index into the user seed: the engine's
        // internal streams (policy, sensor, fault) are derived from
        // this already-avalanched value, so no shard's stream can
        // alias another shard's or any fault stream.
        shardConfig.seed = domainSeed(fleetSeed_, shard,
                                      fleet_stream::kShardEngine);
        shards_.push_back(std::make_unique<DenseServerSim>(
            shardConfig, makeScheduler(scheduler)));
    }
    dispatcher_ = makeFleetDispatcher(config.fleet);
}

FleetSim::~FleetSim() = default;

std::size_t
FleetSim::totalSockets() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_)
        total += shard->topology().numSockets();
    return total;
}

std::vector<ShardSummary>
FleetSim::gatherSummaries() const
{
    std::vector<ShardSummary> summaries;
    summaries.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const DenseServerSim &shard = *shards_[s];
        ShardSummary summary;
        summary.shard = s;
        summary.headroomC = shard.thermalHeadroomC();
        summary.powerW = shard.totalPowerW();
        summary.backlog = shard.backlog();
        summary.idleSockets = shard.idleSockets();
        summary.jobsCompleted = shard.jobsCompletedSoFar();
        summaries.push_back(summary);
    }
    return summaries;
}

void
FleetSim::resetRun()
{
    const std::size_t n = shards_.size();
    // The cluster arrival stream: one Poisson process sized for the
    // whole fleet's sockets, fanned out window by window.
    arrivals_ = std::make_unique<JobGenerator>(
        base_.workload, base_.load, static_cast<int>(totalSockets()),
        domainSeed(fleetSeed_, 0, fleet_stream::kArrivals));
    aheadReady_ = false;
    // A fresh dispatcher, so a rerun routes like the first run
    // instead of resuming the last one's cursor.
    dispatcher_ = makeFleetDispatcher(base_.fleet);

    registry_.resetValues();
    windowsCtr_ = &registry_.counter("fleet/windows");
    dispatchedCtr_ = &registry_.counter("fleet/jobsDispatched");

    metrics_ = FleetMetrics{};
    metrics_.chassis = n;
    metrics_.dispatchedPerShard.assign(n, 0);

    batches_.assign(n, {});
    arrivalsOpen_ = true;
    window_ = 0;
}

void
FleetSim::beginRun()
{
    if (fleetOpen_)
        fatal("FleetSim::beginRun: run already open (finishRun?)");
    resetRun();
    for (auto &shard : shards_)
        shard->beginRun();
    fleetOpen_ = true;
}

bool
FleetSim::advanceWindow(unsigned threads)
{
    if (!fleetOpen_)
        fatal("FleetSim::advanceWindow: no open run (beginRun?)");
    const std::size_t n = shards_.size();
    const double windowS = base_.fleet.epochS;
    const auto epochsPerWindow = static_cast<std::size_t>(
        std::round(windowS / base_.pmEpochS));
    // Windows end at (k+1) * epochS by multiplication, not
    // accumulation, so the fan-out boundaries do not drift from
    // float addition however many windows run.
    const auto windowEndS = [&](std::size_t k) {
        return static_cast<double>(k + 1) * windowS;
    };

    // --- barrier: serial, shard-id order ------------------------------
    const std::vector<ShardSummary> summaries = gatherSummaries();

    if (arrivalsOpen_) {
        if (aheadReady_) {
            // Drawn during the last window from a copy of arrivals_:
            // the copy is now the committed stream.
            arrivals_.swap(ahead_);
            windowJobs_.swap(aheadJobs_);
            aheadReady_ = false;
        } else {
            arrivals_->nextWindow(
                std::min(windowEndS(window_), base_.simTimeS),
                windowJobs_);
        }
        for (const Job &job : windowJobs_) {
            const std::size_t target =
                dispatcher_->pick(job, summaries);
            DENSIM_CHECK(target < n, "dispatcher picked shard ",
                         target, " of ", n);
            batches_[target].push_back(job);
            ++metrics_.dispatchedPerShard[target];
            ++metrics_.jobsArrived;
            ++metrics_.jobsDispatched;
            dispatchedCtr_->inc();
        }
        for (std::size_t s = 0; s < n; ++s) {
            if (!batches_[s].empty()) {
                shards_[s]->submitJobs(batches_[s]);
                batches_[s].clear();
            }
        }
        if (windowEndS(window_) >= base_.simTimeS) {
            arrivalsOpen_ = false;
            for (auto &shard : shards_)
                shard->closeArrivals();
        }
    }

    bool anyPending = false;
    for (const auto &shard : shards_)
        anyPending = anyPending || shard->epochPending();
    if (!anyPending)
        return false;

    // --- parallel section: disjoint shard state only ------------------
    if (!pool_ || poolThreads_ != threads) {
        pool_ = std::make_unique<WorkerPool>(threads);
        poolThreads_ = threads;
    }
    const auto advanceShard = [&](std::size_t s) {
        DenseServerSim &shard = *shards_[s];
        for (std::size_t e = 0;
             e < epochsPerWindow && shard.epochPending(); ++e)
            shard.advanceEpoch();
    };
    // The calling thread draws the next window's arrivals while the
    // helpers advance shards, then claims shards itself. Drawing on
    // the calling thread, which also dispatches, keeps both buffers
    // in one allocator arena instead of one per helper.
    const auto drawAhead = [&] {
        if (!arrivalsOpen_)
            return;
        if (ahead_)
            *ahead_ = *arrivals_;
        else
            ahead_ = std::make_unique<JobGenerator>(*arrivals_);
        ahead_->nextWindow(
            std::min(windowEndS(window_ + 1), base_.simTimeS),
            aheadJobs_);
        aheadReady_ = true;
    };
    pool_->run(n, advanceShard, drawAhead);
    windowsCtr_->inc();
    ++window_;
    return true;
}

FleetMetrics
FleetSim::finishRun()
{
    if (!fleetOpen_)
        fatal("FleetSim::finishRun: no open run (beginRun?)");
    const std::size_t n = shards_.size();

    // --- finalization: serial, shard-id order -------------------------
    metrics_.perShard.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        metrics_.perShard.push_back(shards_[s]->finishRun());
        registry_.mergePrefixed(shards_[s]->observability(),
                                "shard" + std::to_string(s) + "/");
    }
    rollUpFleetMetrics(metrics_);
    fleetOpen_ = false;
    arrivals_.reset();
    aheadReady_ = false;
    return std::move(metrics_);
}

FleetMetrics
FleetSim::run(unsigned threads)
{
    beginRun();
    while (advanceWindow(threads)) {
    }
    return finishRun();
}

} // namespace densim
