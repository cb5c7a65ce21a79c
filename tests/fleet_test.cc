/**
 * @file
 * Tests for fleet-scale sharded simulation (DESIGN.md Sec. 15): the
 * engine's streamed run is bit-identical to its one-shot run, a
 * 16-chassis fleet is bit-identical across worker-thread counts,
 * dispatchers are invariant to summary permutation, degenerate fleet
 * configs behave, and the RNG domain separation holds.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "fleet/fleet_dispatcher.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/fleet_sim.hh"
#include "sched/factory.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace densim {
namespace {

SimConfig
fastConfig()
{
    SimConfig config;
    config.topo.rows = 2;
    config.simTimeS = 0.6;
    config.warmupS = 0.1;
    config.socketTauS = 0.5;
    config.seed = 11;
    return config;
}

SimConfig
fleetConfig(std::size_t chassis)
{
    SimConfig config = fastConfig();
    config.fleet.chassis = chassis;
    return config;
}

// ------------------------------------------------- streamed engine

TEST(StreamedRun, MatchesOneShotRunBitExactly)
{
    SimConfig config = fastConfig();
    JobGenerator gen(config.workload, config.load, 24, config.seed);
    const std::vector<Job> jobs = gen.generateUntil(config.simTimeS);
    ASSERT_FALSE(jobs.empty());

    DenseServerSim oneShot(config, makeScheduler("CP"));
    const SimMetrics expected = oneShot.run(jobs);

    // Same arrivals streamed in several batches, epochs advanced by
    // hand — every accumulator must land on the same bits.
    DenseServerSim streamed(config, makeScheduler("CP"));
    streamed.beginRun();
    const std::size_t third = jobs.size() / 3;
    streamed.submitJobs(
        {jobs.begin(), jobs.begin() + static_cast<long>(third)});
    streamed.submitJobs({jobs.begin() + static_cast<long>(third),
                         jobs.begin() + static_cast<long>(2 * third)});
    streamed.submitJobs(
        {jobs.begin() + static_cast<long>(2 * third), jobs.end()});
    streamed.closeArrivals();
    while (streamed.epochPending())
        streamed.advanceEpoch();
    const SimMetrics actual = streamed.finishRun();

    EXPECT_EQ(expected.jobsArrived, actual.jobsArrived);
    EXPECT_EQ(expected.jobsCompleted, actual.jobsCompleted);
    EXPECT_EQ(expected.jobsUnfinished, actual.jobsUnfinished);
    EXPECT_EQ(expected.energyJ, actual.energyJ);
    EXPECT_EQ(expected.makespanS, actual.makespanS);
    EXPECT_EQ(expected.measuredS, actual.measuredS);
    EXPECT_EQ(expected.maxChipTempC, actual.maxChipTempC);
    EXPECT_EQ(expected.totalWork, actual.totalWork);
    EXPECT_EQ(expected.totalBusyTime, actual.totalBusyTime);
    EXPECT_EQ(expected.runtimeExpansion.mean(),
              actual.runtimeExpansion.mean());
    EXPECT_EQ(expected.runtimeExpansion.count(),
              actual.runtimeExpansion.count());
    EXPECT_EQ(expected.queueDelayS.mean(), actual.queueDelayS.mean());
    EXPECT_EQ(expected.chipTempC.mean(), actual.chipTempC.mean());
}

TEST(StreamedRun, SubmitAfterCloseIsFatal)
{
    DenseServerSim sim(fastConfig(), makeScheduler("CP"));
    sim.beginRun();
    sim.closeArrivals();
    ScopedFatalThrows guard;
    EXPECT_THROW(sim.submitJobs({}), FatalError);
}

TEST(StreamedRun, OutOfOrderArrivalsAreFatal)
{
    DenseServerSim sim(fastConfig(), makeScheduler("CP"));
    sim.beginRun();
    Job early{};
    early.arrivalS = 0.1;
    early.nominalS = 0.01;
    Job late = early;
    late.arrivalS = 0.2;
    sim.submitJobs({late});
    ScopedFatalThrows guard;
    EXPECT_THROW(sim.submitJobs({early}), FatalError);
}

// ------------------------------------------------- fleet determinism

TEST(FleetSim, SixteenChassisBitIdenticalAcrossWorkerCounts)
{
    const SimConfig config = fleetConfig(16);

    FleetSim serial(config, "CP");
    const std::string oneWorker =
        serializeFleetMetrics(serial.run(1));

    FleetSim parallel4(config, "CP");
    const std::string fourWorkers =
        serializeFleetMetrics(parallel4.run(4));

    EXPECT_EQ(oneWorker, fourWorkers);
}

TEST(FleetSim, RoundRobinDispatcherAlsoBitIdentical)
{
    SimConfig config = fleetConfig(5);
    config.fleet.dispatcher = "roundrobin";

    FleetSim serial(config, "CP");
    const std::string oneWorker =
        serializeFleetMetrics(serial.run(1));

    FleetSim parallel3(config, "CP");
    const std::string threeWorkers =
        serializeFleetMetrics(parallel3.run(3));

    EXPECT_EQ(oneWorker, threeWorkers);
}

TEST(FleetSim, EveryDispatcherBitIdenticalAcrossWorkerCounts)
{
    // Three chassis: 8 workers is above chassis + 1, so the pool caps
    // its helpers at the shard count. One fleet reruns at every
    // count, so its pool is rebuilt between runs and the arrival
    // lookahead must not leak from one run into the next; a last run
    // changes the count every window.
    constexpr std::size_t kChassis = 3;
    for (const char *dispatcher :
         {"roundrobin", "headroom", "locality", "power"}) {
        SimConfig config = fleetConfig(kChassis);
        config.fleet.dispatcher = dispatcher;

        FleetSim serial(config, "CP");
        const std::string expected =
            serializeFleetMetrics(serial.run(1));

        FleetSim fleet(config, "CP");
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            EXPECT_EQ(expected, serializeFleetMetrics(fleet.run(threads)))
                << "dispatcher " << dispatcher << ", " << threads
                << " workers";
        }
        fleet.beginRun();
        for (unsigned w = 0; fleet.advanceWindow(1 + w % 4); ++w) {
        }
        EXPECT_EQ(expected, serializeFleetMetrics(fleet.finishRun()))
            << "dispatcher " << dispatcher
            << ", worker count changed every window";
    }
}

TEST(FleetSim, EveryArrivalIsDispatchedAndAccounted)
{
    FleetSim fleet(fleetConfig(4), "CP");
    const FleetMetrics m = fleet.run(2);

    EXPECT_EQ(m.chassis, 4u);
    EXPECT_GT(m.jobsArrived, 0u);
    EXPECT_EQ(m.jobsArrived, m.jobsDispatched);
    std::uint64_t dispatched = 0;
    std::size_t arrived = 0;
    for (std::size_t s = 0; s < 4; ++s) {
        dispatched += m.dispatchedPerShard[s];
        arrived += m.perShard[s].jobsArrived;
    }
    EXPECT_EQ(dispatched, m.jobsDispatched);
    EXPECT_EQ(arrived, m.jobsDispatched);
    // The fleet drains: everything dispatched either completed
    // (possibly during warmup, uncounted) or is reported unfinished.
    EXPECT_EQ(m.jobsUnfinished, 0u);
}

TEST(FleetSim, FaultLogIsWrittenPerShard)
{
    // Every shard writes its own fault log under the grid's per-run
    // names; one shared path would keep only the last shard's events.
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "densim_fleet_faults";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SimConfig config = fleetConfig(3);
    config.fault.socketFailCount = 2;
    config.fault.socketFailS = 0.3;
    config.fault.logPath = (dir / "faults.jsonl").string();
    FleetSim fleet(config, "CF");
    (void)fleet.run(2);

    EXPECT_FALSE(std::filesystem::exists(dir / "faults.jsonl"));
    std::map<std::string, std::uint64_t> counters;
    for (const auto &c : fleet.observability().counters())
        counters[c.name] = c.value;
    for (std::size_t s = 0; s < 3; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        std::ifstream log(dir /
                          ("faults-run" + std::to_string(s) + ".jsonl"));
        ASSERT_TRUE(log.good());
        std::uint64_t fails = 0;
        for (std::string line; std::getline(log, line);)
            fails += line.find("\"kind\":\"socketFail\"") !=
                     std::string::npos;
        const std::string name =
            "shard" + std::to_string(s) + "/fault.socketFailures";
        ASSERT_EQ(counters.count(name), 1u);
        EXPECT_GT(counters[name], 0u);
        EXPECT_EQ(fails, counters[name]);
    }
}

// ------------------------------------------------- degenerate configs

TEST(FleetSim, ZeroChassisConfigIsRejected)
{
    ScopedFatalThrows guard;
    EXPECT_THROW(FleetSim(fleetConfig(0), "CP"), FatalError);
}

TEST(FleetSim, SingleChassisFleetRoutesEverythingToShardZero)
{
    FleetSim fleet(fleetConfig(1), "CP");
    const FleetMetrics m = fleet.run(2);
    EXPECT_EQ(m.chassis, 1u);
    EXPECT_GT(m.jobsDispatched, 0u);
    EXPECT_EQ(m.dispatchedPerShard[0], m.jobsDispatched);
    EXPECT_EQ(m.jobsCompleted, m.perShard[0].jobsCompleted);
}

TEST(FleetSim, NonIntegralExchangeWindowIsRejected)
{
    SimConfig config = fleetConfig(2);
    config.fleet.epochS = 0.0015; // 1.5 pm epochs — not integral.
    ScopedFatalThrows guard;
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(FleetSim, UnknownDispatcherIsRejected)
{
    SimConfig config = fleetConfig(2);
    config.fleet.dispatcher = "warmest";
    ScopedFatalThrows guard;
    EXPECT_THROW(config.validate(), FatalError);
}

// ------------------------------------------------- dispatchers

std::vector<ShardSummary>
exampleSummaries()
{
    // Shard 1: idle + most headroom; shard 0: idle, less headroom;
    // shard 2: busy but cold; shard 3: busy and hot.
    ShardSummary s0{0, 20.0, 900.0, 3, 2, 10};
    ShardSummary s1{1, 35.0, 400.0, 1, 5, 12};
    ShardSummary s2{2, 50.0, 200.0, 24, 0, 7};
    ShardSummary s3{3, 5.0, 1200.0, 30, 0, 9};
    return {s0, s1, s2, s3};
}

TEST(FleetDispatcher, PicksAreInvariantToSummaryPermutation)
{
    Job job{};
    FleetConfig config;
    config.chassis = 4;
    config.powerBudgetW = 2000.0;
    for (const std::string &name : knownFleetDispatchers()) {
        config.dispatcher = name;
        auto reference = makeFleetDispatcher(config);
        auto shuffled = makeFleetDispatcher(config);
        std::vector<ShardSummary> summaries = exampleSummaries();
        std::vector<ShardSummary> reversed(summaries.rbegin(),
                                           summaries.rend());
        // Drive both instances through the same pick sequence (the
        // roundrobin/locality policies are stateful) — every step
        // must agree regardless of summary order.
        for (int step = 0; step < 12; ++step) {
            EXPECT_EQ(reference->pick(job, summaries),
                      shuffled->pick(job, reversed))
                << "dispatcher " << name << " step " << step;
        }
    }
}

TEST(FleetDispatcher, HeadroomPrefersIdleShardWithMostHeadroom)
{
    FleetConfig config;
    config.chassis = 4;
    auto dispatcher = makeFleetDispatcher(config);
    Job job{};
    // Shard 1 idles with 35 C headroom; shard 2 has 50 C but no
    // idle socket.
    EXPECT_EQ(dispatcher->pick(job, exampleSummaries()), 1u);
}

TEST(FleetDispatcher, PowerRespectsBudgetFairShare)
{
    FleetConfig config;
    config.chassis = 4;
    config.dispatcher = "power";
    config.powerBudgetW = 2000.0; // Fair share: 500 W.
    auto dispatcher = makeFleetDispatcher(config);
    Job job{};
    // Shard 2 draws least (200 W) and is under its share.
    EXPECT_EQ(dispatcher->pick(job, exampleSummaries()), 2u);

    // With every shard over its share the least-loaded one still
    // absorbs the job — the budget shapes routing, never drops work.
    FleetConfig tight = config;
    tight.powerBudgetW = 100.0;
    auto strict = makeFleetDispatcher(tight);
    EXPECT_EQ(strict->pick(job, exampleSummaries()), 2u);
}

TEST(FleetDispatcher, RoundRobinCyclesByShardId)
{
    FleetConfig config;
    config.chassis = 4;
    config.dispatcher = "roundrobin";
    auto dispatcher = makeFleetDispatcher(config);
    Job job{};
    const auto summaries = exampleSummaries();
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(dispatcher->pick(job, summaries), k % 4);
}

// ------------------------------------------------- RNG domain separation

TEST(DomainSeed, CoordinatesAreSeparated)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed = 0; seed < 4; ++seed)
        for (std::uint64_t shard = 0; shard < 8; ++shard)
            for (std::uint64_t tag = 0; tag < 4; ++tag)
                seen.insert(domainSeed(seed, shard, tag));
    EXPECT_EQ(seen.size(), 4u * 8u * 4u);

    // Unlike xor-stream derivation, folding the same value into a
    // different coordinate yields an unrelated seed.
    EXPECT_NE(domainSeed(7, 3, 0), domainSeed(7, 0, 3));
    EXPECT_NE(domainSeed(7, 3, 0), domainSeed(3, 7, 0));
}

TEST(DomainSeed, ShardStreamsCannotAliasFaultStreams)
{
    // The per-shard engine seed and the engine's xor-derived fault
    // stream seed for every shard must be pairwise distinct.
    const SimConfig config = fleetConfig(16);
    const std::uint64_t fleetSeed =
        config.fleet.effectiveSeed(config.seed);
    std::set<std::uint64_t> seeds;
    for (std::uint64_t shard = 0; shard < 16; ++shard) {
        const std::uint64_t engine = domainSeed(
            fleetSeed, shard, fleet_stream::kShardEngine);
        const std::uint64_t fault =
            config.fault.effectiveSeed(engine) ^
            0x0badcab1efa57f00ULL;
        EXPECT_TRUE(seeds.insert(engine).second);
        EXPECT_TRUE(seeds.insert(fault).second);
    }
    EXPECT_EQ(seeds.size(), 32u);
}

} // namespace
} // namespace densim
