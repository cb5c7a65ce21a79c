/**
 * @file
 * Tests for the simulation engine: conservation invariants (every
 * arriving job completes), determinism, trace replay, metric sanity,
 * thermal-limit enforcement, warm start, boost-dwell behaviour, and
 * the event-driven/1 µs-polling equivalence.
 */

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "core/experiment.hh"
#include "sched/factory.hh"
#include "workload/xperf_trace.hh"

namespace densim {
namespace {

/** A small, fast configuration used by most engine tests. */
SimConfig
smallConfig()
{
    SimConfig config;
    config.topo.rows = 3; // 36 sockets
    config.simTimeS = 2.0;
    config.warmupS = 0.5;
    config.socketTauS = 0.5;
    config.seed = 42;
    return config;
}

TEST(Engine, AllArrivedJobsComplete)
{
    SimConfig config = smallConfig();
    config.load = 0.5;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    EXPECT_GT(m.jobsArrived, 1000u);
    EXPECT_EQ(m.jobsUnfinished, 0u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    for (const char *name : {"CF", "Random", "CP"}) {
        SimConfig config = smallConfig();
        DenseServerSim a(config, makeScheduler(name));
        DenseServerSim b(config, makeScheduler(name));
        const SimMetrics ma = a.run();
        const SimMetrics mb = b.run();
        EXPECT_DOUBLE_EQ(ma.runtimeExpansion.mean(),
                         mb.runtimeExpansion.mean())
            << name;
        EXPECT_DOUBLE_EQ(ma.energyJ, mb.energyJ) << name;
        EXPECT_EQ(ma.jobsCompleted, mb.jobsCompleted) << name;
    }
}

TEST(Engine, RerunOnSameInstanceMatches)
{
    SimConfig config = smallConfig();
    DenseServerSim sim(config, makeScheduler("Predictive"));
    const SimMetrics first = sim.run();
    const SimMetrics second = sim.run();
    EXPECT_DOUBLE_EQ(first.runtimeExpansion.mean(),
                     second.runtimeExpansion.mean());
}

TEST(Engine, DifferentSeedsDiffer)
{
    SimConfig a = smallConfig();
    SimConfig b = smallConfig();
    b.seed = 43;
    DenseServerSim sa(a, makeScheduler("CF"));
    DenseServerSim sb(b, makeScheduler("CF"));
    EXPECT_NE(sa.run().runtimeExpansion.mean(),
              sb.run().runtimeExpansion.mean());
}

TEST(Engine, TraceReplayMatchesGeneratedRun)
{
    // Capturing the generator's jobs into a list and replaying them,
    // all submitted up front, must give identical results to the
    // generated run(), which draws them one epoch at a time.
    SimConfig config = smallConfig();
    JobGenerator gen(config.workload, config.load,
                     static_cast<int>(36), config.seed);
    const std::vector<Job> jobs = gen.nextWindow(config.simTimeS);

    DenseServerSim internal(config, makeScheduler("CF"));
    DenseServerSim replay(config, makeScheduler("CF"));
    const SimMetrics a = internal.run();
    const SimMetrics b = replay.run(jobs);
    EXPECT_EQ(a.runtimeExpansion.mean(), b.runtimeExpansion.mean());
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
}

TEST(Engine, RuntimeExpansionAtLeastServiceFloor)
{
    // Runtime expansion includes queueing, service expansion does
    // not; and boosted jobs can finish faster than nominal (<1).
    SimConfig config = smallConfig();
    config.load = 0.6;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    EXPECT_GE(m.runtimeExpansion.mean(),
              m.serviceExpansion.mean() - 1e-9);
    EXPECT_GT(m.serviceExpansion.mean(), 0.5);
    EXPECT_LT(m.serviceExpansion.mean(), 2.0);
}

TEST(Engine, ChipTemperatureRespectsLimitWhenFeasible)
{
    SimConfig config = smallConfig();
    config.load = 0.4;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    // At modest load nothing should be pinned at an infeasible floor.
    EXPECT_LE(m.maxChipTempC, config.tLimitC + 1.0);
    EXPECT_GT(m.chipTempC.mean(), config.topo.inletC);
}

TEST(Engine, EnergyScalesWithLoad)
{
    SimConfig lo = smallConfig();
    lo.load = 0.2;
    SimConfig hi = smallConfig();
    hi.load = 0.8;
    DenseServerSim a(lo, makeScheduler("CF"));
    DenseServerSim b(hi, makeScheduler("CF"));
    EXPECT_LT(a.run().energyJ, b.run().energyJ);
}

TEST(Engine, IdleServerBurnsGatedPowerOnly)
{
    // With a tiny load, energy approaches gated power * sockets *
    // time.
    SimConfig config = smallConfig();
    config.load = 0.01;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    const double gated_floor = 0.10 * 22.0 * 36 * m.measuredS;
    EXPECT_GE(m.energyJ, gated_floor * 0.99);
    EXPECT_LE(m.energyJ, gated_floor * 1.30);
}

TEST(Engine, FanPowerAddsConstantEnergy)
{
    SimConfig plain = smallConfig();
    SimConfig cooled = smallConfig();
    cooled.fanPowerW = 100.0;
    DenseServerSim a(plain, makeScheduler("CF"));
    DenseServerSim b(cooled, makeScheduler("CF"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();
    // Same placement stream, so the delta is exactly fan * time.
    EXPECT_NEAR(mb.energyJ - ma.energyJ, 100.0 * ma.measuredS, 1e-6);
    EXPECT_DOUBLE_EQ(ma.runtimeExpansion.mean(),
                     mb.runtimeExpansion.mean());
}

TEST(Engine, WorkFractionsSumToOne)
{
    SimConfig config = smallConfig();
    config.load = 0.5;
    DenseServerSim sim(config, makeScheduler("Random"));
    const SimMetrics m = sim.run();
    EXPECT_NEAR(m.workFraction(m.front) + m.workFraction(m.back), 1.0,
                1e-9);
    EXPECT_GT(m.workFraction(m.even), 0.2);
    EXPECT_LT(m.workFraction(m.even), 0.8);
}

TEST(Engine, RegionFreqTimesConsistent)
{
    SimConfig config = smallConfig();
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    EXPECT_NEAR(m.front.busyTimeS + m.back.busyTimeS, m.totalBusyTime,
                1e-6);
    EXPECT_LE(m.avgRelFreq(), 1.0 + 1e-9);
    EXPECT_GE(m.avgRelFreq(), 1100.0 / 1900.0 - 1e-9);
}

TEST(Engine, SchedulerDecisionsMatchArrivals)
{
    SimConfig config = smallConfig();
    config.load = 0.3;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    // Every arrived job needs exactly one placement decision (no
    // sockets are ever stolen).
    EXPECT_EQ(sim.decisions(), m.jobsArrived);
}

TEST(Engine, WarmStartShortensTransient)
{
    // Cold- and warm-started runs converge to the same behaviour;
    // the warm start must not distort job accounting.
    SimConfig warm = smallConfig();
    warm.warmStart = true;
    SimConfig cold = smallConfig();
    cold.warmStart = false;
    DenseServerSim a(warm, makeScheduler("CF"));
    DenseServerSim b(cold, makeScheduler("CF"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();
    EXPECT_EQ(ma.jobsArrived, mb.jobsArrived);
    EXPECT_EQ(ma.jobsUnfinished, 0u);
    EXPECT_EQ(mb.jobsUnfinished, 0u);
}

TEST(Engine, BoostDwellLimitsSustainedBoost)
{
    // With zero refill, boost can only be used for the initial burst.
    SimConfig burst = smallConfig();
    burst.load = 0.9;
    burst.boostRefillRate = 0.0;
    burst.boostBurstS = 0.05;
    DenseServerSim a(burst, makeScheduler("CF"));
    const double frac_limited = a.run().boostFraction();

    SimConfig free = smallConfig();
    free.load = 0.9;
    free.boostRefillRate = 1e6; // effectively unlimited
    DenseServerSim b(free, makeScheduler("CF"));
    const double frac_free = b.run().boostFraction();
    EXPECT_LT(frac_limited, 0.2);
    EXPECT_GT(frac_free, frac_limited + 0.2);
}

TEST(Engine, StorageCoolerThanComputation)
{
    SimConfig comp = smallConfig();
    comp.workload = WorkloadSet::Computation;
    comp.load = 0.8;
    SimConfig storage = comp;
    storage.workload = WorkloadSet::Storage;
    DenseServerSim a(comp, makeScheduler("CF"));
    DenseServerSim b(storage, makeScheduler("CF"));
    EXPECT_GT(a.run().chipTempC.mean(), b.run().chipTempC.mean());
}

TEST(Engine, FinerPollingChangesNothing)
{
    // The engine schedules at event boundaries, equivalent to the
    // paper's 1 us polling. Shrinking the power-management epoch
    // (the only quantized decision) must not change completions.
    SimConfig coarse = smallConfig();
    coarse.simTimeS = 0.5;
    coarse.warmupS = 0.1;
    SimConfig fine = coarse;
    fine.pmEpochS = 0.25e-3;
    DenseServerSim a(coarse, makeScheduler("CF"));
    DenseServerSim b(fine, makeScheduler("CF"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();
    EXPECT_EQ(ma.jobsArrived, mb.jobsArrived);
    // Quantized DVFS differs slightly; completions and mean expansion
    // must agree closely.
    EXPECT_NEAR(ma.runtimeExpansion.mean(), mb.runtimeExpansion.mean(),
                0.02);
}

TEST(Engine, UnsortedTraceIsFatal)
{
    SimConfig config = smallConfig();
    DenseServerSim sim(config, makeScheduler("CF"));
    Job a{0, 0, WorkloadSet::Computation, 1.0, 1e-3};
    Job b{1, 0, WorkloadSet::Computation, 0.5, 1e-3};
    EXPECT_EXIT(sim.run(std::vector<Job>{a, b}),
                ::testing::ExitedWithCode(1), "sorted");
}

TEST(Engine, MissingPolicyIsFatal)
{
    EXPECT_EXIT(DenseServerSim(smallConfig(), nullptr),
                ::testing::ExitedWithCode(1), "policy");
}

TEST(Engine, InvalidConfigIsFatal)
{
    SimConfig config = smallConfig();
    config.load = 2.0;
    EXPECT_EXIT(DenseServerSim(config, makeScheduler("CF")),
                ::testing::ExitedWithCode(1), "load");

    // Epoch and cadence counts the engine casts to integers must stay
    // below 2^53, and a negative cadence is not "no cadence".
    config = smallConfig();
    config.migrationEnabled = true;
    config.migrationIntervalS = 1e20;
    EXPECT_EXIT(DenseServerSim(config, makeScheduler("CF")),
                ::testing::ExitedWithCode(1), "migrationIntervalS");
    config = smallConfig();
    config.pmEpochS = 1.0;
    config.migrationIntervalS = 0x1p53;
    EXPECT_EXIT(DenseServerSim(config, makeScheduler("CF")),
                ::testing::ExitedWithCode(1), "migrationIntervalS");
    config = smallConfig();
    config.ckptEveryS = -1.0;
    EXPECT_EXIT(DenseServerSim(config, makeScheduler("CF")),
                ::testing::ExitedWithCode(1), "ckpt.everyS");
    config = smallConfig();
    config.ckptEveryS = 1e-300;
    EXPECT_EXIT(DenseServerSim(config, makeScheduler("CF")),
                ::testing::ExitedWithCode(1), "ckpt.everyS");
    config = smallConfig();
    config.fleet.chassis = 2;
    config.fleet.epochS = 1e20;
    EXPECT_EXIT(DenseServerSim(config, makeScheduler("CF")),
                ::testing::ExitedWithCode(1), "fleet.epochS");
}

TEST(Engine, MigrationOffByDefault)
{
    SimConfig config = smallConfig();
    config.load = 0.8;
    DenseServerSim sim(config, makeScheduler("CP"));
    EXPECT_EQ(sim.run().migrations, 0u);
}

TEST(Engine, MigrationMovesThrottledLongJobs)
{
    // Hot, heavily loaded server: the duration tail produces jobs
    // long enough to be worth moving once their socket throttles.
    SimConfig config = smallConfig();
    config.load = 0.9;
    config.simTimeS = 3.0;
    config.warmupS = 0.5;
    config.migrationEnabled = true;
    DenseServerSim sim(config, makeScheduler("CP"));
    const SimMetrics m = sim.run();
    EXPECT_GT(m.migrations, 0u);
    EXPECT_EQ(m.jobsUnfinished, 0u);
}

TEST(Engine, MigrationIsDeterministic)
{
    SimConfig config = smallConfig();
    config.load = 0.9;
    config.migrationEnabled = true;
    DenseServerSim a(config, makeScheduler("CP"));
    DenseServerSim b(config, makeScheduler("CP"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();
    EXPECT_EQ(ma.migrations, mb.migrations);
    EXPECT_DOUBLE_EQ(ma.runtimeExpansion.mean(),
                     mb.runtimeExpansion.mean());
}

TEST(Engine, MigrationRespectsMinRemaining)
{
    // With an impossibly large min-remaining threshold nothing ever
    // qualifies.
    SimConfig config = smallConfig();
    config.load = 0.9;
    config.migrationEnabled = true;
    config.migrationMinRemainingS = 1e9;
    DenseServerSim sim(config, makeScheduler("CP"));
    EXPECT_EQ(sim.run().migrations, 0u);
}

TEST(Engine, TimelineSamplingShape)
{
    SimConfig config = smallConfig();
    config.timelineSampleS = 0.25;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    ASSERT_GE(m.timelineS.size(), 8u);
    ASSERT_EQ(m.timelineS.size(), m.zoneAmbientC.size());
    for (const auto &row : m.zoneAmbientC) {
        ASSERT_EQ(row.size(), 6u);
        // The staircase: zone k+1 is never cooler than zone k by
        // more than local-power noise.
        for (double t : row)
            EXPECT_GE(t, config.topo.inletC - 1e-9);
    }
    // Samples are evenly spaced up to the 1 ms epoch quantization.
    for (std::size_t i = 1; i < m.timelineS.size(); ++i)
        EXPECT_NEAR(m.timelineS[i] - m.timelineS[i - 1], 0.25, 2e-3);
}

TEST(Engine, TimelineOffByDefault)
{
    SimConfig config = smallConfig();
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    EXPECT_TRUE(m.timelineS.empty());
    EXPECT_TRUE(m.zoneAmbientC.empty());
}

TEST(Engine, IdealSensorsMatchOracle)
{
    // With sensing ideal (defaults), enabling quantization of 0 or
    // noise of 0 must not change anything.
    SimConfig a = smallConfig();
    SimConfig b = smallConfig();
    b.sensorNoiseC = 0.0;
    b.sensorQuantC = 0.0;
    DenseServerSim sa(a, makeScheduler("CF"));
    DenseServerSim sb(b, makeScheduler("CF"));
    EXPECT_DOUBLE_EQ(sa.run().runtimeExpansion.mean(),
                     sb.run().runtimeExpansion.mean());
}

TEST(Engine, SensorNoisePerturbsButCompletes)
{
    SimConfig noisy = smallConfig();
    noisy.load = 0.7;
    noisy.sensorNoiseC = 2.0;
    noisy.sensorQuantC = 1.0;
    SimConfig clean = smallConfig();
    clean.load = 0.7;
    DenseServerSim a(noisy, makeScheduler("CF"));
    DenseServerSim b(clean, makeScheduler("CF"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();
    EXPECT_EQ(ma.jobsUnfinished, 0u);
    // CF's choices depend on the sensed field, so the runs diverge.
    EXPECT_NE(ma.runtimeExpansion.mean(), mb.runtimeExpansion.mean());
    // But not catastrophically: thermal behaviour is governed by the
    // (oracle) power manager either way.
    EXPECT_NEAR(ma.runtimeExpansion.mean(), mb.runtimeExpansion.mean(),
                0.15);
}

TEST(Engine, SensorNoiseIsDeterministic)
{
    SimConfig config = smallConfig();
    config.sensorNoiseC = 1.5;
    DenseServerSim a(config, makeScheduler("A-Random"));
    DenseServerSim b(config, makeScheduler("A-Random"));
    EXPECT_DOUBLE_EQ(a.run().runtimeExpansion.mean(),
                     b.run().runtimeExpansion.mean());
}

TEST(Metrics, Ed2Definition)
{
    SimMetrics m;
    m.energyJ = 100.0;
    m.runtimeExpansion.add(2.0);
    EXPECT_DOUBLE_EQ(m.ed2(), 400.0);
}

TEST(Metrics, RelativePerformanceInverts)
{
    SimMetrics fast, slow;
    fast.runtimeExpansion.add(1.0);
    slow.runtimeExpansion.add(1.25);
    EXPECT_DOUBLE_EQ(relativePerformance(fast, slow), 1.25);
    EXPECT_DOUBLE_EQ(relativePerformance(slow, fast), 0.8);
}

TEST(Experiment, GridBuildsAllCells)
{
    SimConfig base = smallConfig();
    const auto specs = makeGrid({"CF", "HF"}, WorkloadSet::Storage,
                                {0.2, 0.5}, base);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].scheduler, "CF");
    EXPECT_EQ(specs[0].config.workload, WorkloadSet::Storage);
}

TEST(Experiment, ParallelMatchesSerial)
{
    SimConfig base = smallConfig();
    base.simTimeS = 1.0;
    base.warmupS = 0.2;
    const auto specs =
        makeGrid({"CF", "Random"}, WorkloadSet::Computation,
                 {0.3, 0.6}, base);
    const auto serial = runAll(specs, 1);
    const auto parallel = runAll(specs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial[i].metrics.runtimeExpansion.mean(),
                         parallel[i].metrics.runtimeExpansion.mean());
    }
}

TEST(Experiment, IndexResultsRoundTrip)
{
    SimConfig base = smallConfig();
    base.simTimeS = 1.0;
    base.warmupS = 0.2;
    const auto specs = makeGrid({"CF"}, WorkloadSet::Computation,
                                {0.3}, base);
    const auto results = runAll(specs);
    auto index = indexResults(results);
    EXPECT_EQ(index["CF"][0.3].jobsCompleted,
              results[0].metrics.jobsCompleted);
}

} // namespace
} // namespace densim
