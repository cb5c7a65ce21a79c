/**
 * @file
 * Tests for the fault-injection subsystem (DESIGN.md Sec. 11):
 *
 * - the fault timeline is a pure function of (config, sockets, seed) —
 *   deterministic across repeated expansion and across the experiment
 *   pool's thread counts, and seed-sensitive;
 * - the zero-fault contract: a config with no armed fault produces
 *   SimMetrics bit-identical to the default engine (EXPECT_EQ on
 *   every field), and an armed-but-never-firing fault too;
 * - graceful degradation: fan derate heats and slows the server,
 *   socket failure re-queues jobs without losing any, the stuck-cold
 *   sensor drives the emergency ladder, and dropout policies diverge;
 * - FaultConfig validation and the opt-in fatal-throws mode.
 */

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "core/experiment.hh"
#include "fault/fault_config.hh"
#include "fault/fault_log.hh"
#include "fault/fault_timeline.hh"
#include "json_validate.hh"
#include "sched/factory.hh"
#include "util/logging.hh"

namespace densim {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Small fast server: 2 rows (24 sockets), short scaled horizon. */
SimConfig
baseConfig()
{
    SimConfig config;
    config.topo.rows = 2;
    config.simTimeS = 1.5;
    config.warmupS = 0.0; // Job conservation needs every arrival counted.
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 42;
    return config;
}

SimMetrics
runWith(const SimConfig &config, const std::string &scheduler = "CF")
{
    DenseServerSim sim(config, makeScheduler(scheduler));
    return sim.run();
}

std::uint64_t
counterValue(const DenseServerSim &sim, const std::string &name)
{
    for (const auto &c : sim.observability().counters()) {
        if (c.name == name)
            return c.value;
    }
    ADD_FAILURE() << "counter '" << name << "' not registered";
    return 0;
}

void
expectRegionIdentical(const RegionMetrics &a, const RegionMetrics &b)
{
    EXPECT_EQ(a.busyTimeS, b.busyTimeS);
    EXPECT_EQ(a.freqTime, b.freqTime);
    EXPECT_EQ(a.workDone, b.workDone);
}

/** Bit-exact equality of every metrics field (no tolerances). */
void
expectMetricsIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.jobsUnfinished, b.jobsUnfinished);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.runtimeExpansion.count(), b.runtimeExpansion.count());
    EXPECT_EQ(a.runtimeExpansion.mean(), b.runtimeExpansion.mean());
    EXPECT_EQ(a.serviceExpansion.mean(), b.serviceExpansion.mean());
    EXPECT_EQ(a.queueDelayS.mean(), b.queueDelayS.mean());
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.measuredS, b.measuredS);
    EXPECT_EQ(a.makespanS, b.makespanS);
    EXPECT_EQ(a.totalWork, b.totalWork);
    EXPECT_EQ(a.totalBusyTime, b.totalBusyTime);
    EXPECT_EQ(a.totalFreqTime, b.totalFreqTime);
    EXPECT_EQ(a.maxChipTempC, b.maxChipTempC);
    EXPECT_EQ(a.boostTimeS, b.boostTimeS);
    EXPECT_EQ(a.chipTempC.count(), b.chipTempC.count());
    EXPECT_EQ(a.chipTempC.mean(), b.chipTempC.mean());
    expectRegionIdentical(a.front, b.front);
    expectRegionIdentical(a.back, b.back);
    expectRegionIdentical(a.even, b.even);
    EXPECT_EQ(a.timelineS, b.timelineS);
    EXPECT_EQ(a.zoneAmbientC, b.zoneAmbientC);
}

// ------------------------------------------------- timeline

TEST(FaultTimeline, IsDeterministicForSeedAndConfig)
{
    FaultConfig config;
    config.sensorStuckCount = 3;
    config.sensorStuckAtS = 1.0;
    config.sensorNoisyCount = 2;
    config.sensorNoisyAtS = 0.5;
    config.socketFailCount = 2;
    config.socketFailS = 2.0;
    config.socketRecoverS = 4.0;
    config.fanFailS = 3.0;
    config.fanSpeedFrac = 0.5;

    const FaultTimeline a(config, 180, 7);
    const FaultTimeline b(config, 180, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].timeS, b.events()[i].timeS);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].socket, b.events()[i].socket);
        EXPECT_EQ(a.events()[i].value, b.events()[i].value);
    }
}

TEST(FaultTimeline, IsSortedAndSeedSensitive)
{
    FaultConfig config;
    config.sensorStuckCount = 8;
    config.sensorStuckAtS = 2.0;
    config.socketFailCount = 8;
    config.socketFailS = 1.0;

    const FaultTimeline a(config, 180, 1);
    const FaultTimeline b(config, 180, 2);
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a.events()[i - 1].timeS, a.events()[i].timeS);

    // Different run seeds must pick different socket sets (16 draws
    // from 180 sockets colliding entirely is ~impossible).
    bool any_differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_differs |= a.events()[i].socket != b.events()[i].socket;
    EXPECT_TRUE(any_differs);
}

TEST(FaultTimeline, ExplicitFaultSeedDecouplesFromRunSeed)
{
    FaultConfig config;
    config.seed = 99;
    config.socketFailCount = 4;
    config.socketFailS = 1.0;

    // With an explicit fault seed the run seed is irrelevant.
    const FaultTimeline a(config, 180, 1);
    const FaultTimeline b(config, 180, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.events()[i].socket, b.events()[i].socket);
}

TEST(FaultTimeline, ClampsCountsToSocketCount)
{
    FaultConfig config;
    config.socketFailCount = 500;
    config.socketFailS = 1.0;
    const FaultTimeline t(config, 24, 3);
    EXPECT_EQ(t.size(), 24u);
    for (const FaultEvent &e : t.events())
        EXPECT_LT(e.socket, 24u);
}

// ------------------------------------------------- zero-fault contract

TEST(FaultBitIdentity, DisarmedConfigMatchesDefaultExactly)
{
    const SimConfig config = baseConfig();
    ASSERT_FALSE(config.fault.enabled());
    expectMetricsIdentical(runWith(config), runWith(config));
}

TEST(FaultBitIdentity, ArmedButInertFaultMatchesDefaultExactly)
{
    // The strong form of the contract: arming the subsystem with an
    // event that never fires inside the horizon must not perturb one
    // bit of the metrics — no extra RNG draws, no FP reordering.
    const SimConfig plain = baseConfig();
    SimConfig armed = baseConfig();
    armed.fault.socketFailCount = 1;
    armed.fault.socketFailS = 1e9;
    ASSERT_TRUE(armed.fault.enabled());
    expectMetricsIdentical(runWith(plain), runWith(armed));
}

TEST(FaultBitIdentity, FaultCountersOnlyExistWhenArmed)
{
    DenseServerSim plain(baseConfig(), makeScheduler("CF"));
    for (const auto &c : plain.observability().counters())
        EXPECT_EQ(c.name.rfind("fault.", 0), std::string::npos)
            << "disarmed engine registered " << c.name;

    SimConfig armed = baseConfig();
    armed.fault.socketFailCount = 1;
    armed.fault.socketFailS = 1e9;
    DenseServerSim sim(armed, makeScheduler("CF"));
    (void)sim.run();
    EXPECT_EQ(counterValue(sim, "fault.socketFailures"), 0u);
}

TEST(FaultBitIdentity, RerunAfterFanFaultRestoresPristineCoupling)
{
    // A fan fault puts a derated map of the engine's own in force; the
    // next run on the same engine must start from the map built at
    // construction and reproduce the first run bit for bit.
    SimConfig config = baseConfig();
    config.fault.fanFailS = 0.3;
    config.fault.fanSpeedFrac = 0.3;
    DenseServerSim sim(config, makeScheduler("CF"));
    const CouplingMap *pristine = &sim.coupling();
    const SimMetrics first = sim.run();
    EXPECT_NE(&sim.coupling(), pristine);
    sim.beginGeneratedRun();
    EXPECT_EQ(&sim.coupling(), pristine);
    while (sim.epochPending())
        sim.advanceEpoch();
    expectMetricsIdentical(first, sim.finishRun());
}

TEST(FaultBitIdentity, FanRestoreReturnsToThePristineMap)
{
    SimConfig config = baseConfig();
    config.fault.fanFailS = 0.3;
    config.fault.fanRecoverS = 0.6;
    config.fault.fanSpeedFrac = 0.3;
    DenseServerSim sim(config, makeScheduler("MinHR"));
    const CouplingMap *pristine = &sim.coupling();
    sim.beginGeneratedRun();
    while (sim.nowS() < 0.45)
        sim.advanceEpoch();
    EXPECT_NE(&sim.coupling(), pristine);
    EXPECT_GT(sim.coupling().downstreamImpact(0).value(),
              pristine->downstreamImpact(0).value());
    while (sim.nowS() < 0.75)
        sim.advanceEpoch();
    EXPECT_EQ(&sim.coupling(), pristine);
}

// ------------------------------------------------- determinism in sweeps

TEST(FaultDeterminism, GridIsBitIdenticalAcrossThreadCounts)
{
    SimConfig config = baseConfig();
    config.simTimeS = 1.0;
    config.fault.fanFailS = 0.3;
    config.fault.fanSpeedFrac = 0.4;
    config.fault.sensorStuckCount = 2;
    config.fault.sensorStuckAtS = 0.2;

    const std::vector<RunSpec> specs = makeGrid(
        {"CF", "CP"}, config.workload, {0.4, 0.7}, config);
    const auto r1 = runAll(specs, 1);
    const auto r4 = runAll(specs, 4);
    const auto r8 = runAll(specs, 8);
    ASSERT_EQ(r1.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        expectMetricsIdentical(r1[i].metrics, r4[i].metrics);
        expectMetricsIdentical(r1[i].metrics, r8[i].metrics);
    }
}

// ------------------------------------------------- graceful degradation

TEST(FaultResponse, FanDerateHeatsAndDegradesTheServer)
{
    const SimConfig plain = baseConfig();
    SimConfig derated = baseConfig();
    derated.fault.fanFailS = 0.3;
    derated.fault.fanSpeedFrac = 0.15;

    const SimMetrics healthy = runWith(plain);
    DenseServerSim sim(derated, makeScheduler("CF"));
    const SimMetrics faulty = sim.run();

    EXPECT_EQ(counterValue(sim, "fault.fanEvents"), 1u);
    EXPECT_GT(faulty.maxChipTempC, healthy.maxChipTempC);
    // Less air, hotter chips, lower sustainable frequency.
    EXPECT_LT(faulty.avgRelFreq(), healthy.avgRelFreq());
}

TEST(FaultResponse, FanRecoveryEmitsARestoreEvent)
{
    SimConfig config = baseConfig();
    config.fault.fanFailS = 0.3;
    config.fault.fanSpeedFrac = 0.3;
    config.fault.fanRecoverS = 0.8;
    DenseServerSim sim(config, makeScheduler("CF"));
    (void)sim.run();
    EXPECT_EQ(counterValue(sim, "fault.fanEvents"), 2u);
}

TEST(FaultResponse, SevereDerateEscalatesToQuarantineAndBack)
{
    SimConfig config = baseConfig();
    config.load = 0.85;
    config.simTimeS = 2.0;
    config.fault.fanFailS = 0.4;
    config.fault.fanSpeedFrac = 0.08;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();

    EXPECT_GT(counterValue(sim, "fault.emergencyThrottles"), 0u);
    EXPECT_GT(counterValue(sim, "fault.quarantines"), 0u);
    EXPECT_GT(counterValue(sim, "fault.jobsRequeued"), 0u);
    // Conservation: every arrival either completed or is still
    // queued/running — quarantine re-queue loses nothing (warmup 0).
    EXPECT_EQ(m.jobsArrived, m.jobsCompleted + m.jobsUnfinished);
}

TEST(FaultResponse, SocketFailureRequeuesWithoutLosingJobs)
{
    SimConfig config = baseConfig();
    config.fault.socketFailCount = 4;
    config.fault.socketFailS = 0.4;
    config.fault.socketRecoverS = 1.0;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();

    EXPECT_EQ(counterValue(sim, "fault.socketFailures"), 4u);
    EXPECT_EQ(counterValue(sim, "fault.socketRecoveries"), 4u);
    EXPECT_EQ(m.jobsArrived, m.jobsCompleted + m.jobsUnfinished);
}

TEST(FaultResponse, StuckColdSensorTripsTheEmergencyLadder)
{
    // DVFS trusts the frozen cool reading and keeps the frequency
    // high; the trip circuit watches the real silicon and must step
    // in. More sensor faults than sockets is clamped, so every DVFS
    // input freezes at the cool warm-start value.
    SimConfig config = baseConfig();
    config.load = 0.9;
    config.simTimeS = 2.0;
    config.fault.sensorStuckCount = 1000;
    config.fault.sensorStuckAtS = 0.05;
    DenseServerSim sim(config, makeScheduler("CF"));
    (void)sim.run();

    EXPECT_EQ(counterValue(sim, "fault.sensorFaults"), 24u);
    EXPECT_GT(counterValue(sim, "fault.emergencyThrottles"), 0u);
}

TEST(FaultResponse, DropoutPoliciesDiverge)
{
    SimConfig last_good = baseConfig();
    last_good.fault.sensorDropoutCount = 12;
    last_good.fault.sensorDropoutAtS = 0.3;
    last_good.fault.dropoutPolicy = DropoutPolicy::LastGood;

    SimConfig conservative = last_good;
    conservative.fault.dropoutPolicy = DropoutPolicy::Conservative;
    conservative.fault.fallbackAmbientC = 80.0;

    DenseServerSim sim_lg(last_good, makeScheduler("CF"));
    const SimMetrics lg = sim_lg.run();
    DenseServerSim sim_co(conservative, makeScheduler("CF"));
    const SimMetrics co = sim_co.run();

    EXPECT_GT(counterValue(sim_lg, "fault.dropoutFallbacks"), 0u);
    // An 80 C assumed ambient forces conservative DVFS choices; the
    // last-good policy keeps running on the stale cool reading.
    EXPECT_LT(co.avgRelFreq(), lg.avgRelFreq());
}

TEST(FaultResponse, AbortRunThrowsARuntimeError)
{
    SimConfig config = baseConfig();
    config.fault.abortRunS = 0.5;
    DenseServerSim sim(config, makeScheduler("CF"));
    EXPECT_THROW((void)sim.run(), std::runtime_error);
}

TEST(FaultResponse, FaultLogIsValidJsonl)
{
    const std::string path =
        testing::TempDir() + "fault_test_log.jsonl";
    SimConfig config = baseConfig();
    config.fault.fanFailS = 0.3;
    config.fault.fanSpeedFrac = 0.2;
    config.fault.logPath = path;
    (void)runWith(config);

    const std::string text = slurp(path);
    std::string error;
    const long lines = obs::json::validateLines(text, &error);
    EXPECT_GT(lines, 0) << error;
    EXPECT_NE(text.find("\"kind\":\"fanDerate\""), std::string::npos);
}

// ------------------------------------------------- config validation

TEST(FaultConfigValidate, RejectsBadValues)
{
    const ScopedFatalThrows guard;
    {
        FaultConfig config;
        config.fanFailS = 1.0;
        config.fanSpeedFrac = 2.0;
        EXPECT_THROW(config.validate(Celsius(95.0)), FatalError);
    }
    {
        FaultConfig config;
        config.fanFailS = 2.0;
        config.fanRecoverS = 1.0; // Recover before the failure.
        EXPECT_THROW(config.validate(Celsius(95.0)), FatalError);
    }
    {
        FaultConfig config;
        config.sensorStuckCount = -1;
        EXPECT_THROW(config.validate(Celsius(95.0)), FatalError);
    }
    {
        FaultConfig config;
        config.quarantineExitC = 200.0; // Above the trip point.
        EXPECT_THROW(config.validate(Celsius(95.0)), FatalError);
    }
}

TEST(FaultConfigValidate, FatalThrowsModeIsScopedAndOffByDefault)
{
    EXPECT_FALSE(fatalThrows());
    {
        const ScopedFatalThrows guard;
        EXPECT_TRUE(fatalThrows());
    }
    EXPECT_FALSE(fatalThrows());
}

} // namespace
} // namespace densim
