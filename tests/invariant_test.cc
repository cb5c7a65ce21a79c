/**
 * @file
 * Tests for the runtime invariant layer (core/invariant.hh): the
 * reduced-workload engine run with every check enabled, the physics
 * envelope of the coupling field, and the negative tests proving a
 * deliberately unphysical or drifted field actually trips
 * DENSIM_CHECK. The negative tests are death tests and only run in
 * builds with the corresponding checks compiled in (DENSIM_CHECKS /
 * DENSIM_PARANOID CMake options); elsewhere they are skipped.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/completion_list.hh"
#include "core/dense_server_sim.hh"
#include "core/invariant.hh"
#include "sched/factory.hh"
#include "thermal/rc_network.hh"

namespace densim {
namespace {

/** The reduced workload of the differential suite: every engine path
 *  (boost, gating, coupling, completion list) on a 36-socket server
 *  in a couple of simulated seconds. */
SimConfig
reducedConfig()
{
    SimConfig config;
    config.topo.rows = 3;
    config.simTimeS = 2.0;
    config.warmupS = 0.5;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 42;
    return config;
}

TEST(Invariant, BuildFlagsAreConsistent)
{
    // Paranoid mode implies the cheap checks (CMake enforces this for
    // its options; the definitions must agree too).
    if (kParanoidEnabled) {
        EXPECT_TRUE(kChecksEnabled);
    }
}

TEST(Invariant, ReducedWorkloadRunsWithChecksEnabled)
{
    // The standing gate: a full engine run at epoch-boundary check
    // cadence. In a DENSIM_PARANOID build every epoch cross-validates
    // the incremental field, scalars and heap against the reference
    // computation; in default builds this is simply a smoke run.
    for (const char *name : {"CF", "CP"}) {
        DenseServerSim sim(reducedConfig(), makeScheduler(name));
        const SimMetrics m = sim.run();
        EXPECT_GT(m.jobsCompleted, 0u) << name;
    }
}

TEST(Invariant, ChecksRunWithMigrationAndQuantizedMemo)
{
    // The name predates the DVFS memo's removal; the migration run,
    // which moves jobs between threshold rows, is what remains.
    SimConfig config = reducedConfig();
    config.migrationEnabled = true;
    DenseServerSim sim(config, makeScheduler("CP"));
    const SimMetrics m = sim.run();
    EXPECT_GT(m.jobsCompleted, 0u);
}

TEST(Invariant, TemperatureFieldAcceptsPhysicalValues)
{
    invariant::checkTemperatureField("ok", {18.0, 95.0, -40.0});
    invariant::checkFieldsClose("ok", {1.0, 2.0}, {1.0, 2.0 + 1e-9},
                                1e-6);
}

TEST(InvariantDeath, NonFiniteTemperatureTrips)
{
    if (!kChecksEnabled)
        GTEST_SKIP() << "DENSIM_CHECKS not compiled in";
    const std::vector<double> bad{
        20.0, std::numeric_limits<double>::quiet_NaN()};
    EXPECT_DEATH(invariant::checkTemperatureField("field", bad),
                 "invariant violated");
}

TEST(InvariantDeath, SubAbsoluteZeroTrips)
{
    if (!kChecksEnabled)
        GTEST_SKIP() << "DENSIM_CHECKS not compiled in";
    EXPECT_DEATH(
        invariant::checkTemperatureField("field", {20.0, -300.0}),
        "absolute zero");
}

TEST(InvariantDeath, FieldDriftBeyondBoundTrips)
{
    if (!kChecksEnabled)
        GTEST_SKIP() << "DENSIM_CHECKS not compiled in";
    EXPECT_DEATH(invariant::checkFieldsClose("field", {1.0}, {1.1},
                                             1e-6),
                 "drift bound");
}

// ------------------------------------------------ coupling envelope

CouplingMap
smallMap()
{
    std::vector<SocketSite> sites;
    for (int i = 0; i < 4; ++i)
        sites.push_back(SocketSite{1.6 * i, 0, Cfm(6.35)});
    return CouplingMap(sites, CouplingParams{});
}

TEST(Invariant, CouplingFieldEnvelopeAcceptsTrueField)
{
    const CouplingMap map = smallMap();
    const std::vector<double> powers{20.0, 15.0, 10.0, 5.0};
    const std::vector<double> field =
        map.ambientTemps(powers, Celsius(18.0));
    map.checkAmbientFieldPhysics(powers, Celsius(18.0), field);
}

TEST(InvariantDeath, CouplingFieldBelowInletTrips)
{
    if (!kChecksEnabled)
        GTEST_SKIP() << "DENSIM_CHECKS not compiled in";
    const CouplingMap map = smallMap();
    const std::vector<double> powers{20.0, 15.0, 10.0, 5.0};
    std::vector<double> field =
        map.ambientTemps(powers, Celsius(18.0));
    field[2] = 17.0; // Cooler than the inlet: unphysical.
    EXPECT_DEATH(map.checkAmbientFieldPhysics(powers, Celsius(18.0),
                                              field),
                 "heated air cannot cool");
}

TEST(InvariantDeath, CouplingFieldAboveEnvelopeTrips)
{
    if (!kChecksEnabled)
        GTEST_SKIP() << "DENSIM_CHECKS not compiled in";
    const CouplingMap map = smallMap();
    const std::vector<double> powers{20.0, 15.0, 10.0, 5.0};
    std::vector<double> field =
        map.ambientTemps(powers, Celsius(18.0));
    field[3] += 1000.0; // More enthalpy than the whole server emits.
    EXPECT_DEATH(map.checkAmbientFieldPhysics(powers, Celsius(18.0),
                                              field),
                 "first-law envelope");
}

// ------------------------------------------------- RC cache validity

RCNetwork
smallNetwork()
{
    RCNetwork net;
    const NodeId a = net.addNode("die", JoulePerKelvin(10.0));
    const NodeId b = net.addNode("sink", JoulePerKelvin(200.0));
    net.connect(a, b, KelvinPerWatt(0.2));
    net.connectAmbient(b, KelvinPerWatt(0.5));
    return net;
}

TEST(Invariant, CachedSolveSurvivesParanoidValidation)
{
    // With DENSIM_PARANOID compiled in every steadyState() call
    // checks its own nodal heat residual and first-law balance
    // against the network; repeated solves must pass.
    RCNetwork net = smallNetwork();
    for (double p = 5.0; p <= 25.0; p += 5.0) {
        const std::vector<double> temps =
            net.steadyState({p, 0.0}, Celsius(20.0));
        EXPECT_NEAR(net.ambientHeatFlow(temps, Celsius(20.0)).value(),
                    p, 1e-9 * p);
    }
}

// -------------------------------------------------- completion list

TEST(Invariant, CompletionListValidatesAfterRandomOperations)
{
    const std::size_t n = 24;
    CompletionList list;
    list.reset(n);
    list.fill(std::numeric_limits<double>::infinity(),
              std::vector<double>(n, 0.0), std::vector<std::uint8_t>(n, 0));
    // The engine's view the list must agree with: busy flags and keys.
    std::vector<double> keys(n, 0.0);
    std::vector<std::uint8_t> busy(n, 0);
    std::uint64_t lcg = 7;
    auto next_u = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (int step = 0; step < 500; ++step) {
        const auto id = static_cast<std::size_t>(next_u() % n);
        if (next_u() % 4 == 0) {
            list.erase(id);
            busy[id] = 0;
        } else {
            keys[id] = static_cast<double>(next_u() % 1000) * 0.5;
            busy[id] = 1;
            list.upsert(id, keys[id]);
        }
        list.checkInvariants(keys, busy);
    }
}

} // namespace
} // namespace densim
