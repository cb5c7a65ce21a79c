/**
 * @file
 * Randomized property tests: invariants that must hold over random
 * networks, random topologies, random scheduler states, and random
 * simulator configurations — the safety net under the hand-written
 * unit suites.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "core/experiment.hh"
#include "power/leakage.hh"
#include "sched/factory.hh"
#include "server/sut.hh"
#include "thermal/rc_network.hh"
#include "util/rng.hh"
#include "workload/curves.hh"

#include "coupling_reference.hh"

namespace densim {
namespace {

// ------------------------------------------------------------ RC network

/** Build a random connected RC network with ambient links. */
RCNetwork
randomNetwork(Rng &rng, std::size_t n)
{
    RCNetwork net;
    for (std::size_t i = 0; i < n; ++i) {
        std::string name("n");
        name += std::to_string(i);
        net.addNode(name, JoulePerKelvin(rng.uniform(0.5, 5.0)));
    }
    // Spanning chain keeps it connected.
    for (std::size_t i = 0; i + 1 < n; ++i)
        net.connect(i, i + 1, KelvinPerWatt(rng.uniform(0.2, 3.0)));
    // Random extra edges.
    for (std::size_t e = 0; e < n; ++e) {
        const std::size_t a = rng.nextBounded(n);
        const std::size_t b = rng.nextBounded(n);
        if (a != b)
            net.connect(a, b, KelvinPerWatt(rng.uniform(0.2, 3.0)));
    }
    net.connectAmbient(rng.nextBounded(n),
                       KelvinPerWatt(rng.uniform(0.5, 2.0)));
    net.connectAmbient(rng.nextBounded(n),
                       KelvinPerWatt(rng.uniform(0.5, 2.0)));
    return net;
}

class RandomNetwork : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomNetwork, SteadyStateConservesEnergy)
{
    Rng rng(1000 + GetParam());
    const std::size_t n = 3 + rng.nextBounded(20);
    RCNetwork net = randomNetwork(rng, n);
    std::vector<double> powers(n, 0.0);
    double total = 0.0;
    for (double &p : powers) {
        p = rng.uniform(0.0, 10.0);
        total += p;
    }
    const auto temps = net.steadyState(powers, Celsius(25.0));
    EXPECT_NEAR(net.ambientHeatFlow(temps, Celsius(25.0)).value(), total,
                1e-6 * std::max(total, 1.0));
}

TEST_P(RandomNetwork, AllTemperaturesAboveAmbient)
{
    Rng rng(2000 + GetParam());
    const std::size_t n = 3 + rng.nextBounded(20);
    RCNetwork net = randomNetwork(rng, n);
    std::vector<double> powers(n);
    for (double &p : powers)
        p = rng.uniform(0.0, 10.0);
    const auto temps = net.steadyState(powers, Celsius(30.0));
    for (double t : temps)
        EXPECT_GE(t, 30.0 - 1e-9);
}

TEST_P(RandomNetwork, TransientApproachesSteady)
{
    Rng rng(3000 + GetParam());
    const std::size_t n = 3 + rng.nextBounded(10);
    RCNetwork net = randomNetwork(rng, n);
    std::vector<double> powers(n);
    for (double &p : powers)
        p = rng.uniform(0.0, 5.0);
    const auto steady = net.steadyState(powers, Celsius(20.0));
    std::vector<double> temps(n, 20.0);
    // March many time constants forward: the slowest aggregate mode
    // can reach tau ~ (sum C) / (ambient conductance) ~ 100 s for
    // these random draws.
    for (int i = 0; i < 100; ++i)
        net.transientStep(temps, powers, Celsius(20.0), Seconds(10.0));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(temps[i], steady[i],
                    0.02 * std::max(1.0, steady[i] - 20.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetwork, ::testing::Range(0, 8));

// ----------------------------------------------------------- coupling map

class RandomTopology : public ::testing::TestWithParam<int>
{
  protected:
    TopologySpec
    randomSpec(Rng &rng) const
    {
        TopologySpec spec;
        spec.rows = 1 + static_cast<int>(rng.nextBounded(6));
        spec.cartridgesPerRow =
            1 + static_cast<int>(rng.nextBounded(4));
        spec.zonesPerCartridge =
            1 + static_cast<int>(rng.nextBounded(3));
        spec.socketsPerZone = 1 + static_cast<int>(rng.nextBounded(3));
        return spec;
    }
};

TEST_P(RandomTopology, AmbientNeverBelowEntryNeverBelowInlet)
{
    Rng rng(4000 + GetParam());
    const ServerTopology topo(randomSpec(rng));
    const CouplingMap map(topo.sites(), CouplingParams{});
    std::vector<double> powers(topo.numSockets());
    for (double &p : powers)
        p = rng.uniform(0.0, 22.0);
    const auto entry = map.entryTemps(powers, Celsius(18.0));
    const auto ambient = map.ambientTemps(powers, Celsius(18.0));
    for (std::size_t s = 0; s < powers.size(); ++s) {
        EXPECT_GE(entry[s], 18.0 - 1e-9);
        EXPECT_GE(ambient[s] + 1e-9,
                  18.0 + map.kappaLocal().value() * powers[s]);
    }
}

TEST_P(RandomTopology, AddingPowerNeverCoolsAnyone)
{
    Rng rng(5000 + GetParam());
    const ServerTopology topo(randomSpec(rng));
    const CouplingMap map(topo.sites(), CouplingParams{});
    std::vector<double> powers(topo.numSockets());
    for (double &p : powers)
        p = rng.uniform(0.0, 15.0);
    const auto before = map.ambientTemps(powers, Celsius(18.0));
    const std::size_t bump = rng.nextBounded(powers.size());
    powers[bump] += 5.0;
    const auto after = map.ambientTemps(powers, Celsius(18.0));
    for (std::size_t s = 0; s < powers.size(); ++s)
        EXPECT_GE(after[s], before[s] - 1e-12);
}

TEST_P(RandomTopology, ImpactEqualsCoefficientSum)
{
    Rng rng(6000 + GetParam());
    const ServerTopology topo(randomSpec(rng));
    const CouplingMap map(topo.sites(), CouplingParams{});
    for (std::size_t from = 0; from < map.size(); from += 3) {
        double sum = 0.0;
        for (std::size_t to = 0; to < map.size(); ++to)
            sum += map.coeff(from, to).value();
        EXPECT_NEAR(map.downstreamImpact(from).value(), sum, 1e-12);
    }
}

TEST_P(RandomTopology, RunLayoutMatchesReferences)
{
    Rng rng(7000 + GetParam());
    const ServerTopology topo(randomSpec(rng));
    const CouplingMap map(topo.sites(), CouplingParams{});
    coupling_reference::expectRunsMatchReferences(
        topo, map, 7100 + static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology, ::testing::Range(0, 8));

// -------------------------------------------------------------- policies

TEST(PolicyFuzz, AllPoliciesValidOnRandomStates)
{
    const ServerTopology topo = makeSutTopology();
    const CouplingMap coupling =
        makeCouplingMap(topo, defaultCouplingParams());
    const PowerManager pm(PStateTable::x2150(), SimplePeakModel(),
                          Celsius(95.0), 0.10);
    Rng rng(99);
    const std::size_t n = topo.numSockets();

    for (const std::string &name : allSchedulerNames()) {
        auto policy = makeScheduler(name);
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<double> chip(n), hist(n), amb(n), credit(n),
                power(n), freq(n);
            std::vector<WorkloadSet> sets(n,
                                          WorkloadSet::Computation);
            std::vector<std::uint8_t> busy(n);
            std::vector<std::size_t> idle;
            for (std::size_t s = 0; s < n; ++s) {
                busy[s] = rng.nextDouble() < 0.6;
                chip[s] = rng.uniform(20.0, 95.0);
                hist[s] = rng.uniform(20.0, 95.0);
                amb[s] = rng.uniform(18.0, 80.0);
                credit[s] = rng.uniform(0.0, 2.0);
                power[s] = busy[s] ? rng.uniform(8.0, 18.0) : 2.2;
                freq[s] = busy[s] ? 1100.0 + 200.0 * rng.nextBounded(5)
                                  : 0.0;
                if (!busy[s])
                    idle.push_back(s);
            }
            if (idle.empty()) {
                busy[0] = false;
                idle.push_back(0);
            }
            SchedContext ctx;
            ctx.topo = &topo;
            ctx.coupling = &coupling;
            ctx.pm = &pm;
            ctx.leak = &LeakageModel::x2150();
            ctx.inletC = 18.0;
            ctx.idle = &idle;
            ctx.nSockets = n;
            ctx.chipTempC = chip.data();
            ctx.histTempC = hist.data();
            ctx.ambientC = amb.data();
            ctx.boostCreditS = credit.data();
            ctx.powerW = power.data();
            ctx.freqMhz = freq.data();
            ctx.runningSet = sets.data();
            ctx.busy = busy.data();
            ctx.rng = &rng;

            Job job{0, 0, WorkloadSet::Computation, 0.0,
                    rng.uniform(1e-3, 50e-3)};
            const std::size_t pick = policy->pick(job, ctx);
            ASSERT_LT(pick, n) << name;
            EXPECT_FALSE(busy[pick]) << name;
        }
    }
}

// ---------------------------------------------------------------- engine

class RandomEngine : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomEngine, ConservationAndBounds)
{
    Rng rng(7000 + GetParam());
    SimConfig config;
    config.topo.rows = 2 + static_cast<int>(rng.nextBounded(3));
    config.load = rng.uniform(0.1, 0.9);
    config.workload =
        allWorkloadSets()[rng.nextBounded(allWorkloadSets().size())];
    config.simTimeS = 1.5;
    config.warmupS = 0.3;
    config.socketTauS = 0.5;
    config.seed = 8000 + GetParam();

    const std::string scheme =
        allSchedulerNames()[rng.nextBounded(allSchedulerNames().size())];
    DenseServerSim sim(config, makeScheduler(scheme));
    const SimMetrics m = sim.run();

    // Everything that arrived finished (drain window is generous).
    EXPECT_EQ(m.jobsUnfinished, 0u) << scheme;

    // Work processed equals nominal seconds of completed jobs up to
    // warmup boundary effects.
    if (m.jobsCompleted > 500) {
        const double processed = m.totalWork;
        EXPECT_GT(processed, 0.0);
        // Service expansion bounded by the P-state perf range.
        const auto &curve = freqCurveFor(config.workload);
        const double sustained = curve.perfRel
            [PStateTable::x2150().highestSustainedIndex()];
        EXPECT_GE(m.serviceExpansion.mean(),
                  sustained / curve.perfRel.back() - 1e-9)
            << scheme;
        EXPECT_LE(m.serviceExpansion.mean(),
                  sustained / curve.perfRel.front() + 1e-9)
            << scheme;
    }

    // Energy bounded by gated floor and TDP ceiling.
    const double sockets =
        static_cast<double>(config.topo.rows) * 12.0;
    EXPECT_GE(m.energyJ, 0.99 * 2.2 * sockets * m.measuredS);
    EXPECT_LE(m.energyJ, 22.0 * sockets * m.measuredS);

    // Frequencies within the P-state range.
    EXPECT_GE(m.avgRelFreq(), 1100.0 / 1900.0 - 1e-9);
    EXPECT_LE(m.avgRelFreq(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEngine, ::testing::Range(0, 10));

} // namespace
} // namespace densim
