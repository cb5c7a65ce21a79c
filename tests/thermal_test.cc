/**
 * @file
 * Unit and property tests for the thermal substrate: heat sinks,
 * Eq. (1), transient trackers, the RC-network solver, the
 * HotSpot-class chip model, the coupling map (including the Fig. 2
 * calibration), and the Fig. 5 analytical entry-temperature model.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "airflow/first_law.hh"
#include "thermal/coupling_map.hh"
#include "thermal/entry_model.hh"
#include "thermal/heatsink.hh"
#include "thermal/hotspot_model.hh"
#include "thermal/rc_network.hh"
#include "thermal/simple_peak_model.hh"
#include "thermal/transient.hh"

namespace densim {
namespace {

// ---------------------------------------------------------------- sinks

TEST(HeatSink, TableIIIPresets)
{
    EXPECT_DOUBLE_EQ(HeatSink::fin18().rExt.value(), 1.578);
    EXPECT_DOUBLE_EQ(HeatSink::fin30().rExt.value(), 1.056);
    EXPECT_EQ(HeatSink::fin18().finCount, 18);
    EXPECT_EQ(HeatSink::fin30().finCount, 30);
}

TEST(HeatSink, ThetaMatchesTableIII)
{
    EXPECT_NEAR(HeatSink::fin18().theta(Watts(10.0)).value(), 4.41 - 0.896, 1e-9);
    EXPECT_NEAR(HeatSink::fin30().theta(Watts(10.0)).value(), 4.45 - 0.916, 1e-9);
}

TEST(HeatSink, MoreFinsLowerResistance)
{
    FinHeatsinkGeometry g18;
    g18.finCount = 18;
    FinHeatsinkGeometry g30 = g18;
    g30.finCount = 30;
    EXPECT_LT(finHeatsinkResistance(g30, Cfm(6.35)).value(),
              finHeatsinkResistance(g18, Cfm(6.35)).value());
}

TEST(HeatSink, ParametricModelNearTableIIIValues)
{
    // The first-principles fin model should land within ~25% of the
    // Table III resistances at the Table III per-socket airflow —
    // evidence the presets are physically consistent.
    FinHeatsinkGeometry g18;
    g18.finCount = 18;
    FinHeatsinkGeometry g30 = g18;
    g30.finCount = 30;
    EXPECT_NEAR(finHeatsinkResistance(g18, Cfm(6.35)).value(), 1.578,
                0.25 * 1.578);
    EXPECT_NEAR(finHeatsinkResistance(g30, Cfm(6.35)).value(), 1.056,
                0.25 * 1.056);
}

TEST(HeatSink, MoreAirflowLowerResistance)
{
    FinHeatsinkGeometry g;
    EXPECT_LT(finHeatsinkResistance(g, Cfm(12.0)).value(),
              finHeatsinkResistance(g, Cfm(3.0)).value());
}

TEST(HeatSink, ChannelVelocityScalesWithFlow)
{
    FinHeatsinkGeometry g;
    EXPECT_NEAR(finChannelVelocity(g, Cfm(12.7)),
                2.0 * finChannelVelocity(g, Cfm(6.35)), 1e-9);
}

TEST(HeatSink, ImpossibleGeometryIsFatal)
{
    FinHeatsinkGeometry g;
    g.finCount = 1000; // fins wider than the base
    EXPECT_EXIT((void)finHeatsinkResistance(g, Cfm(6.35)),
                ::testing::ExitedWithCode(1), "gap");
}

// --------------------------------------------------------------- Eq. (1)

TEST(SimplePeak, MatchesHandComputedValue)
{
    // 18 W on the 18-fin sink at 45 C ambient:
    // 45 + 18 * (0.205 + 1.578) + (4.41 - 0.0896 * 18) = 79.89 C.
    SimplePeakModel model;
    const double t =
        model.peak(Celsius(45.0), Watts(18.0), HeatSink::fin18())
            .value();
    EXPECT_NEAR(t, 45.0 + 18.0 * 1.783 + 4.41 - 1.6128, 1e-9);
}

TEST(SimplePeak, Fin30CoolerAtSamePower)
{
    SimplePeakModel model;
    const double t18 =
        model.peak(Celsius(40.0), Watts(15.0), HeatSink::fin18())
            .value();
    const double t30 =
        model.peak(Celsius(40.0), Watts(15.0), HeatSink::fin30())
            .value();
    EXPECT_LT(t30, t18);
    // Fig. 9(b): the 30-fin sink is ~6-7 C cooler at high power.
    EXPECT_NEAR(t18 - t30, 15.0 * (1.578 - 1.056), 0.5);
}

TEST(SimplePeak, MaxPowerInverts)
{
    SimplePeakModel model;
    for (double amb : {20.0, 45.0, 60.0}) {
        const double p =
            model.maxPower(Celsius(95.0), Celsius(amb), HeatSink::fin18())
                .value();
        EXPECT_NEAR(
            model.peak(Celsius(amb), Watts(p), HeatSink::fin18()).value(),
            95.0, 1e-9);
    }
}

TEST(SimplePeak, MaxAmbientInverts)
{
    SimplePeakModel model;
    const double amb =
        model.maxAmbient(Celsius(95.0), Watts(13.6), HeatSink::fin30())
            .value();
    EXPECT_NEAR(
        model.peak(Celsius(amb), Watts(13.6), HeatSink::fin30()).value(),
        95.0, 1e-9);
}

TEST(SimplePeak, MaxPowerClampsAtZero)
{
    SimplePeakModel model;
    EXPECT_DOUBLE_EQ(model
                         .maxPower(Celsius(95.0), Celsius(200.0),
                                   HeatSink::fin18())
                         .value(),
                     0.0);
}

TEST(SimplePeak, MonotoneInAmbientAndPower)
{
    SimplePeakModel model;
    double last = 0.0;
    for (double p = 0.0; p <= 22.0; p += 2.0) {
        const double t =
            model.peak(Celsius(30.0), Watts(p), HeatSink::fin18())
                .value();
        EXPECT_GT(t, last);
        last = t;
    }
    EXPECT_LT(
        model.peak(Celsius(20.0), Watts(10.0), HeatSink::fin18()),
        model.peak(Celsius(40.0), Watts(10.0), HeatSink::fin18()));
}

// ------------------------------------------------------------- transient

/** One step of the engine's tracker kernel on a single value. */
double
stepToward(double value, double target, double dt, double tau)
{
    firstOrderStepBatch(&value, &target, 1, responseFraction(dt, tau));
    return value;
}

TEST(Transient, ExactExponentialStep)
{
    const double value = stepToward(0.0, 10.0, 2.0, 2.0); // one tau
    EXPECT_NEAR(value, 10.0 * (1.0 - std::exp(-1.0)), 1e-12);
}

TEST(Transient, StepSizeIndependence)
{
    const double coarse = stepToward(20.0, 80.0, 1.0, 5.0);
    double fine = 20.0;
    for (int i = 0; i < 1000; ++i)
        fine = stepToward(fine, 80.0, 0.001, 5.0);
    EXPECT_NEAR(coarse, fine, 1e-9);
}

TEST(Transient, ConvergesToTarget)
{
    double value = 0.0;
    for (int i = 0; i < 100; ++i)
        value = stepToward(value, 42.0, 0.5, 0.5);
    EXPECT_NEAR(value, 42.0, 1e-6);
}

TEST(Transient, ZeroDtIsIdentity)
{
    EXPECT_DOUBLE_EQ(stepToward(7.0, 100.0, 0.0, 1.0), 7.0);
}

TEST(Transient, ResponseFractionBounds)
{
    EXPECT_DOUBLE_EQ(responseFraction(0.0, 1.0), 0.0);
    EXPECT_NEAR(responseFraction(100.0, 1.0), 1.0, 1e-12);
    EXPECT_NEAR(responseFraction(1.0, 1.0), 1.0 - std::exp(-1.0),
                1e-12);
}

// ------------------------------------------------------------ RC network

TEST(RcNetwork, SingleNodeSteadyState)
{
    RCNetwork net;
    const NodeId n = net.addNode("chip", JoulePerKelvin(1.0));
    net.connectAmbient(n, KelvinPerWatt(2.0)); // 2 C/W
    const auto temps = net.steadyState({10.0}, Celsius(25.0));
    EXPECT_NEAR(temps[n], 25.0 + 20.0, 1e-9);
}

TEST(RcNetwork, TwoNodeVoltageDivider)
{
    // power -> a --1ohm-- b --1ohm-- ambient
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(1.0));
    const NodeId b = net.addNode("b", JoulePerKelvin(1.0));
    net.connect(a, b, KelvinPerWatt(1.0));
    net.connectAmbient(b, KelvinPerWatt(1.0));
    const auto temps = net.steadyState({5.0, 0.0}, Celsius(0.0));
    EXPECT_NEAR(temps[b], 5.0, 1e-9);
    EXPECT_NEAR(temps[a], 10.0, 1e-9);
}

TEST(RcNetwork, SteadyStateConservesEnergy)
{
    RCNetwork net;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 10; ++i) {
        std::string name("n");
        name += std::to_string(i);
        nodes.push_back(net.addNode(name, JoulePerKelvin(1.0)));
    }
    for (int i = 0; i + 1 < 10; ++i)
        net.connect(nodes[i], nodes[i + 1],
                    KelvinPerWatt(0.5 + 0.1 * i));
    net.connectAmbient(nodes[0], KelvinPerWatt(1.0));
    net.connectAmbient(nodes[9], KelvinPerWatt(2.0));
    std::vector<double> powers(10, 0.0);
    powers[3] = 7.0;
    powers[8] = 2.5;
    const auto temps = net.steadyState(powers, Celsius(20.0));
    EXPECT_NEAR(net.ambientHeatFlow(temps, Celsius(20.0)).value(), 9.5, 1e-9);
}

TEST(RcNetwork, SuperpositionHolds)
{
    // The network is linear: solving for the sum of two power
    // vectors equals the sum of solutions (relative to ambient).
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(1.0));
    const NodeId b = net.addNode("b", JoulePerKelvin(1.0));
    const NodeId c = net.addNode("c", JoulePerKelvin(1.0));
    net.connect(a, b, KelvinPerWatt(1.5));
    net.connect(b, c, KelvinPerWatt(0.7));
    net.connectAmbient(c, KelvinPerWatt(1.2));
    net.connectAmbient(a, KelvinPerWatt(3.0));
    const auto t1 = net.steadyState({4.0, 0.0, 0.0}, Celsius(0.0));
    const auto t2 = net.steadyState({0.0, 0.0, 6.0}, Celsius(0.0));
    const auto t12 = net.steadyState({4.0, 0.0, 6.0}, Celsius(0.0));
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(t12[i], t1[i] + t2[i], 1e-9);
}

TEST(RcNetwork, AmbientShiftsUniformly)
{
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(1.0));
    net.connectAmbient(a, KelvinPerWatt(1.0));
    const auto cold = net.steadyState({3.0}, Celsius(0.0));
    const auto warm = net.steadyState({3.0}, Celsius(30.0));
    EXPECT_NEAR(warm[a] - cold[a], 30.0, 1e-9);
}

TEST(RcNetwork, IsolatedNodeIsFatal)
{
    RCNetwork net;
    net.addNode("floating", JoulePerKelvin(1.0));
    EXPECT_EXIT(net.steadyState({1.0}, Celsius(0.0)),
                ::testing::ExitedWithCode(1), "singular");
}

TEST(RcNetwork, TransientConvergesToSteadyState)
{
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(2.0));
    const NodeId b = net.addNode("b", JoulePerKelvin(5.0));
    net.connect(a, b, KelvinPerWatt(1.0));
    net.connectAmbient(b, KelvinPerWatt(0.5));
    const std::vector<double> powers{4.0, 1.0};
    const auto steady = net.steadyState(powers, Celsius(22.0));

    std::vector<double> temps(2, 22.0);
    for (int i = 0; i < 200; ++i)
        net.transientStep(temps, powers, Celsius(22.0), Seconds(0.5));
    EXPECT_NEAR(temps[a], steady[a], 0.01);
    EXPECT_NEAR(temps[b], steady[b], 0.01);
}

TEST(RcNetwork, TransientMonotoneHeating)
{
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(1.0));
    net.connectAmbient(a, KelvinPerWatt(1.0));
    std::vector<double> temps{20.0};
    double last = temps[0];
    for (int i = 0; i < 20; ++i) {
        net.transientStep(temps, {5.0}, Celsius(20.0), Seconds(0.1));
        EXPECT_GE(temps[0], last);
        last = temps[0];
        EXPECT_LE(temps[0], 25.0 + 1e-9);
    }
}

TEST(RcNetwork, TransientRequiresCapacitance)
{
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(0.0));
    net.connectAmbient(a, KelvinPerWatt(1.0));
    std::vector<double> temps{20.0};
    EXPECT_EXIT(net.transientStep(temps, {1.0}, Celsius(20.0), Seconds(0.1)),
                ::testing::ExitedWithCode(1), "capacitance");
}

TEST(RcNetwork, SelfLoopPanics)
{
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(1.0));
    EXPECT_DEATH(net.connect(a, a, KelvinPerWatt(1.0)), "self-loop");
}

// ---------------------------------------------------------- HotSpot model

TEST(HotSpot, UniformMapAverageMatchesEquationOne)
{
    // By construction the uniform-map mean die temperature equals
    // T_amb + P * (R_int + R_ext) exactly.
    ChipStackParams params;
    HotSpotModel model(params, HeatSink::fin18());
    const PowerMap map = PowerMap::uniform(params.grid);
    const auto field = model.steady(Watts(15.0), map, Celsius(40.0));
    EXPECT_NEAR(field.avgT, 40.0 + 15.0 * (0.205 + 1.578), 1e-6);
}

TEST(HotSpot, UniformMapHasSmallSpread)
{
    ChipStackParams params;
    HotSpotModel model(params, HeatSink::fin30());
    const auto field =
        model.steady(Watts(18.0), PowerMap::uniform(params.grid), Celsius(30.0));
    EXPECT_LT(field.spread(), 0.5);
}

TEST(HotSpot, ConcentratedMapSpreadInPaperRange)
{
    // Fig. 9(a): lateral spread between 4 and 7 C for PCMark-class
    // workloads on the ~100 mm^2 X2150 die.
    ChipStackParams params;
    for (const HeatSink *sink :
         {&HeatSink::fin18(), &HeatSink::fin30()}) {
        HotSpotModel model(params, *sink);
        for (double power : {8.0, 12.0, 15.0, 18.0}) {
            const PowerMap map = PowerMap::concentrated(
                params.grid, defaultHotFraction(Watts(power)), HotBlock{4, 0, 0});
            const auto field = model.steady(Watts(power), map, Celsius(40.0));
            EXPECT_GE(field.spread(), 3.0)
                << sink->name << " @ " << power << " W";
            EXPECT_LE(field.spread(), 8.0)
                << sink->name << " @ " << power << " W";
        }
    }
}

TEST(HotSpot, EquationOneTracksDetailedModelWithin2C)
{
    // Fig. 10: the simplified model stays within ~2 C of the
    // validated (detailed) model across workloads and sinks.
    ChipStackParams params;
    SimplePeakModel simple;
    for (const HeatSink *sink :
         {&HeatSink::fin18(), &HeatSink::fin30()}) {
        HotSpotModel model(params, *sink);
        for (double power = 8.0; power <= 18.0; power += 1.0) {
            const PowerMap map = PowerMap::concentrated(
                params.grid, defaultHotFraction(Watts(power)), HotBlock{4, 2, 2});
            const auto field = model.steady(Watts(power), map, Celsius(45.0));
            const double predicted = simple.peak(Celsius(45.0), Watts(power), *sink).value();
            EXPECT_NEAR(predicted, field.maxT, 2.0)
                << sink->name << " @ " << power << " W";
        }
    }
}

TEST(HotSpot, SinkTimeConstantNearTableIII)
{
    // The lumped sink node should respond with roughly the 30 s
    // socket time constant.
    ChipStackParams params;
    HotSpotModel model(params, HeatSink::fin30());
    auto state = model.initialState(Celsius(20.0));
    const auto steady =
        model.steady(Watts(15.0), PowerMap::uniform(params.grid), Celsius(20.0));
    model.transientStep(state, Watts(15.0),
                        PowerMap::uniform(params.grid), Celsius(20.0),
                        Seconds(params.socketTauS));
    const auto field = model.summarize(state);
    const double frac = (field.sinkTemp - 20.0) /
                        (steady.sinkTemp - 20.0);
    EXPECT_NEAR(frac, 1.0 - std::exp(-1.0), 0.12);
}

TEST(HotSpot, HotBlockIsHottest)
{
    ChipStackParams params;
    HotSpotModel model(params, HeatSink::fin18());
    const PowerMap map =
        PowerMap::concentrated(
                params.grid, 0.7, HotBlock{2, 0, 0});
    const auto field = model.steady(Watts(15.0), map, Celsius(30.0));
    // Cell (0,0) is inside the hot block.
    EXPECT_NEAR(field.dieTemps[0], field.maxT, 0.5);
}

TEST(HotSpot, MismatchedMapGridIsFatal)
{
    ChipStackParams params;
    HotSpotModel model(params, HeatSink::fin18());
    EXPECT_EXIT(model.steady(Watts(10.0), PowerMap::uniform(4), Celsius(30.0)),
                ::testing::ExitedWithCode(1), "grid");
}

TEST(PowerMap, FractionsSumToOne)
{
    for (double hot : {0.0, 0.3, 0.7, 1.0}) {
        const PowerMap map = PowerMap::concentrated(
                8, hot, HotBlock{3, 1, 2});
        double sum = 0.0;
        for (double f : map.fractions())
            sum += f;
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(PowerMap, DefaultHotFractionDecreasesWithPower)
{
    EXPECT_GT(defaultHotFraction(Watts(8.0)), defaultHotFraction(Watts(18.0)));
    EXPECT_GE(defaultHotFraction(Watts(100.0)), 0.25);
    EXPECT_LE(defaultHotFraction(Watts(0.0)), 0.95);
}

TEST(PowerMap, BlockOutsideGridIsFatal)
{
    EXPECT_EXIT(PowerMap::concentrated(
                8, 0.5, HotBlock{4, 6, 6}),
                ::testing::ExitedWithCode(1), "fit");
}

// ----------------------------------------------------------- coupling map

std::vector<SocketSite>
chainSites(int n, double spacing, double duct_cfm)
{
    std::vector<SocketSite> sites;
    for (int i = 0; i < n; ++i)
        sites.push_back(SocketSite{i * spacing, 0, Cfm(duct_cfm)});
    return sites;
}

TEST(CouplingMap, Figure2CartridgeCalibration)
{
    // The Fig. 2 cartridge: two upstream sockets at 15 W each share a
    // 12.7 CFM duct; the measured left-to-right air temperature
    // difference is ~8 C. Model: two sites per station.
    std::vector<SocketSite> sites{
        {0.0, 0, Cfm(12.7)}, {0.0, 0, Cfm(12.7)}, {1.6, 0, Cfm(12.7)}, {1.6, 0, Cfm(12.7)}};
    CouplingMap map(sites, CouplingParams{});
    const std::vector<double> powers{15.0, 15.0, 0.0, 0.0};
    const auto entry = map.entryTemps(powers, Celsius(18.0));
    const double diff = entry[2] - entry[0];
    EXPECT_NEAR(diff, 8.0, 1.2);
}

TEST(CouplingMap, NoUpstreamCouplingToFirstSocket)
{
    CouplingMap map(chainSites(4, 1.6, 12.7), CouplingParams{});
    const std::vector<double> powers{0.0, 10.0, 10.0, 10.0};
    EXPECT_DOUBLE_EQ(map.entryTemps(powers, Celsius(18.0))[0], 18.0);
}

TEST(CouplingMap, StrictlyDownstreamOnly)
{
    CouplingMap map(chainSites(3, 1.6, 12.7), CouplingParams{});
    EXPECT_GT(map.coeff(0, 2).value(), 0.0);
    EXPECT_DOUBLE_EQ(map.coeff(2, 0).value(), 0.0);
    EXPECT_DOUBLE_EQ(map.coeff(1, 1).value(), 0.0);
}

TEST(CouplingMap, CouplingDecaysWithDistance)
{
    CouplingMap map(chainSites(6, 1.6, 12.7), CouplingParams{});
    EXPECT_GT(map.coeff(0, 1).value(), map.coeff(0, 3).value());
    EXPECT_GT(map.coeff(0, 3).value(), map.coeff(0, 5).value());
}

TEST(CouplingMap, EntryMonotoneInUpstreamPower)
{
    CouplingMap map(chainSites(4, 1.6, 12.7), CouplingParams{});
    std::vector<double> low{5.0, 5.0, 5.0, 5.0};
    std::vector<double> high{15.0, 5.0, 5.0, 5.0};
    EXPECT_GT(map.entryTemps(high, Celsius(18.0))[3],
              map.entryTemps(low, Celsius(18.0))[3]);
}

TEST(CouplingMap, AmbientIncludesSelfTerm)
{
    CouplingParams params;
    CouplingMap map(chainSites(2, 1.6, 12.7), params);
    // Switching socket 1 off leaves only its upstream part.
    const std::vector<double> powers{4.0, 10.0};
    const std::vector<double> unpowered{4.0, 0.0};
    EXPECT_NEAR(map.ambientTemps(powers, Celsius(18.0))[1] -
                    map.ambientTemps(unpowered, Celsius(18.0))[1],
                params.kappaLocal * 10.0, 1e-9);
}

TEST(CouplingMap, WakeScalesAmbientCoupling)
{
    CouplingParams params;
    params.wakeFactor = 2.0;
    CouplingMap map(chainSites(2, 1.6, 12.7), params);
    EXPECT_NEAR(map.coeff(0, 1).value(), 2.0 * map.airCoeff(0, 1).value(), 1e-12);
}

TEST(CouplingMap, DownstreamImpactDecreasesAlongDuct)
{
    // MinHR's offline map: upstream sockets have the largest total
    // downstream impact; the last socket has none.
    CouplingMap map(chainSites(6, 1.6, 12.7), CouplingParams{});
    for (int i = 0; i + 1 < 6; ++i)
        EXPECT_GT(map.downstreamImpact(i).value(), map.downstreamImpact(i + 1).value());
    EXPECT_DOUBLE_EQ(map.downstreamImpact(5).value(), 0.0);
}

TEST(CouplingMap, VerticalLeakReachesNeighbourRows)
{
    std::vector<SocketSite> sites{
        {0.0, 0, Cfm(12.7)}, {5.0, 0, Cfm(12.7)}, {5.0, 1, Cfm(12.7)}, {5.0, 3, Cfm(12.7)}};
    CouplingParams params;
    params.verticalLeak = 0.5;
    CouplingMap map(sites, params);
    EXPECT_GT(map.coeff(0, 1).value(), map.coeff(0, 2).value()); // same row strongest
    EXPECT_GT(map.coeff(0, 2).value(), 0.0);             // neighbour row leaks
    // Three rows away with leak 0.5: 0.125 < 0.05 cutoff... 0.125 is
    // above the 5% cutoff, so it is present but weaker still.
    EXPECT_GT(map.coeff(0, 2).value(), map.coeff(0, 3).value());
}

TEST(CouplingMap, VerticalLeakConservesTotalHeat)
{
    // Total downstream impact of a socket should be (nearly)
    // independent of the vertical leak setting, because leaking to
    // neighbour rows comes out of the same-duct share.
    std::vector<SocketSite> sites;
    for (int row = 0; row < 7; ++row)
        for (int k = 0; k < 2; ++k)
            sites.push_back(SocketSite{k * 5.0, row, Cfm(12.7)});
    CouplingParams none;
    none.verticalLeak = 0.0;
    CouplingParams leaky;
    leaky.verticalLeak = 0.45;
    CouplingMap a(sites, none), b(sites, leaky);
    // Socket 8 = row 4 upstream position (interior row).
    const std::size_t upstream = 8;
    EXPECT_NEAR(a.downstreamImpact(upstream).value(),
                b.downstreamImpact(upstream).value(),
                0.10 * a.downstreamImpact(upstream).value());
}

TEST(CouplingMap, MixFactorBelowOneIsFatal)
{
    CouplingParams params;
    params.mixFactor = 0.5;
    EXPECT_EXIT(CouplingMap(chainSites(2, 1.6, 12.7), params),
                ::testing::ExitedWithCode(1), "mixFactor");
}

// ------------------------------------------------------------ entry model

TEST(EntryModel, SingleSocketSeesInlet)
{
    const auto r = serialChainEntryTemps(1, Watts(15.0), Cfm(6.0), Celsius(18.0));
    EXPECT_EQ(r.entryTemps.size(), 1u);
    EXPECT_DOUBLE_EQ(r.entryTemps[0].value(), 18.0);
    EXPECT_DOUBLE_EQ(r.meanRise.value(), 0.0);
    EXPECT_DOUBLE_EQ(r.cov, 0.0);
}

TEST(EntryModel, MeanRiseClosedForm)
{
    // Mean rise = step * (N-1) / 2 with step = 1.76 * P / CFM.
    const auto r = serialChainEntryTemps(5, Watts(15.0), Cfm(6.0), Celsius(18.0));
    const double step =
        airTemperatureRise(Watts(15.0), Cfm(6.0)).value();
    EXPECT_NEAR(r.meanRise.value(), step * 2.0, 1e-9);
}

TEST(EntryModel, PaperExampleTenDegrees)
{
    // Sec. II-B: a 15 W part at 6 CFM shows ~10 C higher mean entry
    // temperature at degree of coupling 5 versus 1.
    const auto doc5 = serialChainEntryTemps(5, Watts(15.0), Cfm(6.0), Celsius(18.0));
    const auto doc1 = serialChainEntryTemps(1, Watts(15.0), Cfm(6.0), Celsius(18.0));
    EXPECT_NEAR(doc5.mean.value() - doc1.mean.value(), 10.0, 1.5);
}

TEST(EntryModel, MeanRiseGrowsWithCoupling)
{
    double last = -1.0;
    for (int doc : {1, 2, 3, 5, 11}) {
        const auto r = serialChainEntryTemps(doc, Watts(15.0), Cfm(6.0), Celsius(18.0));
        EXPECT_GT(r.meanRise.value(), last);
        last = r.meanRise.value();
    }
}

TEST(EntryModel, CovGrowsWithCoupling)
{
    // Fig. 5(b): inter-socket variation increases with the degree of
    // coupling.
    double last = -1.0;
    for (int doc : {1, 2, 3, 5, 11}) {
        const auto r = serialChainEntryTemps(doc, Watts(15.0), Cfm(6.0), Celsius(18.0));
        EXPECT_GT(r.cov, last - 1e-12);
        last = r.cov;
    }
}

TEST(EntryModel, CovGrowsWithPower)
{
    const auto lo = serialChainEntryTemps(5, Watts(5.0), Cfm(6.0), Celsius(18.0));
    const auto hi = serialChainEntryTemps(5, Watts(50.0), Cfm(6.0), Celsius(18.0));
    EXPECT_GT(hi.cov, lo.cov);
}

TEST(EntryModel, MoreAirflowLowersRise)
{
    const auto lo = serialChainEntryTemps(5, Watts(15.0), Cfm(2.0), Celsius(18.0));
    const auto hi = serialChainEntryTemps(5, Watts(15.0), Cfm(12.0), Celsius(18.0));
    EXPECT_GT(lo.meanRise.value(), hi.meanRise.value());
}

// ---------------------------------------- incremental/cached hot paths

TEST(CouplingMap, ApplyPowerDeltaMatchesFreshField)
{
    // Differential test of the incremental field update: a long
    // randomized sequence of per-socket power changes, folded into
    // the field one delta at a time, must track a from-scratch
    // ambientTemps() evaluation of the current power vector.
    const int n = 12;
    CouplingMap map(chainSites(n, 1.6, 12.7), CouplingParams{});
    std::vector<double> powers(n, 13.6);
    std::vector<double> temps = map.ambientTemps(powers, Celsius(18.0));

    std::uint64_t lcg = 12345;
    auto next_u = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (int step = 0; step < 500; ++step) {
        const auto s = static_cast<std::size_t>(next_u() % n);
        const double new_p =
            2.2 + static_cast<double>(next_u() % 1000) * 0.0134;
        map.applyPowerDelta(temps, s, powers[s], new_p);
        powers[s] = new_p;
    }
    const std::vector<double> fresh = map.ambientTemps(powers, Celsius(18.0));
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(temps[i], fresh[i], 1e-9) << "socket " << i;
}

TEST(CouplingMap, ApplyPowerDeltaZeroIsIdentity)
{
    const int n = 4;
    CouplingMap map(chainSites(n, 1.6, 12.7), CouplingParams{});
    const std::vector<double> powers(n, 10.0);
    std::vector<double> temps = map.ambientTemps(powers, Celsius(18.0));
    const std::vector<double> before = temps;
    map.applyPowerDelta(temps, 1, 10.0, 10.0);
    for (int i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(temps[i], before[i]);
}

RCNetwork
ladderNetwork()
{
    RCNetwork net;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 10; ++i) {
        std::string name("n");
        name += std::to_string(i);
        nodes.push_back(net.addNode(name, JoulePerKelvin(1.0)));
    }
    for (int i = 0; i + 1 < 10; ++i)
        net.connect(nodes[i], nodes[i + 1],
                    KelvinPerWatt(0.5 + 0.1 * i));
    net.connectAmbient(nodes[0], KelvinPerWatt(1.0));
    net.connectAmbient(nodes[9], KelvinPerWatt(2.0));
    return net;
}

TEST(RcNetwork, CachedSolveMatchesFreshNetwork)
{
    // Repeated solves reuse the factorization; every one of them must
    // match what a freshly built (unfactored) network produces for
    // the same right-hand side, and conserve energy.
    RCNetwork cached = ladderNetwork();
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<double> powers(10, 0.0);
        powers[trial % 10] = 3.0 + trial;
        powers[(3 * trial + 1) % 10] += 1.5;
        double injected = 0.0;
        for (double p : powers)
            injected += p;

        RCNetwork fresh = ladderNetwork();
        const auto want = fresh.steadyState(powers, Celsius(20.0));
        const auto got = cached.steadyState(powers, Celsius(20.0));
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_NEAR(got[i], want[i], 1e-9);
        EXPECT_NEAR(cached.ambientHeatFlow(got, Celsius(20.0)).value(), injected, 1e-9);
    }
}

TEST(RcNetwork, FactorizationInvalidatedByStructuralChange)
{
    // Solving, then growing the network, must not reuse the stale
    // factorization: results after the change have to match a fresh
    // network with the same final structure.
    RCNetwork grown = ladderNetwork();
    const auto warmup = grown.steadyState(std::vector<double>(10, 1.0), Celsius(20.0));
    ASSERT_EQ(warmup.size(), 10u);

    const NodeId extra = grown.addNode("extra", JoulePerKelvin(1.0));
    grown.connect(0, extra, KelvinPerWatt(0.8));
    grown.connectAmbient(extra, KelvinPerWatt(1.7));

    RCNetwork fresh = ladderNetwork();
    const NodeId fresh_extra = fresh.addNode("extra", JoulePerKelvin(1.0));
    fresh.connect(0, fresh_extra, KelvinPerWatt(0.8));
    fresh.connectAmbient(fresh_extra, KelvinPerWatt(1.7));

    std::vector<double> powers(11, 0.0);
    powers[4] = 6.0;
    powers[extra] = 2.0;
    const auto want = fresh.steadyState(powers, Celsius(18.0));
    const auto got = grown.steadyState(powers, Celsius(18.0));
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-9);
}

TEST(RcNetwork, StableStepCacheInvalidated)
{
    RCNetwork net;
    const NodeId a = net.addNode("a", JoulePerKelvin(1.0));
    net.connectAmbient(a, KelvinPerWatt(1.0));
    const double before = net.stableStep().value();
    EXPECT_DOUBLE_EQ(net.stableStep().value(), before); // Cached.

    // A second path to ambient halves the RC product at node a; the
    // cached step must be recomputed, not reused.
    net.connectAmbient(a, KelvinPerWatt(1.0));
    EXPECT_LT(net.stableStep().value(), before);
}

} // namespace
} // namespace densim
