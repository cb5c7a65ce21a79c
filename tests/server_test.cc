/**
 * @file
 * Unit tests for the server substrate: the SUT topology (Fig. 12
 * zone organization), geometry, sink assignment, the Fig. 3 two-
 * socket builds, and the Table I catalog.
 */

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "server/catalog.hh"
#include "server/sut.hh"
#include "server/topology.hh"
#include "util/rng.hh"

namespace densim {
namespace {

TEST(Topology, SutHas180Sockets)
{
    const ServerTopology sut = makeSutTopology();
    EXPECT_EQ(sut.numSockets(), 180u);
    EXPECT_EQ(sut.numRows(), 15);
    EXPECT_EQ(sut.socketsPerRow(), 12);
    EXPECT_EQ(sut.zonesPerRow(), 6);
}

TEST(Topology, SutDegreeOfCouplingMatchesDuctSharing)
{
    // 6 zones in series x 2 sockets per zone share one duct.
    EXPECT_EQ(makeSutTopology().degreeOfCoupling(), 12);
}

TEST(Topology, ZoneIdsSpanOneToSix)
{
    const ServerTopology sut = makeSutTopology();
    int min_zone = 99, max_zone = 0;
    for (std::size_t s = 0; s < sut.numSockets(); ++s) {
        min_zone = std::min(min_zone, sut.zoneIdOf(s));
        max_zone = std::max(max_zone, sut.zoneIdOf(s));
    }
    EXPECT_EQ(min_zone, 1);
    EXPECT_EQ(max_zone, 6);
}

TEST(Topology, EveryZoneHasThirtySockets)
{
    const ServerTopology sut = makeSutTopology();
    for (int zone = 1; zone <= 6; ++zone)
        EXPECT_EQ(sut.socketsInZone(zone).size(), 30u);
}

TEST(Topology, StreamPositionsMatchCartridgeGeometry)
{
    // Zones at 0, 1.6, 4.6, 6.2, 9.2, 10.8 inches: 1.6 in inside a
    // cartridge, 3 in across cartridge boundaries (Sec. IV-B).
    const ServerTopology sut = makeSutTopology();
    const std::vector<double> expected{0.0, 1.6, 4.6, 6.2, 9.2, 10.8};
    for (int zone = 1; zone <= 6; ++zone) {
        const auto sockets = sut.socketsInZone(zone);
        for (std::size_t s : sockets)
            EXPECT_NEAR(sut.streamPosOf(s), expected[zone - 1], 1e-9);
    }
}

TEST(Topology, OddZones18FinEvenZones30Fin)
{
    const ServerTopology sut = makeSutTopology();
    for (std::size_t s = 0; s < sut.numSockets(); ++s) {
        if (sut.zoneIdOf(s) % 2 == 1) {
            EXPECT_EQ(sut.sinkOf(s).finCount, 18);
        }
        else
            EXPECT_EQ(sut.sinkOf(s).finCount, 30);
    }
}

TEST(Topology, FrontHalfIsZonesOneToThree)
{
    const ServerTopology sut = makeSutTopology();
    for (std::size_t s = 0; s < sut.numSockets(); ++s)
        EXPECT_EQ(sut.inFrontHalf(s), sut.zoneIdOf(s) <= 3);
}

TEST(Topology, EvenZonePredicate)
{
    const ServerTopology sut = makeSutTopology();
    std::size_t even = 0;
    for (std::size_t s = 0; s < sut.numSockets(); ++s)
        even += sut.inEvenZone(s);
    EXPECT_EQ(even, 90u);
}

TEST(Topology, RowsPartitionSockets)
{
    const ServerTopology sut = makeSutTopology();
    std::size_t total = 0;
    for (int row = 0; row < sut.numRows(); ++row) {
        const auto sockets = sut.socketsInRow(row);
        total += sockets.size();
        for (std::size_t s : sockets)
            EXPECT_EQ(sut.rowOf(s), row);
    }
    EXPECT_EQ(total, sut.numSockets());
}

TEST(Topology, SocketIdsContiguousPerRow)
{
    // CP's row scan relies on idle ids of one row being contiguous.
    const ServerTopology sut = makeSutTopology();
    for (std::size_t s = 0; s + 1 < sut.numSockets(); ++s)
        EXPECT_LE(sut.rowOf(s), sut.rowOf(s + 1));
}

TEST(Topology, SitesMatchGeometry)
{
    const ServerTopology sut = makeSutTopology();
    const auto sites = sut.sites();
    ASSERT_EQ(sites.size(), sut.numSockets());
    for (std::size_t s = 0; s < sites.size(); ++s) {
        EXPECT_EQ(sites[s].duct, sut.rowOf(s));
        EXPECT_NEAR(sites[s].streamPosInch, sut.streamPosOf(s), 1e-12);
        EXPECT_NEAR(sites[s].ductCfm.value(), 12.70, 1e-9);
    }
}

TEST(Topology, ZoneCfmFromTableIII)
{
    EXPECT_NEAR(makeSutTopology().zoneCfm().value(), 2 * 6.35, 1e-9);
}

TEST(Topology, TwoSocketCoupledIsOneDuct)
{
    const ServerTopology coupled = makeTwoSocketCoupled();
    EXPECT_EQ(coupled.numSockets(), 2u);
    EXPECT_EQ(coupled.rowOf(0), coupled.rowOf(1));
    EXPECT_LT(coupled.streamPosOf(0), coupled.streamPosOf(1));
    EXPECT_EQ(coupled.sinkOf(0).finCount, 18);
    EXPECT_EQ(coupled.sinkOf(1).finCount, 30);
}

TEST(Topology, TwoSocketUncoupledIsTwoDucts)
{
    const ServerTopology uncoupled = makeTwoSocketUncoupled();
    EXPECT_EQ(uncoupled.numSockets(), 2u);
    EXPECT_NE(uncoupled.rowOf(0), uncoupled.rowOf(1));
    // Same sink mix as the coupled build.
    EXPECT_EQ(uncoupled.sinkOf(0).finCount, 18);
    EXPECT_EQ(uncoupled.sinkOf(1).finCount, 30);
}

TEST(Topology, CouplingMapsReflectCoupling)
{
    const CouplingParams params = defaultCouplingParams();
    const CouplingMap coupled =
        makeCouplingMap(makeTwoSocketCoupled(), params);
    const CouplingMap uncoupled =
        makeCouplingMap(makeTwoSocketUncoupled(), params);
    EXPECT_GT(coupled.coeff(0, 1).value(), 0.0);
    EXPECT_DOUBLE_EQ(uncoupled.coeff(0, 1).value(), 0.0);
}

/**
 * Seven stacked two-socket rows with the vertical leak on, so rows
 * also reach into neighbouring ducts.
 */
CouplingMap
leakyRowsMap()
{
    std::vector<SocketSite> sites;
    for (int row = 0; row < 7; ++row)
        for (int k = 0; k < 2; ++k)
            sites.push_back(SocketSite{k * 5.0, row, Cfm(12.7)});
    CouplingParams leaky;
    leaky.verticalLeak = 0.45;
    return CouplingMap(sites, leaky);
}

/**
 * Every run row of @p map is its coefficient-matrix row: the lanes of
 * its runs are exactly the sockets with a nonzero coeff(from, ·),
 * ascending; every lane's coeff and airCoeff are its run's; a run has
 * one or two lanes, paired left to right, so a lone lane never has a
 * next socket with bit-equal coefficients in the same row; and the
 * wake factor relates coeff and airCoeff exactly for every pair.
 */
void
expectRunsMatchCoefficients(const CouplingMap &map)
{
    const double wake = map.params().wakeFactor;
    for (std::size_t from = 0; from < map.size(); ++from) {
        std::vector<std::size_t> nonzero;
        for (std::size_t to = 0; to < map.size(); ++to) {
            const double amb = map.coeff(from, to).value();
            ASSERT_EQ(amb, map.airCoeff(from, to).value() * wake)
                << "socket " << from << " -> " << to;
            if (amb != 0.0)
                nonzero.push_back(to);
        }
        const std::span<const CouplingRun> runs = map.runs(from);
        std::vector<std::size_t> lanes;
        for (std::size_t k = 0; k < runs.size(); ++k) {
            const CouplingRun &run = runs[k];
            ASSERT_TRUE(run.lanes == 1 || run.lanes == 2)
                << "socket " << from << " run " << k;
            const double air = map.airCoeff(from, run.first).value();
            for (std::size_t lane = 0; lane < run.lanes; ++lane) {
                const std::size_t to = run.first + lane;
                lanes.push_back(to);
                EXPECT_EQ(run.amb, map.coeff(from, to).value())
                    << "socket " << from << " -> " << to;
                EXPECT_EQ(air, map.airCoeff(from, to).value())
                    << "socket " << from << " -> " << to;
            }
            if (run.lanes == 1 && k + 1 < runs.size() &&
                runs[k + 1].first == run.first + 1) {
                EXPECT_FALSE(runs[k + 1].amb == run.amb &&
                             map.airCoeff(from, run.first + 1).value() ==
                                 air)
                    << "socket " << from << ": " << run.first
                    << " left unpaired";
            }
        }
        ASSERT_EQ(lanes, nonzero) << "socket " << from;
    }
}

TEST(CouplingMap, CsrRowsMatchCoefficientMatrix)
{
    expectRunsMatchCoefficients(
        makeCouplingMap(makeSutTopology(), defaultCouplingParams()));
    expectRunsMatchCoefficients(leakyRowsMap());
}

/**
 * The field evaluators of @p map agree with its per-socket coefficient
 * sums: under seeded random powers every entry temperature is the
 * inlet plus the airCoeff column sum, and every ambient the inlet plus
 * the coeff column sum plus the kappaLocal self term.
 */
void
expectFieldsMatchCoefficients(const CouplingMap &map)
{
    const std::size_t n = map.size();
    const double inlet = 18.0;
    Rng rng(0x5eedu);
    std::vector<double> powers(n);
    for (double &p : powers)
        p = rng.uniform(0.0, 25.0);
    const std::vector<double> entry = map.entryTemps(powers, Celsius(inlet));
    const std::vector<double> ambient =
        map.ambientTemps(powers, Celsius(inlet));
    for (std::size_t i = 0; i < n; ++i) {
        double air_sum = inlet;
        double amb_sum = inlet;
        for (std::size_t j = 0; j < n; ++j) {
            air_sum += map.airCoeff(j, i).value() * powers[j];
            amb_sum += map.coeff(j, i).value() * powers[j];
        }
        amb_sum += map.kappaLocal().value() * powers[i];
        EXPECT_NEAR(entry[i], air_sum, 1e-12) << "socket " << i;
        EXPECT_NEAR(ambient[i], amb_sum, 1e-12) << "socket " << i;
    }
}

TEST(CouplingMap, VectorAndScalarEntryAgree)
{
    expectFieldsMatchCoefficients(
        makeCouplingMap(makeSutTopology(), defaultCouplingParams()));
    expectFieldsMatchCoefficients(leakyRowsMap());
}

TEST(Topology, SinkOverride)
{
    ServerTopology topo = makeSutTopology();
    EXPECT_EQ(topo.sinkOf(0).finCount, 18);
    topo.overrideSink(0, HeatSink::fin30());
    EXPECT_EQ(topo.sinkOf(0).finCount, 30);
    EXPECT_EQ(topo.sinkOf(1).finCount, 18); // zone-1 partner unchanged
}

TEST(Topology, InvalidSpecIsFatal)
{
    TopologySpec bad_spec;
    bad_spec.rows = 0;
    EXPECT_EXIT({ ServerTopology topo(bad_spec); (void)topo; },
                ::testing::ExitedWithCode(1), "counts");
}

TEST(Catalog, ElevenSystems)
{
    EXPECT_EQ(densityOptimizedSystems().size(), 11u);
}

TEST(Catalog, M700RowMatchesPaper)
{
    const auto &systems = densityOptimizedSystems();
    const auto m700 = std::find_if(
        systems.begin(), systems.end(), [](const SystemRecord &r) {
            return r.details == "ProLiant M700";
        });
    ASSERT_NE(m700, systems.end());
    EXPECT_EQ(m700->totalSockets, 180);
    EXPECT_EQ(m700->dimensionsU, 4);
    EXPECT_NEAR(m700->socketsPerU(), 45.0, 1e-9);
    EXPECT_NEAR(m700->socketTdpW, 22.0, 1e-9);
    EXPECT_EQ(m700->degreeOfCoupling, 5);
    EXPECT_EQ(m700->cpu, "AMD Opteron X2150");
}

TEST(Catalog, DensityRangeMatchesPaper)
{
    // Table I: socket density spans ~4 to 72 sockets per U.
    double min_d = 1e9, max_d = 0.0;
    for (const SystemRecord &r : densityOptimizedSystems()) {
        min_d = std::min(min_d, r.socketsPerU());
        max_d = std::max(max_d, r.socketsPerU());
    }
    EXPECT_NEAR(min_d, 4.0, 0.5);
    EXPECT_NEAR(max_d, 72.0, 0.5);
}

TEST(Catalog, TdpRangeMatchesPaper)
{
    // Socket power from 5 W to 140 W.
    double min_p = 1e9, max_p = 0.0;
    for (const SystemRecord &r : densityOptimizedSystems()) {
        min_p = std::min(min_p, r.socketTdpW);
        max_p = std::max(max_p, r.socketTdpW);
    }
    EXPECT_DOUBLE_EQ(min_p, 5.0);
    EXPECT_DOUBLE_EQ(max_p, 140.0);
}

TEST(Catalog, MaxCouplingIsRedstone11)
{
    EXPECT_EQ(maxCatalogCoupling(), 11);
}

TEST(Catalog, HigherDensityTendsToLowerTdp)
{
    // The paper notes systems with higher socket densities use lower
    // power sockets; check the rank correlation is negative.
    const auto &systems = densityOptimizedSystems();
    double concordant = 0, discordant = 0;
    for (std::size_t i = 0; i < systems.size(); ++i) {
        for (std::size_t j = i + 1; j < systems.size(); ++j) {
            const double dd =
                systems[i].socketsPerU() - systems[j].socketsPerU();
            const double dp =
                systems[i].socketTdpW - systems[j].socketTdpW;
            if (dd * dp < 0)
                ++concordant;
            else if (dd * dp > 0)
                ++discordant;
        }
    }
    EXPECT_GT(concordant, discordant);
}

} // namespace
} // namespace densim
