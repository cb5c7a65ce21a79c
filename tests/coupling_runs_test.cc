/**
 * @file
 * The coupling map's run layout against the naive per-entry
 * references of coupling_reference.hh, on the SUT, a fan-derated SUT,
 * an uncoupled (degree-1) chassis and zones of three and four
 * sockets; and the SUT's coupling under relabelings that its
 * geometry leaves unchanged.
 */

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "coupling_reference.hh"
#include "server/sut.hh"

namespace densim {
namespace {

using coupling_reference::expectRunsMatchReferences;
using coupling_reference::twins;

/** A spec with @p sockets_per_zone and the SUT's other dimensions. */
TopologySpec
zonesOf(int sockets_per_zone)
{
    TopologySpec spec;
    spec.socketsPerZone = sockets_per_zone;
    return spec;
}

/** Lanes per run over every row of @p map: [1] singles, [2] pairs. */
std::array<std::size_t, 3>
laneHistogram(const CouplingMap &map)
{
    std::array<std::size_t, 3> count{};
    for (std::size_t s = 0; s < map.size(); ++s)
        for (const CouplingRun &run : map.runs(s))
            ++count[run.lanes];
    return count;
}

TEST(CouplingRuns, SutPairsEveryEntryAndZoneSocketsAreTwins)
{
    const ServerTopology sut = makeSutTopology();
    const CouplingMap map = makeCouplingMap(sut, defaultCouplingParams());
    // 5,580 entries, all in bit-equal adjacent pairs.
    const std::array<std::size_t, 3> lanes = laneHistogram(map);
    EXPECT_EQ(lanes[1], 0u);
    EXPECT_EQ(lanes[2], 2790u);
    for (std::size_t s = 0; s < map.size(); s += 2)
        EXPECT_TRUE(twins(map, s)) << "socket " << s;
    expectRunsMatchReferences(sut, map, 0xc0u);
}

TEST(CouplingRuns, FanDeratedSutMatchesReferences)
{
    // The engine's derated map at 60 % flow (deratedCoupling).
    const ServerTopology sut = makeSutTopology();
    std::vector<SocketSite> sites = sut.sites();
    for (SocketSite &site : sites)
        site.ductCfm = Cfm(site.ductCfm.value() * 0.6);
    CouplingParams params = defaultCouplingParams();
    params.kappaLocal /= 0.6;
    const CouplingMap map(std::move(sites), params);
    EXPECT_EQ(laneHistogram(map)[1], 0u);
    expectRunsMatchReferences(sut, map, 0xc1u);
}

TEST(CouplingRuns, DegreeOneTopologyHasNoRuns)
{
    TopologySpec spec;
    spec.cartridgesPerRow = 1;
    spec.zonesPerCartridge = 1;
    spec.socketsPerZone = 1;
    const ServerTopology topo(spec);
    const CouplingMap map(topo.sites(), defaultCouplingParams());
    ASSERT_EQ(map.size(), 15u);
    EXPECT_EQ(laneHistogram(map), (std::array<std::size_t, 3>{}));
    expectRunsMatchReferences(topo, map, 0xc2u);
}

TEST(CouplingRuns, ZonesOfThreeSplitTwoPlusOne)
{
    const ServerTopology topo(zonesOf(3));
    const CouplingMap map(topo.sites(), defaultCouplingParams());
    const std::array<std::size_t, 3> lanes = laneHistogram(map);
    EXPECT_GT(lanes[2], 0u);
    EXPECT_EQ(lanes[1], lanes[2]);
    for (std::size_t s = 0; s < map.size(); ++s)
        for (const CouplingRun &run : map.runs(s))
            EXPECT_EQ(run.lanes, run.first % 3 == 0 ? 2u : 1u)
                << "socket " << s << " run at " << run.first;
    expectRunsMatchReferences(topo, map, 0xc3u);
}

TEST(CouplingRuns, ZonesOfFourSplitTwoPlusTwo)
{
    const ServerTopology topo(zonesOf(4));
    const CouplingMap map(topo.sites(), defaultCouplingParams());
    const std::array<std::size_t, 3> lanes = laneHistogram(map);
    EXPECT_GT(lanes[2], 0u);
    EXPECT_EQ(lanes[1], 0u);
    expectRunsMatchReferences(topo, map, 0xc4u);
}

/** Distance in units in the last place between two finite doubles of
 *  the same sign. */
std::uint64_t
ulpDistance(double a, double b)
{
    std::int64_t x = 0;
    std::int64_t y = 0;
    std::memcpy(&x, &a, sizeof a);
    std::memcpy(&y, &b, sizeof b);
    return x > y ? static_cast<std::uint64_t>(x - y)
                 : static_cast<std::uint64_t>(y - x);
}

/**
 * Largest ulp distance between coeff(σ(a), σ(b)) and coeff(a, b)
 * over every socket pair of @p map, and how many pairs differ.
 */
template <class Relabel>
std::pair<std::uint64_t, int>
relabelingGap(const CouplingMap &map, Relabel sigma)
{
    std::uint64_t worst = 0;
    int differ = 0;
    for (std::size_t a = 0; a < map.size(); ++a) {
        for (std::size_t b = 0; b < map.size(); ++b) {
            const double want = map.coeff(a, b).value();
            const double got = map.coeff(sigma(a), sigma(b)).value();
            EXPECT_EQ(got == 0.0, want == 0.0) << a << " -> " << b;
            if (got != want) {
                ++differ;
                worst = std::max(worst, ulpDistance(got, want));
            }
        }
    }
    return {worst, differ};
}

TEST(Metamorphic, ZoneSocketSwapKeepsSutCouplingBitForBit)
{
    // The two sockets of a zone share a duct station, so swapping
    // them in every zone changes no coefficient.
    const ServerTopology sut = makeSutTopology();
    const CouplingMap map = makeCouplingMap(sut, defaultCouplingParams());
    const auto [worst, differ] =
        relabelingGap(map, [](std::size_t s) { return s ^ 1u; });
    EXPECT_EQ(differ, 0);
    EXPECT_EQ(worst, 0u);
}

TEST(Metamorphic, RowMirrorKeepsSutCouplingWithinFourUlp)
{
    // Mirroring the rows (r -> 14 - r) maps the chassis onto itself,
    // but the leak normalization sums its weights in ascending row
    // order, so a mirrored row's sum can round differently: a few
    // hundred pairs differ in their last bits (DESIGN.md Sec. 12.2).
    const ServerTopology sut = makeSutTopology();
    const CouplingMap map = makeCouplingMap(sut, defaultCouplingParams());
    const auto per_row = static_cast<std::size_t>(sut.socketsPerRow());
    const std::size_t rows = static_cast<std::size_t>(sut.numRows());
    const auto [worst, differ] =
        relabelingGap(map, [&](std::size_t s) {
            return (rows - 1 - s / per_row) * per_row + s % per_row;
        });
    EXPECT_LE(worst, 4u);
    EXPECT_GT(differ, 0) << "the mirror is now exact: update DESIGN.md "
                            "Sec. 12.2 and tighten this test";
    RecordProperty("pairs_differing", differ);
    RecordProperty("worst_ulp", static_cast<int>(worst));
}

} // namespace
} // namespace densim
