/**
 * @file
 * Unit tests for the power substrate: P-state table, leakage model,
 * and the DVFS decisions of the power manager (steady, responsive,
 * capped/boost-dwell variants, and the exact feasibility limits and
 * table decisions the engine answers its searches from).
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "power/pstate.hh"
#include "sched/prediction.hh"
#include "workload/benchmark.hh"
#include "workload/curves.hh"

namespace densim {
namespace {

TEST(PState, X2150TableMatchesDatasheet)
{
    const auto &table = PStateTable::x2150();
    ASSERT_EQ(table.size(), 5u);
    EXPECT_DOUBLE_EQ(table.slowest().freqMhz, 1100.0);
    EXPECT_DOUBLE_EQ(table.fastest().freqMhz, 1900.0);
    EXPECT_FALSE(table.slowest().boost);
    EXPECT_TRUE(table.fastest().boost);
}

TEST(PState, StepsAre200Mhz)
{
    const auto &table = PStateTable::x2150();
    for (std::size_t i = 1; i < table.size(); ++i)
        EXPECT_DOUBLE_EQ(table.at(i).freqMhz - table.at(i - 1).freqMhz,
                         200.0);
}

TEST(PState, HighestSustainedIs1500)
{
    const auto &table = PStateTable::x2150();
    const std::size_t idx = table.highestSustainedIndex();
    EXPECT_DOUBLE_EQ(table.at(idx).freqMhz, 1500.0);
    EXPECT_FALSE(table.at(idx).boost);
    EXPECT_TRUE(table.at(idx + 1).boost);
}

TEST(PState, RelativeFrequency)
{
    const auto &table = PStateTable::x2150();
    EXPECT_DOUBLE_EQ(table.relativeFreq(4), 1.0);
    EXPECT_NEAR(table.relativeFreq(0), 1100.0 / 1900.0, 1e-12);
}

TEST(PState, NonAscendingIsFatal)
{
    EXPECT_EXIT(PStateTable(std::vector<PState>{{1500.0, false},
                                                {1300.0, false}}),
                ::testing::ExitedWithCode(1), "ascending");
}

TEST(PState, BoostBelowSustainedIsFatal)
{
    EXPECT_EXIT(PStateTable(std::vector<PState>{{1300.0, true},
                                                {1500.0, false}}),
                ::testing::ExitedWithCode(1), "boost");
}

TEST(PState, AllBoostIsFatal)
{
    EXPECT_EXIT(PStateTable({{1700.0, true}, {1900.0, true}}),
                ::testing::ExitedWithCode(1), "all states are boost");
}

TEST(Leakage, ThirtyPercentOfTdpAtReference)
{
    const LeakageModel &leak = LeakageModel::x2150();
    EXPECT_NEAR(leak.at(Celsius(90.0)).value(), 0.30 * 22.0, 1e-9);
    EXPECT_DOUBLE_EQ(leak.atRef().value(), 6.6);
}

TEST(Leakage, GrowsWithTemperature)
{
    const LeakageModel &leak = LeakageModel::x2150();
    EXPECT_GT(leak.at(Celsius(95.0)).value(), leak.at(Celsius(90.0)).value());
    EXPECT_LT(leak.at(Celsius(60.0)).value(), leak.at(Celsius(90.0)).value());
}

TEST(Leakage, LinearSlopeAroundReference)
{
    const LeakageModel &leak = LeakageModel::x2150();
    const double slope = (leak.at(Celsius(91.0)).value() - leak.at(Celsius(89.0)).value()) / 2.0;
    EXPECT_NEAR(slope, 6.6 * 0.012, 1e-9);
}

TEST(Leakage, FloorsAtColdTemperatures)
{
    const LeakageModel &leak = LeakageModel::x2150();
    EXPECT_NEAR(leak.at(Celsius(-100.0)).value(), 0.2 * 6.6, 1e-9);
}

class PowerManagerTest : public ::testing::Test
{
  protected:
    PowerManagerTest()
        : pm_(PStateTable::x2150(), SimplePeakModel(), Celsius(95.0),
              0.10)
    {
    }

    PowerManager pm_;
    const LeakageModel &leak_ = LeakageModel::x2150();
    const FreqCurve &comp_ = freqCurveFor(WorkloadSet::Computation);
};

TEST_F(PowerManagerTest, CoolAmbientAllowsBoost)
{
    const DvfsDecision d =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(20.0), HeatSink::fin18());
    EXPECT_DOUBLE_EQ(d.freqMhz, 1900.0);
    EXPECT_TRUE(d.feasible);
}

TEST_F(PowerManagerTest, HotAmbientThrottles)
{
    const DvfsDecision cool =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(30.0), HeatSink::fin18());
    const DvfsDecision hot =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(65.0), HeatSink::fin18());
    EXPECT_LT(hot.freqMhz, cool.freqMhz);
}

TEST_F(PowerManagerTest, FrequencyMonotoneInAmbient)
{
    double last = 1e9;
    for (double amb = 20.0; amb <= 90.0; amb += 2.5) {
        const DvfsDecision d =
            pm_.chooseAtAmbient(comp_, leak_, Celsius(amb), HeatSink::fin18());
        EXPECT_LE(d.freqMhz, last);
        last = d.freqMhz;
    }
}

TEST_F(PowerManagerTest, InfeasibleFallsToSlowestState)
{
    const DvfsDecision d =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(94.0), HeatSink::fin18());
    EXPECT_DOUBLE_EQ(d.freqMhz, 1100.0);
    EXPECT_FALSE(d.feasible);
}

TEST_F(PowerManagerTest, FeasibleDecisionRespectsLimit)
{
    for (double amb = 20.0; amb <= 80.0; amb += 5.0) {
        const DvfsDecision d =
            pm_.chooseAtAmbient(comp_, leak_, Celsius(amb), HeatSink::fin30());
        if (d.feasible) {
            EXPECT_LE(d.predictedPeak.value(), 95.0 + 1e-9);
        }
    }
}

TEST_F(PowerManagerTest, BetterSinkSustainsHigherFrequency)
{
    // At an ambient where the 18-fin sink throttles, the 30-fin sink
    // should hold a higher state — the Sec. II design rationale.
    const double amb = 62.0;
    const DvfsDecision d18 =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(amb), HeatSink::fin18());
    const DvfsDecision d30 =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(amb), HeatSink::fin30());
    EXPECT_GT(d30.freqMhz, d18.freqMhz);
}

TEST_F(PowerManagerTest, CappedSearchNeverBoosts)
{
    const std::size_t sustained =
        PStateTable::x2150().highestSustainedIndex();
    for (double amb = 20.0; amb <= 80.0; amb += 10.0) {
        const DvfsDecision d = pm_.chooseAtAmbientCapped(
            comp_, leak_, Celsius(amb), HeatSink::fin18(), sustained);
        EXPECT_LE(d.freqMhz, 1500.0);
    }
}

TEST_F(PowerManagerTest, CappedEqualsUncappedWhenFullRange)
{
    for (double amb = 20.0; amb <= 80.0; amb += 7.0) {
        const DvfsDecision a =
            pm_.chooseAtAmbient(comp_, leak_, Celsius(amb), HeatSink::fin30());
        const DvfsDecision b = pm_.chooseAtAmbientCapped(
            comp_, leak_, Celsius(amb), HeatSink::fin30(), 4);
        EXPECT_EQ(a.pstate, b.pstate);
    }
}

TEST_F(PowerManagerTest, LeakageCompensationSecondPass)
{
    // The decision's power must reflect leakage at the *predicted*
    // temperature, not the 90 C characterization point.
    const DvfsDecision d =
        pm_.chooseAtAmbient(comp_, leak_, Celsius(20.0), HeatSink::fin30());
    const double dyn =
        pm_.dynamicPower(comp_, leak_, d.pstate).value();
    // powerW carries leakage at the first-pass temperature estimate;
    // the second-pass temperature is slightly cooler, so allow the
    // one-iteration gap.
    EXPECT_NEAR(d.power.value(),
                dyn + leak_.at(d.predictedPeak).value(), 0.5);
    // Predicted peak is well below 90 C here, so power is below the
    // 90 C characterization value.
    EXPECT_LT(d.power.value(), comp_.totalPowerAt90C[d.pstate]);
}

TEST_F(PowerManagerTest, DynamicPowerPositiveAndIncreasing)
{
    double last = 0.0;
    for (std::size_t i = 0; i < PStateTable::x2150().size(); ++i) {
        const double dyn =
            pm_.dynamicPower(comp_, leak_, i).value();
        EXPECT_GT(dyn, 0.0);
        EXPECT_GT(dyn, last);
        last = dyn;
    }
}

TEST_F(PowerManagerTest, GatedPowerIsTenPercentTdp)
{
    EXPECT_NEAR(pm_.gatedPower(leak_).value(), 2.2, 1e-9);
}

TEST_F(PowerManagerTest, StorageNeverThrottlesAtModerateAmbient)
{
    // Storage draws 10.5 W at most — it holds boost at ambients that
    // throttle Computation (the Sec. V "muted Storage behaviour").
    const auto &storage = freqCurveFor(WorkloadSet::Storage);
    const DvfsDecision d =
        pm_.chooseAtAmbient(storage, leak_, Celsius(60.0), HeatSink::fin18());
    EXPECT_DOUBLE_EQ(d.freqMhz, 1900.0);
}

TEST_F(PowerManagerTest, WrongCurveSizePanics)
{
    FreqCurve bad;
    bad.totalPowerAt90C = {10.0, 11.0};
    bad.perfRel = {0.9, 1.0};
    EXPECT_DEATH(pm_.chooseAtAmbient(bad, leak_, Celsius(30.0),
                                     HeatSink::fin18()),
                 "P-states");
}

/** Every (sink, workload set) pair the engine builds limits for. */
struct LimitRow
{
    const HeatSink *sink;
    WorkloadSet set;
};

std::vector<LimitRow>
limitRows()
{
    std::vector<LimitRow> rows;
    for (const HeatSink *sink : {&HeatSink::fin18(), &HeatSink::fin30()})
        for (const WorkloadSet set : allWorkloadSets())
            rows.push_back({sink, set});
    return rows;
}

TEST_F(PowerManagerTest, FeasibilityLimitIsTheLastFeasibleDouble)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const LimitRow &row : limitRows()) {
        const FreqCurve &curve = freqCurveFor(row.set);
        for (std::size_t i = 0; i < pm_.pstates().size(); ++i) {
            SCOPED_TRACE(row.sink->name + " " +
                         workloadSetName(row.set) + " state " +
                         std::to_string(i));
            const double limit =
                pm_.feasibilityLimit(curve, leak_, *row.sink, i).value();
            ASSERT_TRUE(std::isfinite(limit));
            EXPECT_TRUE(pm_.feasibleAt(curve, leak_, Celsius(limit),
                                       *row.sink, i));
            EXPECT_FALSE(pm_.feasibleAt(curve, leak_,
                                        Celsius(std::nextafter(limit, inf)),
                                        *row.sink, i));
            // Monotone around the edge, bit by bit: the limit splits
            // feasible from infeasible, not just two neighbours.
            double below = limit;
            double above = limit;
            for (int k = 0; k < 64; ++k) {
                below = std::nextafter(below, -inf);
                above = std::nextafter(above, inf);
                EXPECT_TRUE(pm_.feasibleAt(curve, leak_, Celsius(below),
                                           *row.sink, i));
                EXPECT_FALSE(pm_.feasibleAt(curve, leak_, Celsius(above),
                                            *row.sink, i));
            }
        }
    }
}

TEST_F(PowerManagerTest, LimitWalkMatchesCappedSearch)
{
    // One table over both sinks: socket 0 carries the 18-fin sink,
    // socket 1 the 30-fin one. Every cap the engine's dvfsCap hands
    // out: the emergency throttle's 0, the sustained and the boost
    // cap. The engine reads every DVFS decision off this table.
    const std::vector<const HeatSink *> sinks = {&HeatSink::fin18(),
                                                 &HeatSink::fin30()};
    FeasibilityTable table;
    table.build(pm_, leak_, sinks);
    const std::size_t caps[] = {0, pm_.pstates().highestSustainedIndex(),
                                pm_.pstates().size() - 1};
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < sinks.size(); ++s) {
        for (const WorkloadSet set : allWorkloadSets()) {
            const FreqCurve &curve = freqCurveFor(set);
            const double *limits = table.row(s, set);
            for (std::size_t i = 0; i < pm_.pstates().size(); ++i)
                ASSERT_EQ(limits[i],
                          pm_.feasibilityLimit(curve, leak_, *sinks[s], i)
                              .value());
            // A fine ambient sweep plus every limit and its
            // neighbours, where an off-by-one-bit walk would first
            // disagree.
            std::vector<double> ambients;
            for (int k = 0; k <= 7500; ++k)
                ambients.push_back(20.0 + 0.01 * k);
            for (std::size_t i = 0; i < pm_.pstates().size(); ++i) {
                double below = limits[i];
                double above = limits[i];
                for (int k = 0; k < 3; ++k) {
                    ambients.push_back(below);
                    ambients.push_back(above);
                    below = std::nextafter(below, -inf);
                    above = std::nextafter(above, inf);
                }
            }
            for (const std::size_t cap : caps) {
                SCOPED_TRACE(sinks[s]->name + " " + workloadSetName(set) +
                             " cap " + std::to_string(cap));
                for (const double amb : ambients) {
                    const DvfsDecision ref = pm_.chooseAtAmbientCapped(
                        curve, leak_, Celsius(amb), *sinks[s], cap);
                    const DvfsDecision got =
                        table.decide(s, set, Celsius(amb), cap);
                    ASSERT_EQ(PowerManager::highestFeasible(
                                  limits, Celsius(amb), cap),
                              ref.pstate)
                        << "ambient " << amb;
                    EXPECT_EQ(got.pstate, ref.pstate);
                    EXPECT_EQ(got.freqMhz, ref.freqMhz);
                    EXPECT_EQ(got.power.value(), ref.power.value());
                    EXPECT_EQ(got.predictedPeak.value(),
                              ref.predictedPeak.value());
                    EXPECT_EQ(got.feasible, ref.feasible);
                }
            }
        }
    }
}

} // namespace
} // namespace densim
